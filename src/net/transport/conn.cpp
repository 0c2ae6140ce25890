#include "net/transport/conn.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>

namespace str::net {

int set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void close_fd(int& fd) {
  if (fd < 0) return;
  // Linux never leaves the fd open on EINTR; retrying close would race a
  // concurrent open reusing the number.
  ::close(fd);
  fd = -1;
}

IoResult flush_conn(Conn& c, std::uint64_t& frames, std::uint64_t& bytes) {
  while (!c.outq.empty()) {
    struct iovec iov[kMaxIov];
    std::size_t n = 0;
    std::size_t batched = 0;
    for (auto it = c.outq.begin(); it != c.outq.end() && n < kMaxIov;
         ++it, ++n) {
      const std::size_t off = n == 0 ? c.head_off : 0;
      iov[n].iov_base = it->data() + off;
      iov[n].iov_len = it->size() - off;
      batched += iov[n].iov_len;
    }
    struct msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = n;
    // MSG_NOSIGNAL: a peer that reset the connection must surface as EPIPE
    // for the poll round to handle, not kill the process with SIGPIPE.
    const ssize_t w = ::sendmsg(c.fd, &mh, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
      return IoResult::kError;
    }
    bytes += static_cast<std::uint64_t>(w);
    auto taken = static_cast<std::size_t>(w);
    while (taken > 0) {
      const std::size_t head_rest = c.outq.front().size() - c.head_off;
      if (taken >= head_rest) {
        taken -= head_rest;
        c.outq.pop_front();
        c.head_off = 0;
        ++frames;
      } else {
        c.head_off += taken;
        taken = 0;
      }
    }
    // A short write means the send buffer is full; poll for POLLOUT.
    if (static_cast<std::size_t>(w) < batched) return IoResult::kOk;
  }
  return IoResult::kOk;
}

IoResult read_conn(Conn& c, std::uint8_t* buf, std::size_t buf_size,
                   const FrameSink& sink) {
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, buf_size, 0);
    if (n == 0) return IoResult::kClosed;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
      return IoResult::kError;
    }
    if (!c.assembler.feed(
            buf, static_cast<std::size_t>(n),
            [&](const std::uint8_t* f, std::size_t sz) { sink(f, sz); })) {
      return IoResult::kError;
    }
    // A partial read means the socket is drained; a full buffer means a
    // coalesced burst may still be waiting — go around again.
    if (static_cast<std::size_t>(n) < buf_size) return IoResult::kOk;
  }
}

}  // namespace str::net
