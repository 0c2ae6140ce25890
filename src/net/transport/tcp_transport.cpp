#include "net/transport/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include "common/assert.hpp"
#include "net/transport/conn.hpp"

namespace str::net {

namespace {
using Clock = TcpTransport::Clock;

/// Reconnect backoff (wall-clock milliseconds): the first retry after a
/// failed connect waits kBackoffInitMs, doubling per failure up to
/// kBackoffMaxMs.
constexpr std::uint32_t kBackoffInitMs = 1;
constexpr std::uint32_t kBackoffMaxMs = 200;
}  // namespace

/// One node's sockets: its listener, the connections it initiated (one per
/// peer) and the ones it accepted.
struct TcpTransport::Node {
  NodeId self = 0;
  int listen_fd = -1;
  bool pause_writes = false;

  /// Outbound connection lifecycle: frames for peer j only ever ride the
  /// connection this node initiated to j, so send order survives as long as
  /// the connection does.
  enum class OutState : std::uint8_t {
    kBackoff,     ///< no socket; retry connect at `retry_at`
    kConnecting,  ///< nonblocking connect in flight (await POLLOUT)
    kHandshake,   ///< connected; writing the 4-byte node-id preamble
    kUp,          ///< handshake done; frames flow
  };
  struct Out {
    Conn c;
    OutState st = OutState::kBackoff;
    Clock::time_point retry_at{};  // epoch: first attempt fires immediately
    std::uint32_t backoff_ms = kBackoffInitMs;
    std::size_t hs_off = 0;
    bool ever_up = false;
  };
  std::vector<Out> outs;  // indexed by peer; self slot never used

  /// Accepted connection; `peer` is unknown until the 4 handshake bytes
  /// arrive. Read-only after that: the initiator never reads replies here.
  struct In {
    Conn c;
    std::uint8_t hs[4] = {0, 0, 0, 0};
    std::size_t hs_got = 0;
  };
  std::vector<In> ins;

  /// An ESTABLISHED outbound connection died. Everything still queued —
  /// including a partially written head frame, rewound to offset 0 — is
  /// counted as resent (per tag byte) and kept for the replacement
  /// connection: at-least-once hand-off, deduped by the protocol layer.
  static void out_broken(Out& o, TransportStats& d) {
    ++d.disconnects;
    close_fd(o.c.fd);
    o.c.assembler.reset();
    o.c.head_off = 0;
    o.hs_off = 0;
    for (const auto& f : o.c.outq) {
      ++d.frames_resent;
      d.bytes_resent += f.size();
      ++d.resent_by_tag[f.size() > 4 ? f[4] : 0];
    }
    o.st = OutState::kBackoff;
    o.backoff_ms = kBackoffInitMs;
    o.retry_at = Clock::now();  // an established peer just spoke; retry now
  }

  /// A connect attempt failed before anything was established: plain
  /// backoff, no disconnect or resend accounting (nothing was ever offered).
  static void connect_fail(Out& o) {
    close_fd(o.c.fd);
    o.hs_off = 0;
    o.st = OutState::kBackoff;
    o.retry_at = Clock::now() + std::chrono::milliseconds(o.backoff_ms);
    o.backoff_ms = std::min(o.backoff_ms * 2, kBackoffMaxMs);
  }

  static void in_broken(In& in, TransportStats& d) {
    if (in.hs_got == sizeof in.hs) ++d.disconnects;
    if (in.c.assembler.mid_frame()) ++d.partial_frames_discarded;
    in.c.assembler.reset();
    close_fd(in.c.fd);
  }

  void attempt_connect(Out& o, std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      connect_fail(o);
      return;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    const int r =
        ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr);
    o.c.fd = fd;
    if (r == 0) {
      o.st = OutState::kHandshake;
      o.hs_off = 0;
    } else if (errno == EINPROGRESS) {
      o.st = OutState::kConnecting;
    } else {
      connect_fail(o);
    }
  }

  /// Write the id preamble; on completion the connection is up.
  void try_handshake(Out& o, TransportStats& d) const {
    const std::uint8_t hs[4] = {
        static_cast<std::uint8_t>(self & 0xff),
        static_cast<std::uint8_t>((self >> 8) & 0xff),
        static_cast<std::uint8_t>((self >> 16) & 0xff),
        static_cast<std::uint8_t>((self >> 24) & 0xff)};
    while (o.hs_off < sizeof hs) {
      const ssize_t w = ::send(o.c.fd, hs + o.hs_off, sizeof hs - o.hs_off,
                               MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // POLLOUT later
        connect_fail(o);
        return;
      }
      o.hs_off += static_cast<std::size_t>(w);
    }
    o.st = OutState::kUp;
    ++d.connects;
    if (o.ever_up) ++d.reconnects;
    o.ever_up = true;
    o.backoff_ms = kBackoffInitMs;
  }

  /// Take every pending connection off the listener's backlog.
  void accept_all() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN: backlog drained
      }
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      ins.emplace_back();
      ins.back().c.fd = fd;
    }
  }

  /// Read the peer's id preamble. False once the connection is closed (EOF,
  /// error, or an id that is not one of ours) or the id is still partial.
  bool read_handshake(In& in, std::size_t num_nodes, TransportStats& d) {
    while (in.hs_got < sizeof in.hs) {
      const ssize_t n =
          ::recv(in.c.fd, in.hs + in.hs_got, sizeof in.hs - in.hs_got, 0);
      if (n > 0) {
        in.hs_got += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
      in_broken(in, d);  // EOF or error before the preamble finished
      return false;
    }
    if (in.c.peer == kInvalidNode) {
      const std::uint32_t peer = static_cast<std::uint32_t>(in.hs[0]) |
                                 (static_cast<std::uint32_t>(in.hs[1]) << 8) |
                                 (static_cast<std::uint32_t>(in.hs[2]) << 16) |
                                 (static_cast<std::uint32_t>(in.hs[3]) << 24);
      if (peer >= num_nodes) {  // not one of ours: reject
        in_broken(in, d);
        return false;
      }
      in.c.peer = peer;
    }
    return true;
  }
};

TcpTransport::TcpTransport(TransportOptions options) : options_(options) {}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::start(std::uint32_t num_nodes, RxHandler rx) {
  STR_ASSERT_MSG(!started_, "TcpTransport::start called twice");
  STR_ASSERT(num_nodes >= 1);
  if (options_.base_port != 0 &&
      std::uint64_t{options_.base_port} + num_nodes - 1 > 65535) {
    throw std::runtime_error(
        "tcp transport: base port " + std::to_string(options_.base_port) +
        " leaves no room for " + std::to_string(num_nodes) +
        " nodes below port 65535");
  }
  ports_.assign(num_nodes, 0);
  // Every listener exists before the first connect attempt, so no connect
  // can ever race its destination's bind.
  std::vector<int> listen_fds(num_nodes, -1);
  auto fail = [&](const std::string& what) {
    const int err = errno;
    for (int& fd : listen_fds) close_fd(fd);
    throw std::runtime_error("tcp transport: " + what + ": " +
                             std::strerror(err));
  };
  for (NodeId i = 0; i < num_nodes; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    listen_fds[i] = fd;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const std::uint16_t want =
        options_.base_port == 0
            ? 0
            : static_cast<std::uint16_t>(options_.base_port + i);
    addr.sin_port = htons(want);
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
        0) {
      fail("bind 127.0.0.1:" + std::to_string(want));
    }
    if (::listen(fd, 128) != 0) fail("listen");
    struct sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) !=
        0) {
      fail("getsockname");
    }
    ports_[i] = ntohs(bound.sin_port);
    set_nonblocking(fd);
  }
  rx_ = std::move(rx);
  rbuf_.resize(kReadChunk);
  nodes_.resize(num_nodes);
  for (NodeId i = 0; i < num_nodes; ++i) {
    Node& n = nodes_[i];
    n.self = i;
    n.listen_fd = listen_fds[i];
    n.outs.resize(num_nodes);
    for (NodeId j = 0; j < num_nodes; ++j) n.outs[j].c.peer = j;
  }
  started_ = true;
}

void TcpTransport::send(NodeId from, NodeId to,
                        std::vector<std::uint8_t> frame) {
  STR_ASSERT_MSG(started_, "send before start");
  STR_ASSERT(from < nodes_.size() && to < nodes_.size());
  if (from == to) {
    loopback_.emplace_back(to, std::move(frame));
    return;
  }
  // Frames queue regardless of connection state; they wait out backoff and
  // handshake and flush once the connection is up.
  nodes_[from].outs[to].c.outq.push_back(std::move(frame));
}

void TcpTransport::deliver(NodeId to, const std::uint8_t* frame,
                           std::size_t size) {
  ++stats_.frames_received;
  stats_.bytes_received += size;
  rx_(to, std::vector<std::uint8_t>(frame, frame + size));
}

void TcpTransport::poll_once(Clock::time_point deadline) {
  STR_ASSERT_MSG(started_ && !stopped_, "poll_once outside start..stop");
  // Self-sends queued before this round; the ones the handler queues now
  // wait for the next.
  if (!loopback_.empty()) {
    for (auto& [to, frame] : std::exchange(loopback_, {})) {
      ++stats_.frames_sent;
      stats_.bytes_sent += frame.size();
      deliver(to, frame.data(), frame.size());
    }
  }

  // Flush and (re)connect, and collect every socket to wait on.
  pfds_.clear();
  refs_.clear();
  Clock::time_point wake = loopback_.empty() ? deadline : Clock::time_point{};
  const Clock::time_point now = Clock::now();
  for (Node& n : nodes_) {
    pfds_.push_back({n.listen_fd, POLLIN, 0});
    refs_.push_back({PollRef::Kind::kListen, n.self, 0});
    for (Node::Out& o : n.outs) {
      if (o.c.peer == n.self) continue;
      if (o.st == Node::OutState::kBackoff && o.retry_at <= now) {
        n.attempt_connect(o, ports_[o.c.peer]);
      }
      if (o.st == Node::OutState::kHandshake) n.try_handshake(o, stats_);
      if (o.st == Node::OutState::kUp && !n.pause_writes &&
          o.c.want_write() &&
          flush_conn(o.c, stats_.frames_sent, stats_.bytes_sent) ==
              IoResult::kError) {
        Node::out_broken(o, stats_);
      }
      short events = 0;
      switch (o.st) {
        case Node::OutState::kBackoff:
          wake = std::min(wake, o.retry_at);
          continue;
        case Node::OutState::kConnecting:
        case Node::OutState::kHandshake:
          events = POLLOUT;
          break;
        case Node::OutState::kUp:
          // POLLIN detects EOF/RST; the peer never talks on this connection.
          events = static_cast<short>(
              POLLIN | (!n.pause_writes && o.c.want_write() ? POLLOUT : 0));
          break;
      }
      pfds_.push_back({o.c.fd, events, 0});
      refs_.push_back({PollRef::Kind::kOut, n.self, o.c.peer});
    }
    for (std::size_t k = 0; k < n.ins.size(); ++k) {
      pfds_.push_back({n.ins[k].c.fd, POLLIN, 0});
      refs_.push_back({PollRef::Kind::kIn, n.self, k});
    }
  }

  const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::max(wake - Clock::now(), Clock::duration::zero()));
  struct timespec ts{};
  ts.tv_sec = static_cast<std::time_t>(wait.count() / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(wait.count() % 1'000'000'000);
  const int rc = ::ppoll(pfds_.data(), pfds_.size(), &ts, nullptr);
  if (rc < 0) {
    if (errno == EINTR) return;
    throw std::system_error(errno, std::generic_category(),
                            "tcp transport: ppoll");
  }
  if (rc == 0) return;

  for (std::size_t p = 0; p < pfds_.size(); ++p) {
    const struct pollfd& pfd = pfds_[p];
    if (pfd.revents == 0) continue;
    Node& n = nodes_[refs_[p].node];
    const auto sink = [this, &n](const std::uint8_t* f, std::size_t sz) {
      deliver(n.self, f, sz);
    };
    switch (refs_[p].kind) {
      case PollRef::Kind::kListen:
        n.accept_all();
        break;
      case PollRef::Kind::kOut: {
        Node::Out& o = n.outs[refs_[p].slot];
        if (o.c.fd != pfd.fd) break;  // replaced this round
        if (o.st == Node::OutState::kConnecting) {
          int err = 0;
          socklen_t len = sizeof err;
          if (::getsockopt(o.c.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
              err != 0) {
            Node::connect_fail(o);
          } else {
            o.st = Node::OutState::kHandshake;
            o.hs_off = 0;
            n.try_handshake(o, stats_);
          }
        } else if (o.st == Node::OutState::kUp &&
                   (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
                   read_conn(o.c, rbuf_.data(), rbuf_.size(), sink) !=
                       IoResult::kOk) {
          Node::out_broken(o, stats_);
        }
        // kHandshake POLLOUT: the next round's flush pass resumes the write.
        break;
      }
      case PollRef::Kind::kIn: {
        Node::In& in = n.ins[refs_[p].slot];
        if (in.c.fd != pfd.fd) break;
        if (n.read_handshake(in, nodes_.size(), stats_) &&
            read_conn(in.c, rbuf_.data(), rbuf_.size(), sink) !=
                IoResult::kOk) {
          Node::in_broken(in, stats_);
        }
        break;
      }
    }
  }
  for (Node& n : nodes_) {
    std::erase_if(n.ins, [](const Node::In& in) { return in.c.fd < 0; });
  }
}

void TcpTransport::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Account every frame that never made it out.
  for (Node& n : nodes_) {
    for (Node::Out& o : n.outs) {
      stats_.frames_dropped += o.c.outq.size();
      o.c.outq.clear();
      close_fd(o.c.fd);
    }
    for (Node::In& in : n.ins) {
      if (in.c.assembler.mid_frame()) ++stats_.partial_frames_discarded;
      close_fd(in.c.fd);
    }
    n.ins.clear();
    close_fd(n.listen_fd);
  }
  stats_.frames_dropped += loopback_.size();
  loopback_.clear();
}

void TcpTransport::debug_drop_connections(NodeId node) {
  STR_ASSERT(node < nodes_.size());
  Node& n = nodes_[node];
  for (Node::Out& o : n.outs) {
    if (o.c.peer == n.self || o.c.fd < 0) continue;
    if (o.st == Node::OutState::kUp) {
      Node::out_broken(o, stats_);
    } else {
      Node::connect_fail(o);
    }
  }
  for (Node::In& in : n.ins) Node::in_broken(in, stats_);
  n.ins.clear();
}

void TcpTransport::debug_pause_writes(NodeId node, bool paused) {
  STR_ASSERT(node < nodes_.size());
  nodes_[node].pause_writes = paused;
}

}  // namespace str::net
