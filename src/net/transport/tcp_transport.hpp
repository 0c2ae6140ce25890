// The real transport: loopback TCP with a full connection lifecycle.
// Per-node listeners on 127.0.0.1, one connection per ORDERED node pair
// (i's frames to j ride the connection i initiated; j's replies ride j's
// own), a 4-byte little-endian node-id handshake so the acceptor learns who
// connected, nonblocking connect with capped doubling backoff, and
// reconnect-with-resend: frames still queued when an established connection
// breaks are re-offered on its replacement (counted per tag into
// `resent_by_tag` → the cluster's `wire.resent.*`). Frames already handed
// to the kernel may be lost across the break — the protocol layer's
// timeout/retry machinery recovers those. A length prefix claiming more
// than wire::kDefaultMaxFrameSize breaks only that connection. See
// docs/TRANSPORT.md.
//
// The transport owns no thread. Every node's sockets are served by
// poll_once(), one nonblocking round — flush, a single ppoll(2) over all
// of them, accept/connect/handshake/read — run by the caller's thread (the
// protocol thread in protocol::Cluster), which also receives every frame.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include <poll.h>

#include "common/types.hpp"
#include "net/transport/transport.hpp"

namespace str::net {

class TcpTransport {
 public:
  using Clock = std::chrono::steady_clock;

  /// Invoked from poll_once() with each fully reassembled frame addressed
  /// to node `to`. May call send() (echo servers, protocol replies); must
  /// not call poll_once(), stop() or the debug hooks.
  using RxHandler =
      std::function<void(NodeId to, std::vector<std::uint8_t> frame)>;

  explicit TcpTransport(TransportOptions options = {});
  ~TcpTransport();
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Bind one listener per node. Throws std::runtime_error when the OS
  /// refuses (a busy port, fd exhaustion) or when a fixed base_port would
  /// put a node past port 65535 — callers turn that into a usage error
  /// before any simulation time is spent. A throw leaves no fd open. Call
  /// exactly once; connections come up in the following poll_once rounds.
  void start(std::uint32_t num_nodes, RxHandler rx);

  /// Queue one encoded frame from `from` to `to`; never touches a socket
  /// and never calls the RxHandler. Frames park in per-peer queues until a
  /// poll_once round hands them to the destination connection; from == to
  /// parks in a loopback queue that the next round delivers.
  void send(NodeId from, NodeId to, std::vector<std::uint8_t> frame);

  /// One round of the event loop: deliver queued self-sends, flush every
  /// non-empty outbound queue and (re)connect due peers, then one ppoll
  /// over every node's sockets that waits until something is ready or
  /// `deadline` passes (µs-precise; a past deadline makes the round
  /// nonblocking), then accept, connect, handshake and read, delivering
  /// each reassembled frame inline. Throws std::system_error if ppoll
  /// fails for any reason other than EINTR.
  void poll_once(Clock::time_point deadline);

  /// Close every socket, counting still-queued frames as dropped;
  /// idempotent, called by the destructor.
  void stop();

  /// The counters so far.
  const TransportStats& stats() const { return stats_; }

  /// Actual listen port of `node` (ephemeral ports resolve at start()).
  std::uint16_t port_of(NodeId node) const { return ports_.at(node); }

  // -- test hooks -----------------------------------------------------------

  /// Close every connection `node` owns, as if the peer had reset them;
  /// later rounds re-establish them with resend accounting.
  void debug_drop_connections(NodeId node);

  /// Pause (true) or resume (false) all outbound flushing from `node`, so
  /// tests can pin frames in the outbound queues before dropping a
  /// connection.
  void debug_pause_writes(NodeId node, bool paused);

 private:
  struct Node;
  /// What pollfd k of a round refers to.
  struct PollRef {
    enum class Kind : std::uint8_t { kListen, kOut, kIn };
    Kind kind;
    NodeId node;
    std::size_t slot;  ///< peer for kOut, index into Node::ins for kIn
  };
  void deliver(NodeId to, const std::uint8_t* frame, std::size_t size);

  TransportOptions options_;
  RxHandler rx_;
  std::vector<std::uint16_t> ports_;
  std::vector<Node> nodes_;
  std::deque<std::pair<NodeId, std::vector<std::uint8_t>>> loopback_;
  std::vector<std::uint8_t> rbuf_;
  std::vector<struct pollfd> pfds_;
  std::vector<PollRef> refs_;
  TransportStats stats_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace str::net
