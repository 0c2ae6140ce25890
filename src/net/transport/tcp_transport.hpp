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
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "net/transport/transport.hpp"

namespace str::net {

class TcpTransport {
 public:
  /// Invoked with each fully reassembled frame addressed to node `to` — on
  /// a transport loop thread, or on the sending thread for self-sends. Must
  /// be thread-safe; calling send() from inside it is allowed (echo
  /// servers, protocol replies).
  using RxHandler =
      std::function<void(NodeId to, std::vector<std::uint8_t> frame)>;

  explicit TcpTransport(TransportOptions options = {});
  ~TcpTransport();
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Bring up `num_nodes` node loops and their connections. Throws
  /// std::runtime_error when the OS refuses (a busy port, fd exhaustion) or
  /// when a fixed base_port would put a node past port 65535 — callers turn
  /// that into a usage error before any simulation time is spent. A throw
  /// leaves no fd open. Call exactly once.
  void start(std::uint32_t num_nodes, RxHandler rx);

  /// Queue one encoded frame from `from` to `to`. Thread-safe; never
  /// blocks on the network (frames park in per-peer queues until the
  /// destination connection accepts them). from == to loops back through
  /// the RxHandler without touching a socket.
  void send(NodeId from, NodeId to, std::vector<std::uint8_t> frame);

  /// Stop all loops and close every socket; idempotent, called by the
  /// destructor. After stop() no RxHandler invocation is in flight.
  void stop();

  /// Snapshot of the summed per-loop counters. Thread-safe.
  TransportStats stats() const;

  /// Actual listen port of `node` (ephemeral ports resolve at start()).
  std::uint16_t port_of(NodeId node) const { return ports_.at(node); }

  // -- test hooks -----------------------------------------------------------

  /// Forcibly close every connection `node`'s loop owns, as if the peer had
  /// reset them; the loop re-establishes them with resend accounting.
  /// Synchronous: returns after the loop has done the closing. Must not be
  /// called from an RxHandler.
  void debug_drop_connections(NodeId node);

  /// Pause (true) or resume (false) all outbound flushing from `node`'s
  /// loop, so tests can pin frames in the outbound queues deterministically
  /// before dropping a connection.
  void debug_pause_writes(NodeId node, bool paused);

 private:
  struct Loop;
  void loop_main(Loop& loop);

  TransportOptions options_;
  RxHandler rx_;
  std::vector<std::uint16_t> ports_;  // filled before any loop thread runs
  std::vector<std::unique_ptr<Loop>> loops_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace str::net
