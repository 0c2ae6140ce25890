// Transport conformance: the loopback TCP transport must honor the
// delivery contract of docs/TRANSPORT.md — intact, ordered, byte-exact
// frames per connection lifetime, accurate counters, and re-offer of queued
// frames across a connection break — over real sockets, driven by pumping
// poll_once() on the test's own thread. Lifecycle cases cover start()
// failures (busy port, a base port past 65535, fd exhaustion), a failing
// ppoll, ephemeral port assignment, and that the real runtime starts no
// thread; a short wall-clock cluster run must reach a clean SPSI verdict.
#include "net/transport/tcp_transport.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "harness/experiment.hpp"
#include "tests/protocol/test_util.hpp"
#include "wire/assembler.hpp"
#include "wire/messages.hpp"
#include "workload/synthetic.hpp"

namespace str::net {
namespace {

using namespace std::chrono_literals;

/// A syntactically valid frame (length prefix + tag + body + checksum
/// bytes); the transport only needs the framing, not decodable content.
wire::Buffer raw_frame(std::uint8_t tag, std::size_t body_size) {
  wire::Buffer f;
  const auto rest = static_cast<std::uint32_t>(
      wire::kFrameTypeBytes + body_size + wire::kFrameChecksumBytes);
  f.push_back(static_cast<std::uint8_t>(rest & 0xff));
  f.push_back(static_cast<std::uint8_t>((rest >> 8) & 0xff));
  f.push_back(static_cast<std::uint8_t>((rest >> 16) & 0xff));
  f.push_back(static_cast<std::uint8_t>((rest >> 24) & 0xff));
  f.push_back(tag);
  for (std::size_t i = 0; i < body_size + wire::kFrameChecksumBytes; ++i) {
    f.push_back(static_cast<std::uint8_t>((tag * 31 + i) & 0xff));
  }
  return f;
}

/// Every wire message type, real-encoded — the same corpus the decoder fuzz
/// smoke uses, here pushed through actual sockets.
std::vector<wire::Buffer> sample_frames() {
  const TxId tx{3, 0x1234};
  auto updates = std::make_shared<protocol::UpdateList>();
  updates->emplace_back(0x1000, std::make_shared<Value>("payload"));
  updates->emplace_back(0x2000, nullptr);
  protocol::ReadReply rr;
  rr.reader = tx;
  rr.req_id = 7;
  rr.key = 9;
  rr.found = true;
  rr.value = std::make_shared<Value>("value-bytes");
  rr.writer = TxId{1, 2};
  rr.version_ts = 55;
  protocol::DecisionReplicate drep;
  drep.tx = tx;
  drep.origin = 3;
  drep.commit_ts = 400;
  drep.decided_at = 410;
  protocol::DecisionReplicateAck dack;
  dack.tx = tx;
  dack.partition = 2;
  dack.from = 5;
  dack.kind = protocol::DecisionAckKind::kCommitted;
  dack.commit_ts = 400;
  return {
      wire::encode_frame(protocol::ReadRequest{tx, 3, 42, 0xabcdef, 100}),
      wire::encode_frame(rr),
      wire::encode_frame(protocol::PrepareRequest{tx, 3, 2, 100, updates}),
      wire::encode_frame(protocol::PrepareReply{tx, 2, 6, true, 200}),
      wire::encode_frame(protocol::ReplicateRequest{tx, 3, 2, 100, updates}),
      wire::encode_frame(protocol::CommitMessage{tx, 2, 300}),
      wire::encode_frame(protocol::AbortMessage{tx, 2}),
      wire::encode_frame(protocol::DecisionRequest{tx, 2, 6}),
      wire::encode_frame(protocol::DecisionReply{
          tx, 2, protocol::TxDecision::Committed, 300}),
      wire::encode_frame(drep),
      wire::encode_frame(dack),
  };
}

/// Receive log the RxHandler appends to.
class RxLog {
 public:
  void push(NodeId to, std::vector<std::uint8_t> frame) {
    frames_.emplace_back(to, std::move(frame));
  }

  std::size_t total() const { return frames_.size(); }

  std::vector<wire::Buffer> at(NodeId node) const {
    std::vector<wire::Buffer> out;
    for (const auto& [to, f] : frames_) {
      if (to == node) out.push_back(f);
    }
    return out;
  }

 private:
  std::vector<std::pair<NodeId, wire::Buffer>> frames_;
};

/// Run poll rounds until `pred` holds; false if it still does not after a
/// generous wall-clock deadline (loopback delivery takes microseconds).
[[nodiscard]] bool pump(TcpTransport& tp, const std::function<bool()>& pred,
                        std::chrono::milliseconds timeout = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    tp.poll_once(now + 1ms);
  }
  return true;
}

/// Pump until `n` frames have been received in total.
[[nodiscard]] bool pump_until_received(TcpTransport& tp, const RxLog& log,
                                       std::size_t n,
                                       std::chrono::milliseconds timeout = 10s) {
  return pump(tp, [&] { return log.total() >= n; }, timeout);
}

std::size_t dir_entries(const char* path) {
  const std::filesystem::directory_iterator it(path);
  return static_cast<std::size_t>(
      std::distance(std::filesystem::begin(it), std::filesystem::end(it)));
}

/// Descriptors this process holds open (the listing's own fd included, the
/// same on every call).
std::size_t open_fd_count() { return dir_entries("/proc/self/fd"); }

/// Threads this process runs.
std::size_t thread_count() { return dir_entries("/proc/self/task"); }

class TransportConformance : public ::testing::TestWithParam<TransportKind> {};

// Parameterised on TransportKind; loopback TCP is the one real transport.
INSTANTIATE_TEST_SUITE_P(
    Backends, TransportConformance, ::testing::Values(TransportKind::kTcp),
    [](const ::testing::TestParamInfo<TransportKind>& param) {
      return std::string(to_string(param.param));
    });

TEST_P(TransportConformance, EchoRoundTripAllFrameTypes) {
  TcpTransport tp;
  RxLog log;
  tp.start(2, [&](NodeId to, std::vector<std::uint8_t> frame) {
    if (to == 1) {
      // Echo server: send() from inside the RxHandler is part of the
      // contract (protocol replies do exactly this).
      tp.send(1, 0, std::move(frame));
      return;
    }
    log.push(to, std::move(frame));
  });
  const std::vector<wire::Buffer> frames = sample_frames();
  for (const wire::Buffer& f : frames) tp.send(0, 1, f);
  ASSERT_TRUE(pump_until_received(tp, log, frames.size()));
  // Byte-exact and in send order after a full round trip per type.
  EXPECT_EQ(log.at(0), frames);
  const TransportStats s = tp.stats();
  EXPECT_EQ(s.frames_sent, 2 * frames.size());
  EXPECT_EQ(s.frames_received, 2 * frames.size());
  EXPECT_EQ(s.bytes_sent, s.bytes_received);
  EXPECT_EQ(s.frames_resent, 0u);
  EXPECT_EQ(s.frames_dropped, 0u);
  tp.stop();
}

TEST_P(TransportConformance, BurstReassemblyIsOrderedAndByteExact) {
  // Frame sizes straddling every read-path regime: empty bodies that
  // coalesce many-per-read, and frames larger than the 64 KiB read chunk
  // that arrive split across several reads.
  TcpTransport tp;
  RxLog log;
  tp.start(2, [&](NodeId to, std::vector<std::uint8_t> frame) {
    log.push(to, std::move(frame));
  });
  const std::size_t sizes[] = {0, 3, 64, 1024, 60000, 130000};
  std::vector<wire::Buffer> sent;
  for (int i = 0; i < 120; ++i) {
    sent.push_back(raw_frame(static_cast<std::uint8_t>(1 + i % 11),
                             sizes[i % 6]));
  }
  std::uint64_t bytes = 0;
  for (const wire::Buffer& f : sent) {
    bytes += f.size();
    tp.send(0, 1, f);
  }
  ASSERT_TRUE(pump_until_received(tp, log, sent.size(), 30s));
  EXPECT_EQ(log.at(1), sent);
  const TransportStats s = tp.stats();
  EXPECT_EQ(s.frames_received, sent.size());
  EXPECT_EQ(s.bytes_received, bytes);
  EXPECT_EQ(s.bytes_sent, bytes);
  tp.stop();
}

TEST_P(TransportConformance, SelfSendLoopsBackWithoutASocket) {
  TcpTransport tp;
  RxLog log;
  tp.start(2, [&](NodeId to, std::vector<std::uint8_t> frame) {
    log.push(to, std::move(frame));
  });
  const wire::Buffer f = raw_frame(7, 21);
  tp.send(0, 0, f);
  ASSERT_TRUE(pump_until_received(tp, log, 1));
  EXPECT_EQ(log.at(0), std::vector<wire::Buffer>{f});
  const TransportStats s = tp.stats();
  EXPECT_EQ(s.frames_sent, 1u);
  EXPECT_EQ(s.frames_received, 1u);
  tp.stop();
}

TEST_P(TransportConformance, SelfSendIsDeliveredByTheNextPollRound) {
  // send() only queues — also from a node to itself — so protocol code is
  // never re-entered from inside a send: the handler runs in the next
  // poll_once, and a self-send it makes waits for the round after that.
  TcpTransport tp;
  RxLog log;
  const wire::Buffer first = raw_frame(7, 21);
  const wire::Buffer second = raw_frame(8, 5);
  tp.start(2, [&](NodeId to, std::vector<std::uint8_t> frame) {
    log.push(to, std::move(frame));
    if (log.total() == 1) tp.send(1, 1, second);
  });
  tp.send(1, 1, first);
  EXPECT_EQ(log.total(), 0u) << "RxHandler ran inside send()";
  const auto now = std::chrono::steady_clock::now;
  tp.poll_once(now());
  EXPECT_EQ(log.at(1), std::vector<wire::Buffer>{first});
  tp.poll_once(now());
  EXPECT_EQ(log.at(1), (std::vector<wire::Buffer>{first, second}));
  EXPECT_EQ(tp.stats().frames_received, 2u);
  tp.stop();
}

TEST_P(TransportConformance, PerTypeCounterSumInvariant) {
  // Send a distinct count of each message type; the per-tag tallies at the
  // receiver must sum exactly to the transport's frame counters — the
  // socket-level ground truth behind the cluster's wire.msgs.* accounting.
  TcpTransport tp;
  std::map<std::uint8_t, std::size_t> by_tag;
  std::size_t total_rx = 0;
  tp.start(2, [&](NodeId, std::vector<std::uint8_t> frame) {
    ASSERT_GT(frame.size(), wire::kFrameLenBytes);
    ++by_tag[frame[wire::kFrameLenBytes]];
    ++total_rx;
  });
  const std::vector<wire::Buffer> frames = sample_frames();
  std::size_t total = 0;
  for (std::size_t t = 0; t < frames.size(); ++t) {
    for (std::size_t k = 0; k <= t; ++k) {
      tp.send(0, 1, frames[t]);
      ++total;
    }
  }
  ASSERT_TRUE(pump(tp, [&] { return total_rx >= total; }));
  for (std::size_t t = 0; t < frames.size(); ++t) {
    EXPECT_EQ(by_tag[frames[t][wire::kFrameLenBytes]], t + 1)
        << "type index " << t;
  }
  const TransportStats s = tp.stats();
  EXPECT_EQ(s.frames_sent, total);
  EXPECT_EQ(s.frames_received, total);
  EXPECT_EQ(s.frames_resent, 0u);
  tp.stop();
}

TEST_P(TransportConformance, DropConnectionsFollowsBackendLossSemantics) {
  TcpTransport tp;
  RxLog log;
  tp.start(2, [&](NodeId to, std::vector<std::uint8_t> frame) {
    log.push(to, std::move(frame));
  });
  // Prove the 0→1 connection is established before staging the break.
  tp.send(0, 1, raw_frame(1, 8));
  ASSERT_TRUE(pump_until_received(tp, log, 1));

  // Pin frames in node 0's outbound queue, then cut every connection it
  // owns. debug_drop_connections is a plain call, so the loss accounting is
  // fully visible when it returns.
  tp.debug_pause_writes(0, true);
  constexpr std::size_t kQueued = 5;
  for (std::size_t i = 0; i < kQueued; ++i) tp.send(0, 1, raw_frame(2, 32));
  tp.debug_drop_connections(0);
  const TransportStats s = tp.stats();
  EXPECT_GE(s.disconnects, 1u);

  // Everything still queued is re-offered on a replacement connection.
  EXPECT_EQ(s.frames_resent, kQueued);
  EXPECT_EQ(s.resent_by_tag[2], kQueued);
  EXPECT_EQ(s.frames_dropped, 0u);
  tp.debug_pause_writes(0, false);
  ASSERT_TRUE(pump_until_received(tp, log, 1 + kQueued));
  EXPECT_EQ(log.at(1).size(), 1 + kQueued);
  // The re-offered frames can only have arrived over a replacement.
  EXPECT_GE(tp.stats().reconnects, 1u);
  tp.stop();
}

TEST_P(TransportConformance, StopDiscardsQueuedFramesAsDropped) {
  TcpTransport tp;
  RxLog log;
  tp.start(2, [&](NodeId to, std::vector<std::uint8_t> frame) {
    log.push(to, std::move(frame));
  });
  tp.send(0, 1, raw_frame(1, 8));
  ASSERT_TRUE(pump_until_received(tp, log, 1));
  tp.debug_pause_writes(0, true);
  for (int i = 0; i < 3; ++i) tp.send(0, 1, raw_frame(2, 16));
  tp.poll_once(std::chrono::steady_clock::now());
  tp.send(1, 1, raw_frame(3, 4));
  tp.stop();
  // Unsent frames must be accounted, not silently lost: the three paused
  // ones and the self-send no round delivered.
  EXPECT_EQ(tp.stats().frames_dropped, 4u);
}

TEST_P(TransportConformance, OversizedFrameBreaksOnlyThatConnection) {
  // A peer whose stream claims a frame above wire::kDefaultMaxFrameSize gets
  // its connection cut on the length prefix alone (the assembler's error
  // latch), never a buffer of that size. The transport then rebuilds the
  // connection and traffic resumes.
  TcpTransport tp;
  RxLog log;
  tp.start(2, [&](NodeId to, std::vector<std::uint8_t> frame) {
    log.push(to, std::move(frame));
  });
  tp.send(0, 1, raw_frame(1, 8));
  ASSERT_TRUE(pump_until_received(tp, log, 1));
  // A short frame whose length prefix claims one byte past the ceiling.
  wire::Buffer oversized = raw_frame(2, 8);
  const auto claimed = static_cast<std::uint32_t>(wire::kDefaultMaxFrameSize -
                                                  wire::kFrameLenBytes + 1);
  for (std::size_t i = 0; i < wire::kFrameLenBytes; ++i) {
    oversized[i] = static_cast<std::uint8_t>((claimed >> (8 * i)) & 0xff);
  }
  tp.send(0, 1, oversized);
  // Both ends see the cut: the receiver drops the connection, then the
  // sender reads the EOF. Only then is a new frame sure to ride the
  // replacement rather than the dead socket.
  EXPECT_TRUE(pump(tp, [&] { return tp.stats().disconnects >= 2; }));
  tp.send(0, 1, raw_frame(3, 8));
  ASSERT_TRUE(pump_until_received(tp, log, 2));
  ASSERT_EQ(log.at(1).size(), 2u);
  EXPECT_EQ(log.at(1)[1][wire::kFrameLenBytes], 3);
  tp.stop();
}

TEST(TcpTransportLifecycle, StartThrowsOnBusyPort) {
  // Occupy a port, then ask the transport to bind it: start() must surface
  // the failure as an exception.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ASSERT_EQ(::listen(fd, 1), 0);

  TransportOptions opts;
  opts.base_port = ntohs(addr.sin_port);
  TcpTransport tp(opts);
  EXPECT_THROW(
      tp.start(1, [](NodeId, std::vector<std::uint8_t>) {}),
      std::runtime_error);
  ::close(fd);
}

TEST(TcpTransportLifecycle, StartThrowsWhenBasePortWouldWrap) {
  // Node i listens on base_port + i: with 2 nodes from 65535, node 1 would
  // need port 65536. start() must refuse before binding anything rather
  // than wrap node 1 onto port 0 (an ephemeral port).
  const std::size_t before = open_fd_count();
  TransportOptions opts;
  opts.base_port = 65535;
  TcpTransport tp(opts);
  EXPECT_THROW(
      tp.start(2, [](NodeId, std::vector<std::uint8_t>) {}),
      std::runtime_error);
  EXPECT_EQ(open_fd_count(), before);
}

TEST(TcpTransportLifecycle, FailedStartClosesEveryFd) {
  // Leave exactly two free descriptor numbers under RLIMIT_NOFILE: the
  // listeners of nodes 0 and 1 fit, node 2's socket() fails with EMFILE.
  // The throw must close every fd start() opened before it.
  int probe[2];
  for (int& fd : probe) {
    fd = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(fd, 0);
  }
  const int highest_free = probe[1];  // open() takes the lowest free number
  for (int fd : probe) ::close(fd);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const std::size_t before = open_fd_count();
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(highest_free) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::string error;
  {
    TcpTransport tp;
    try {
      tp.start(3, [](NodeId, std::vector<std::uint8_t>) {});
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  // The third listener's socket() failed, after two listeners were opened.
  EXPECT_NE(error.find("socket"), std::string::npos) << error;
  EXPECT_EQ(open_fd_count(), before);
}

TEST(TcpTransportLifecycle, PollFailureThrowsSystemError) {
  // A ppoll failure must stop the run loudly, not leave the nodes deaf: with
  // more pollfds than RLIMIT_NOFILE allows, ppoll fails with EINVAL.
  // Two low descriptor numbers are held now and freed under the tight
  // limit, so sanitizer runtimes can still open the pipe they probe
  // memory with.
  int spare[2];
  for (int& fd : spare) {
    fd = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(fd, 0);
  }
  TcpTransport tp;
  tp.start(3, [](NodeId, std::vector<std::uint8_t>) {});
  // 3 listeners + 6 outbound + 6 inbound connections once all are up.
  ASSERT_TRUE(pump(tp, [&] { return tp.stats().connects == 6; }));
  for (int fd : spare) ::close(fd);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(std::max(spare[0], spare[1])) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  int code = 0;
  try {
    tp.poll_once(std::chrono::steady_clock::now());
  } catch (const std::system_error& e) {
    code = e.code().value();
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_EQ(code, EINVAL);
  tp.stop();
}

TEST(TcpTransportLifecycle, EphemeralPortsAreBoundAndDistinct) {
  TcpTransport tp;
  tp.start(3, [](NodeId, std::vector<std::uint8_t>) {});
  const std::uint16_t p0 = tp.port_of(0);
  const std::uint16_t p1 = tp.port_of(1);
  const std::uint16_t p2 = tp.port_of(2);
  EXPECT_NE(p0, 0);
  EXPECT_NE(p1, 0);
  EXPECT_NE(p2, 0);
  EXPECT_NE(p0, p1);
  EXPECT_NE(p1, p2);
  EXPECT_NE(p0, p2);
  tp.stop();
}

TEST(TcpTransportLifecycle, RealRuntimeStartsNoThreads) {
  // One thread, one poll loop: neither the transport nor a cluster running
  // over it may start a thread of its own.
  const std::size_t before = thread_count();
  {
    TcpTransport tp;
    RxLog log;
    tp.start(3, [&](NodeId to, std::vector<std::uint8_t> frame) {
      log.push(to, std::move(frame));
    });
    tp.send(0, 1, raw_frame(1, 8));
    tp.send(2, 0, raw_frame(2, 8));
    ASSERT_TRUE(pump_until_received(tp, log, 2));
    EXPECT_EQ(thread_count(), before);
  }

  harness::ExperimentConfig cfg;
  cfg.cluster = test::small_config(3, 2, protocol::ProtocolConfig::str(),
                                   msec(50), /*seed=*/7);
  cfg.cluster.transport = TransportKind::kTcp;
  cfg.clients_per_node = 3;
  cfg.warmup = msec(100);
  cfg.duration = msec(300);
  cfg.drain = msec(200);
  workload::SyntheticConfig wcfg = workload::SyntheticConfig::synth_a();
  wcfg.keys_per_txn = 4;
  std::size_t during = 0;
  const auto r = harness::run_experiment(cfg, [&](protocol::Cluster& c) {
    // Sampled by a DES event inside the measurement window, while frames
    // are crossing the sockets.
    c.scheduler().schedule_after(msec(250),
                                 [&during] { during = thread_count(); });
    return std::make_unique<workload::SyntheticWorkload>(c, wcfg);
  });
  EXPECT_GT(r.commits, 0u);
  EXPECT_EQ(during, before);
}

TEST_P(TransportConformance, ClusterReachesCleanSpsiOverRealSockets) {
  // The full stack in wall-clock time: a small cluster running the synthetic
  // workload over loopback TCP must commit work, quiesce clean, and pass
  // the SPSI checker — with zero socket-level retransmits on a healthy
  // loopback.
  harness::ExperimentConfig cfg;
  cfg.cluster = test::small_config(3, 2, protocol::ProtocolConfig::str(),
                                   msec(50), /*seed=*/7);
  cfg.cluster.transport = GetParam();
  cfg.clients_per_node = 3;
  cfg.warmup = msec(300);
  cfg.duration = msec(600);
  cfg.drain = msec(400);
  cfg.verify = true;
  workload::SyntheticConfig wcfg = workload::SyntheticConfig::synth_a();
  wcfg.keys_per_txn = 4;
  const auto r = harness::run_experiment(cfg, [wcfg](protocol::Cluster& c) {
    return std::make_unique<workload::SyntheticWorkload>(c, wcfg);
  });
  EXPECT_GT(r.commits, 0u);
  EXPECT_TRUE(r.violations.empty()) << r.violations.size() << " violation(s)";
  EXPECT_TRUE(r.quiesce.clean());
  EXPECT_EQ(r.transport_resent, 0u);
  EXPECT_EQ(r.transport_reconnects, 0u);
}

}  // namespace
}  // namespace str::net
