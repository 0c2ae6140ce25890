// Wire-codec microbenchmark: encode/decode cost per message type, and the
// frame checksum on its own.
//
// Builds one representative message of every type (payload sizes chosen to
// match the synthetic workload's value sizes), then times tight
// encode-frame and decode-frame loops. This is the per-message overhead a
// --wire run pays on top of the closure transport; bench_core_speed --wire
// reports the same cost end-to-end. The checksum rows time CRC32C
// (wire::checksum32) through the hardware and the portable path at 64 B,
// 190 B (tpcc-durable's mean frame) and 4 KB per call, and at 1 MB as
// GB/s. Numbers are wall-clock and machine-dependent — this bench has no
// committed baseline and is not gated, it exists so codec changes can be
// measured (docs/PERFORMANCE.md).
//
// Usage: bench_wire_codec [--quick] [--iters N]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "protocol/messages.hpp"
#include "wire/messages.hpp"

using namespace str;  // NOLINT

namespace {

protocol::SharedUpdates make_updates(std::size_t count,
                                     std::size_t value_size) {
  auto list = std::make_shared<protocol::UpdateList>();
  for (std::size_t i = 0; i < count; ++i) {
    list->emplace_back(0x1000 + i * 7,
                       std::make_shared<Value>(std::string(value_size, 'v')));
  }
  return list;
}

struct Timed {
  double encode_ns = 0;
  double decode_ns = 0;
  std::size_t frame_bytes = 0;
};

template <class M>
Timed time_codec(const M& msg, std::uint64_t iters) {
  using Clock = std::chrono::steady_clock;
  Timed t;
  const wire::Buffer frame = wire::encode_frame(msg);
  t.frame_bytes = frame.size();

  std::uint64_t sink = 0;  // defeat dead-code elimination
  auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    wire::Buffer b = wire::encode_frame(msg);
    sink += b.size();
  }
  auto mid = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    wire::AnyMessage out;
    sink += static_cast<std::uint64_t>(
        wire::decode_frame(frame.data(), frame.size(), out));
  }
  auto end = Clock::now();
  if (sink == 0xdead) std::puts("");  // keep `sink` observable

  t.encode_ns = std::chrono::duration<double, std::nano>(mid - start).count() /
                static_cast<double>(iters);
  t.decode_ns = std::chrono::duration<double, std::nano>(end - mid).count() /
                static_cast<double>(iters);
  return t;
}

template <class M>
void report(const char* name, const M& msg, std::uint64_t iters) {
  const Timed t = time_codec(msg, iters);
  const double rt_ns = t.encode_ns + t.decode_ns;
  const double mbps =
      rt_ns > 0 ? static_cast<double>(t.frame_bytes) * 2 * 1e3 / rt_ns : 0;
  std::printf("  %-18s %5zu B   encode %8.1f ns   decode %8.1f ns   "
              "%8.0f MB/s\n",
              name, t.frame_bytes, t.encode_ns, t.decode_ns, mbps);
}

using ChecksumFn = std::uint32_t (*)(const std::uint8_t*, std::size_t);

/// Mean ns per call of `crc` over `size` bytes. Each call's result feeds
/// the next call's first byte, so no call can be hoisted or skipped.
double time_checksum(ChecksumFn crc, std::size_t size, std::uint64_t iters) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::uint8_t> data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  std::uint32_t sink = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    data[0] = static_cast<std::uint8_t>(sink);
    sink ^= crc(data.data(), size);
  }
  const auto end = Clock::now();
  if (sink == 0xdeadbeef) std::puts("");  // keep `sink` observable
  return std::chrono::duration<double, std::nano>(end - start).count() /
         static_cast<double>(iters);
}

void report_checksums(std::uint64_t iters) {
  struct Path {
    const char* name;
    ChecksumFn fn;
  };
  std::vector<Path> paths;
  if (wire::checksum32_hardware_available()) {
    paths.push_back({"hardware", &wire::checksum32_hardware});
  } else {
    std::printf("  (no CRC32C instruction on this CPU: portable path only)\n");
  }
  paths.push_back({"portable", &wire::checksum32_portable});
  constexpr std::size_t kMiB = 1 << 20;
  for (const Path& p : paths) {
    std::printf("  %-9s", p.name);
    for (const std::size_t size : {std::size_t{64}, std::size_t{190},
                                   std::size_t{4096}}) {
      std::printf("   %4zu B %8.1f ns", size,
                  time_checksum(p.fn, size, iters));
    }
    const double mib_ns =
        time_checksum(p.fn, kMiB, std::max<std::uint64_t>(iters / 2000, 20));
    std::printf("   1 MB %6.2f GB/s\n", static_cast<double>(kMiB) / mib_ns);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t iters = 2'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      iters = 200'000;
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--iters N]\n", argv[0]);
      return 1;
    }
  }

  const TxId tx{3, 0x1234};
  const SharedValue value =
      std::make_shared<Value>(std::string(64, 'x'));

  protocol::ReadRequest read_req{tx, 3, 42, 0xabcdef, usec(7'100'000)};
  protocol::ReadReply read_reply;
  read_reply.reader = tx;
  read_reply.req_id = 42;
  read_reply.key = 0xabcdef;
  read_reply.found = true;
  read_reply.value = value;
  read_reply.writer = TxId{5, 0x99};
  read_reply.version_ts = usec(7'000'000);
  protocol::PrepareRequest prep{tx, 3, 2, usec(7'100'000),
                                make_updates(4, 64)};
  protocol::PrepareReply prep_reply{tx, 2, 6, true, usec(7'200'000)};
  protocol::ReplicateRequest repl{tx, 3, 2, usec(7'100'000),
                                  make_updates(4, 64)};
  protocol::CommitMessage commit{tx, 2, usec(7'300'000)};
  protocol::AbortMessage abort_msg{tx, 2};
  protocol::DecisionRequest dec_req{tx, 2, 6};
  protocol::DecisionReply dec_reply{tx, 2, protocol::TxDecision::Committed,
                                    usec(7'300'000)};

  std::printf("=== wire codec encode/decode (%llu iters/type) ===\n",
              static_cast<unsigned long long>(iters));
  report("read_request", read_req, iters);
  report("read_reply", read_reply, iters);
  report("prepare_request", prep, iters);
  report("prepare_reply", prep_reply, iters);
  report("replicate_request", repl, iters);
  report("commit", commit, iters);
  report("abort", abort_msg, iters);
  report("decision_request", dec_req, iters);
  report("decision_reply", dec_reply, iters);

  std::printf("=== checksum32 (CRC32C) per call ===\n");
  report_checksums(iters);
  return 0;
}
