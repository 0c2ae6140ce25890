// Microbenchmarks (google-benchmark) for the hot components of the
// simulator and store: event queue, scheduler, coroutine rendezvous,
// multi-version store operations, RNG, and histogram recording. These set
// expectations for how much wall time a unit of simulated work costs.

#include <benchmark/benchmark.h>

#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/unique_function.hpp"
#include "sim/coro.hpp"
#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"
#include "store/mvstore.hpp"

namespace {

using namespace str;  // NOLINT

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  Rng rng(1);
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) q.push(rng.uniform(1000000), []() {});
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SchedulerSelfPosting(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Scheduler sched;
    std::uint64_t count = 0;
    std::function<void()> tick = [&]() {
      if (++count < 10000) sched.schedule_after(1, [&]() { tick(); });
    };
    sched.schedule_at(0, [&]() { tick(); });
    state.ResumeTiming();
    sched.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerSelfPosting);

sim::Fiber await_and_count(sim::Future<int> f, std::uint64_t& n) {
  n += static_cast<std::uint64_t>(co_await f);
}

void BM_CoroutineRendezvous(benchmark::State& state) {
  sim::Scheduler sched;
  std::uint64_t n = 0;
  for (auto _ : state) {
    sim::Promise<int> p(sched);
    await_and_count(p.future(), n);
    p.set_value(1);
    sched.run();
  }
  benchmark::DoNotOptimize(n);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoroutineRendezvous);

void BM_UniqueFunctionDispatch(benchmark::State& state) {
  std::uint64_t acc = 0;
  UniqueFunction<void()> fn = [&acc]() { ++acc; };
  for (auto _ : state) fn();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_UniqueFunctionDispatch);

void BM_MvStoreRead(benchmark::State& state) {
  store::PartitionStore s;
  const int keys = static_cast<int>(state.range(0));
  for (int k = 0; k < keys; ++k) s.load(k, "value-of-reasonable-size-64b");
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.read(rng.uniform(keys), 1000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvStoreRead)->Arg(1000)->Arg(100000);

void BM_MvStorePrepareCommit(benchmark::State& state) {
  store::PartitionStore s;
  for (int k = 0; k < 1000; ++k) s.load(k, "x");
  Rng rng(3);
  std::uint64_t seq = 1;
  Timestamp ts = 10;
  for (auto _ : state) {
    TxId tx{0, seq++};
    std::vector<std::pair<Key, SharedValue>> upd{
        {rng.uniform(1000), std::make_shared<Value>("updated-value")}};
    auto pr = s.prepare(tx, ts, upd, true, ts);
    if (pr.ok) {
      s.local_commit(tx, pr.proposed_ts);
      s.final_commit(tx, pr.proposed_ts + 1);
      ts = pr.proposed_ts + 2;
    }
  }
  s.gc(ts);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvStorePrepareCommit);

void BM_MvStoreVersionChainScan(benchmark::State& state) {
  // Deep chains (pre-GC worst case).
  store::PartitionStore s;
  s.load(1, "v");
  Timestamp ts = 1;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    TxId tx{0, static_cast<std::uint64_t>(i + 1)};
    std::vector<std::pair<Key, SharedValue>> upd{
        {1, std::make_shared<Value>("v")}};
    auto pr = s.prepare(tx, ts, upd, true, ts);
    s.final_commit(tx, pr.proposed_ts);
    ts = pr.proposed_ts + 1;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.peek(1, ts / 2));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvStoreVersionChainScan)->Arg(8)->Arg(64)->Arg(512);

void BM_MvStoreGcSweep(benchmark::State& state) {
  // One maintenance tick's sweep over a synth-hot-sized partition: 30k
  // keys, of which ~200 carry a multi-version chain (an older committed
  // version, the newest committed one, and an undecided pre-commit that
  // keeps the chain long across sweeps). A sweep costs the ~200 chains;
  // a full-table sweep would cost the 30k keys and show here at once.
  constexpr int kKeys = 30000;
  constexpr int kChains = 200;
  store::PartitionStore s;
  for (int k = 0; k < kKeys; ++k) s.load(k, "x");
  std::uint64_t seq = 1;
  for (int k = 0; k < kKeys; k += kKeys / kChains) {
    for (Timestamp ts : {Timestamp{10}, Timestamp{20}}) {
      const TxId tx{0, seq++};
      std::vector<std::pair<Key, SharedValue>> upd{
          {static_cast<Key>(k), std::make_shared<Value>("v")}};
      s.prepare(tx, ts, upd, /*precise_clocks=*/false, ts);
      if (ts == 10) s.final_commit(tx, ts);
    }
  }
  Timestamp horizon = 15;
  benchmark::DoNotOptimize(horizon);
  s.gc(horizon);  // retire ts 0: each chain settles at {10, pending 20}
  for (auto _ : state) {
    s.gc(horizon);
    benchmark::ClobberMemory();
  }
  state.counters["keys"] = kKeys;
  state.counters["chains"] = kChains;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MvStoreGcSweep);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(4);
  std::uint64_t acc = 0;
  for (auto _ : state) acc += rng.uniform(1000000);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniform);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(5);
  for (auto _ : state) h.record(rng.uniform(10'000'000));
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramQuantile(benchmark::State& state) {
  Histogram h;
  Rng rng(6);
  for (int i = 0; i < 100000; ++i) h.record(rng.uniform(10'000'000));
  for (auto _ : state) benchmark::DoNotOptimize(h.p99());
}
BENCHMARK(BM_HistogramQuantile);

}  // namespace
