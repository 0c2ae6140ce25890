#include "storage/medium.hpp"

#include <cstdio>
#include <utility>

#include "common/assert.hpp"

namespace str::storage {

namespace {

/// Crash-time resolution of an in-flight sync chunk. Without a torn-write
/// fault the whole chunk is lost (the classic all-or-nothing fsync model).
/// With one, a uniformly-random nonempty prefix reaches the platter — and
/// half the time one bit of that prefix is flipped, so replay must rely on
/// the frame checksum, not just the length prefix, to find the valid end.
/// The prefix may be the entire chunk: durable-but-unacknowledged is a real
/// outcome the recovery path has to handle.
void resolve_torn_tail(wire::Buffer& durable, const wire::Buffer& inflight,
                       const TornWriteFault& torn) {
  if (inflight.empty() || torn.prob <= 0.0 || torn.rng == nullptr) return;
  if (!torn.rng->chance(torn.prob)) return;
  const auto keep = static_cast<std::size_t>(
      torn.rng->uniform_range(1, inflight.size()));
  const std::size_t base = durable.size();
  durable.insert(durable.end(), inflight.begin(),
                 inflight.begin() + static_cast<std::ptrdiff_t>(keep));
  if (torn.rng->chance(0.5)) {
    const auto pos = base + static_cast<std::size_t>(torn.rng->uniform(keep));
    durable[pos] ^= static_cast<std::uint8_t>(1u << torn.rng->uniform(8));
  }
}

}  // namespace

SimMedium::SimMedium(sim::Scheduler* sched, Timestamp fsync_latency,
                     TornWriteFault torn)
    : sched_(sched), fsync_latency_(fsync_latency), torn_(torn) {}

void SimMedium::append(const std::uint8_t* data, std::size_t size) {
  pending_.insert(pending_.end(), data, data + size);
}

void SimMedium::sync(UniqueFunction<void()> done) {
  STR_ASSERT_MSG(!syncing_, "Medium::sync while a sync is in flight");
  // Swap rather than move: inflight_ is empty (complete_sync and crash
  // clear it) but keeps its capacity, so pending_ refills without regrowing
  // and the two buffers recycle across flushes.
  STR_ASSERT(inflight_.empty());
  inflight_.swap(pending_);
  done_ = std::move(done);
  syncing_ = true;
  if (sched_ == nullptr) {
    complete_sync();
    return;
  }
  sched_->schedule_after(fsync_latency_, [this, epoch = epoch_]() {
    if (epoch != epoch_) return;  // crashed (and maybe restarted) meanwhile
    complete_sync();
  });
}

void SimMedium::complete_sync() {
  durable_.insert(durable_.end(), inflight_.begin(), inflight_.end());
  release_inflight();
  syncing_ = false;
  on_durable_changed();
  UniqueFunction<void()> done = std::move(done_);
  done_ = {};
  if (done) done();
}

void SimMedium::release_inflight() {
  if (inflight_.capacity() > kRecycleBytes) {
    wire::Buffer().swap(inflight_);
  } else {
    inflight_.clear();
  }
}

void SimMedium::reset_durable(wire::Buffer bytes) {
  STR_ASSERT_MSG(!syncing_ && pending_.empty(),
                 "reset_durable on a busy medium");
  durable_ = std::move(bytes);
  on_durable_changed();
}

void SimMedium::crash() {
  ++epoch_;
  pending_.clear();
  done_ = {};
  if (!syncing_) return;
  syncing_ = false;
  resolve_torn_tail(durable_, inflight_, torn_);
  release_inflight();
  on_durable_changed();
}

FileMedium::FileMedium(std::string path, sim::Scheduler* sched,
                       Timestamp fsync_latency, TornWriteFault torn)
    : SimMedium(sched, fsync_latency, torn), path_(std::move(path)) {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return;  // no log yet: start empty
  wire::Buffer bytes;
  std::uint8_t chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
  adopt_durable(std::move(bytes));
}

void FileMedium::on_durable_changed() {
  if (!io_ok_) return;
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (f == nullptr) {
    io_ok_ = false;
    return;
  }
  const wire::Buffer& bytes = durable();
  if (!bytes.empty() &&
      std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    io_ok_ = false;
  }
  std::fclose(f);
}

}  // namespace str::storage
