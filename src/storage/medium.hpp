// Durable media for the write-ahead log (docs/DURABILITY.md).
//
// A Medium is an append-only byte device with an explicit durability
// boundary: append() buffers bytes, sync() begins making every buffered
// byte durable and runs a completion callback once they are. Nothing
// buffered survives a crash; bytes covered by a *completed* sync always do;
// the chunk covered by an *in-flight* sync is where torn writes live — a
// crash may persist any prefix of it, possibly with a flipped bit
// (net::StorageFaults::torn_write_prob).
//
// Two backends:
//  * SimMedium  — deterministic in-memory device inside the DES. Sync
//    completion is scheduled after a modeled fsync latency, so group-commit
//    batching has a measurable cost; crash() resolves the in-flight chunk
//    from the cluster's storage-fault RNG stream. The durable bytes live in
//    this process and survive crash_node/restart_node.
//  * FileMedium — same semantics, additionally mirroring the durable bytes
//    to a real file (tools and cross-process inspection). Constructing it
//    over an existing file adopts the file's contents as the durable state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/unique_function.hpp"
#include "sim/scheduler.hpp"
#include "wire/codec.hpp"

namespace str::storage {

/// Torn-write fault knobs, resolved at crash time (see Medium::crash).
/// `rng` is a shared per-cluster stream: media draw from it only when a
/// crash actually catches a sync in flight, so fault-free runs (and runs
/// that never crash mid-flush) consume nothing.
struct TornWriteFault {
  double prob = 0.0;
  Rng* rng = nullptr;
};

class Medium {
 public:
  virtual ~Medium() = default;

  /// Buffer bytes at the tail. Not durable until a later sync() completes.
  virtual void append(const std::uint8_t* data, std::size_t size) = 0;
  void append(const wire::Buffer& bytes) {
    append(bytes.data(), bytes.size());
  }

  /// Begin making every currently-buffered byte durable; `done` runs when
  /// they are (after the modeled fsync latency). At most one sync may be in
  /// flight — the WAL layer serializes. Bytes appended while a sync is in
  /// flight belong to the next sync.
  virtual void sync(UniqueFunction<void()> done) = 0;

  /// The durable contents (what a restart reads back). May end in a torn
  /// tail after a crash — replay checksum-scans (CRC32C, which catches the
  /// torn write's single flipped bit without fail) and truncates.
  virtual const wire::Buffer& durable() const = 0;

  /// Atomically replace the durable contents (checkpoint truncation,
  /// decision-log compaction, torn-tail repair). Models write-new-file +
  /// rename; requires no sync in flight and no buffered bytes.
  virtual void reset_durable(wire::Buffer bytes) = 0;

  /// Fail-stop crash: buffered bytes vanish; an in-flight sync resolves to
  /// a torn tail with TornWriteFault::prob (a random nonempty prefix of the
  /// chunk persists, possibly with one bit flipped) and is otherwise lost
  /// entirely. The pending completion callback never runs.
  virtual void crash() = 0;

  virtual bool sync_in_flight() const = 0;
  virtual std::size_t buffered_bytes() const = 0;
};

/// Deterministic in-memory medium driven by the DES scheduler. A null
/// scheduler makes sync() complete synchronously (standalone/tool use).
class SimMedium : public Medium {
 public:
  SimMedium(sim::Scheduler* sched, Timestamp fsync_latency,
            TornWriteFault torn);

  void append(const std::uint8_t* data, std::size_t size) override;
  using Medium::append;
  void sync(UniqueFunction<void()> done) override;
  const wire::Buffer& durable() const override { return durable_; }
  void reset_durable(wire::Buffer bytes) override;
  void crash() override;
  bool sync_in_flight() const override { return syncing_; }
  std::size_t buffered_bytes() const override {
    return pending_.size() + inflight_.size();
  }

 protected:
  /// Hook for backends that mirror the durable bytes somewhere real; called
  /// after every durable_ change (sync completion, crash resolution, reset).
  virtual void on_durable_changed() {}

  /// Install durable contents without the mirror hook (backend construction:
  /// adopting an existing file's bytes must not rewrite the file).
  void adopt_durable(wire::Buffer bytes) { durable_ = std::move(bytes); }

 private:
  /// Largest sync buffer kept for reuse. Nearly every group-commit flush
  /// fits (on tpcc-durable, all but ~0.4% of 312k flushes); a buffer grown
  /// by a rare large flush (up to hundreds of KiB) is freed instead of
  /// staying pinned beside the live one for the rest of the run.
  static constexpr std::size_t kRecycleBytes = 8 * 1024;

  void complete_sync();
  /// Empty inflight_ for the next swap; frees it when it grew past
  /// kRecycleBytes.
  void release_inflight();

  sim::Scheduler* sched_;
  Timestamp fsync_latency_;
  TornWriteFault torn_;
  wire::Buffer durable_;
  wire::Buffer pending_;   ///< appended, not yet covered by a sync
  wire::Buffer inflight_;  ///< the chunk the in-flight sync covers
  UniqueFunction<void()> done_;
  bool syncing_ = false;
  /// Bumped on crash: a scheduled completion from before the crash no-ops.
  std::uint64_t epoch_ = 0;
};

/// SimMedium that mirrors the durable bytes to a real file. The file always
/// holds exactly the durable contents (rewritten on change — WAL segments
/// are checkpoint-bounded, so this stays cheap); an existing file is
/// adopted as the initial durable state.
class FileMedium : public SimMedium {
 public:
  FileMedium(std::string path, sim::Scheduler* sched, Timestamp fsync_latency,
             TornWriteFault torn);

  /// False once any file write failed; the medium then continues in-memory.
  bool io_ok() const { return io_ok_; }
  const std::string& path() const { return path_; }

 protected:
  void on_durable_changed() override;

 private:
  std::string path_;
  bool io_ok_ = true;
};

}  // namespace str::storage
