// WAL unit tests: record framing and the checksum scan (torn tails,
// bit flips, malformed bodies), group-commit batching over SimMedium
// (batch-size and deadline flush triggers, callback ordering, crash
// semantics), torn-write crash resolution, checkpoint rewrite and its
// trigger rule, and the FileMedium mirror round-trip.
#include "storage/wal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/scheduler.hpp"
#include "storage/medium.hpp"
#include "wire/codec.hpp"

namespace str::storage {
namespace {

SharedValue val(const std::string& s) {
  return std::make_shared<const Value>(s);
}

WalUpdates two_updates() {
  return {{7, val("a")}, {9, val("bb")}};
}

std::vector<WalRecord> scan_all(const wire::Buffer& bytes,
                                WalScanResult* out = nullptr) {
  std::vector<WalRecord> records;
  const WalScanResult r =
      scan_wal(bytes, [&](const WalRecord& rec) { records.push_back(rec); });
  if (out != nullptr) *out = r;
  return records;
}

TEST(WalCodec, EveryRecordTypeRoundTrips) {
  wire::Buffer log;
  encode_prepare(log, TxId{2, 11}, /*rs=*/100, /*proposed=*/120,
                 two_updates());
  encode_commit(log, TxId{2, 11}, /*commit_ts=*/130, two_updates());
  encode_abort(log, TxId{3, 5});
  encode_decision(log, TxId{2, 11}, /*commit_ts=*/130, /*at=*/140);
  std::vector<CheckpointVersion> snap;
  snap.push_back({7, 50, VersionState::Committed, TxId{1, 1}, val("x")});
  snap.push_back({8, 60, VersionState::PreCommitted, TxId{4, 2}, nullptr});
  encode_checkpoint(log, /*watermark=*/45, snap);

  // On-disk layout pin: any change to these bytes is a format break, not a
  // refactor, and must be called out in docs/DURABILITY.md. The last one
  // was the checksum's move from FNV-1a to CRC32C: it changed only the
  // trailing 4 checksum bytes of each record, and older logs now replay as
  // torn at their first record.
  const wire::Buffer pinned = {
      // kPrepare
      0x13, 0x00, 0x00, 0x00, 0x01, 0x02, 0x0b, 0x64, 0x78, 0x02, 0x07, 0x01,
      0x01, 0x61, 0x09, 0x01, 0x02, 0x62, 0x62, 0xa7, 0x8d, 0x30, 0xbd,
      // kCommit
      0x13, 0x00, 0x00, 0x00, 0x02, 0x02, 0x0b, 0x82, 0x01, 0x02, 0x07, 0x01,
      0x01, 0x61, 0x09, 0x01, 0x02, 0x62, 0x62, 0x15, 0xb4, 0x6d, 0x83,
      // kAbort
      0x07, 0x00, 0x00, 0x00, 0x03, 0x03, 0x05, 0x8c, 0xdf, 0x5c, 0x8b,
      // kDecision
      0x0b, 0x00, 0x00, 0x00, 0x04, 0x02, 0x0b, 0x82, 0x01, 0x8c, 0x01, 0x44,
      0x17, 0xb6, 0xda,
      // kCheckpoint
      0x15, 0x00, 0x00, 0x00, 0x05, 0x2d, 0x02, 0x07, 0x32, 0x02, 0x01, 0x01,
      0x01, 0x01, 0x78, 0x08, 0x3c, 0x00, 0x04, 0x02, 0x00, 0x4e, 0x37, 0xc6,
      0x12};
  EXPECT_EQ(log, pinned);

  WalScanResult result;
  const auto records = scan_all(log, &result);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_FALSE(result.torn);
  EXPECT_EQ(result.valid_bytes, log.size());

  EXPECT_EQ(records[0].type, WalRecordType::kPrepare);
  EXPECT_EQ(records[0].tx, (TxId{2, 11}));
  EXPECT_EQ(records[0].rs, 100u);
  EXPECT_EQ(records[0].ts, 120u);
  ASSERT_EQ(records[0].updates.size(), 2u);
  EXPECT_EQ(records[0].updates[1].first, 9u);
  EXPECT_EQ(*records[0].updates[1].second, "bb");

  EXPECT_EQ(records[1].type, WalRecordType::kCommit);
  EXPECT_EQ(records[1].ts, 130u);

  EXPECT_EQ(records[2].type, WalRecordType::kAbort);
  EXPECT_EQ(records[2].tx, (TxId{3, 5}));

  EXPECT_EQ(records[3].type, WalRecordType::kDecision);
  EXPECT_EQ(records[3].ts, 130u);
  EXPECT_EQ(records[3].at, 140u);

  EXPECT_EQ(records[4].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(records[4].ts, 45u);
  ASSERT_EQ(records[4].snapshot.size(), 2u);
  EXPECT_EQ(records[4].snapshot[0].key, 7u);
  EXPECT_EQ(*records[4].snapshot[0].value, "x");
  EXPECT_EQ(records[4].snapshot[1].state, VersionState::PreCommitted);
  EXPECT_EQ(records[4].snapshot[1].value, nullptr);
}

TEST(WalCodec, RecordsSealIntoExactlySizedBuffers) {
  const WalUpdates updates = {{7, val(std::string(300, 'a'))},
                              {1u << 20, nullptr},
                              {9, val(std::string(40, 'b'))}};
  std::vector<CheckpointVersion> snap;
  for (Key k = 0; k < 50; ++k) {
    snap.push_back({k, 1000 + k, VersionState::Committed, TxId{1, k},
                    val(std::string(k, 'c'))});
  }
  const auto check = [](const char* what, const wire::Buffer& b) {
    EXPECT_GT(b.size(), wire::kMinFrameSize) << what;
    EXPECT_EQ(b.capacity(), b.size()) << what;
  };
  wire::Buffer prepare;
  encode_prepare(prepare, TxId{2, 11}, 100, 120, updates);
  check("prepare", prepare);
  wire::Buffer commit;
  encode_commit(commit, TxId{2, 11}, 130, updates);
  check("commit", commit);
  wire::Buffer decision;
  encode_decision(decision, TxId{2, 11}, 130, 1u << 30);
  check("decision", decision);
  wire::Buffer checkpoint;
  encode_checkpoint(checkpoint, 45, snap);
  check("checkpoint", checkpoint);
}

TEST(WalCodec, AppendingManyRecordsGrowsTheBufferGeometrically) {
  wire::Buffer log;
  int reallocations = 0;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const std::size_t before = log.capacity();
    encode_decision(log, TxId{1, i}, 10 * i, 10 * i + 1);
    if (log.capacity() != before) ++reallocations;
  }
  EXPECT_EQ(scan_all(log).size(), 4096u);
  EXPECT_LE(reallocations, 20);  // ~log2(4096 records), not one per record
}

TEST(WalCodec, ScanRecoversExactlyTheCompleteFramePrefix) {
  wire::Buffer log;
  encode_abort(log, TxId{1, 1});
  encode_abort(log, TxId{1, 2});
  const std::size_t two = log.size();
  encode_commit(log, TxId{1, 3}, 10, two_updates());

  // Truncate anywhere inside the third frame: exactly two records survive.
  for (std::size_t cut = two + 1; cut < log.size(); ++cut) {
    wire::Buffer torn(log.begin(), log.begin() + cut);
    WalScanResult r;
    const auto records = scan_all(torn, &r);
    ASSERT_EQ(records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(r.valid_bytes, two);
    EXPECT_TRUE(r.torn);
  }
}

TEST(WalCodec, ScanStopsAtABitFlip) {
  wire::Buffer log;
  encode_abort(log, TxId{1, 1});
  const std::size_t one = log.size();
  encode_commit(log, TxId{1, 2}, 10, two_updates());
  encode_abort(log, TxId{1, 3});

  wire::Buffer flipped = log;
  flipped[one + 7] ^= 0x10;  // inside the second frame's body
  WalScanResult r;
  const auto records = scan_all(flipped, &r);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(r.valid_bytes, one);
  EXPECT_TRUE(r.torn);
}

TEST(WalCodec, ScanRejectsAChecksummedButMalformedBody) {
  // A frame whose checksum is valid but whose body is garbage for its type
  // must stop the scan (defense against logic bugs, not just bit rot). The
  // frames are sealed with the shared sealer, so the checksum passes and
  // the body check is what rejects them.
  wire::Buffer wide_node;
  wire::Writer nw(wide_node);
  nw.varint((std::uint64_t{1} << 32) + 1);
  nw.varint(1);
  const std::vector<std::pair<WalRecordType, wire::Buffer>> bodies = {
      {WalRecordType::kCommit, {0xff}},  // varint cut off: not a commit body
      {WalRecordType::kAbort, wide_node},  // TxId node does not fit a NodeId
  };
  for (const auto& [type, body] : bodies) {
    wire::Buffer log;
    wire::append_frame(log, static_cast<std::uint8_t>(type),
                       [&](wire::Writer& w) {
                         w.buffer().insert(w.buffer().end(), body.begin(),
                                           body.end());
                       });

    WalScanResult r;
    const auto records = scan_all(log, &r);
    EXPECT_TRUE(records.empty());
    EXPECT_EQ(r.valid_bytes, 0u);
    EXPECT_TRUE(r.torn);
  }
}

// -- group commit over SimMedium --------------------------------------------

struct WalFixture {
  sim::Scheduler sched;
  Wal::Options options;
  std::unique_ptr<Wal> wal;

  explicit WalFixture(std::uint32_t batch = 3, Timestamp interval = msec(2),
                      Timestamp fsync = msec(1), TornWriteFault torn = {}) {
    options.group_commit_batch = batch;
    options.group_commit_interval = interval;
    wal = std::make_unique<Wal>(
        sched, std::make_unique<SimMedium>(&sched, fsync, torn), options,
        Wal::Counters{});
  }

  std::uint64_t append_abort(const TxId& tx,
                             UniqueFunction<void()> cb = {}) {
    wire::Buffer frame;
    encode_abort(frame, tx);
    return wal->append(frame, std::move(cb));
  }
};

TEST(Wal, BatchSizeTriggersFlushAndRunsCallbacksInOrder) {
  WalFixture f(/*batch=*/3, /*interval=*/msec(50), /*fsync=*/msec(1));
  std::vector<int> order;
  f.append_abort(TxId{1, 1}, [&]() { order.push_back(1); });
  f.append_abort(TxId{1, 2}, [&]() { order.push_back(2); });
  f.sched.run_until(msec(0));  // same instant: nothing flushed yet
  EXPECT_TRUE(order.empty());
  EXPECT_FALSE(f.wal->idle());

  f.append_abort(TxId{1, 3}, [&]() { order.push_back(3); });  // batch full
  f.sched.run_until(msec(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.wal->idle());
  EXPECT_EQ(f.wal->durable_prefix(), f.wal->end_offset());
}

TEST(Wal, DeadlineTriggersFlushForAPartialBatch) {
  WalFixture f(/*batch=*/8, /*interval=*/msec(2), /*fsync=*/msec(1));
  bool durable = false;
  f.append_abort(TxId{1, 1}, [&]() { durable = true; });
  f.sched.run_until(msec(1));
  EXPECT_FALSE(durable);  // deadline at 2ms has not fired
  f.sched.run_until(msec(3));  // deadline + fsync latency
  EXPECT_TRUE(durable);
  EXPECT_TRUE(f.wal->idle());
}

TEST(Wal, SyncOnCleanLogCompletesImmediately) {
  WalFixture f;
  bool done = false;
  f.wal->sync([&]() { done = true; });
  EXPECT_TRUE(done);
}

TEST(Wal, SyncForcesAPartialBatchOut) {
  WalFixture f(/*batch=*/8, /*interval=*/msec(50), /*fsync=*/msec(1));
  f.append_abort(TxId{1, 1});
  bool done = false;
  f.wal->sync([&]() { done = true; });
  f.sched.run_until(msec(1));
  EXPECT_TRUE(done);
  EXPECT_EQ(f.wal->durable_prefix(), f.wal->end_offset());
}

TEST(Wal, CrashDropsUnflushedRecordsAndTheirCallbacks) {
  WalFixture f(/*batch=*/8, /*interval=*/msec(50), /*fsync=*/msec(1));
  bool ran = false;
  f.append_abort(TxId{1, 1}, [&]() { ran = true; });
  f.wal->crash();
  f.sched.run_until(msec(100));
  EXPECT_FALSE(ran);
  EXPECT_EQ(f.wal->durable_prefix(), 0u);
  EXPECT_EQ(f.wal->end_offset(), 0u);

  // The log keeps working after restart-style reuse.
  const auto replayed = f.wal->replay(nullptr);
  EXPECT_EQ(replayed.records, 0u);
  f.append_abort(TxId{2, 1});
  f.wal->sync({});
  f.sched.run_until(msec(200));
  EXPECT_GT(f.wal->durable_prefix(), 0u);
}

TEST(Wal, CrashMidFlushWithoutTornFaultLosesTheWholeChunk) {
  WalFixture f(/*batch=*/1, /*interval=*/msec(2), /*fsync=*/msec(5));
  bool ran = false;
  f.append_abort(TxId{1, 1}, [&]() { ran = true; });  // flush begins now
  f.sched.run_until(msec(2));                         // fsync still in flight
  f.wal->crash();
  f.sched.run_until(msec(100));
  EXPECT_FALSE(ran);
  EXPECT_EQ(f.wal->durable_prefix(), 0u);
}

TEST(Wal, TornCrashPersistsOnlyACheckedPrefix) {
  // torn-write probability 1: a crash mid-fsync keeps a random nonempty
  // prefix of the chunk, possibly with one flipped bit. Whatever happened,
  // replay must recover a whole number of records and truncate the rest —
  // and identical seeds must resolve identically.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::uint64_t first_prefix = 0;
    for (int run = 0; run < 2; ++run) {
      Rng rng(seed);
      TornWriteFault torn{1.0, &rng};
      WalFixture f(/*batch=*/4, msec(2), msec(5), torn);
      for (std::uint64_t i = 1; i <= 4; ++i) f.append_abort(TxId{1, i});
      const std::uint64_t full = f.wal->end_offset();
      f.sched.run_until(msec(1));  // sync in flight
      f.wal->crash();

      const std::uint64_t prefix = f.wal->durable_prefix();
      EXPECT_LE(prefix, full);
      std::size_t n = 0;
      const WalScanResult r =
          f.wal->replay([&](const WalRecord& rec) {
            ++n;
            EXPECT_EQ(rec.type, WalRecordType::kAbort);
          });
      EXPECT_EQ(r.valid_bytes, prefix);
      EXPECT_EQ(n, r.records);
      // After truncation the log is whole again.
      EXPECT_EQ(f.wal->durable_prefix(), f.wal->end_offset());
      if (run == 0) {
        first_prefix = prefix;
      } else {
        EXPECT_EQ(prefix, first_prefix) << "nondeterministic torn resolution";
      }
    }
  }
}

TEST(Wal, RewriteReplacesTheLogWithACheckpoint) {
  WalFixture f(/*batch=*/1, msec(2), msec(1));
  for (std::uint64_t i = 1; i <= 5; ++i) f.append_abort(TxId{1, i});
  f.sched.run_until(msec(20));
  ASSERT_TRUE(f.wal->idle());

  wire::Buffer ckpt;
  std::vector<CheckpointVersion> snap;
  snap.push_back({1, 10, VersionState::Committed, TxId{1, 1}, val("v")});
  encode_checkpoint(ckpt, /*watermark=*/9, snap);
  f.wal->rewrite(ckpt);

  std::vector<WalRecord> records;
  f.wal->replay([&](const WalRecord& rec) { records.push_back(rec); });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(f.wal->end_offset(), ckpt.size());

  // Appends continue after the rewrite in the new coordinates.
  const std::uint64_t end = f.append_abort(TxId{2, 1});
  EXPECT_GT(end, ckpt.size());
}

/// A checkpoint record of `versions` single-version chains.
wire::Buffer checkpoint_of(std::size_t versions) {
  std::vector<CheckpointVersion> snap;
  for (std::size_t i = 0; i < versions; ++i) {
    snap.push_back({static_cast<Key>(i), 10, VersionState::Committed,
                    TxId{1, i + 1}, val(std::string(20, 'v'))});
  }
  wire::Buffer ckpt;
  encode_checkpoint(ckpt, /*watermark=*/9, snap);
  return ckpt;
}

TEST(Wal, RewriteIsDueOnceTheLogGrowsByItsLastRewrite) {
  WalFixture f(/*batch=*/1, msec(2), msec(1));
  // Never rewritten: the floor alone decides.
  EXPECT_FALSE(f.wal->rewrite_due(1));
  f.append_abort(TxId{1, 1});
  EXPECT_FALSE(f.wal->rewrite_due(1));  // not idle: the flush is in flight
  f.sched.run_until(msec(10));
  EXPECT_TRUE(f.wal->rewrite_due(1));
  EXPECT_FALSE(f.wal->rewrite_due(1024));

  // After a rewrite far above the floor, the log must grow by the rewrite's
  // own size before the next one is due.
  const wire::Buffer ckpt = checkpoint_of(40);
  ASSERT_GT(ckpt.size(), 1000u);
  f.wal->rewrite(ckpt);
  EXPECT_FALSE(f.wal->rewrite_due(1));
  std::uint64_t id = 2;
  while (f.wal->end_offset() < 2 * ckpt.size()) {
    EXPECT_FALSE(f.wal->rewrite_due(1)) << "at " << f.wal->end_offset();
    f.append_abort(TxId{1, id++});
    f.sched.run_until(f.sched.now() + msec(5));
  }
  EXPECT_TRUE(f.wal->rewrite_due(1));
  // A floor above the rewrite's size takes over.
  EXPECT_FALSE(f.wal->rewrite_due(4 * ckpt.size()));
}

TEST(Wal, AdoptedAndReplayedLogsCountFromTheirLeadingCheckpoint) {
  sim::Scheduler sched;
  const wire::Buffer ckpt = checkpoint_of(40);
  wire::Buffer tail;
  encode_abort(tail, TxId{2, 1});

  // A log that begins with a checkpoint: only what follows it counts.
  auto medium = std::make_unique<SimMedium>(&sched, msec(1), TornWriteFault{});
  wire::Buffer bytes = ckpt;
  bytes.insert(bytes.end(), tail.begin(), tail.end());
  medium->reset_durable(bytes);
  Wal wal(sched, std::move(medium), Wal::Options{}, Wal::Counters{});
  EXPECT_FALSE(wal.rewrite_due(1));
  wal.replay(nullptr);
  EXPECT_FALSE(wal.rewrite_due(1));

  // A log without one counts from zero.
  auto plain = std::make_unique<SimMedium>(&sched, msec(1), TornWriteFault{});
  plain->reset_durable(tail);
  Wal wal2(sched, std::move(plain), Wal::Options{}, Wal::Counters{});
  EXPECT_TRUE(wal2.rewrite_due(1));
  wal2.replay(nullptr);
  EXPECT_TRUE(wal2.rewrite_due(1));
  EXPECT_FALSE(wal2.rewrite_due(tail.size() + 1));
}

TEST(Wal, AppendReturnsEndOffsetsComparableToDurablePrefix) {
  WalFixture f(/*batch=*/2, msec(50), msec(1));
  const std::uint64_t e1 = f.append_abort(TxId{1, 1});
  const std::uint64_t e2 = f.append_abort(TxId{1, 2});
  EXPECT_GT(e2, e1);
  EXPECT_LT(f.wal->durable_prefix(), e1);  // nothing durable yet
  f.sched.run_until(msec(2));
  EXPECT_GE(f.wal->durable_prefix(), e2);  // batch of 2 flushed
}

TEST(FileMedium, MirrorsDurableBytesAndAdoptsThemBack) {
  const std::string path = testing::TempDir() + "wal_mirror_test.wal";
  std::remove(path.c_str());
  sim::Scheduler sched;
  {
    Wal wal(sched,
            std::make_unique<FileMedium>(path, &sched, msec(1),
                                         TornWriteFault{}),
            Wal::Options{1, msec(2)}, Wal::Counters{});
    wire::Buffer frame;
    encode_decision(frame, TxId{3, 9}, 77, 80);
    wal.append(frame);
    sched.run_until(sched.now() + msec(10));
    ASSERT_TRUE(wal.idle());
    EXPECT_TRUE(static_cast<FileMedium&>(wal.medium()).io_ok());
  }
  // A second medium over the same path adopts the file's contents.
  Wal wal2(sched,
           std::make_unique<FileMedium>(path, &sched, msec(1),
                                        TornWriteFault{}),
           Wal::Options{}, Wal::Counters{});
  std::vector<WalRecord> records;
  wal2.replay([&](const WalRecord& rec) { records.push_back(rec); });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kDecision);
  EXPECT_EQ(records[0].tx, (TxId{3, 9}));
  EXPECT_EQ(records[0].ts, 77u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace str::storage
