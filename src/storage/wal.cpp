#include "storage/wal.hpp"

#include <utility>

#include "common/assert.hpp"

namespace str::storage {

/// Checkpoint entry layout. Declared in this namespace (not an anonymous
/// one) so the wire visitors find it by argument-dependent lookup.
void fields(auto& f, wire::Of<CheckpointVersion> auto& v) {
  f(v.key);
  f(v.ts);
  f(v.state, VersionState::Committed);
  f(v.writer);
  f(v.value);
}

namespace {

/// Seal one record in place: `type`, then `fs` in log order, each in its
/// wire field encoding. A record sealed into an empty buffer is sized first
/// (Encoder<SizeCounter>, as wire::frame_size does), so it takes exactly one
/// allocation of exactly its size. A buffer that already holds records
/// grows as a vector does, so appending many records stays linear.
template <class... Fields>
void seal(wire::Buffer& out, WalRecordType type, const Fields&... fs) {
  if (out.empty()) {
    wire::SizeCounter n;
    wire::Encoder<wire::SizeCounter> sizer(n);
    (sizer(fs), ...);
    out.reserve(wire::kFrameOverhead + n.size());
  }
  wire::append_frame(out, static_cast<std::uint8_t>(type),
                     [&](wire::Writer& w) {
                       wire::Encoder<wire::Writer> e(w);
                       (e(fs), ...);
                     });
}

/// Decode one opened frame; the field order per type mirrors the encoders
/// below. False on an unknown type, any malformed field, or trailing bytes.
bool decode_record(const wire::FrameView& frame, WalRecord& rec) {
  wire::Reader r(frame.body, frame.body_len);
  wire::Decoder d(r);
  rec.type = static_cast<WalRecordType>(frame.type);
  switch (rec.type) {
    case WalRecordType::kPrepare:
      d(rec.tx);
      d(rec.rs);
      d(rec.ts);
      d(rec.updates);
      break;
    case WalRecordType::kCommit:
      d(rec.tx);
      d(rec.ts);
      d(rec.updates);
      break;
    case WalRecordType::kAbort:
      d(rec.tx);
      break;
    case WalRecordType::kDecision:
      d(rec.tx);
      d(rec.ts);
      d(rec.at);
      break;
    case WalRecordType::kCheckpoint:
      d(rec.ts);
      d(rec.snapshot);
      break;
    default:
      return false;
  }
  return r.ok() && r.remaining() == 0;
}

/// Extent of the checkpoint record that `bytes` begins with; 0 when the
/// log does not begin with an intact one.
std::uint64_t leading_checkpoint_bytes(const wire::Buffer& bytes) {
  if (bytes.size() < wire::kFrameLenBytes) return 0;
  const std::size_t total = wire::frame_extent(bytes.data());
  wire::FrameView frame;
  if (total > bytes.size() ||
      wire::open_frame(bytes.data(), total, frame) != wire::DecodeStatus::kOk ||
      frame.type != static_cast<std::uint8_t>(WalRecordType::kCheckpoint)) {
    return 0;
  }
  return total;
}

}  // namespace

void encode_prepare(wire::Buffer& out, const TxId& tx, Timestamp rs,
                    Timestamp proposed, const WalUpdates& updates) {
  seal(out, WalRecordType::kPrepare, tx, rs, proposed, updates);
}

void encode_commit(wire::Buffer& out, const TxId& tx, Timestamp commit_ts,
                   const WalUpdates& updates) {
  seal(out, WalRecordType::kCommit, tx, commit_ts, updates);
}

void encode_abort(wire::Buffer& out, const TxId& tx) {
  seal(out, WalRecordType::kAbort, tx);
}

void encode_decision(wire::Buffer& out, const TxId& tx, Timestamp commit_ts,
                     Timestamp at) {
  seal(out, WalRecordType::kDecision, tx, commit_ts, at);
}

void encode_checkpoint(wire::Buffer& out, Timestamp watermark,
                       const std::vector<CheckpointVersion>& snapshot) {
  seal(out, WalRecordType::kCheckpoint, watermark, snapshot);
}

WalScanResult scan_wal(const wire::Buffer& bytes,
                       const std::function<void(const WalRecord&)>& visit) {
  WalScanResult result;
  std::size_t off = 0;
  // Stop at the first frame that is cut short, fails its checksum, or is
  // checksummed but malformed: everything from there on is the torn tail.
  // The length prefix is bounded by the bytes at hand before it is trusted.
  while (bytes.size() - off >= wire::kFrameLenBytes) {
    const std::uint8_t* at = bytes.data() + off;
    const std::size_t total = wire::frame_extent(at);
    wire::FrameView frame;
    WalRecord rec;
    if (total > bytes.size() - off ||
        wire::open_frame(at, total, frame) != wire::DecodeStatus::kOk ||
        !decode_record(frame, rec)) {
      break;
    }
    if (visit) visit(rec);
    off += total;
    ++result.records;
  }
  result.valid_bytes = off;
  result.torn = off != bytes.size();
  return result;
}

Wal::Wal(sim::Scheduler& sched, std::unique_ptr<Medium> medium,
         Options options, Counters counters)
    : sched_(sched),
      medium_(std::move(medium)),
      options_(options),
      counters_(counters) {
  end_offset_ = medium_->durable().size();
  rewrite_bytes_ = leading_checkpoint_bytes(medium_->durable());
}

std::uint64_t Wal::append(const wire::Buffer& frame_bytes,
                          UniqueFunction<void()> on_durable) {
  STR_ASSERT_MSG(frame_bytes.size() >= wire::kMinFrameSize,
                 "Wal::append of a non-frame");
  medium_->append(frame_bytes);
  end_offset_ += frame_bytes.size();
  ++pending_count_;
  if (on_durable) pending_cbs_.push_back(std::move(on_durable));
  if (counters_.records != nullptr) counters_.records->inc();
  if (!medium_->sync_in_flight()) {
    if (pending_count_ >= options_.group_commit_batch) {
      begin_flush();
    } else {
      arm_deadline();
    }
  }
  return end_offset_;
}

void Wal::sync(UniqueFunction<void()> cb) {
  if (idle()) {
    if (cb) cb();
    return;
  }
  if (pending_count_ == 0) {
    // Nothing new to flush — ride the in-flight sync.
    if (cb) inflight_cbs_.push_back(std::move(cb));
    return;
  }
  if (cb) pending_cbs_.push_back(std::move(cb));
  if (medium_->sync_in_flight()) {
    force_next_ = true;  // flush the batch as soon as the current sync lands
  } else {
    begin_flush();
  }
}

void Wal::begin_flush() {
  STR_ASSERT_MSG(!medium_->sync_in_flight(), "flush over an in-flight sync");
  ++gen_;  // retire any armed deadline timer
  deadline_armed_ = false;
  force_next_ = false;
  pending_count_ = 0;
  inflight_cbs_ = std::move(pending_cbs_);
  pending_cbs_.clear();
  inflight_bytes_ = medium_->buffered_bytes();
  medium_->sync([this]() {
    if (counters_.flushes != nullptr) counters_.flushes->inc();
    if (counters_.flushed_bytes != nullptr) {
      counters_.flushed_bytes->inc(inflight_bytes_);
    }
    // Callbacks may append or sync re-entrantly: detach the list first.
    std::vector<UniqueFunction<void()>> cbs = std::move(inflight_cbs_);
    inflight_cbs_.clear();
    for (auto& cb : cbs) cb();
    if (!medium_->sync_in_flight() && pending_count_ > 0) {
      if (force_next_ || pending_count_ >= options_.group_commit_batch) {
        begin_flush();
      } else {
        arm_deadline();
      }
    }
  });
}

void Wal::arm_deadline() {
  if (deadline_armed_) return;  // the earliest deadline stands
  deadline_armed_ = true;
  sched_.schedule_after(options_.group_commit_interval,
                        [this, gen = gen_]() {
                          if (gen != gen_) return;  // flushed or crashed
                          deadline_armed_ = false;
                          if (pending_count_ > 0) begin_flush();
                        });
}

void Wal::crash() {
  medium_->crash();
  pending_cbs_.clear();
  inflight_cbs_.clear();
  pending_count_ = 0;
  force_next_ = false;
  ++gen_;  // retire the deadline timer
  deadline_armed_ = false;
  end_offset_ = medium_->durable().size();
  rewrite_bytes_ = 0;  // volatile: replay() reads it back from the log
}

std::uint64_t Wal::durable_prefix() const {
  return scan_wal(medium_->durable(), nullptr).valid_bytes;
}

WalScanResult Wal::replay(const std::function<void(const WalRecord&)>& visit) {
  STR_ASSERT_MSG(idle(), "Wal::replay on a busy log");
  const WalScanResult result = scan_wal(medium_->durable(), visit);
  if (counters_.replayed != nullptr) counters_.replayed->inc(result.records);
  if (result.torn) {
    if (counters_.torn != nullptr) counters_.torn->inc();
    const wire::Buffer& bytes = medium_->durable();
    wire::Buffer prefix(bytes.begin(),
                        bytes.begin() + static_cast<std::ptrdiff_t>(
                                            result.valid_bytes));
    medium_->reset_durable(std::move(prefix));
  }
  end_offset_ = result.valid_bytes;
  rewrite_bytes_ = leading_checkpoint_bytes(medium_->durable());
  return result;
}

void Wal::rewrite(wire::Buffer bytes) {
  STR_ASSERT_MSG(idle(), "Wal::rewrite on a busy log");
  end_offset_ = bytes.size();
  rewrite_bytes_ = bytes.size();
  medium_->reset_durable(std::move(bytes));
  if (counters_.checkpoints != nullptr) counters_.checkpoints->inc();
}

}  // namespace str::storage
