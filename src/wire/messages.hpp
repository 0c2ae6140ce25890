// Typed wire codec for every protocol message (docs/WIRE.md).
//
// Each struct in protocol/messages.hpp has one row in the message table
// (stable tag, enumerator, name) and one field list in wire order; encode,
// decode and the exact size are all derived from those (wire/codec.hpp
// "field codecs"). `encode_frame` seals a message into a checksummed,
// length-prefixed frame; `decode_frame` verifies and opens one, rejecting —
// never crashing on — truncated, corrupted, or trailing-garbage input.
// `frame_size` predicts the exact encoded size without building the buffer,
// which is what the closure-mode transport feeds the network's byte
// accounting so that both transport modes report identical traffic.
//
// Versioning rules (see docs/WIRE.md "Versioning"): tags are append-only
// and never reused; fields are encoded in list order and new fields are
// appended, never inserted.
#pragma once

#include <cstdint>
#include <variant>

#include "protocol/messages.hpp"
#include "wire/codec.hpp"

namespace str::wire {

/// The message table: one row per protocol message — stable tag,
/// MessageType enumerator, snake_case name (`wire.msgs.<name>` counters,
/// logs), struct in `protocol::`. Every per-type list in src/wire/ is
/// generated from it. Append new rows at the end; never renumber or reuse a
/// tag (a decoder must be able to reject frames from a newer peer instead
/// of misinterpreting them). Tags are dense from 1.
#define STR_WIRE_MESSAGES(X)                                                \
  X(1, kReadRequest, "read_request", ReadRequest)                           \
  X(2, kReadReply, "read_reply", ReadReply)                                 \
  X(3, kPrepareRequest, "prepare_request", PrepareRequest)                  \
  X(4, kPrepareReply, "prepare_reply", PrepareReply)                        \
  X(5, kReplicateRequest, "replicate_request", ReplicateRequest)            \
  X(6, kCommit, "commit", CommitMessage)                                    \
  X(7, kAbort, "abort", AbortMessage)                                       \
  X(8, kDecisionRequest, "decision_request", DecisionRequest)               \
  X(9, kDecisionReply, "decision_reply", DecisionReply)                     \
  X(10, kDecisionReplicate, "decision_replicate", DecisionReplicate)        \
  X(11, kDecisionReplicateAck, "decision_replicate_ack", DecisionReplicateAck)

enum class MessageType : std::uint8_t {
#define STR_WIRE_ENUMERATOR(tag, id, name, M) id = tag,
  STR_WIRE_MESSAGES(STR_WIRE_ENUMERATOR)
#undef STR_WIRE_ENUMERATOR
};

inline constexpr std::uint8_t kMinMessageType = 1;
inline constexpr std::uint8_t kMaxMessageType = 0
#define STR_WIRE_COUNT(tag, id, name, M) +1
    STR_WIRE_MESSAGES(STR_WIRE_COUNT);
#undef STR_WIRE_COUNT
inline constexpr std::size_t kNumMessageTypes = kMaxMessageType + 1;

// Dense tags: in range here, distinct by the to_string switch.
#define STR_WIRE_IN_RANGE(tag, id, name, M) \
  static_assert(tag >= kMinMessageType && tag <= kMaxMessageType);
STR_WIRE_MESSAGES(STR_WIRE_IN_RANGE)
#undef STR_WIRE_IN_RANGE

/// snake_case name for metrics / logs ("read_request", ...).
const char* to_string(MessageType t);

/// Compile-time tag lookup for message struct M.
template <class M>
constexpr MessageType type_tag();

#define STR_WIRE_TYPE_TAG(tag, id, name, M)              \
  template <>                                            \
  constexpr MessageType type_tag<protocol::M>() {        \
    return MessageType::id;                              \
  }
STR_WIRE_MESSAGES(STR_WIRE_TYPE_TAG)
#undef STR_WIRE_TYPE_TAG

/// A decoded message of any type (monostate = nothing decoded).
#define STR_WIRE_ALTERNATIVE(tag, id, name, M) , protocol::M
using AnyMessage =
    std::variant<std::monostate STR_WIRE_MESSAGES(STR_WIRE_ALTERNATIVE)>;
#undef STR_WIRE_ALTERNATIVE

// -- field lists --------------------------------------------------------------
// One per message, in wire order. Each ends with the optional trace context
// (docs/WIRE.md "Trace context"), which must stay last.

void fields(auto& f, Of<protocol::ReadRequest> auto& m) {
  f(m.reader);
  f(m.reader_node);
  f(m.req_id);
  f(m.key);
  f(m.rs);
  f.trailing(m.tspan);
}

void fields(auto& f, Of<protocol::ReadReply> auto& m) {
  f(m.reader);
  f(m.req_id);
  f(m.key);
  f(m.found);
  f(m.value);
  f(m.writer);
  f(m.version_ts);
  f.trailing(m.tspan);
}

void fields(auto& f, Of<protocol::PrepareRequest> auto& m) {
  f(m.tx);
  f(m.coordinator);
  f(m.partition);
  f(m.rs);
  f(m.updates);
  f.trailing(m.tspan);
}

void fields(auto& f, Of<protocol::PrepareReply> auto& m) {
  f(m.tx);
  f(m.partition);
  f(m.from);
  f(m.prepared);
  f(m.proposed_ts);
  f.trailing(m.tspan);
}

void fields(auto& f, Of<protocol::ReplicateRequest> auto& m) {
  f(m.tx);
  f(m.coordinator);
  f(m.partition);
  f(m.rs);
  f(m.updates);
  f.trailing(m.tspan);
}

void fields(auto& f, Of<protocol::CommitMessage> auto& m) {
  f(m.tx);
  f(m.partition);
  f(m.commit_ts);
  f.trailing(m.tspan);
}

void fields(auto& f, Of<protocol::AbortMessage> auto& m) {
  f(m.tx);
  f(m.partition);
  f.trailing(m.tspan);
}

void fields(auto& f, Of<protocol::DecisionRequest> auto& m) {
  f(m.tx);
  f(m.partition);
  f(m.from);
  f.trailing(m.tspan);
}

void fields(auto& f, Of<protocol::DecisionReply> auto& m) {
  f(m.tx);
  f(m.partition);
  f(m.decision, protocol::TxDecision::Aborted);
  f(m.commit_ts);
  f.trailing(m.tspan);
}

void fields(auto& f, Of<protocol::DecisionReplicate> auto& m) {
  f(m.tx);
  f(m.origin);
  f(m.commit_ts);
  f(m.decided_at);
  f.trailing(m.tspan);
}

void fields(auto& f, Of<protocol::DecisionReplicateAck> auto& m) {
  f(m.tx);
  f(m.partition);
  f(m.from);
  f(m.kind, protocol::DecisionAckKind::kNoRecord);
  f(m.commit_ts);
  f.trailing(m.tspan);
}

// -- frames -------------------------------------------------------------------

/// Exact size encode_frame(m) would produce, without building it. This is
/// the number both transport modes charge to the network byte counters.
template <class M>
std::size_t frame_size(const M& m) {
  SizeCounter n;
  Encoder<SizeCounter> e(n);
  fields(e, m);
  return kFrameOverhead + n.size();
}

/// Seal `m` into a complete frame (length prefix, tag, body, checksum).
template <class M>
Buffer encode_frame(const M& m) {
  Buffer out;
  out.reserve(frame_size(m));
  append_frame(out, static_cast<std::uint8_t>(type_tag<M>()), [&](Writer& w) {
    Encoder<Writer> e(w);
    fields(e, m);
  });
  return out;
}

/// Verify and open one datagram-framed message. On any status but kOk,
/// `out` holds std::monostate. Never reads out of bounds and never throws —
/// this is the function the fuzz smoke hammers (tests/wire).
DecodeStatus decode_frame(const std::uint8_t* data, std::size_t size,
                          AnyMessage& out);

}  // namespace str::wire
