#include "wire/messages.hpp"

#include <utility>

namespace str::wire {

namespace {

template <class M>
DecodeStatus decode_as(const FrameView& frame, AnyMessage& out) {
  Reader r(frame.body, frame.body_len);
  Decoder d(r);
  M m;
  fields(d, m);
  if (!r.ok() || r.remaining() != 0) return DecodeStatus::kBadBody;
  out = std::move(m);
  return DecodeStatus::kOk;
}

}  // namespace

const char* to_string(MessageType t) {
  switch (t) {
#define STR_WIRE_NAME(tag, id, name, M) \
  case MessageType::id:                 \
    return name;
    STR_WIRE_MESSAGES(STR_WIRE_NAME)
#undef STR_WIRE_NAME
  }
  return "unknown";
}

DecodeStatus decode_frame(const std::uint8_t* data, std::size_t size,
                          AnyMessage& out) {
  out = std::monostate{};
  FrameView frame;
  const DecodeStatus st = open_frame(data, size, frame);
  if (st != DecodeStatus::kOk) return st;
  switch (static_cast<MessageType>(frame.type)) {
#define STR_WIRE_DECODE(tag, id, name, M) \
  case MessageType::id:                   \
    return decode_as<protocol::M>(frame, out);
    STR_WIRE_MESSAGES(STR_WIRE_DECODE)
#undef STR_WIRE_DECODE
  }
  return DecodeStatus::kBadType;
}

}  // namespace str::wire
