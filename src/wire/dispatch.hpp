// Typed RPC dispatch over the wire codec (docs/WIRE.md).
//
// Two entry points:
//
//  * `post(cluster, from, to, msg)` — the one way the protocol layer sends
//    a message. In wire mode (`Cluster::Config::wire_codec`) the message is
//    encoded into a checksummed frame and shipped as bytes through
//    `Network::send_frame`, then decoded and routed at the destination. In
//    the default closure mode it travels as a closure whose byte accounting
//    uses the exact frame size — so both modes report identical traffic and
//    stay on the same RNG draw sequence.
//
//  * `dispatch_frame(cluster, to, data, size)` — decode one received frame
//    and route it to the owning handler on node `to` (the routing table is
//    the `deliver` overload set below). Installed as the Network's
//    FrameHandler by the Cluster when wire mode is on.
//
// Correlation is carried in the messages themselves (a read's req_id,
// TxId + partition for votes and decisions), not in captured continuations,
// which is what makes the serialized path possible at all.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "protocol/messages.hpp"
#include "wire/messages.hpp"

namespace str::protocol {
class Cluster;
}

namespace str::wire {

// -- routing table ------------------------------------------------------------
// One `deliver` overload per message-table row: route a decoded message to
// its handler on node `to`. Used by both transports (closure payloads call
// these directly; wire frames go through dispatch_frame).

#define STR_WIRE_DELIVER(tag, id, name, M) \
  void deliver(protocol::Cluster& cl, NodeId to, const protocol::M& m);
STR_WIRE_MESSAGES(STR_WIRE_DELIVER)
#undef STR_WIRE_DELIVER

/// Decode one received frame and route it. Returns kOk when the message was
/// delivered; any other status means the frame was rejected (and the caller
/// should count it).
DecodeStatus dispatch_frame(protocol::Cluster& cl, NodeId to,
                            const std::uint8_t* data, std::size_t size);

/// Send `msg` from `from` to `to` through the cluster's transport mode.
/// Explicitly instantiated in dispatch.cpp for every message type.
template <class M>
void post(protocol::Cluster& cl, NodeId from, NodeId to, M msg);

#define STR_WIRE_EXTERN_POST(tag, id, name, M)                             \
  extern template void post<protocol::M>(protocol::Cluster&, NodeId, NodeId, \
                                         protocol::M);
STR_WIRE_MESSAGES(STR_WIRE_EXTERN_POST)
#undef STR_WIRE_EXTERN_POST

}  // namespace str::wire
