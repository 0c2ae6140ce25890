#include "net/transport/transport.hpp"

namespace str::net {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kDes:
      return "des";
    case TransportKind::kTcp:
      return "tcp";
  }
  return "unknown";
}

bool parse_transport(const std::string& name, TransportKind& out) {
  if (name == "des") {
    out = TransportKind::kDes;
    return true;
  }
  if (name == "tcp") {
    out = TransportKind::kTcp;
    return true;
  }
  return false;
}

}  // namespace str::net
