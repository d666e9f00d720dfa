#include "telemetry/trace.hpp"

#include <array>
#include <ostream>
#include <utility>

namespace swish::telemetry {

namespace {

constexpr std::array<std::pair<std::string_view, std::uint32_t>, 13> kCategoryNames = {{
    {"packet", kTracePacket},
    {"drop", kTraceDrop},
    {"recirc", kTraceRecirc},
    {"proto-chain", kTraceProtoChain},
    {"proto-ewo", kTraceProtoEwo},
    {"proto-own", kTraceProtoOwn},
    {"proto-control", kTraceProtoControl},
    {"migration", kTraceMigration},
    {"failover", kTraceFailover},
    {"membership", kTraceMembership},
    {"proto-con", kTraceProtoCon},
    {"int", kTraceInt},
    {"all", kTraceAll},
}};

std::string_view category_name(std::uint32_t cat) {
  for (const auto& [name, bit] : kCategoryNames) {
    if (bit == cat) return name;
  }
  return "?";
}

}  // namespace

std::optional<std::uint32_t> parse_trace_mask(std::string_view spec) {
  std::uint32_t mask = 0;
  while (!spec.empty()) {
    const std::size_t comma = spec.find(',');
    const std::string_view token = spec.substr(0, comma);
    spec = comma == std::string_view::npos ? std::string_view{} : spec.substr(comma + 1);
    if (token.empty()) continue;
    bool known = false;
    for (const auto& [name, bit] : kCategoryNames) {
      if (token == name) {
        mask |= bit;
        known = true;
        break;
      }
    }
    if (!known) return std::nullopt;
  }
  return mask;
}

std::string trace_mask_to_string(std::uint32_t mask) {
  if (mask == kTraceAll) return "all";
  std::string out;
  for (const auto& [name, bit] : kCategoryNames) {
    if (bit == kTraceAll) continue;
    if (mask & bit) {
      if (!out.empty()) out += ',';
      out += name;
    }
  }
  return out.empty() ? "none" : out;
}

std::string trace_category_list() {
  std::string out;
  for (const auto& [name, bit] : kCategoryNames) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

void write_trace(std::ostream& os, const std::vector<TraceEvent>& events) {
  for (const TraceEvent& e : events) {
    os << e.time << ' ' << category_name(e.category) << " n" << e.node << ' ' << e.what
       << " a=" << e.a << " b=" << e.b << '\n';
  }
}

void Tracer::enable(std::uint32_t mask, std::size_t capacity) {
  mask_ = mask;
  if (mask_ != 0 && log_.capacity() != capacity) log_ = NodeLog<TraceEvent>(capacity);
}

void Tracer::record_slow(TraceCategory cat, NodeId node, const char* what, std::uint64_t a,
                         std::uint64_t b) {
  log_.append(node, TraceEvent{now_ != nullptr ? *now_ : 0, cat, node, what, a, b});
}

}  // namespace swish::telemetry
