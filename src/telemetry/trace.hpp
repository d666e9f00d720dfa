// Virtual-time flight recorder: simulation events (packet in/out, drop,
// recirculation, protocol message by class, ownership migration, failover)
// with per-category enable masks. Events are per-node records in a
// telemetry::NodeLog, like drop records, INT reports and spans: each node
// keeps its newest `capacity` events, and Fabric::all_trace_events gathers
// every shard's tracer in canonical (time, node, seq) order. The hot-path
// guard is a single mask load + branch, and nothing is allocated until an
// enabled category records, so a disabled tracer costs (near) nothing —
// both properties are regression-tested in test_telemetry.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "telemetry/node_log.hpp"

namespace swish::telemetry {

/// Event categories, combinable as a bitmask.
enum TraceCategory : std::uint32_t {
  kTracePacket = 1u << 0,        ///< packet admitted / delivered / sent by a switch
  kTraceDrop = 1u << 1,          ///< every DropRing record, labelled by its DropReason
  kTraceRecirc = 1u << 2,        ///< pipeline recirculation
  kTraceProtoChain = 1u << 3,    ///< SRO/ERO chain messages (write req/fwd/ack/release)
  kTraceProtoEwo = 1u << 4,      ///< EWO update broadcast / apply
  kTraceProtoOwn = 1u << 5,      ///< OWN ownership messages (request/grant/update)
  kTraceProtoControl = 1u << 6,  ///< heartbeats, redirects, recovery chunks
  kTraceMigration = 1u << 7,     ///< per-key ownership migration (grant installed, revoke)
  kTraceFailover = 1u << 8,      ///< failure declared / failover complete / readmission
  kTraceMembership = 1u << 9,    ///< SWIM suspicion / refutation / faulty verdicts + wire msgs
  kTraceProtoCon = 1u << 10,     ///< CON consensus messages (forward/prepare/accept/learn)
  kTraceInt = 1u << 11,          ///< INT sampling / hop append / sink extraction
  kTraceAll = 0xffffffffu,
};

/// One recorded event. `what` must point at a string literal (or other
/// static-storage string): records store the pointer, not a copy.
struct TraceEvent {
  TimeNs time = 0;
  std::uint32_t category = 0;
  NodeId node = 0;
  const char* what = "";
  std::uint64_t a = 0;  ///< event-specific (key, space, peer id, ...)
  std::uint64_t b = 0;  ///< event-specific (bytes, seq, port, ...)
  std::uint64_t seq = 0;  ///< per-node event index (dense from 1)
};

inline RecordKey record_key(const TraceEvent& e) noexcept { return {e.time, e.node, e.seq}; }

/// Parses a comma-separated category list ("packet,drop,proto-chain", or
/// "all") into a mask. Returns nullopt on any unknown name.
std::optional<std::uint32_t> parse_trace_mask(std::string_view spec);

/// Human-readable list of category names in `mask`.
std::string trace_mask_to_string(std::uint32_t mask);

/// Every valid category name, comma-separated (CLI help and error text).
std::string trace_category_list();

/// Writes events one text line each, in the order given:
///   <time> <category> n<node> <what> a=<a> b=<b>
void write_trace(std::ostream& os, const std::vector<TraceEvent>& events);

/// The flight recorder. Owned by sim::Simulator next to the MetricsRegistry.
class Tracer {
 public:
  /// Events retained per node (the DropRing default).
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// Enables the categories in `mask` (replacing the current mask); each
  /// node keeps its newest `capacity` events. A new capacity starts an empty
  /// log. `enable(0)` disables recording and keeps what was recorded.
  void enable(std::uint32_t mask, std::size_t capacity = kDefaultCapacity);

  [[nodiscard]] std::uint32_t mask() const noexcept { return mask_; }
  [[nodiscard]] bool enabled(TraceCategory cat) const noexcept { return (mask_ & cat) != 0; }

  /// Hot-path record. When the category is masked off this is one load and
  /// one predictable branch, and nothing is allocated.
  void record(TraceCategory cat, NodeId node, const char* what, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    if ((mask_ & cat) == 0) return;
    record_slow(cat, node, what, a, b);
  }

  /// The simulator stamps events with virtual time via this hook so the
  /// tracer has no dependency on the simulator type.
  void set_clock(const TimeNs* now) noexcept { now_ = now; }

  /// Retained events, nodes ascending and per-node recording order.
  [[nodiscard]] std::vector<TraceEvent> events() const { return log_.records(); }

 private:
  void record_slow(TraceCategory cat, NodeId node, const char* what, std::uint64_t a,
                   std::uint64_t b);

  std::uint32_t mask_ = 0;
  const TimeNs* now_ = nullptr;
  NodeLog<TraceEvent> log_{kDefaultCapacity};
};

}  // namespace swish::telemetry
