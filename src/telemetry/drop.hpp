// In-band network telemetry records and mirror-on-drop forensics.
//
// Two per-simulator logs, owned by sim::Simulator next to the Tracer:
//
//  - NodeLog<IntSinkReport>: INT sink reports. When an INT-sampled packet
//    reaches its destination switch, the accumulated per-hop stack (switch
//    id, ingress/egress timestamps, queue depth, rule hit) is peeled off the
//    wire and recorded here.
//  - DropRing: mirror-on-drop. Every drop site in the fabric — link queue
//    overflow, on-wire loss, dead-node blackhole, missing route, data-plane
//    capacity, recirculation cap, protocol parse errors, engine rejects,
//    quorum-unreachable consensus writes, NF discards — records a typed
//    DropRecord carrying whatever INT stack the dropped packet had
//    accumulated, so any loss is attributable to an exact hop and cause.
//
// Both keep their records in a telemetry::NodeLog (node_log.hpp): per-node
// rings with per-node seqs, gathered across shards by merge_canonical.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "telemetry/node_log.hpp"

namespace swish::telemetry {

/// One INT hop record: what one switch contributed while forwarding the
/// packet. rule_hit is the egress port + 1 (0 = local delivery / none), the
/// closest analogue of a match-action "which rule forwarded this" id the
/// simulated pipeline has.
struct IntHop {
  std::uint32_t switch_id = 0;
  TimeNs ingress_ts = 0;
  TimeNs egress_ts = 0;
  std::uint32_t queue_depth = 0;  ///< data-plane backlog (packets) at ingress
  std::uint32_t rule_hit = 0;
};

/// Every way the fabric can lose a packet or reject an operation, unified in
/// one typed enum so no drop site reports a bare counter bump.
enum class DropReason : std::uint8_t {
  kLinkQueueOverflow = 0,   ///< serialization queue past max_queue_delay
  kLinkLoss,                ///< Bernoulli on-wire loss
  kDeadNode,                ///< delivered to a failed switch (blackhole)
  kNoRoute,                 ///< routing table has no port toward the target
  kDataplaneCapacity,       ///< switch pipeline backlog past dataplane_queue
  kRecircCap,               ///< recirculation count past max_recirculations
  kParseError,              ///< malformed protocol payload at the consumer
  kCpBufferFull,            ///< SRO/ERO writer CP output buffer full
  kOwnQueueOverflow,        ///< OWN per-key migration queue full
  kConQueueOverflow,        ///< CON follower forward queue full
  kWriteRetriesExhausted,   ///< retransmit budget spent, write abandoned
  kQuorumUnreachable,       ///< CON write could not reach a majority
  kRecoveryAbandoned,       ///< recovery stream target unreachable
  kNfDiscard,               ///< the NF ended the packet without delivering it
};
inline constexpr std::size_t kNumDropReasons = 14;

const char* to_string(DropReason reason) noexcept;

/// One mirrored drop. `hops` is the packet's INT stack at the drop point
/// (empty for unsampled packets and packetless rejects); `detail` is
/// site-specific (peer node, destination, space id, retry count, ...).
struct DropRecord {
  TimeNs time = 0;
  NodeId node = kInvalidNode;
  DropReason reason = DropReason::kLinkLoss;
  std::uint32_t packet_bytes = 0;  ///< 0 when no packet was materialized
  std::uint64_t detail = 0;
  std::uint64_t seq = 0;  ///< per-node record index (dense from 1)
  std::vector<IntHop> hops;
};

/// One INT sink extraction: the full path a sampled packet took.
struct IntSinkReport {
  TimeNs time = 0;
  NodeId sink = kInvalidNode;
  bool truncated = false;    ///< hop stack hit the cap somewhere en route
  std::uint8_t hop_cap = 0;
  std::uint32_t packet_bytes = 0;
  std::uint64_t seq = 0;  ///< per-sink report index (dense from 1)
  std::vector<IntHop> hops;
};

inline RecordKey record_key(const DropRecord& r) noexcept { return {r.time, r.node, r.seq}; }
inline RecordKey record_key(const IntSinkReport& r) noexcept { return {r.time, r.sink, r.seq}; }

/// INT sink reports retained per sink switch.
inline constexpr std::size_t kIntReportsPerSink = 1u << 16;

/// Per-switch bounded drop log with exact per-reason tallies. Detailed
/// records are retained up to `records_per_node` per node (oldest evicted
/// first); the per-(node, reason) counters are never evicted, so reason
/// attribution stays 100% even when forensic detail ages out.
class DropRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;  ///< records per node

  explicit DropRing(std::size_t records_per_node = kDefaultCapacity) : log_(records_per_node) {}

  void set_clock(const TimeNs* now) noexcept { now_ = now; }

  void record(NodeId node, DropReason reason, std::uint32_t packet_bytes,
              std::uint64_t detail, std::vector<IntHop> hops = {});

  /// Per-node reason tallies, nodes ascending (exact, never evicted).
  [[nodiscard]] const std::map<NodeId, std::array<std::uint64_t, kNumDropReasons>>& counts()
      const noexcept {
    return counts_;
  }

  /// Retained records, nodes ascending and per-node recording order.
  [[nodiscard]] std::vector<DropRecord> records() const { return log_.records(); }

 private:
  const TimeNs* now_ = nullptr;
  NodeLog<DropRecord> log_;
  std::map<NodeId, std::array<std::uint64_t, kNumDropReasons>> counts_;
};

}  // namespace swish::telemetry
