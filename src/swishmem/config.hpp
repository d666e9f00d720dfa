// Configuration of SwiShmem register spaces and the per-switch runtime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace swish::shm {

/// The register classes of §5 (Table 1). The paper names three; kOWN covers
/// its fourth access pattern — write-intensive strongly-consistent state
/// (§6.3, e.g. NAT port allocation) — via per-key single-writer ownership.
enum class ConsistencyClass : std::uint8_t {
  kSRO,  ///< Strong Read Optimized: linearizable, chain-replicated
  kERO,  ///< Eventual Read Optimized: SRO writes, always-local reads
  kEWO,  ///< Eventual Write Optimized: local writes, async replication
  kOWN,  ///< Owned: per-key single writer, ownership migrates to the writer
  /// Consensus: majority-quorum linearizable writes through an elected
  /// coordinator (Paxos mapped onto switch pipelines, ROADMAP item 3).
  /// Survives replica failure without a chain head; supports atomic
  /// multi-key transactions (one consensus slot carries all ops) and
  /// lease-protected local reads.
  kCON,
};

ConsistencyClass parse_consistency_class(const std::string& s);  // throws on unknown

/// Storage layout of a space (ROADMAP item 5).
enum class SpaceKind : std::uint8_t {
  /// Flat fixed-size arrays/tables sized at config time (the original
  /// layout): O(1) access, memory proportional to `size` whether keys are
  /// live or not.
  kDense,
  /// Ordered copy-on-write B+-tree (swishmem/store/): millions of
  /// addressable keys with memory proportional to live keys, ordered/range
  /// iteration, longest-prefix-match reads, and O(1) consistent snapshots.
  kSparse,
};

SpaceKind parse_space_kind(const std::string& s);  // throws on unknown

/// Failure-detection protocol run by the fabric (ROADMAP item 2).
enum class MembershipProtocol : std::uint8_t {
  /// The original §6.3 design: every switch beacons the central controller,
  /// which scans for heartbeat silence. Simple, but the controller is both a
  /// single point of failure and an O(switches) bottleneck.
  kHeartbeat,
  /// SWIM-style gossip between switch control planes: randomized ping,
  /// ping-req indirection, suspicion timeouts with incarnation-numbered
  /// refutation, and piggybacked membership dissemination. The controller
  /// only consumes finished verdicts — it is not in the detection loop.
  kSwim,
};

MembershipProtocol parse_membership_protocol(const std::string& s);  // throws on unknown

/// How an EWO replica merges remote updates (§6.2).
enum class MergePolicy : std::uint8_t {
  kLww,        ///< last-writer-wins by (timestamp, switch-id) version
  kGCounter,   ///< increment-only CRDT counter (per-switch vector, max-merge)
  kPNCounter,  ///< increment/decrement CRDT counter (two vectors)
  /// Grow-only bit-set CRDT: each register is a 64-bit membership bitmap and
  /// merge is bitwise OR. §6.2 leaves in-switch CRDT sets as an open
  /// question; a G-set over register bitmaps is implementable on PISA
  /// hardware (stateful ALUs support OR) and covers shared blocklists.
  kGSet,
};

/// How EWO periodic synchronization picks targets (§7 suggests random-one).
enum class SyncFanout : std::uint8_t {
  kRandomOne,  ///< each chunk goes to one randomly-selected group member
  kBroadcast,  ///< each chunk is multicast to all group members
};

const char* to_string(ConsistencyClass cls) noexcept;
const char* to_string(MergePolicy policy) noexcept;
const char* to_string(SpaceKind kind) noexcept;
const char* to_string(MembershipProtocol protocol) noexcept;

/// Static description of one shared register space (a named register array or
/// control-plane table replicated across the deployment).
struct SpaceConfig {
  std::uint32_t id = 0;
  std::string name;
  ConsistencyClass cls = ConsistencyClass::kEWO;
  /// Dense: number of registers / table capacity (allocated up front).
  /// Sparse: addressable key count only — nothing is allocated until keys go
  /// live, so millions are fine here.
  std::size_t size = 1024;
  unsigned value_bits = 64;

  // Access pattern ------------------------------------------------------
  // Every engine reads these four fields as the space's declared access
  // pattern and refuses at add_space one it cannot serve (DESIGN.md §11).

  /// Storage layout; kSparse rebuilds the space on the ordered CoW store,
  /// which (like a table) reads absent keys as ReadStatus::kMiss.
  SpaceKind kind = SpaceKind::kDense;
  /// Logical key width in bits. Below 64 declares a longest-prefix-match
  /// space (store::lpm_pack keys, key_bits <= 56), which needs sparse storage
  /// and an engine with read_lpm (not OWN).
  unsigned key_bits = 64;
  /// A flow table keyed by hashed 64-bit ids (NAT / firewall / LB
  /// connection tables). Dense storage keeps it in a control-plane
  /// exact-match table, so chain hops apply updates via their CPs; EWO and
  /// OWN index dense registers by the key itself and refuse it.
  bool table_backed = false;
  /// How values combine: LWW registers change through write(); G-/PN-
  /// counters only through update(), which SRO, ERO and CON lack; G-set
  /// writes OR their bits in, a join only EWO performs.
  MergePolicy merge = MergePolicy::kLww;

  // Replication tuning --------------------------------------------------
  /// SRO/ERO/CON guard (sequence number + pending bit) slots. 0 means one per
  /// key; a smaller count shares guards across hashed keys — the §7 memory
  /// optimization, at the cost of false-pending read redirections.
  std::size_t guard_slots = 0;
  /// EWO: immediately mirror each write to the group (in addition to
  /// periodic sync). Disable to measure the sync-only ablation.
  bool mirror_writes = true;
  /// EWO: coalesce this many mirrored entries per update packet (1 = no
  /// batching; larger trades bandwidth for staleness, §7 "Bandwidth
  /// overhead").
  std::size_t mirror_batch = 1;

  [[nodiscard]] std::size_t effective_guard_slots() const noexcept {
    return guard_slots == 0 ? size : guard_slots;
  }
  [[nodiscard]] bool sparse() const noexcept { return kind == SpaceKind::kSparse; }
};

/// Per-switch runtime tuning.
struct RuntimeConfig {
  // Retry path of every protocol request (protocols/engine.hpp) --------------
  TimeNs write_retry_timeout = 5 * kMs;   ///< CP retransmit interval; kCON repair tick
  unsigned max_write_retries = 20;        ///< resends before a request is dropped

  // SRO ------------------------------------------------------------------
  std::size_t cp_buffer_limit = 100'000;  ///< buffered output packets (CP DRAM)

  // EWO ------------------------------------------------------------------
  TimeNs sync_period = 1 * kMs;           ///< periodic full-state scan (§6.2)
  SyncFanout sync_fanout = SyncFanout::kRandomOne;
  TimeNs mirror_flush_interval = 100 * kUs;  ///< flush partial mirror batches

  // Telemetry ---------------------------------------------------------------
  /// INT-MD sampling of protocol traffic sent by this runtime: tag 1-in-N
  /// outgoing protocol packets with a telemetry trailer (0 = off). Mirrors
  /// the switch-level edge sampling knob; the fabric sets both together.
  std::uint64_t int_sample_every = 0;
  unsigned int_hop_cap = 8;  ///< max on-wire hop records (1..255)

  // Clocks -----------------------------------------------------------------
  /// Fixed offset of this switch's clock from simulated true time; the paper
  /// cites data-plane PTP achieving tens of ns (§6.2).
  TimeNs clock_offset = 0;

  // Liveness ---------------------------------------------------------------
  /// Failure-detection protocol this switch participates in. The fabric
  /// mirrors the controller's configured protocol here so every switch starts
  /// the matching participant (heartbeat generator, or a SWIM agent).
  MembershipProtocol membership = MembershipProtocol::kHeartbeat;
  TimeNs heartbeat_period = 10 * kMs;
};

}  // namespace swish::shm
