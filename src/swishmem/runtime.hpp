// The per-switch SwiShmem runtime: packet classification, protocol-engine
// dispatch, and fabric I/O.
//
// One ShmRuntime is attached to each switch. The consistency protocols
// themselves (SRO/ERO chain replication, EWO asynchronous replication, OWN
// ownership migration) live behind the ProtocolEngine interface in
// swishmem/protocols/; the runtime owns the engines, routes each space's
// operations to its engine, dispatches wire messages through a per-type
// registry, and keeps the cross-engine machinery: controller configuration,
// heartbeats, the tail redirect re-entry, and the §6.3 recovery stream
// transport. Protocol packets arrive through the installed ShmProgram, which
// dispatches UDP port kSwishPort traffic here before the NF logic sees
// anything.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "packet/flow.hpp"
#include "packet/swish_wire.hpp"
#include "pisa/switch.hpp"
#include "swishmem/config.hpp"
#include "swishmem/protocols/engine.hpp"
#include "swishmem/spaces.hpp"
#include "telemetry/drop.hpp"

namespace swish::shm {

class OwnSpaceState;
class SwimAgent;

class ShmRuntime {
 public:
  /// Aggregated per-switch statistics. The counters live inside the protocol
  /// engines (each engine owns its protocol's accounting); this legacy view
  /// sums them for tests, benches, and reports. Returned BY VALUE by stats().
  struct Stats {
    // SRO/ERO writer side.
    std::uint64_t writes_submitted = 0;
    std::uint64_t writes_committed = 0;
    std::uint64_t write_retries = 0;
    std::uint64_t writes_failed = 0;       ///< gave up after max retries
    std::uint64_t writes_rejected = 0;     ///< CP buffer full
    // SRO/ERO chain side.
    std::uint64_t chain_requests_seen = 0;
    std::uint64_t chain_gap_drops = 0;     ///< out-of-order writes awaiting retry
    std::uint64_t chain_stale_epoch = 0;
    // Reads.
    std::uint64_t reads_local = 0;
    std::uint64_t reads_redirected = 0;
    std::uint64_t redirects_processed = 0;  ///< redirected reads served (at tail)
    // EWO.
    std::uint64_t ewo_reads = 0;
    std::uint64_t ewo_local_writes = 0;
    std::uint64_t ewo_updates_sent = 0;
    std::uint64_t ewo_updates_received = 0;
    std::uint64_t ewo_entries_merged = 0;   ///< entries that changed local state
    std::uint64_t sync_rounds = 0;
    std::uint64_t sync_entries_sent = 0;
    // OWN.
    std::uint64_t own_local_writes = 0;
    std::uint64_t own_acquisitions = 0;     ///< ownership migrations completed
    std::uint64_t own_revokes = 0;          ///< ownership relinquished
    // CON (the writer-side counters fold into writes_submitted/committed).
    std::uint64_t con_slots_applied = 0;    ///< consensus log entries applied here
    std::uint64_t con_elections = 0;        ///< coordinator elections completed here
    // Recovery.
    std::uint64_t recovery_chunks_sent = 0;
    std::uint64_t recovery_chunks_applied = 0;
    // Protocol bandwidth (payload + headers, per message class). Each engine
    // accounts its own protocol's bytes; the runtime adds the recovery-stream
    // and control traffic it sends itself. The per-class counters sum to
    // bytes_total (regression-tested).
    std::uint64_t bytes_write_path = 0;  ///< WriteRequest + WriteAck (incl. recovery)
    std::uint64_t bytes_ewo = 0;         ///< EwoUpdate (mirror + sync)
    std::uint64_t bytes_redirect = 0;    ///< ReadRedirect
    std::uint64_t bytes_own = 0;         ///< OwnRequest + OwnGrant + OwnUpdate
    std::uint64_t bytes_con = 0;         ///< Con* consensus traffic (incl. its redirects)
    std::uint64_t bytes_control = 0;     ///< Heartbeat (+ config pushes, if any)
    std::uint64_t bytes_int = 0;         ///< INT trailer overhead on sampled sends
    std::uint64_t bytes_total = 0;       ///< every protocol byte this switch sent
    // Writer-observed commit latency (submit -> ack), ns.
    Histogram write_latency;
  };

  ShmRuntime(pisa::Switch& sw, RuntimeConfig config, NodeId controller);
  ~ShmRuntime();  // out-of-line: SwimAgent is only forward-declared here

  ShmRuntime(const ShmRuntime&) = delete;
  ShmRuntime& operator=(const ShmRuntime&) = delete;

  // -- Setup ------------------------------------------------------------------

  /// Declares a replicated space hosted on this switch; `replicas` is the
  /// replica set (the full deployment by default; a subset for partitioned
  /// spaces, §9). Call before traffic starts, or at migration time when this
  /// switch joins a space's replica group.
  void add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas);

  /// Declares a space this switch does NOT replicate (§9 partitioning): all
  /// strong reads redirect to the space's chain tail and writes are sent to
  /// its chain head. Only engines with a remote-access path accept this
  /// (EWO and OWN spaces cannot be remote).
  void add_remote_space(const SpaceConfig& config);

  /// True when this switch hosts storage for the space.
  [[nodiscard]] bool hosts_space(std::uint32_t space) const noexcept;

  /// The switch ids this runtime's failure detector watches (the full
  /// deployment; self is filtered out). Only consulted under --membership
  /// swim; call before start().
  void set_membership_peers(std::vector<SwitchId> peers) {
    membership_peers_ = std::move(peers);
  }

  /// Starts liveness reporting — heartbeats to the controller, or the SWIM
  /// agent's probe tick, per config().membership — and the engines' periodic
  /// work (EWO sync/mirror flush, OWN backup flush). Call after all spaces
  /// exist.
  void start();

  /// Installed by ShmProgram: how to re-run the NF logic on a redirected
  /// packet at the tail.
  void set_nf_reentry(std::function<void(pisa::PacketContext&)> reentry) {
    nf_reentry_ = std::move(reentry);
  }

  // -- Configuration from the controller (management network) ------------------

  void set_chain(const pkt::ChainConfig& config);
  void set_group(const pkt::GroupConfig& config);
  [[nodiscard]] const pkt::ChainConfig& chain() const noexcept { return chain_; }

  /// Installs the chain used by one partitioned space (overrides the global
  /// chain for that space's operations).
  void set_space_chain(std::uint32_t space, const pkt::ChainConfig& config);

  // -- NF-facing register API (§5) ---------------------------------------------
  // The same four calls serve every consistency class; the space's class
  // picks the engine. An undeclared space reads as kMiss / nullopt and
  // refuses write and update.

  /// Read, dispatched to the space's engine; `ctx` (nullptr outside packet
  /// processing) enables redirection. On kRedirected the runtime has already
  /// encapsulated ctx's packet to the tail; the caller must return without
  /// emitting output.
  ReadStatus read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                  std::uint64_t& value);

  /// Longest-prefix-match read against a sparse space holding packed
  /// prefixes (store::lpm_pack). Always local; nullopt when no prefix of the
  /// key is present.
  [[nodiscard]] std::optional<std::uint64_t> read_lpm(std::uint32_t space, std::uint64_t key);

  /// Submits `ops` — possibly spanning several spaces of one engine — as ONE
  /// atomic write; `release` runs on this switch once it has committed per
  /// the class (the output may be empty). kCON puts the batch in one log
  /// slot; chain classes send one write request. Returns false, performing
  /// nothing, when `ops` is empty, names an undeclared space, or spans
  /// engines.
  bool write(std::vector<pkt::WriteOp> ops, pkt::Packet output,
             std::function<void(pkt::Packet&&)> release);

  /// Atomic read-modify-write (counters / allocators), dispatched to the
  /// space's engine. Returns false when the space cannot count; `done` (may
  /// be empty) receives the new value once applied — possibly after an OWN
  /// ownership migration, so it must not capture the caller's stack.
  bool update(std::uint32_t space, std::uint64_t key, std::int64_t delta, UpdateDone done);

  // -- Protocol ingress ----------------------------------------------------------

  /// Consumes SwiShmem protocol packets (UDP dst port kSwishPort). Returns
  /// true when the packet was protocol traffic.
  bool handle_protocol_packet(pisa::PacketContext& ctx);

  // -- Recovery (§6.3) -------------------------------------------------------------

  /// Donor side: streams a snapshot plus all subsequently-committed writes to
  /// `target` (stop-and-wait, retransmitted), invoking `done` when the target
  /// has acknowledged everything. Called on the current tail by the
  /// controller. `space_filter` restricts the stream to one space (used by
  /// migration); by default every hosted space with replayable state is
  /// streamed.
  void start_recovery_stream(SwitchId target, std::function<void()> done,
                             std::optional<std::uint32_t> space_filter = std::nullopt);

  /// Wipes all replicated state (a replacement switch boots empty).
  void reset_state();

  // -- Engine services (what the protocol engines call back into) ---------------

  [[nodiscard]] pisa::Switch& sw() noexcept { return sw_; }
  [[nodiscard]] const RuntimeConfig& config() const noexcept { return config_; }
  [[nodiscard]] SwitchId self() const noexcept { return sw_.id(); }
  /// Chain governing a space (its own chain when partitioned, §9).
  [[nodiscard]] const pkt::ChainConfig& chain_for(std::uint32_t space) const noexcept;
  [[nodiscard]] const pkt::GroupConfig& group() const noexcept { return group_; }
  /// Replica set passed to add_space (the full deployment by default).
  [[nodiscard]] const std::vector<SwitchId>& deployment() const noexcept { return deployment_; }
  /// Sends one protocol message to each of `dsts`, in order; returns the
  /// copies' summed wire bytes so the engine can account its own protocol
  /// bandwidth. Copies that carry no trace context share one encoding.
  std::size_t send(std::span<const SwitchId> dsts, const pkt::SwishMessage& msg);
  /// send() plus control-class byte accounting (heartbeats, SWIM traffic);
  /// keeps the per-class counters summing to bytes_total.
  std::size_t send_control(SwitchId dst, const pkt::SwishMessage& msg);
  /// Mirror-on-drop: reports a protocol-level reject/abandon (queue
  /// overflow, retry exhaustion, quorum loss) into the switch's typed drop
  /// ring. `detail` is site-specific (usually the key or peer involved).
  void report_drop(telemetry::DropReason reason, std::uint64_t detail);
  [[nodiscard]] NodeId controller() const noexcept { return controller_; }
  /// Registers a periodic background task (packet-generator driven); valid
  /// from ProtocolEngine::start().
  void every(TimeNs period, std::function<void()> tick);
  /// True while this switch is serving a redirected read at the tail (the
  /// tail's state is authoritative, §6.1).
  [[nodiscard]] bool authoritative() const noexcept { return authoritative_; }
  /// Feeds a committed write into the active recovery stream, if any (the
  /// donor-side tap of §6.3).
  void recovery_tap(const std::vector<pkt::WriteOp>& ops, const std::vector<SeqNum>& seqs);
  /// Trace context of the causal chain currently executing on this switch —
  /// set around message dispatch and, through ActiveTraceScope, around
  /// deferred engine work. send() attaches it to outgoing messages. The
  /// slot's address is stable; engines cache it.
  [[nodiscard]] const telemetry::SpanContext& active_trace() const noexcept {
    return active_trace_;
  }
  void set_active_trace(const telemetry::SpanContext& ctx) noexcept { active_trace_ = ctx; }

  // -- Introspection ------------------------------------------------------------

  /// Aggregated statistics (legacy view over the engines' counters).
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] pisa::Switch& owner() noexcept { return sw_; }

  [[nodiscard]] bool in_chain() const noexcept;

  /// Number of output packets currently buffered in CP DRAM awaiting acks.
  [[nodiscard]] std::size_t cp_buffered_packets() const noexcept;

  [[nodiscard]] const SroSpaceState* sro_space(std::uint32_t id) const;
  [[nodiscard]] const EwoSpaceState* ewo_space(std::uint32_t id) const;
  [[nodiscard]] const OwnSpaceState* own_space(std::uint32_t id) const;
  [[nodiscard]] const SroSpaceState* con_space(std::uint32_t id) const;

  /// The SWIM detector (nullptr unless started under --membership swim).
  [[nodiscard]] SwimAgent* swim() noexcept { return swim_.get(); }

  /// Engine serving a space (nullptr when the space is unknown here).
  [[nodiscard]] ProtocolEngine* engine_for_space(std::uint32_t space) const noexcept;

 private:
  /// Engine implementing `cls`, created (and registered in the message-type
  /// dispatch table) on first use.
  ProtocolEngine& engine_for_class(ConsistencyClass cls);
  [[nodiscard]] ProtocolEngine* find_engine(ConsistencyClass cls) const noexcept;

  void on_read_redirect(const pkt::ReadRedirect& msg);

  // Recovery stream (donor transport + target cursor).
  struct RecoveryStream {
    SwitchId target = kInvalidNode;
    std::optional<std::uint32_t> space_filter;
    std::uint32_t snapshot_epoch = 0;  ///< stamped on every chunk of this stream
    /// Frozen at start_recovery_stream: one source per engine (sparse spaces
    /// pin a CoW snapshot, dense ones collect eagerly). Drained lazily, one
    /// chunk per ack, so a million-key snapshot is never materialized whole.
    std::vector<std::unique_ptr<SnapshotSource>> sources;
    /// Writes committed (tapped) since the freeze point, not yet streamed.
    /// They go behind the last snapshot chunk, one chunk each: stream order
    /// is always snapshot, then live.
    struct Tapped {
      std::vector<pkt::WriteOp> ops;
      std::vector<SeqNum> seqs;
    };
    std::deque<Tapped> taps;
    std::uint64_t next_stream_seq = 1;
    std::function<void()> done;
  };
  /// The stream's next chunk — snapshot ops while any remain, then one
  /// tapped commit — or nullopt when both are exhausted.
  std::optional<pkt::WriteRequest> recovery_next_chunk();
  /// Moves the next chunk onto the retry path and sends it — or, with
  /// `send_now` false (the control plane refused the stream's start), leaves
  /// its first send to the retry timeout. No-op while a chunk is in flight;
  /// fires `done` once everything is streamed and acknowledged.
  void recovery_send_next(bool send_now = true);
  /// Drops the donor stream and its in-flight chunk.
  void end_recovery_stream();
  void on_recovery_ack(std::uint64_t stream_seq);
  void on_recovery_chunk(const pkt::WriteRequest& msg);
  void retire_recovery_if_joined(const std::vector<SwitchId>& chain);

  void notify_config_update();

  /// Trace context to put on the wire for this send. Retransmissions of an
  /// idempotent message (same write_id/req_id to the same destination) reuse
  /// the span of the first transmission so a lossy fabric does not
  /// double-count propagation; first transmissions of a sampled chain record
  /// a send span and return its context.
  telemetry::SpanContext outgoing_trace(SwitchId dst, const pkt::SwishMessage& msg);

  pisa::Switch& sw_;
  RuntimeConfig config_;
  NodeId controller_;

  // Decentralized failure detection (config_.membership == kSwim only).
  std::unique_ptr<SwimAgent> swim_;
  std::vector<SwitchId> membership_peers_;

  // Engines (creation order) and dispatch state.
  std::vector<std::unique_ptr<ProtocolEngine>> engines_;
  std::unordered_map<std::uint32_t, ProtocolEngine*> space_engines_;
  /// Wire dispatch registry: message type -> engines claiming that type.
  std::array<std::vector<ProtocolEngine*>, pkt::kNumMsgTypes + 1> registry_{};

  std::vector<SwitchId> deployment_;  ///< replicas passed to add_space

  pkt::ChainConfig chain_;
  pkt::GroupConfig group_;
  std::unordered_map<std::uint32_t, pkt::ChainConfig> space_chains_;  ///< §9 partitioning

  // Donor-side recovery stream and target-side cursor.
  std::optional<RecoveryStream> recovery_;
  std::uint32_t recovery_epoch_counter_ = 0;  ///< donor-local stream counter
  std::uint64_t last_recovery_applied_ = 0;
  /// Stream epoch the cursor above belongs to; a chunk from a different
  /// stream (donor restart, re-homed migration) resets the cursor so the new
  /// stream's write_ids — which start from 1 again — are not dropped as dups.
  std::uint32_t last_recovery_epoch_ = 0;

  // Runtime-level counters (everything not owned by an engine), registry-
  // backed under `shm.sw<id>.*`.
  telemetry::Counter redirects_processed_;
  telemetry::Counter recovery_chunks_sent_;
  telemetry::Counter recovery_chunks_applied_;
  telemetry::Counter recovery_bytes_;  ///< recovery-stream chunks + acks
  telemetry::Counter control_bytes_;   ///< heartbeats
  telemetry::Counter int_bytes_;       ///< INT trailer bytes on sampled sends
  telemetry::Counter total_bytes_;     ///< all protocol sends from this switch
  /// The recovery stream's in-flight chunk by stream seq (stop-and-wait: at
  /// most one), on the retry path.
  RetryTable<std::uint64_t, pkt::WriteRequest> recovery_inflight_;
  std::uint64_t int_countdown_ = 0;    ///< 1-in-N INT sampling of protocol sends

  bool authoritative_ = false;  ///< serving a redirected read at the tail
  bool started_ = false;
  std::function<void(pisa::PacketContext&)> nf_reentry_;

  // Causal tracing (spans on the switch's recorder; one branch when disabled).
  telemetry::ConsistencyObservatory* observatory_ = nullptr;
  telemetry::SpanContext active_trace_;
  /// Retry-reuse guard at the send chokepoint: (message tag, idempotency id,
  /// packed sender/destination) -> span of the first transmission. Only
  /// populated while the recorder is enabled; blunt-cleared when oversized.
  std::map<std::tuple<std::uint8_t, std::uint64_t, std::uint64_t>, telemetry::SpanContext>
      send_spans_;

  Rng rng_;
  std::vector<sim::TimerHandle> background_;
};

/// Abstract network function: application logic running on every switch.
class NfApp {
 public:
  virtual ~NfApp() = default;

  /// Allocates NF-private stateful objects on the switch (optional).
  virtual void setup(pisa::Switch& sw, ShmRuntime& runtime) {
    (void)sw;
    (void)runtime;
  }

  /// Per-packet processing, with shared state accessed through the runtime.
  virtual void process(pisa::PacketContext& ctx, ShmRuntime& runtime) = 0;
};

/// The pipeline program installed on every SwiShmem switch: dispatches
/// protocol packets to the runtime, everything else to the NF.
class ShmProgram : public pisa::PipelineProgram {
 public:
  ShmProgram(ShmRuntime& runtime, std::unique_ptr<NfApp> nf);

  void process(pisa::PacketContext& ctx) override;

  [[nodiscard]] NfApp& nf() noexcept { return *nf_; }

 private:
  ShmRuntime& runtime_;
  std::unique_ptr<NfApp> nf_;
};

}  // namespace swish::shm
