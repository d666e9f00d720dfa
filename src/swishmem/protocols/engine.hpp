// The pluggable consistency-protocol engine seam (§3, §6): every register
// class of the paper's access-pattern taxonomy is one ProtocolEngine
// implementation living in this directory, and ProtocolEngine is the only
// seam between the engines and ShmRuntime. The runtime keeps packet
// classification, engine lookup, fabric I/O, and the recovery-stream
// transport; everything protocol-specific — space storage, wire-message
// handling, periodic work, recovery hooks, and per-protocol counters (in the
// metrics registry under shm.sw<id>.<proto>.*) — sits behind this interface.
// Engines hold the ShmRuntime that created them and call it directly for
// transport, configuration, timers, drop reports and the active trace. This
// header only forward-declares ShmRuntime; the inline trace helpers work from
// members cached at construction.
//
// Adding a protocol is a one-directory change: implement ProtocolEngine,
// declare the wire message types it consumes (the runtime builds a
// (message type -> engine) dispatch registry from message_types()), and add
// a case to make_engine() in registry.cpp.
//
// One retransmit path (RetryTable, below): a chain write, a kCON write, an
// OWN acquisition and a §6.3 recovery chunk are each one RetryTable entry,
// resent every write_retry_timeout at most max_write_retries times, then
// dropped as kWriteRetriesExhausted (chain head / OWN home unreachable),
// kQuorumUnreachable (kCON) or kRecoveryAbandoned (stream target). Its timer
// is a ControlPlane timer, which defers a firing the CPU cannot take rather
// than losing it; CP work that cannot wait (a write's release, a chain hop)
// is reported as kCpBufferFull when refused.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "packet/packet.hpp"
#include "packet/swish_wire.hpp"
#include "sim/simulator.hpp"
#include "swishmem/config.hpp"
#include "swishmem/store/ordered_index.hpp"
#include "telemetry/drop.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/observatory.hpp"
#include "telemetry/span.hpp"

namespace swish::pisa {
struct PacketContext;
}  // namespace swish::pisa

namespace swish::shm {

class ShmRuntime;

/// Outcome of a read during packet processing.
enum class ReadStatus {
  kOk,          ///< value is valid (read served locally or authoritatively)
  kMiss,  ///< no live entry for the key (DESIGN.md §11 "One miss rule")
  kRedirected,  ///< original packet was forwarded to the chain tail; the NF
                ///< must stop processing this packet and emit no output
};

/// Runs when a buffered output packet may be released (write committed).
using WriteRelease = std::function<void(pkt::Packet&&)>;

/// Completion of an asynchronous read-modify-write; receives the new value.
using UpdateDone = std::function<void(std::uint64_t)>;

/// One entry of a recovery snapshot: the op replaying the value plus the
/// guard/version sequence at snapshot time.
struct SnapshotOp {
  pkt::WriteOp op;
  SeqNum seq = 0;
};

/// Pull-based donor snapshot stream (§6.3). The source is created — and its
/// state frozen — synchronously at start_recovery_stream time; the runtime
/// then drains it one chunk per in-flight frame, so a sparse space's CoW pin
/// is held only as long as the drain and a million-key snapshot never
/// materializes in memory at once.
class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;
  SnapshotSource() = default;
  SnapshotSource(const SnapshotSource&) = delete;
  SnapshotSource& operator=(const SnapshotSource&) = delete;

  /// Appends up to `max_ops` snapshot ops to `out`; returns true while more
  /// remain (false = drained; pinned pages are released at that point).
  virtual bool next(std::size_t max_ops, std::vector<SnapshotOp>& out) = 0;
};

/// Wraps an eagerly collected snapshot (dense spaces: the collect itself is
/// the freeze point).
std::unique_ptr<SnapshotSource> make_vector_source(std::vector<SnapshotOp> ops);
/// Lazily drains a pinned CoW snapshot in key order; `project` fills the
/// replay op for an entry (protocol-specific seq extraction) or returns
/// false to skip it. The pin is released when the drain completes or the
/// source dies.
std::unique_ptr<SnapshotSource> make_pinned_source(
    store::OrderedIndex::Snapshot snap,
    std::function<bool(const store::Entry&, SnapshotOp&)> project);
/// Concatenates sub-sources in order (multi-space donors).
std::unique_ptr<SnapshotSource> make_chained_source(
    std::vector<std::unique_ptr<SnapshotSource>> sources);

/// RAII guard installing `ctx` as the runtime's active trace context for the
/// current scope; restores the previous context on exit. Used by engines to
/// re-enter a causal chain from deferred work (control-plane submissions,
/// retry timers, flush buffers).
class ActiveTraceScope {
 public:
  ActiveTraceScope(ShmRuntime& host, const telemetry::SpanContext& ctx) noexcept;
  ~ActiveTraceScope();
  ActiveTraceScope(const ActiveTraceScope&) = delete;
  ActiveTraceScope& operator=(const ActiveTraceScope&) = delete;

 private:
  ShmRuntime& host_;
  telemetry::SpanContext saved_;
};

/// One consistency protocol: owns the space state of its class and the full
/// protocol state machine. One instance per (runtime, class-in-use).
class ProtocolEngine {
 public:
  explicit ProtocolEngine(ShmRuntime& host);
  virtual ~ProtocolEngine() = default;
  ProtocolEngine(const ProtocolEngine&) = delete;
  ProtocolEngine& operator=(const ProtocolEngine&) = delete;

  [[nodiscard]] virtual ConsistencyClass cls() const noexcept = 0;

  // -- Spaces -----------------------------------------------------------------
  /// Throws std::invalid_argument for a space it cannot serve (check_servable).
  virtual void add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) = 0;
  /// Declares a space of this class the switch does NOT replicate (§9).
  /// Engines without a remote-access path reject it.
  virtual void add_remote_space(const SpaceConfig& config);
  [[nodiscard]] virtual bool hosts_space(std::uint32_t space) const noexcept = 0;
  /// True when the engine can serve any operation on the space (hosted or
  /// remotely accessible) — used by the runtime's space -> engine map.
  [[nodiscard]] virtual bool serves_space(std::uint32_t space) const noexcept {
    return hosts_space(space);
  }

  // -- Lifecycle ---------------------------------------------------------------
  /// Called once after configuration bootstrap; register periodic ticks here.
  virtual void start() {}
  /// Wipes all protocol and space state (a replacement switch boots empty).
  virtual void reset() = 0;
  /// Chain/group configuration changed (controller push or failover).
  virtual void on_config_update() {}

  // -- Datapath (NF-facing, uniform across engines) -----------------------------
  // No call throws on a key: keys a space cannot address read as kMiss, are
  // skipped by writes, and make update() return false.

  /// Read during packet processing. `ctx` enables redirection; engines that
  /// never redirect ignore it (and accept nullptr). Sets `value` only on kOk.
  virtual ReadStatus read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                          std::uint64_t& value) = 0;
  /// Longest-prefix-match read over a sparse space holding lpm_pack()ed
  /// keys; always local (no redirect — prefix tables are config-like state).
  /// nullopt when the space is dense, unknown, or nothing matches.
  [[nodiscard]] virtual std::optional<std::uint64_t> read_lpm(std::uint32_t space,
                                                              std::uint64_t key);
  /// Write of one or more ops (non-empty, all in spaces of this engine: the
  /// runtime checks). `release` runs on this switch when the write has
  /// committed per the engine's contract — immediately for eventually-
  /// consistent engines. A G-set write ORs the value's bits in.
  virtual void write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) = 0;
  /// Read-modify-write (counters). Returns false when the engine or space
  /// cannot count; `done` (may be empty) receives the new value once applied.
  virtual bool update(std::uint32_t space, std::uint64_t key, std::int64_t delta,
                      UpdateDone done);

  // -- Wire --------------------------------------------------------------------
  /// Message types this engine consumes; the runtime registers the engine
  /// for each in its dispatch registry.
  [[nodiscard]] virtual std::vector<pkt::MsgType> message_types() const = 0;
  /// Handles one protocol message. Returns false when the message belongs to
  /// another engine registered for the same type (e.g. chain traffic for a
  /// space of a different class); the runtime then tries the next claimant.
  virtual bool handle_message(const pkt::SwishMessage& msg) = 0;

  // -- Recovery (§6.3) ----------------------------------------------------------
  /// Donor side: a source whose content is frozen at this call — the hosted
  /// spaces' own sources chained in ascending space id. The default (no
  /// replayable state) is empty.
  [[nodiscard]] virtual std::unique_ptr<SnapshotSource> snapshot_source(
      std::optional<std::uint32_t> space_filter);
  /// Target side: applies one replayed snapshot/live-tap op in stream order.
  virtual void apply_recovery_op(const pkt::WriteOp& op, SeqNum seq);

 protected:
  /// Metrics registry of the simulation this engine's switch runs in.
  [[nodiscard]] telemetry::MetricsRegistry& host_metrics() const;
  /// This engine's registry subtree: "shm.sw<id>.<proto_name>.".
  [[nodiscard]] std::string metric_prefix(const char* proto_name) const;
  /// Encapsulates `packet` to `dst` as a ReadRedirect (§6.1); returns the
  /// wire bytes sent.
  std::size_t redirect(SwitchId dst, const pkt::Packet& packet);

  /// Starts — or continues — the sampled causal chain for a write
  /// originating on this switch. When the current dispatch already carries a
  /// sampled context (the write was triggered by a redirect, grant, or
  /// recovery frame) the chain continues; otherwise the recorder takes a
  /// fresh root-sampling decision. Records the span and returns its context;
  /// the engine re-enters it (ActiveTraceScope) around whatever sends the
  /// resulting protocol traffic — possibly from deferred control-plane work.
  /// Returns an unsampled context when tracing is off or sampled out.
  /// Inline: the enabled-but-unsampled steady state must cost only a few
  /// loads per write (the TelemetryCost tests check its cost is a constant).
  telemetry::SpanContext trace_origin(const char* name, std::uint32_t space, std::uint64_t key) {
    if (!spans_.enabled()) return {};
    const telemetry::SpanContext parent = active_ctx_;
    if (parent.sampled()) return spans_.record_instant(parent, self_, name, space, key);
    const telemetry::SpanContext ctx = spans_.maybe_start_trace();
    if (!ctx.sampled()) return {};
    const TimeNs t = spans_.now();
    spans_.record({ctx.trace_id, ctx.span_id, 0, self_, name, t, t, 0, space, key});
    return ctx;
  }

  /// Roots a fresh sampled trace for background/periodic protocol traffic
  /// (anti-entropy sync, backup flushes) when no trace is already active;
  /// returns an unsampled context when tracing is off, a trace is already
  /// active, or root sampling skips this round.
  telemetry::SpanContext trace_root(const char* name) {
    if (!spans_.enabled() || active_ctx_.sampled()) return {};
    const telemetry::SpanContext ctx = spans_.maybe_start_trace();
    if (!ctx.sampled()) return {};
    const TimeNs t = spans_.now();
    spans_.record({ctx.trace_id, ctx.span_id, 0, self_, name, t, t, 0, 0, 0});
    return ctx;
  }

  /// Records a point span continuing the active trace (e.g. a replica
  /// apply); returns the recorded context without changing the active trace.
  telemetry::SpanContext trace_point(const char* name, std::uint32_t space, std::uint64_t key) {
    if (!spans_.enabled()) return {};
    const telemetry::SpanContext parent = active_ctx_;
    if (!parent.sampled()) return {};
    return spans_.record_instant(parent, self_, name, space, key);
  }

  ShmRuntime& host_;
  /// Consistency-lag observatory of the switch's simulator (a disabled
  /// observatory early-returns on every call).
  telemetry::ConsistencyObservatory& obs_;

 private:
  /// Cached at construction so the inline trace helpers above need no
  /// complete ShmRuntime: the switch id, its span recorder, and the
  /// runtime's active-trace slot (stable addresses for the simulation's
  /// lifetime; reading the slot directly keeps the "tracing on but this
  /// chain unsampled" check to two loads).
  SwitchId self_;
  telemetry::SpanRecorder& spans_;
  const telemetry::SpanContext& active_ctx_;
};

/// What one user of the retry path fixes for all its requests; the counters
/// are the owner's and must outlive the table.
struct RetryPolicy {
  telemetry::DropReason exhausted;  ///< reported when a request's budget is spent
  telemetry::Counter* retries;      ///< bumped per retransmission
  telemetry::Counter* failed;       ///< bumped per spent request (nullptr: not counted)
};

/// RetryTable's runtime calls, out of the template (ShmRuntime is incomplete here).
class RetryPath {
 public:
  /// A fabric-unique request id: the switch id above a 40-bit counter. The
  /// counter keeps counting across a state wipe: other switches may still
  /// hold this switch's earlier ids (dedup maps, in-flight answers).
  [[nodiscard]] std::uint64_t mint_id() noexcept;
  RetryPath(const RetryPath&) = delete;  // armed timers hold its address
  RetryPath& operator=(const RetryPath&) = delete;

 protected:
  RetryPath(ShmRuntime& host, RetryPolicy policy) : host_(host), policy_(policy) {}
  /// Arms the CP retry timer (write_retry_timeout).
  [[nodiscard]] sim::TimerHandle arm_timer(std::function<void()> fire);
  /// Charges a timeout: true when a resend is due (counted), false when the
  /// budget is spent (the failure counted and reported with `detail`).
  bool charge(unsigned& retries, std::uint64_t detail);

  ShmRuntime& host_;

 private:
  RetryPolicy policy_;
  std::uint64_t next_id_ = 0;
};

/// Outstanding requests by key, each resent on a CP timeout (file comment).
template <typename Key, typename Payload>
class RetryTable : public RetryPath {
 public:
  struct Entry {
    Payload payload;
    telemetry::SpanContext trace;   ///< re-entered around every transmission
    std::uint64_t drop_detail = 0;  ///< reported if the budget is spent
    unsigned retries = 0;
    sim::TimerHandle timer;
  };
  /// Sends an entry's request, inside its trace; may close the entry.
  using Resend = std::function<void(const Key&, Entry&)>;
  /// Runs once a spent request's entry is reclaimed.
  using OnExhausted = std::function<void(const Key&)>;

  RetryTable(ShmRuntime& host, RetryPolicy policy, Resend resend, OnExhausted on_exhausted = {})
      : RetryPath(host, policy),
        resend_(std::move(resend)),
        on_exhausted_(std::move(on_exhausted)) {}

  /// Opens a new request's entry; nothing is sent yet.
  void open(const Key& key, Payload payload, const telemetry::SpanContext& trace,
            std::uint64_t drop_detail) {
    entries_.emplace(key, Entry{std::move(payload), trace, drop_detail, 0, {}});
  }
  /// Sends an open request and arms its retry timer.
  void transmit(const Key& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return;
    ActiveTraceScope scope(host_, it->second.trace);
    resend_(key, it->second);
    arm(key);
  }
  /// Arms the retry timer alone: the first timeout makes the first send.
  void arm(const Key& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return;  // closed during its own transmission
    it->second.timer = arm_timer([this, key]() { expire(key); });
  }
  /// Closes an answered request (nullopt when not open).
  std::optional<Entry> close(const Key& key) {
    auto node = entries_.extract(key);
    if (node.empty()) return std::nullopt;
    node.mapped().timer.cancel();
    return std::move(node.mapped());
  }
  /// Closes every request unreported (state wipe).
  void clear() {
    for (auto& [key, entry] : entries_) entry.timer.cancel();
    entries_.clear();
  }

  [[nodiscard]] Entry* find(const Key& key) {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const std::map<Key, Entry>& entries() const noexcept { return entries_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  void expire(const Key& key) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return;
    if (charge(it->second.retries, it->second.drop_detail)) {
      transmit(key);
      return;
    }
    entries_.erase(it);
    if (on_exhausted_) on_exhausted_(key);
  }

  Resend resend_;
  OnExhausted on_exhausted_;
  std::map<Key, Entry> entries_;
};

/// A write buffered in CP DRAM until it commits (§6.1): the chain and kCON
/// writers' pending-write record.
struct PendingWrite {
  std::vector<pkt::WriteOp> ops;
  pkt::Packet output;
  WriteRelease release;
  TimeNs submit_time = 0;
};

/// What a writer counts and traces when one of its writes commits.
struct CommitPolicy {
  telemetry::Counter* committed;
  telemetry::Histo* latency;  ///< submit -> commit at the writer, ns
  const char* trace_point;    ///< span recorded at the commit
};

/// The chain and kCON writers' side: pending writes by minted id on the
/// retry path, and one commit path.
class WriteTable : public RetryTable<std::uint64_t, PendingWrite> {
 public:
  WriteTable(ShmRuntime& host, RetryPolicy retry, CommitPolicy commit, Resend resend)
      : RetryTable(host, retry, std::move(resend)), commit_(commit) {}

  /// Commits write `id` if pending here: closes it, counts the commit and
  /// its latency, records the trace point and releases the output through
  /// the CP, reporting kCpBufferFull if the CPU refuses the release.
  void commit(std::uint64_t id);

 private:
  CommitPolicy commit_;
};

/// Install check every engine's add_space runs: throws std::invalid_argument,
/// naming the space and a class that would serve it, when the access pattern
/// `config` declares is one its class cannot serve (DESIGN.md §11).
void check_servable(const SpaceConfig& config);

/// Creates the engine implementing `cls` (the only place that maps a
/// consistency class to its protocol).
std::unique_ptr<ProtocolEngine> make_engine(ConsistencyClass cls, ShmRuntime& host);

}  // namespace swish::shm
