// Sharded simulation core: conservative parallel discrete-event simulation.
//
// A ShardSet partitions the fabric's nodes into K logical processes, each
// backed by its own Simulator (event queue, virtual clock, and telemetry
// instances). Shards execute windows of virtual time in parallel and meet at
// barriers; synchronization is conservative (no rollback), with the lookahead
// supplied by the topology: no cross-shard interaction can take effect sooner
// than the minimum propagation delay over inter-shard links.
//
// Window rule (bounded-lag variant of classic null-message PDES): at each
// barrier the coordinator reads every shard's next event time n_k and lets
// every shard run events with
//
//     t  <  horizon = min_k n_k + lookahead
//
// Safety: every event executed this window has time >= min_k n_k, so a
// cross-shard event it produces carries a timestamp >= min_k n_k + lookahead
// = horizon — at or past every shard's clock at the window's end. It can
// therefore never land in a receiver's past, even transitively: an echo of
// an echo only moves further forward. (A per-shard horizon of
// min_{j != i} n_j + lookahead — letting the earliest shard run further —
// is NOT safe: the front-runner's own sends can drag a quiet shard's clock
// back below the front-runner's, and the reply then lands in its past.)
// Handoffs buffer in per-(dst, src) inbox lanes and are drained only at
// barriers. The global minimum advances by at least the lookahead per
// window, so progress is guaranteed.
//
// Determinism: execution order within a shard is the Simulator's total order
// (time, then sequence id). Inbound cross-shard events are merged at each
// barrier sorted by (timestamp, source shard, per-lane sequence), then posted
// — so they adopt destination sequence ids in that deterministic order, after
// all events the destination already queued. Same seed + same shard count
// reproduces byte-identical results; window boundaries only batch execution
// and never reorder it. A one-shard set bypasses windowing entirely and is
// byte-identical to the legacy single-threaded Simulator run.
//
// Memory model of the handoff queues: each lane (dst, src) has exactly one
// writer during a window — the participant that claimed shard src — and is
// drained by the coordinator strictly between windows. The window barrier —
// a release bump of an epoch counter to start, a release-incremented
// done-count the coordinator acquires to finish — provides the
// happens-before edge in both directions, so lanes need no per-entry
// synchronization (they are plain vectors).
//
// Execution model: shard windows are work items, not pinned threads. Each
// window, every participant (the coordinating thread plus
// min(shards, hardware threads) - 1 workers) claims shard indices from an
// atomic counter and runs them; on a single-core host that means zero
// worker threads and a plain serial sweep — no oversubscribed spinning.
// Determinism is unaffected: shards are disjoint, so which participant runs
// a shard never matters. Set SWISH_SHARD_FORCE_THREADS=1 to force one
// worker per extra shard regardless of core count (the TSan suite does, so
// the barrier and lane protocol are exercised under contention even on a
// one-core CI box).
#pragma once

#include <atomic>
#include <exception>
#include <mutex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace swish::sim {

class ShardSet {
 public:
  /// Creates `shards` simulators.
  explicit ShardSet(std::size_t shards);
  ~ShardSet();
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  [[nodiscard]] std::size_t count() const noexcept { return sims_.size(); }
  [[nodiscard]] Simulator& sim(std::size_t shard) noexcept { return *sims_[shard]; }
  [[nodiscard]] const Simulator& sim(std::size_t shard) const noexcept { return *sims_[shard]; }

  /// Pins node `id` to `shard`. Call while building the topology, before any
  /// run; unassigned nodes live on shard 0.
  void assign(NodeId id, std::size_t shard);
  [[nodiscard]] std::size_t shard_of(NodeId id) const noexcept;
  [[nodiscard]] Simulator& sim_for(NodeId id) noexcept { return sim(shard_of(id)); }

  /// Registers a cross-shard link's propagation delay; the minimum over all
  /// registered links is the conservative lookahead. Zero (or negative) delay
  /// would collapse the window to nothing, so it is rejected.
  void note_cross_link(TimeNs propagation_delay);
  [[nodiscard]] TimeNs lookahead() const noexcept { return lookahead_; }
  [[nodiscard]] bool has_cross_links() const noexcept { return lookahead_ != kNoLookahead; }

  /// Posts `fn` at absolute virtual time `t` onto the shard owning `dst`.
  /// Outside a run this posts directly (setup path). During a run, same-shard
  /// posts go straight into the executing shard's queue; cross-shard posts
  /// enter the (dst, src) inbox lane and are merged at the next barrier.
  /// Cross-shard timestamps must respect the lookahead (t >= caller's now +
  /// lookahead) — violations throw, because they would break conservatism.
  void post_at_node(NodeId dst, TimeNs t, EventFn fn);
  void post_at_shard(std::size_t dst, TimeNs t, EventFn fn);

  /// Posts `fn` onto `dst`'s shard `delay` ns after the calling shard's
  /// clock, widening the delay to the lookahead when the post crosses shards
  /// — the sharded analogue of Simulator::post_after for management-plane
  /// actions whose latency (e.g. Controller mgmt_latency) already dominates
  /// the lookahead.
  void post_after_node(NodeId dst, TimeNs delay, EventFn fn);

  /// Reference clock: shard 0's virtual time. Between runs all shards agree
  /// (run_until settles every clock on the deadline).
  [[nodiscard]] TimeNs now() const noexcept { return sims_[0]->now(); }

  /// Runs every shard to `deadline`. With one shard this delegates to
  /// Simulator::run_until (no threads, no windowing — the legacy path);
  /// otherwise it executes conservative windows, shard work claimed by the
  /// calling thread plus min(shards, hardware threads) - 1 workers (see the
  /// execution-model note at the top of this header). An exception thrown by
  /// any shard's events is rethrown here, on the calling thread.
  void run_until(TimeNs deadline);

  // -- Synchronization statistics -----------------------------------------------

  /// Conservative windows executed (multi-shard runs only).
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  /// Events that crossed a shard boundary via the inbox lanes.
  [[nodiscard]] std::uint64_t cross_events() const noexcept { return cross_events_; }
  /// Total events executed across all shards.
  [[nodiscard]] std::uint64_t executed_events() const noexcept;

  // -- Merged telemetry ---------------------------------------------------------

  /// Deterministic fabric-wide metrics view: shard 0's snapshot merged with
  /// every other shard's (counters add, histograms merge; names are disjoint
  /// or mergeable by construction). With one shard this is exactly the legacy
  /// snapshot.
  [[nodiscard]] telemetry::MetricsSnapshot merged_metrics_snapshot() const;

  /// Enables consistency-lag measurement. One shard: enables the simulator's
  /// own observatory (legacy path). Multi-shard: lag correlation is
  /// fabric-wide, so per-shard observatories switch to log mode and a single
  /// master observatory — bound to shard 0's registry — replays the merged
  /// logs at every barrier in (time, shard, log index) order.
  void enable_observatory();

  /// The observatory that accumulates lag measurements (master when
  /// multi-shard, shard 0's otherwise).
  [[nodiscard]] telemetry::ConsistencyObservatory& observatory() noexcept {
    return obs_master_enabled_ ? master_obs_ : sims_[0]->observatory();
  }

 private:
  static constexpr TimeNs kNoLookahead = std::numeric_limits<TimeNs>::max();

  struct Inbound {
    TimeNs time;
    std::uint64_t seq;  ///< per-lane, assigned at post in source execution order
    EventFn fn;
  };
  /// One handoff lane: single writer (shard src's thread, during a window),
  /// drained by the coordinator between windows.
  struct Lane {
    std::vector<Inbound> entries;
    std::uint64_t next_seq = 0;
  };

  void post_impl(std::size_t dst, TimeNs t, EventFn fn);
  void ensure_workers();
  void shutdown_workers();
  void worker_main();
  void exec_window();
  void run_claimed();
  void drain_inboxes();
  void flush_observatory_logs();

  std::vector<std::unique_ptr<Simulator>> sims_;
  std::unordered_map<NodeId, std::size_t> shard_of_;
  TimeNs lookahead_ = kNoLookahead;

  /// inboxes_[dst][src]; only [dst != src] lanes are ever used.
  std::vector<std::vector<Lane>> inboxes_;
  std::vector<TimeNs> nexts_;     ///< per-shard next event time, read at barriers
  std::vector<TimeNs> horizons_;  ///< per-shard window bound, published via epoch_

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> epoch_{0};   ///< bumped (release) to start a window
  std::atomic<std::size_t> claim_{0};     ///< next shard index to execute this window
  std::atomic<std::size_t> done_{0};      ///< shards finished this window
  std::atomic<bool> quit_{false};
  std::vector<std::thread> workers_;

  // First exception thrown by any shard's events, rethrown from run_until on
  // the coordinating thread after the window barrier (an exception must never
  // escape a worker — that would terminate the process).
  std::mutex err_mu_;
  std::exception_ptr error_;

  std::uint64_t windows_ = 0;
  std::uint64_t cross_events_ = 0;

  // Sharded observatory (multi-shard only; see enable_observatory()).
  bool obs_master_enabled_ = false;
  telemetry::ConsistencyObservatory master_obs_;
  TimeNs master_now_ = 0;
  std::vector<std::vector<telemetry::ObsEvent>> obs_logs_;
};

}  // namespace swish::sim
