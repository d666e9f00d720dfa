#include "sim/shard.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace swish::sim {
namespace {

// Identifies the shard the current thread is executing a window for, so
// post_at_node can tell same-shard posts (direct) from cross-shard handoffs
// (inbox lane) without a lookup the caller would have to thread through.
thread_local const ShardSet* tls_owner = nullptr;
thread_local std::size_t tls_shard = 0;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

inline TimeNs sat_add(TimeNs a, TimeNs b) noexcept {
  return a > std::numeric_limits<TimeNs>::max() - b ? std::numeric_limits<TimeNs>::max() : a + b;
}

}  // namespace

ShardSet::ShardSet(std::size_t shards) {
  if (shards == 0) throw std::invalid_argument("ShardSet: shard count must be >= 1");
  sims_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) sims_.push_back(std::make_unique<Simulator>());
  inboxes_.resize(shards);
  for (auto& row : inboxes_) row.resize(shards);
  nexts_.assign(shards, 0);
  horizons_.assign(shards, 0);
}

ShardSet::~ShardSet() { shutdown_workers(); }

void ShardSet::assign(NodeId id, std::size_t shard) {
  if (shard >= sims_.size()) throw std::out_of_range("ShardSet::assign: no such shard");
  shard_of_[id] = shard;
}

std::size_t ShardSet::shard_of(NodeId id) const noexcept {
  auto it = shard_of_.find(id);
  return it == shard_of_.end() ? 0 : it->second;
}

void ShardSet::note_cross_link(TimeNs propagation_delay) {
  if (propagation_delay <= 0) {
    throw std::invalid_argument(
        "ShardSet: a cross-shard link needs positive propagation delay (the conservative "
        "lookahead is the minimum such delay; zero would stall the window engine)");
  }
  lookahead_ = std::min(lookahead_, propagation_delay);
}

void ShardSet::post_at_node(NodeId dst, TimeNs t, EventFn fn) {
  post_impl(shard_of(dst), t, std::move(fn));
}

void ShardSet::post_at_shard(std::size_t dst, TimeNs t, EventFn fn) {
  if (dst >= sims_.size()) throw std::out_of_range("ShardSet::post_at_shard: no such shard");
  post_impl(dst, t, std::move(fn));
}

void ShardSet::post_after_node(NodeId dst, TimeNs delay, EventFn fn) {
  const std::size_t dst_shard = shard_of(dst);
  const std::size_t src =
      running_.load(std::memory_order_relaxed) && tls_owner == this ? tls_shard : 0;
  TimeNs d = delay;
  if (dst_shard != src && sims_.size() > 1 && lookahead_ != kNoLookahead) {
    d = std::max(d, lookahead_);
  }
  post_impl(dst_shard, sat_add(sims_[src]->now(), d), std::move(fn));
}

void ShardSet::post_impl(std::size_t dst, TimeNs t, EventFn fn) {
  if (!running_.load(std::memory_order_relaxed)) {
    // Setup / between-runs path: single-threaded, post straight through.
    sims_[dst]->post_at(t, std::move(fn));
    return;
  }
  const std::size_t src = tls_owner == this ? tls_shard : 0;
  if (src == dst) {
    sims_[dst]->post_at(t, std::move(fn));
    return;
  }
  if (lookahead_ == kNoLookahead) {
    throw std::logic_error("ShardSet: cross-shard event but no cross-shard link registered");
  }
  if (t < sat_add(sims_[src]->now(), lookahead_)) {
    throw std::logic_error(
        "ShardSet: cross-shard event scheduled inside the lookahead window (conservative "
        "synchronization violated)");
  }
  Lane& lane = inboxes_[dst][src];
  lane.entries.push_back(Inbound{t, lane.next_seq++, std::move(fn)});
}

std::uint64_t ShardSet::executed_events() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->executed_events();
  return total;
}

void ShardSet::run_until(TimeNs deadline) {
  if (sims_.size() == 1) {
    // Exactly the legacy single-threaded run: no windows, no barriers.
    sims_[0]->run_until(deadline);
    return;
  }
  ensure_workers();
  running_.store(true, std::memory_order_relaxed);
  const std::size_t k = sims_.size();
  while (true) {
    drain_inboxes();
    flush_observatory_logs();

    // Global minimum next-event time: the window floor.
    for (std::size_t i = 0; i < k; ++i) nexts_[i] = sims_[i]->next_event_time();
    TimeNs min1 = Simulator::kNoEvent;
    for (std::size_t i = 0; i < k; ++i) min1 = std::min(min1, nexts_[i]);
    if (min1 > deadline) break;

    // Bounded-lag window: every shard may run events strictly below the
    // GLOBAL min next + lookahead (see header for the safety argument — a
    // looser per-shard bound lets replies land in a front-runner's past).
    // The deadline cap is exclusive too, hence deadline + 1.
    const TimeNs cap = sat_add(deadline, 1);
    const TimeNs h = lookahead_ == kNoLookahead ? cap : std::min(cap, sat_add(min1, lookahead_));
    for (std::size_t i = 0; i < k; ++i) horizons_[i] = h;
    exec_window();
    ++windows_;
    if (error_) {
      // Surface the first shard failure on the coordinating thread; the run
      // is unrecoverable (the failed shard stopped mid-window).
      running_.store(false, std::memory_order_relaxed);
      std::exception_ptr e;
      {
        const std::lock_guard<std::mutex> lock(err_mu_);
        std::swap(e, error_);
      }
      std::rethrow_exception(e);
    }
  }
  running_.store(false, std::memory_order_relaxed);
  for (auto& s : sims_) s->advance_to(deadline);
  if (obs_master_enabled_) master_now_ = deadline;
}

void ShardSet::exec_window() {
  // Publish horizons_ and all barrier-time posts: the release store of
  // claim_ (and the release bump of epoch_ that wakes the workers) pairs
  // with the acquire fetch_add in run_claimed.
  done_.store(0, std::memory_order_relaxed);
  claim_.store(0, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);

  run_claimed();

  // The acquire load pairs with every runner's release increment, making
  // their sim state and inbox lanes visible to the coordinator.
  std::uint32_t spins = 0;
  while (done_.load(std::memory_order_acquire) != sims_.size()) {
    if (++spins < 4096) {
      cpu_relax();
    } else {
      std::this_thread::yield();
    }
  }
}

void ShardSet::run_claimed() {
  const std::size_t k = sims_.size();
  tls_owner = this;
  std::size_t shard;
  while ((shard = claim_.fetch_add(1, std::memory_order_acquire)) < k) {
    tls_shard = shard;
    try {
      sims_[shard]->run_before(horizons_[shard]);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(err_mu_);
      if (!error_) error_ = std::current_exception();
    }
    done_.fetch_add(1, std::memory_order_release);
  }
  tls_owner = nullptr;
}

void ShardSet::worker_main() {
  std::uint64_t seen = 0;
  while (true) {
    std::uint64_t e;
    std::uint32_t spins = 0;
    while ((e = epoch_.load(std::memory_order_acquire)) == seen) {
      if (quit_.load(std::memory_order_acquire)) return;
      if (++spins < 4096) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
    if (quit_.load(std::memory_order_acquire)) return;
    seen = e;
    run_claimed();
  }
}

void ShardSet::ensure_workers() {
  if (!workers_.empty()) return;
  // One worker per extra shard, capped by the machine: a one-core host gets
  // zero workers and exec_window degenerates to a serial sweep. The env
  // override keeps the threaded path testable (TSan) on small machines.
  std::size_t target = std::thread::hardware_concurrency();
  if (target == 0) target = 1;
  if (std::getenv("SWISH_SHARD_FORCE_THREADS") != nullptr) target = sims_.size();
  target = std::min(target, sims_.size()) - 1;
  if (target == 0) return;
  workers_.reserve(target);
  for (std::size_t w = 0; w < target; ++w) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void ShardSet::shutdown_workers() {
  if (workers_.empty()) return;
  quit_.store(true, std::memory_order_release);
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ShardSet::drain_inboxes() {
  // Tag-and-sort per destination: (time, src shard, lane seq) is the
  // documented deterministic merge order for inbound cross-shard events.
  struct Tagged {
    TimeNs time;
    std::size_t src;
    std::uint64_t seq;
    Inbound* entry;
  };
  std::vector<Tagged> batch;
  for (std::size_t dst = 0; dst < sims_.size(); ++dst) {
    batch.clear();
    for (std::size_t src = 0; src < sims_.size(); ++src) {
      for (Inbound& e : inboxes_[dst][src].entries) {
        batch.push_back(Tagged{e.time, src, e.seq, &e});
      }
    }
    std::sort(batch.begin(), batch.end(), [](const Tagged& a, const Tagged& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.src != b.src) return a.src < b.src;
      return a.seq < b.seq;
    });
    for (const Tagged& t : batch) sims_[dst]->post_at(t.time, std::move(t.entry->fn));
    cross_events_ += batch.size();
    for (std::size_t src = 0; src < sims_.size(); ++src) inboxes_[dst][src].entries.clear();
  }
}

void ShardSet::enable_observatory() {
  if (sims_.size() == 1) {
    sims_[0]->observatory().enable(sims_[0]->metrics());
    return;
  }
  if (obs_master_enabled_) return;
  obs_master_enabled_ = true;
  master_obs_.set_clock(&master_now_);
  master_obs_.enable(sims_[0]->metrics());  // lag.* cells live in shard 0's registry
  obs_logs_.resize(sims_.size());
  for (std::size_t s = 0; s < sims_.size(); ++s) {
    sims_[s]->observatory().set_event_log(&obs_logs_[s]);
  }
}

void ShardSet::flush_observatory_logs() {
  if (!obs_master_enabled_) return;
  struct Ref {
    TimeNs time;
    std::size_t shard;
    std::size_t idx;
  };
  std::vector<Ref> order;
  for (std::size_t s = 0; s < obs_logs_.size(); ++s) {
    for (std::size_t i = 0; i < obs_logs_[s].size(); ++i) {
      order.push_back(Ref{obs_logs_[s][i].time, s, i});
    }
  }
  if (order.empty()) return;
  // Per-shard logs are already time-ordered (virtual time is monotone within
  // a shard), so (time, shard, idx) is a total order consistent with each
  // shard's own event order.
  std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.idx < b.idx;
  });
  for (const Ref& r : order) {
    const telemetry::ObsEvent& ev = obs_logs_[r.shard][r.idx];
    master_now_ = ev.time;
    master_obs_.replay(ev);
  }
  for (auto& log : obs_logs_) log.clear();
}

telemetry::MetricsSnapshot ShardSet::merged_metrics_snapshot() const {
  telemetry::MetricsSnapshot snap = sims_[0]->metrics().snapshot();
  for (std::size_t s = 1; s < sims_.size(); ++s) {
    snap.merge(sims_[s]->metrics().snapshot());
  }
  return snap;
}

}  // namespace swish::sim
