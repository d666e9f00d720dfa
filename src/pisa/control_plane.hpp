// Per-switch control-plane CPU with a bounded service rate.
//
// The paper's SRO protocol deliberately routes writes through the control
// plane (buffering + retry), and its write throughput is "limited by the
// need to send packets through the control plane" (§6.1). Modelling the CPU
// as a finite-rate work queue makes that limit real: jobs are serviced
// sequentially at ops_per_sec, and the queue tail-drops under overload —
// which is also what sinks the control-plane replication baseline (§3.3).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.hpp"
#include "pisa/objects.hpp"
#include "sim/simulator.hpp"

namespace swish::pisa {

class ControlPlane {
 public:
  struct Config {
    double ops_per_sec = 100'000;   ///< jobs serviced per second
    std::size_t max_queue = 4096;   ///< pending jobs beyond which submissions drop
  };

  /// Registry-backed counters (named `<prefix>executed` / `<prefix>dropped`);
  /// this struct is a view over the simulator's MetricsRegistry cells, so
  /// reads keep their historical types via the handles' implicit conversions.
  struct Stats {
    telemetry::Counter executed;
    telemetry::Counter dropped;
  };

  /// `metrics_prefix` names this CPU's counters in the registry; the owning
  /// switch passes "pisa.sw<id>.cp.". The default suits the standalone
  /// one-CP-per-simulator uses in tests and benches.
  ControlPlane(sim::Simulator& simulator, Config config,
               const std::string& metrics_prefix = "pisa.cp.")
      : sim_(simulator),
        config_(config),
        service_time_(static_cast<TimeNs>(static_cast<double>(kSec) / config.ops_per_sec)),
        stats_{simulator.metrics().counter(metrics_prefix + "executed"),
               simulator.metrics().counter(metrics_prefix + "dropped")} {}

  /// Capability for table mutation; see CpToken.
  [[nodiscard]] CpToken token() const noexcept { return CpToken{}; }

  /// Queues a job costing one CPU service slot. Returns false (job dropped)
  /// when the queue is full — callers relying on the job (e.g. SRO write
  /// submission) observe this as loss and recover via retry.
  bool submit(sim::EventFn job);

  /// Arms a timer; when it fires the callback is charged as a CPU job. A
  /// firing into a full queue waits for a free slot instead of being lost,
  /// and cancel() also stops a deferred firing or an already queued job.
  sim::TimerHandle schedule_after(TimeNs delay, std::function<void()> fn);

  /// Arms a repeating timer; every firing is gated and charged as a CPU job,
  /// so a failed switch's periodic work (e.g. its SWIM probe tick) stops
  /// dead and resumes after recover() without rearming.
  sim::TimerHandle schedule_periodic(TimeNs period, std::function<void()> fn);

  /// Gate run before any job; set by the owning switch to its liveness check
  /// so a failed switch's queued jobs and timers become no-ops.
  void set_gate(std::function<bool()> gate) { gate_ = std::move(gate); }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t backlog() const noexcept;

 private:
  /// Per-job service time, precomputed once (not worth a floating-point
  /// division on every submit()/backlog() call).
  [[nodiscard]] TimeNs service_time() const noexcept { return service_time_; }

  /// One timer firing (see schedule_after); fire_at schedules one at `t`.
  void fire(const sim::TimerHandle& handle, std::function<void()> fn);
  void fire_at(TimeNs t, const sim::TimerHandle& handle, std::function<void()> fn);

  sim::Simulator& sim_;
  Config config_;
  TimeNs service_time_ = 0;
  Stats stats_;
  TimeNs cpu_free_time_ = 0;
  std::function<bool()> gate_;
};

}  // namespace swish::pisa
