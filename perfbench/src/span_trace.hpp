// Span recorder for the benchmark's traced run. Spans are recorded from the
// benchmark's own code around its calls into each layer (set-up calls,
// run_for slices, edge inject, NF process, delivery sink, codec replay,
// post-run exports); nothing inside the simulator is instrumented.
//
// Each thread keeps its own open-span stack and span log, so the sharded
// workload's worker threads record without locking. A span's parent is the
// enclosing span on the same thread, or the coordinating thread's current
// run_for slice for spans opened on a shard worker. Self time (duration minus
// the part covered by child spans on the same thread) and allocation counts
// are aggregated per span kind as spans close; the first kMaxKept spans are
// also kept in memory and written out after the run.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace swish::bench {

enum class SpanKind : std::uint8_t {
  kSetupFabric,
  kSetupInstall,
  kSetupStart,
  kSetupWorkload,
  kRunSlice,
  kGenerate,  ///< building a stamped edge packet (benchmark-side workload)
  kInject,
  kNfProcess,
  kSink,
  kCodecDecode,
  kCodecEncode,
  kExport,
};
inline constexpr std::size_t kNumSpanKinds = 12;

const char* span_name(SpanKind kind) noexcept;
/// Module the span's self time is charged to in the per-layer table.
const char* span_layer(SpanKind kind) noexcept;

struct SpanRecord {
  std::uint64_t id = 0;      ///< (thread index << 40) | per-thread sequence
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;  ///< steady clock, relative to the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint32_t allocs = 0;  ///< heap allocations while the span was open
  std::uint16_t shard = 0;
  SpanKind kind = SpanKind::kRunSlice;
};

struct SpanAggregate {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t allocs = 0;       ///< inclusive of child spans
  std::uint64_t self_allocs = 0;  ///< exclusive of child spans on the same thread
};

using SpanTotals = std::array<SpanAggregate, kNumSpanKinds>;

/// Process-wide switch and sink for spans. Disabled by default: the untraced
/// runs pay one relaxed atomic load per boundary.
class SpanTracer {
 public:
  static constexpr std::size_t kMaxKept = 1u << 18;

  static SpanTracer& instance() noexcept;

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Call only while no simulation is running.
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  void begin(SpanKind kind, std::size_t shard);
  void end();
  /// Opens a span whose end is not scoped: it is closed by close_pending()
  /// (or by the next open_pending()/end of its parent on this thread). Used
  /// for the inject boundary of library-driven traffic, where the benchmark
  /// sees the packet just before Fabric::inject and next when the NF runs.
  void open_pending(SpanKind kind, std::size_t shard);
  void close_pending();

  /// Aggregates over every thread (call after the run).
  [[nodiscard]] SpanTotals totals() const;
  /// Wall time of NF process + delivery sink spans, per shard (index < 64).
  [[nodiscard]] std::vector<std::int64_t> shard_busy_ns() const;
  [[nodiscard]] std::size_t spans_recorded() const;
  [[nodiscard]] std::size_t spans_kept() const;
  /// Writes kept spans as CSV: kind,id,parent,shard,start_ns,end_ns,allocs.
  void write_csv(std::ostream& out) const;

 private:
  struct Frame {
    SpanKind kind;
    bool pending;
    std::uint16_t shard;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint64_t allocs_start;
    std::uint64_t child_allocs;
  };
  struct ThreadLog;

  SpanTracer() = default;
  ThreadLog& log();
  void finish_top(ThreadLog& log);
  static std::int64_t now_ns() noexcept;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> current_slice_{0};  ///< id of the open run_for slice
  std::atomic<std::size_t> kept_{0};
  mutable std::mutex logs_mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  ///< guarded by logs_mu_
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, std::size_t shard) : on_(SpanTracer::instance().enabled()) {
    if (on_) SpanTracer::instance().begin(kind, shard);
  }
  ~ScopedSpan() {
    if (on_) SpanTracer::instance().end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
};

}  // namespace swish::bench
