// Causal tracing: sampled per-write trace contexts carried in-band by the
// SwiShmem wire protocol, plus the per-switch span recorder they land in.
//
// A SpanContext is 17 bytes on the wire (trace id, span id, hop count),
// attached only to messages whose causal chain was sampled — unsampled
// traffic is byte-identical to a tracing-disabled run, so the bandwidth
// model and the wire-level tests are unaffected. Each protocol hop records
// a Span (a point or interval in virtual time on one switch) whose
// parent_span is the wire context it continued; post-run stitching
// (telemetry/export.hpp) rebuilds the cross-switch causal DAG from these
// parent edges. Each pisa::Switch owns one recorder: sampling decisions and
// id allocation are a pure function of that switch's own event stream, so
// identical seeded runs record identical spans at every shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "telemetry/node_log.hpp"

namespace swish::telemetry {

/// In-band trace context of one sampled causal chain. trace_id == 0 means
/// "not sampled"; such contexts are never encoded on the wire.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint8_t hop = 0;

  [[nodiscard]] bool sampled() const noexcept { return trace_id != 0; }

  friend bool operator==(const SpanContext&, const SpanContext&) = default;
};

/// Wire size of an encoded SpanContext (trace id + span id + hop).
inline constexpr std::size_t kSpanContextWireBytes = 8 + 8 + 1;

/// One recorded event of a sampled trace. `name` must point at a string
/// literal (or other static-storage string) — spans store the pointer.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;  ///< 0 = trace root
  NodeId node = 0;
  const char* name = "";
  TimeNs start = 0;
  TimeNs end = 0;
  std::uint8_t hop = 0;
  std::uint32_t space = 0;
  std::uint64_t key = 0;
};

/// Canonical identity: the span id is the per-node seq (each switch's
/// recorder allocates span ids densely above its own base).
inline RecordKey record_key(const Span& s) noexcept { return {s.start, s.node, s.span_id}; }

/// Per-switch span store with deterministic 1-in-N root sampling.
/// Disabled (the default) it is two loads and a branch per query; no memory
/// is allocated until the first record after enable().
class SpanRecorder {
 public:
  static constexpr std::size_t kDefaultMaxSpans = 1u << 18;
  /// Trace and span ids of node n start above n << kIdBaseShift: globally
  /// unique without coordination, and below 2^53 (exact as JSON numbers)
  /// for every node id below 2^13.
  static constexpr unsigned kIdBaseShift = 40;

  /// `now` is the owning switch's simulator clock; spans are stamped with it.
  SpanRecorder(NodeId node, const TimeNs* now) noexcept
      : now_(now),
        next_trace_id_(static_cast<std::uint64_t>(node) << kIdBaseShift),
        next_span_id_(next_trace_id_) {}

  /// Samples one causal chain in every `sample_every` roots (1 = every
  /// write). 0 disables recording. Retains at most `max_spans` spans;
  /// further records are counted in dropped().
  void enable(std::uint64_t sample_every, std::size_t max_spans = kDefaultMaxSpans) {
    sample_every_ = sample_every;
    max_spans_ = max_spans;
    sample_countdown_ = 0;  // the first decision after (re-)enable samples
  }

  [[nodiscard]] bool enabled() const noexcept { return sample_every_ != 0; }
  [[nodiscard]] std::uint64_t sample_every() const noexcept { return sample_every_; }

  /// Root sampling decision for a new causal chain. Counter-based, so the
  /// decision sequence is a pure function of the call sequence (determinism
  /// is regression-tested): decision 0 samples, then every Nth after it. The
  /// countdown is equivalent to `decisions % N == 0` without the per-write
  /// 64-bit division. Returns an unsampled context when passed over.
  SpanContext maybe_start_trace() noexcept {
    if (sample_every_ == 0) return {};
    ++root_decisions_;
    if (sample_countdown_ > 0) {
      --sample_countdown_;
      return {};
    }
    sample_countdown_ = sample_every_ - 1;
    return SpanContext{++next_trace_id_, ++next_span_id_, 0};
  }

  /// Allocates a child context continuing `parent` (same trace, fresh span
  /// id, hop + 1). Unsampled parents propagate unsampled.
  SpanContext child_of(const SpanContext& parent) noexcept {
    if (!parent.sampled() || sample_every_ == 0) return {};
    const std::uint8_t hop = parent.hop == 0xff ? parent.hop : parent.hop + 1;
    return SpanContext{parent.trace_id, ++next_span_id_, hop};
  }

  [[nodiscard]] TimeNs now() const noexcept { return now_ ? *now_ : 0; }

  void record(const Span& s) {
    if (sample_every_ == 0) return;
    if (spans_.size() >= max_spans_) {
      ++dropped_;
      return;
    }
    spans_.push_back(s);
  }

  /// Records a point span (start == end == now) continuing `parent`;
  /// returns the recorded span's context for further propagation.
  SpanContext record_instant(const SpanContext& parent, NodeId node, const char* name,
                             std::uint32_t space = 0, std::uint64_t key = 0) {
    const SpanContext ctx = child_of(parent);
    if (!ctx.sampled()) return {};
    const TimeNs t = now();
    record(Span{ctx.trace_id, ctx.span_id, parent.span_id, node, name, t, t, ctx.hop, space,
                key});
    return ctx;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Root sampling decisions taken so far (sampled or not).
  [[nodiscard]] std::uint64_t root_decisions() const noexcept { return root_decisions_; }

 private:
  std::uint64_t sample_every_ = 0;  ///< 0 = disabled
  std::size_t max_spans_ = kDefaultMaxSpans;
  const TimeNs* now_ = nullptr;
  std::uint64_t root_decisions_ = 0;
  std::uint64_t sample_countdown_ = 0;  ///< decisions until the next sampled root
  std::uint64_t next_trace_id_ = 0;
  std::uint64_t next_span_id_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

}  // namespace swish::telemetry
