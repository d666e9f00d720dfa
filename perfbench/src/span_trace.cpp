#include "span_trace.hpp"

#include <algorithm>
#include <chrono>

#include "alloc_counter.hpp"

namespace swish::bench {

namespace {

constexpr std::size_t kMaxShards = 64;

struct KindInfo {
  const char* name;
  const char* layer;
};

constexpr std::array<KindInfo, kNumSpanKinds> kKinds{{
    {"setup.fabric", "setup"},
    {"setup.install", "setup"},
    {"setup.start", "setup"},
    {"setup.workload", "setup"},
    {"run_for", "sim"},
    {"workload.generate", "workload"},
    {"pisa.inject", "pisa"},
    {"nf.process", "nf"},
    {"workload.sink", "workload"},
    {"packet.decode", "packet"},
    {"packet.encode", "packet"},
    {"telemetry.export", "telemetry"},
}};

}  // namespace

const char* span_name(SpanKind kind) noexcept {
  return kKinds[static_cast<std::size_t>(kind)].name;
}

const char* span_layer(SpanKind kind) noexcept {
  return kKinds[static_cast<std::size_t>(kind)].layer;
}

struct SpanTracer::ThreadLog {
  std::uint64_t thread_index = 0;
  std::uint64_t next_seq = 1;
  std::vector<Frame> stack;
  std::vector<SpanRecord> kept;
  SpanTotals totals{};
  std::array<std::int64_t, kMaxShards> shard_busy{};
  std::size_t recorded = 0;
};

SpanTracer& SpanTracer::instance() noexcept {
  static SpanTracer tracer;
  return tracer;
}

std::int64_t SpanTracer::now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

SpanTracer::ThreadLog& SpanTracer::log() {
  thread_local ThreadLog* mine = nullptr;
  if (mine == nullptr) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->stack.reserve(16);
    fresh->kept.reserve(kMaxKept / 4);
    std::lock_guard<std::mutex> lock(logs_mu_);
    fresh->thread_index = logs_.size();
    mine = fresh.get();
    logs_.push_back(std::move(fresh));
  }
  return *mine;
}

void SpanTracer::begin(SpanKind kind, std::size_t shard) {
  ThreadLog& l = log();
  Frame f{};
  f.kind = kind;
  f.pending = false;
  f.shard = static_cast<std::uint16_t>(shard);
  f.id = (l.thread_index << 40) | l.next_seq++;
  f.parent = l.stack.empty() ? current_slice_.load(std::memory_order_relaxed)
                             : l.stack.back().id;
  f.allocs_start = thread_allocs();
  f.start_ns = now_ns();
  if (kind == SpanKind::kRunSlice) current_slice_.store(f.id, std::memory_order_relaxed);
  l.stack.push_back(f);
}

void SpanTracer::end() {
  ThreadLog& l = log();
  // A pending span left open by a packet that never reached its closing
  // boundary ends with its parent.
  while (!l.stack.empty() && l.stack.back().pending) finish_top(l);
  if (!l.stack.empty()) finish_top(l);
}

void SpanTracer::open_pending(SpanKind kind, std::size_t shard) {
  ThreadLog& l = log();
  while (!l.stack.empty() && l.stack.back().pending) finish_top(l);
  begin(kind, shard);
  l.stack.back().pending = true;
}

void SpanTracer::close_pending() {
  ThreadLog& l = log();
  if (!l.stack.empty() && l.stack.back().pending) finish_top(l);
}

void SpanTracer::finish_top(ThreadLog& l) {
  const std::int64_t end = now_ns();
  const std::uint64_t allocs_end = thread_allocs();
  Frame f = l.stack.back();
  l.stack.pop_back();
  const std::int64_t dur = end - f.start_ns;
  const std::uint64_t allocs = allocs_end - f.allocs_start;
  SpanAggregate& agg = l.totals[static_cast<std::size_t>(f.kind)];
  ++agg.calls;
  agg.total_ns += dur;
  agg.self_ns += dur - f.child_ns;
  agg.allocs += allocs;
  agg.self_allocs += allocs - f.child_allocs;
  if (f.kind == SpanKind::kNfProcess || f.kind == SpanKind::kSink) {
    l.shard_busy[std::min<std::size_t>(f.shard, kMaxShards - 1)] += dur;
  }
  if (!l.stack.empty()) {
    l.stack.back().child_ns += dur;
    l.stack.back().child_allocs += allocs;
  }
  if (f.kind == SpanKind::kRunSlice) current_slice_.store(0, std::memory_order_relaxed);
  ++l.recorded;
  if (kept_.load(std::memory_order_relaxed) < kMaxKept) {
    kept_.fetch_add(1, std::memory_order_relaxed);
    l.kept.push_back(SpanRecord{f.id, f.parent, f.start_ns, end,
                                static_cast<std::uint32_t>(allocs), f.shard, f.kind});
  }
}

SpanTotals SpanTracer::totals() const {
  SpanTotals sum{};
  std::lock_guard<std::mutex> lock(logs_mu_);
  for (const auto& l : logs_) {
    for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
      sum[k].calls += l->totals[k].calls;
      sum[k].total_ns += l->totals[k].total_ns;
      sum[k].self_ns += l->totals[k].self_ns;
      sum[k].allocs += l->totals[k].allocs;
      sum[k].self_allocs += l->totals[k].self_allocs;
    }
  }
  return sum;
}

std::vector<std::int64_t> SpanTracer::shard_busy_ns() const {
  std::vector<std::int64_t> busy(kMaxShards, 0);
  std::lock_guard<std::mutex> lock(logs_mu_);
  for (const auto& l : logs_) {
    for (std::size_t k = 0; k < kMaxShards; ++k) busy[k] += l->shard_busy[k];
  }
  return busy;
}

std::size_t SpanTracer::spans_recorded() const {
  std::size_t n = 0;
  std::lock_guard<std::mutex> lock(logs_mu_);
  for (const auto& l : logs_) n += l->recorded;
  return n;
}

std::size_t SpanTracer::spans_kept() const { return kept_.load(std::memory_order_relaxed); }

void SpanTracer::write_csv(std::ostream& out) const {
  out << "kind,id,parent,shard,start_ns,end_ns,allocs\n";
  std::lock_guard<std::mutex> lock(logs_mu_);
  for (const auto& l : logs_) {
    for (const SpanRecord& s : l->kept) {
      out << span_name(s.kind) << ',' << s.id << ',' << s.parent << ',' << s.shard << ','
          << s.start_ns << ',' << s.end_ns << ',' << s.allocs << '\n';
    }
  }
}

}  // namespace swish::bench
