// Metric catalog and reporting: turns the repetitions of one workload into
// named metrics (each with its unit, its host / simulated / exact tag and the
// end-to-end metric it should move), prints them as tables and emits the
// one-line JSON result.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "span_trace.hpp"
#include "workloads.hpp"

namespace swish::bench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string tag;    ///< host | simulated | exact
  std::string moves;  ///< end-to-end metric this one should move ("" for end-to-end ones)
};

struct Measurement {
  std::string workload;
  std::uint64_t seed = 0;
  std::size_t shards = 1;
  std::vector<RunResult> reps;  ///< untraced repetitions
  double peak_rss_mb = 0;
  RunResult traced_rep;
  SpanTotals spans{};
  std::vector<std::int64_t> shard_busy_ns;
  std::size_t spans_recorded = 0;
  std::size_t spans_kept = 0;
  double traced_wall_s = 0;  ///< wall time of the whole traced repetition
};

/// End-to-end metrics in the JSON result (trace off). Every one is defined,
/// and non-zero, on every workload.
std::vector<Metric> end_to_end_metrics(const Measurement& m);
/// Reported in the tables only: simulated-time percentiles, which are
/// constants of the link and pipeline model on some workloads, and
/// writes_failed_ratio, which is 0 wherever the workload is correct.
std::vector<Metric> end_to_end_extras(const Measurement& m);
/// Per-layer metrics in the JSON result (trace on).
std::vector<Metric> per_layer_metrics(const Measurement& m);
/// Per-layer figures reported in the tables only: simulated-time
/// membership and lag percentiles, NF stats, drops by reason.
std::vector<Metric> per_layer_extras(const Measurement& m);

void print_metric_table(std::ostream& out, const std::string& title,
                        const std::vector<Metric>& metrics);
/// Self time per layer over the traced repetition's wall time; what no span
/// covers is shown as `other`.
void print_self_time_table(std::ostream& out, const Measurement& m);
void print_message_table(std::ostream& out, const Measurement& m);

/// The final stdout line.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace swish::bench
