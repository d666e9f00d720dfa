// swish_bench: end-to-end benchmark of the SwiShmem simulator.
//
//   swish_bench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]
//   swish_bench --selftest
//
// Repeats one workload (fresh fabric each time) until S host seconds have
// passed, checks every repetition's outputs and that the repetitions agree
// bit for bit on every exact and simulated metric, and prints the
// end-to-end metrics (host ones as medians over the repetitions, sim_pps
// from the fastest one). With
// --trace 1 it then runs one traced repetition and prints the per-layer
// metrics, the per-layer self-time table and the protocol-message table.
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. A failed correctness check exits 1.
//
// --selftest checks determinism instead: two scaled-down runs of every
// workload with one seed agree on every exact and simulated metric, and the
// EWO flood gives identical simulated statistics at one shard and several.
#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "report.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

using namespace swish::bench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  bool selftest = false;
};

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::cerr << argv0 << ": " << why << "\n"
            << "usage: " << argv0
            << " --workload NAME --seed N --seconds S --trace 0|1 [--spans-out FILE]\n"
            << "       " << argv0 << " --selftest\n"
            << "workloads:";
  for (const auto& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], "missing value for " + a);
      return argv[++i];
    };
    auto count = [&]() -> unsigned long long {
      const std::string v = value();
      try {
        std::size_t used = 0;
        const unsigned long long n = std::stoull(v, &used);
        if (used == v.size() && v[0] != '-') return n;
      } catch (const std::exception&) {
      }
      usage(argv[0], "bad value '" + v + "' for " + a);
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = count();
    else if (a == "--seconds") opt.seconds = static_cast<double>(count());
    else if (a == "--trace") opt.trace = count() != 0;
    else if (a == "--spans-out") opt.spans_out = value();
    else if (a == "--selftest") opt.selftest = true;
    else usage(argv[0], "unknown option " + a);
  }
  if (!opt.selftest && !is_workload(opt.workload)) {
    usage(argv[0], "unknown workload '" + opt.workload + "'");
  }
  return opt;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Names of the exact/simulated metrics on which two results differ.
/// Metrics whose names start with one of `skip` are not compared.
std::vector<std::string> differences(const RunResult& a, const RunResult& b,
                                     const std::vector<std::string>& skip = {}) {
  auto skipped = [&skip](const std::string& name) {
    for (const auto& prefix : skip) {
      if (name.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  std::vector<std::string> diff;
  for (const auto& [name, value] : a.exact) {
    if (skipped(name)) continue;
    const auto it = b.exact.find(name);
    if (it == b.exact.end() || it->second != value) diff.push_back(name);
  }
  for (const auto& [name, value] : b.exact) {
    if (!skipped(name) && a.exact.find(name) == a.exact.end()) diff.push_back(name);
  }
  return diff;
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& s : v) out += (out.empty() ? "" : ", ") + s;
  return out;
}

int selftest() {
  int failures = 0;
  auto expect_same = [&](const std::string& what, const RunResult& a, const RunResult& b,
                         bool same_shards) {
    // Across shard counts the synchronization windows, cross-shard handoffs,
    // parse-cache pre-warms and threads' allocations legitimately differ.
    auto diff = same_shards ? differences(a, b)
                            : differences(a, b, {"shard.", "packet.parse"});
    if (same_shards && a.run_allocs != b.run_allocs) diff.push_back("run_allocs");
    std::cout << (diff.empty() ? "PASS " : "FAIL ") << what;
    if (!diff.empty()) std::cout << ": differs in " << join(diff);
    std::cout << "\n";
    if (!diff.empty()) ++failures;
  };
  for (const std::string& w : workload_names()) {
    RunConfig c;
    c.workload = w;
    c.seed = 5;
    c.scale = 0.2;
    const RunResult a = run_workload(c);
    const RunResult b = run_workload(c);
    expect_same(w + ": repeated runs with one seed", a, b, true);
    if (!a.failures.empty()) {
      std::cout << "     (correctness: " << join(a.failures) << ")\n";
    }
  }
  RunConfig one;
  one.workload = "ewo_flood_16x4";
  one.seed = 5;
  one.scale = 0.2;
  one.shards = 1;
  RunConfig many = one;
  many.shards = std::max<std::size_t>(2, default_flood_shards());
  const RunResult a = run_workload(one);
  const RunResult b = run_workload(many);
  expect_same("ewo_flood_16x4: 1 shard vs " + std::to_string(many.shards) + " shards", a, b,
              false);
  if (!a.failures.empty() || !b.failures.empty()) {
    std::cout << "FAIL ewo_flood_16x4 correctness: " << join(a.failures) << join(b.failures)
              << "\n";
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.selftest) return selftest();

  RunConfig config;
  config.workload = opt.workload;
  config.seed = opt.seed;

  Measurement m;
  m.workload = opt.workload;
  m.seed = opt.seed;
  m.shards = opt.workload == "ewo_flood_16x4" ? default_flood_shards() : 1;
  std::vector<std::string> failures;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    m.reps.push_back(run_workload(config));
    const RunResult& r = m.reps.back();
    for (const auto& f : r.failures) {
      failures.push_back("rep " + std::to_string(m.reps.size()) + ": " + f);
    }
    if (m.reps.size() > 1) {
      auto diff = differences(m.reps.front(), r);
      if (r.run_allocs != m.reps.front().run_allocs) diff.push_back("allocs");
      if (!diff.empty()) {
        failures.push_back("rep " + std::to_string(m.reps.size()) +
                           " is not deterministic: " + join(diff));
      }
    }
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() <
           opt.seconds);
  m.peak_rss_mb = peak_rss_mb();

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const RunResult& r : m.reps) {
    attempted += r.injected;
    failed += r.injected - std::min(r.injected, r.delivered);
  }

  std::cout << "swish_bench: workload " << m.workload << ", seed " << m.seed << ", shards "
            << m.shards << ", " << m.reps.size() << " repetitions in " << opt.seconds
            << " s (host metrics: median over repetitions; sim_pps: fastest repetition)\n";
  std::cout << "  sim_pps per repetition:";
  for (const RunResult& r : m.reps) {
    std::cout << " " << static_cast<std::uint64_t>(static_cast<double>(r.injected) /
                                                   r.host.at("run"));
  }
  std::cout << "\n";
  print_metric_table(std::cout, "end-to-end metrics", end_to_end_metrics(m));
  print_metric_table(std::cout, "end-to-end metrics (tables only)", end_to_end_extras(m));

  std::vector<Metric> json_metrics = end_to_end_metrics(m);
  if (opt.trace) {
    config.traced = true;
    const auto tt = std::chrono::steady_clock::now();
    m.traced_rep = run_workload(config);
    m.traced_wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - tt).count();
    for (const auto& f : m.traced_rep.failures) failures.push_back("traced rep: " + f);
    // The tap parses every packet it sees, which moves the parse counters.
    const auto diff = differences(m.reps.front(), m.traced_rep, {"packet.parse"});
    if (!diff.empty()) {
      failures.push_back("traced repetition changed simulated results: " + join(diff));
    }
    attempted += m.traced_rep.injected;
    failed += m.traced_rep.injected - std::min(m.traced_rep.injected, m.traced_rep.delivered);
    SpanTracer& tracer = SpanTracer::instance();
    m.spans = tracer.totals();
    m.shard_busy_ns = tracer.shard_busy_ns();
    m.spans_recorded = tracer.spans_recorded();
    m.spans_kept = tracer.spans_kept();
    json_metrics = per_layer_metrics(m);
    print_metric_table(std::cout, "per-layer metrics", json_metrics);
    print_metric_table(std::cout, "per-layer figures (tables only)", per_layer_extras(m));
    print_self_time_table(std::cout, m);
    print_message_table(std::cout, m);
    if (!opt.spans_out.empty()) {
      std::ofstream out(opt.spans_out);
      tracer.write_csv(out);
      std::cout << "spans written to " << opt.spans_out << "\n";
    }
  }

  if (failures.empty()) {
    std::cout << "correctness: PASS\n";
  } else {
    std::cout << "correctness: FAIL\n";
    for (const auto& f : failures) std::cout << "  " << f << "\n";
  }
  std::cout << result_json(failures.empty(), attempted, failed, json_metrics) << std::endl;
  return failures.empty() ? 0 : 1;
}
