#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <sstream>

namespace swish::bench {
namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double median_host(const Measurement& m, const std::string& key) {
  std::vector<double> v;
  for (const RunResult& r : m.reps) v.push_back(r.host.at(key));
  return median(v);
}

/// Edge packets injected per host second, one value per repetition.
std::vector<double> rep_pps(const Measurement& m) {
  std::vector<double> pps;
  for (const RunResult& rep : m.reps) {
    pps.push_back(static_cast<double>(rep.injected) / rep.host.at("run"));
  }
  return pps;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double exact(const RunResult& r, const std::string& key) {
  const auto it = r.exact.find(key);
  return it == r.exact.end() ? 0.0 : it->second;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Five significant digits, for table cells.
std::string cell(double v) {
  std::ostringstream os;
  os << std::setprecision(5) << v;
  return os.str();
}

const SpanAggregate& agg(const Measurement& m, SpanKind kind) {
  return m.spans[static_cast<std::size_t>(kind)];
}

double ns_per_call(const SpanAggregate& a) {
  return ratio(static_cast<double>(a.total_ns), static_cast<double>(a.calls));
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const Measurement& m) {
  const RunResult& r = m.reps.front();
  const auto delivered = static_cast<double>(r.delivered);
  const std::vector<double> pps = rep_pps(m);
  const double submitted = exact(r, "proto.writes_submitted");
  return {
      // The fastest repetition: load from other work on the host only ever
      // slows a repetition down, and on a shared machine a run's median
      // drifts with that load by more than its fastest repetition does.
      {"sim_pps", *std::max_element(pps.begin(), pps.end()), "1/s", "host", ""},
      {"setup_s", median_host(m, "setup"), "s", "host", ""},
      {"peak_rss_mb", m.peak_rss_mb, "MB", "host", ""},
      {"events_per_pkt", ratio(exact(r, "sim.events"), delivered), "count", "exact", ""},
      {"allocs_per_pkt", ratio(static_cast<double>(r.run_allocs), delivered), "count", "exact",
       ""},
      {"proto_bytes_per_pkt", ratio(exact(r, "proto.bytes_total"), delivered), "B", "exact", ""},
      {"delivered_ratio", ratio(delivered, static_cast<double>(r.injected)), "ratio", "exact", ""},
      {"writes_ok_ratio",
       submitted == 0.0 ? 1.0 : 1.0 - exact(r, "proto.writes_failed") / submitted, "ratio",
       "exact", ""},
  };
}

std::vector<Metric> end_to_end_extras(const Measurement& m) {
  const RunResult& r = m.reps.front();
  std::vector<Metric> out{
      {"sim_pps_median", median(rep_pps(m)), "1/s", "host", ""},
      {"pkt_latency_p50_us", exact(r, "latency.p50_us"), "us", "simulated", ""},
      {"pkt_latency_p99_us", exact(r, "latency.p99_us"), "us", "simulated", ""},
      {"pkt_latency_samples", exact(r, "latency.samples"), "count", "exact", ""},
  };
  const double submitted = exact(r, "proto.writes_submitted");
  if (submitted > 0) {
    out.push_back({"write_commit_p50_us", exact(r, "proto.write_commit.p50_us"), "us",
                   "simulated", ""});
    out.push_back({"write_commit_p99_us", exact(r, "proto.write_commit.p99_us"), "us",
                   "simulated", ""});
    out.push_back({"write_commit_samples", exact(r, "proto.write_commit.samples"), "count",
                   "exact", ""});
  }
  out.push_back({"writes_failed_ratio", ratio(exact(r, "proto.writes_failed"), submitted),
                 "ratio", "exact", ""});
  return out;
}

std::vector<Metric> per_layer_metrics(const Measurement& m) {
  const RunResult& r = m.reps.front();
  const RunResult& t = m.traced_rep;
  const double delivered = static_cast<double>(r.delivered);
  const double events = exact(r, "sim.events");
  const double windows = exact(r, "shard.windows");
  const double run_s = median_host(m, "run");
  const double sim_s = exact(r, "sim.seconds");

  // Shard busy time: max over mean of the shards' NF + sink span time.
  double busy_max = 0;
  double busy_sum = 0;
  for (std::size_t k = 0; k < m.shards && k < m.shard_busy_ns.size(); ++k) {
    const auto b = static_cast<double>(m.shard_busy_ns[k]);
    busy_max = std::max(busy_max, b);
    busy_sum += b;
  }
  const double busy_mean = busy_sum / static_cast<double>(std::max<std::size_t>(m.shards, 1));

  // Wire codec: message mix from the tap, replay cost weighted by that mix.
  double msgs = 0;
  double msg_bytes = 0;
  double decode_weighted = 0;
  double encode_weighted = 0;
  double replay_weight = 0;
  for (const auto& [name, st] : t.msg_types) {
    msgs += static_cast<double>(st.count);
    msg_bytes += static_cast<double>(st.bytes);
    if (st.replayed > 0) {
      decode_weighted += st.decode_ns * static_cast<double>(st.count);
      encode_weighted += st.encode_ns * static_cast<double>(st.count);
      replay_weight += static_cast<double>(st.count);
    }
  }
  const double parse_execs = exact(r, "packet.parse_executions");
  const double parse_hits = exact(r, "packet.parse_cache_hits");

  const SpanAggregate& nf = agg(m, SpanKind::kNfProcess);
  const double submitted = exact(r, "proto.writes_submitted");
  const double reads = exact(r, "proto.reads_local") + exact(r, "proto.reads_redirected");
  const double num_switches = exact(r, "fabric.switches");

  return {
      {"sim.events", events, "count", "exact", "sim_pps"},
      {"sim.host_ns_per_event", ratio(run_s * 1e9, events), "ns", "host", "sim_pps"},
      {"sim.pending_peak", static_cast<double>(t.pending_peak), "count", "exact", "sim_pps"},
      {"shard.windows", windows, "count", "exact", "sim_pps"},
      {"shard.events_per_window", ratio(events, windows), "count", "exact", "sim_pps"},
      {"shard.cross_events_per_window", ratio(exact(r, "shard.cross_events"), windows), "count",
       "exact", "sim_pps"},
      {"shard.busy_imbalance", ratio(busy_max, busy_mean), "ratio", "host", "sim_pps"},
      {"packet.msgs_per_pkt", ratio(msgs, delivered), "count", "exact", "proto_bytes_per_pkt"},
      {"packet.msg_bytes", ratio(msg_bytes, msgs), "B", "exact", "proto_bytes_per_pkt"},
      {"packet.decode_ns", ratio(decode_weighted, replay_weight), "ns", "host", "sim_pps"},
      {"packet.encode_ns", ratio(encode_weighted, replay_weight), "ns", "host", "sim_pps"},
      {"packet.parse_cache_hit_rate", ratio(parse_hits, parse_hits + parse_execs), "ratio",
       "exact", "sim_pps"},
      {"net.link_pkts_per_pkt", ratio(exact(r, "net.link_pkts"), delivered), "count", "exact",
       "proto_bytes_per_pkt"},
      {"net.link_bytes_per_pkt", ratio(exact(r, "net.link_bytes"), delivered), "B", "exact",
       "proto_bytes_per_pkt"},
      {"net.lost", exact(r, "net.lost"), "count", "exact", "delivered_ratio"},
      {"net.queue_dropped", exact(r, "net.queue_dropped"), "count", "exact", "delivered_ratio"},
      {"net.dead_dropped", exact(r, "net.dead_dropped"), "count", "exact", "delivered_ratio"},
      {"pisa.passes_per_pkt", ratio(exact(r, "pisa.passes"), delivered), "count", "exact",
       "sim_pps"},
      {"pisa.recirculated", exact(r, "pisa.recirculated"), "count", "exact", "sim_pps"},
      {"pisa.dropped_capacity", exact(r, "pisa.dropped_capacity"), "count", "exact",
       "delivered_ratio"},
      {"pisa.cp_backlog_drops", exact(r, "pisa.cp_backlog_drops"), "count", "exact",
       "writes_ok_ratio"},
      {"pisa.inject_ns", ns_per_call(agg(m, SpanKind::kInject)), "ns", "host", "sim_pps"},
      {"nf.calls", exact(r, "nf.calls"), "count", "exact", "sim_pps"},
      {"nf.host_ns_per_call", ns_per_call(nf), "ns", "host", "sim_pps"},
      {"nf.allocs_per_call",
       ratio(static_cast<double>(nf.allocs), static_cast<double>(nf.calls)), "count", "exact",
       "allocs_per_pkt"},
      {"proto.write_retry_ratio", ratio(exact(r, "proto.write_retries"), submitted), "ratio",
       "exact", "writes_ok_ratio"},
      {"proto.writes_failed", exact(r, "proto.writes_failed"), "count", "exact",
       "writes_ok_ratio"},
      {"proto.chain_gap_drops", exact(r, "proto.chain_gap_drops"), "count", "exact",
       "proto_bytes_per_pkt"},
      {"proto.reads_redirected_ratio", ratio(exact(r, "proto.reads_redirected"), reads),
       "ratio", "exact", "proto_bytes_per_pkt"},
      {"proto.ewo_updates_per_pkt", ratio(exact(r, "proto.ewo_updates_sent"), delivered),
       "count", "exact", "proto_bytes_per_pkt"},
      {"proto.ewo_merge_useful_ratio",
       ratio(exact(r, "proto.ewo_entries_merged"), exact(r, "proto.ewo_updates_received")),
       "ratio", "exact", "proto_bytes_per_pkt"},
      {"proto.bytes_per_pkt.write_path", ratio(exact(r, "proto.bytes.write_path"), delivered),
       "B", "exact", "proto_bytes_per_pkt"},
      {"proto.bytes_per_pkt.ewo", ratio(exact(r, "proto.bytes.ewo"), delivered), "B", "exact",
       "proto_bytes_per_pkt"},
      {"proto.bytes_per_pkt.redirect", ratio(exact(r, "proto.bytes.redirect"), delivered), "B",
       "exact", "proto_bytes_per_pkt"},
      {"proto.bytes_per_pkt.control", ratio(exact(r, "proto.bytes.control"), delivered), "B",
       "exact", "proto_bytes_per_pkt"},
      {"proto.recovery_chunks", exact(r, "proto.recovery_chunks"), "count", "exact",
       "delivered_ratio"},
      {"store.live_keys", exact(r, "store.live_keys"), "count", "exact", "peak_rss_mb"},
      {"store.memory_bytes", exact(r, "store.memory_bytes"), "B", "exact", "peak_rss_mb"},
      {"store.cow_page_copies", exact(r, "store.cow_page_copies"), "count", "exact", "sim_pps"},
      {"membership.false_positives", exact(r, "membership.false_positives"), "count", "exact",
       "delivered_ratio"},
      {"membership.control_bytes_per_sw_s",
       ratio(exact(r, "proto.bytes.control"), num_switches * sim_s), "B/s", "exact",
       "proto_bytes_per_pkt"},
      {"telemetry.spans_recorded", exact(r, "telemetry.spans_recorded"), "count", "exact",
       "sim_pps"},
      {"telemetry.int_reports", exact(r, "telemetry.int_reports"), "count", "exact", "sim_pps"},
      {"telemetry.int_bytes_per_pkt", ratio(exact(r, "proto.bytes.int"), delivered), "B",
       "exact", "proto_bytes_per_pkt"},
      {"telemetry.export_ms", median_host(m, "export") * 1e3, "ms", "host", "sim_pps"},
      {"workload.syn_retransmits", exact(r, "workload.syn_retransmits"), "count", "exact",
       "delivered_ratio"},
      {"workload.flows_abandoned", exact(r, "workload.flows_abandoned"), "count", "exact",
       "delivered_ratio"},
      {"workload.sink_ns_per_pkt", ns_per_call(agg(m, SpanKind::kSink)), "ns", "host",
       "sim_pps"},
      {"setup.fabric_ms", median_host(m, "setup.fabric") * 1e3, "ms", "host", "setup_s"},
      {"setup.install_ms", median_host(m, "setup.install") * 1e3, "ms", "host", "setup_s"},
      {"setup.start_ms", median_host(m, "setup.start") * 1e3, "ms", "host", "setup_s"},
      {"setup.workload_ms", median_host(m, "setup.workload") * 1e3, "ms", "host", "setup_s"},
      {"trace.overhead", ratio(t.host.count("run") ? t.host.at("run") : 0.0, run_s), "ratio",
       "host", ""},
  };
}

void print_metric_table(std::ostream& out, const std::string& title,
                        const std::vector<Metric>& metrics) {
  out << title << "\n";
  for (const Metric& mt : metrics) {
    out << "  " << std::left << std::setw(34) << mt.name << std::right << std::setw(18)
        << number(mt.value) << " " << std::left << std::setw(6) << mt.unit << " ["
        << mt.tag << "]";
    if (!mt.moves.empty()) out << " -> " << mt.moves;
    out << std::right << "\n";
  }
}

void print_self_time_table(std::ostream& out, const Measurement& m) {
  const std::vector<std::string> layers{"setup", "sim", "workload", "pisa", "nf", "packet",
                                        "telemetry"};
  const double wall_ns = m.traced_wall_s * 1e9;
  // Spans that only ever open on the coordinating thread, outside any other
  // span: together with `other` they tile the traced repetition's wall time.
  std::int64_t root_ns = 0;
  for (SpanKind k : {SpanKind::kSetupFabric, SpanKind::kSetupInstall, SpanKind::kSetupStart,
                     SpanKind::kSetupWorkload, SpanKind::kRunSlice, SpanKind::kExport,
                     SpanKind::kCodecDecode, SpanKind::kCodecEncode}) {
    root_ns += agg(m, k).total_ns;
  }
  out << "per-layer self time (traced repetition, wall " << number(m.traced_wall_s) << " s";
  if (m.shards > 1) {
    out << "; " << m.shards
        << " shards: rows include shard-thread time that overlaps run_for in wall time";
  }
  out << ")\n";
  out << "  " << std::left << std::setw(12) << "layer" << std::right << std::setw(12) << "calls"
      << std::setw(14) << "self_ms" << std::setw(10) << "share" << std::setw(14) << "self_allocs"
      << "\n";
  for (const std::string& layer : layers) {
    std::uint64_t calls = 0;
    std::int64_t self = 0;
    std::uint64_t allocs = 0;
    for (std::size_t k = 0; k < kNumSpanKinds; ++k) {
      if (layer != span_layer(static_cast<SpanKind>(k))) continue;
      calls += m.spans[k].calls;
      self += m.spans[k].self_ns;
      allocs += m.spans[k].self_allocs;
    }
    out << "  " << std::left << std::setw(12) << layer << std::right << std::setw(12) << calls
        << std::setw(14) << cell(static_cast<double>(self) / 1e6) << std::setw(10)
        << cell(ratio(static_cast<double>(self), wall_ns)) << std::setw(14) << allocs << "\n";
  }
  const double other = wall_ns - static_cast<double>(root_ns);
  out << "  " << std::left << std::setw(12) << "other" << std::right << std::setw(12) << "-"
      << std::setw(14) << cell(other / 1e6) << std::setw(10) << cell(ratio(other, wall_ns))
      << "\n";
  out << "  sim = run_for self time: event queue, links, protocol-packet pipeline passes and "
         "engines\n"
      << "  spans: " << m.spans_recorded << " recorded, " << m.spans_kept << " kept\n";
}

void print_message_table(std::ostream& out, const Measurement& m) {
  const double delivered = static_cast<double>(m.reps.front().delivered);
  out << "protocol messages by wire type (traced repetition; codec replay of captured "
         "payloads)\n";
  out << "  " << std::left << std::setw(18) << "type" << std::right << std::setw(12) << "count"
      << std::setw(14) << "msgs_per_pkt" << std::setw(12) << "msg_bytes" << std::setw(12)
      << "decode_ns" << std::setw(12) << "encode_ns" << std::setw(10) << "replayed" << "\n";
  for (const auto& [name, st] : m.traced_rep.msg_types) {
    out << "  " << std::left << std::setw(18) << name << std::right << std::setw(12) << st.count
        << std::setw(14) << cell(ratio(static_cast<double>(st.count), delivered))
        << std::setw(12)
        << cell(ratio(static_cast<double>(st.bytes), static_cast<double>(st.count)))
        << std::setw(12) << cell(st.decode_ns) << std::setw(12) << cell(st.encode_ns)
        << std::setw(10) << st.replayed << "\n";
  }
}

std::vector<Metric> per_layer_extras(const Measurement& m) {
  const RunResult& r = m.reps.front();
  std::vector<Metric> out{
      {"membership.failures_detected", exact(r, "membership.failures_detected"), "count",
       "exact", "delivered_ratio"},
      {"membership.detection_ms", exact(r, "membership.detection_ms"), "ms", "simulated",
       "delivered_ratio"},
      {"membership.repair_ms", exact(r, "membership.repair_ms"), "ms", "simulated",
       "pkt_latency_p99_us"},
      {"telemetry.lag_p99_us", exact(r, "telemetry.lag_p99_us"), "us", "simulated",
       "proto_bytes_per_pkt"},
  };
  for (const auto& [name, value] : r.exact) {
    const bool nf_stat = name.rfind("nf.", 0) == 0 && name != "nf.calls";
    if (nf_stat || name.rfind("drops.", 0) == 0 || name.rfind("workload.", 0) == 0) {
      out.push_back({name, value, "count", "exact", "delivered_ratio"});
    }
  }
  return out;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": " << number(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace swish::bench
