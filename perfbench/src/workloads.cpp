#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "alloc_counter.hpp"
#include "nf/heavyhitter.hpp"
#include "nf/lb.hpp"
#include "nf/nat.hpp"
#include "packet/packet.hpp"
#include "packet/swish_wire.hpp"
#include "span_trace.hpp"
#include "swishmem/fabric.hpp"
#include "workload/stamp.hpp"
#include "workload/traffic.hpp"

namespace swish::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `fn` as one timed phase (set-up call or post-run export): host time
/// always, a span in the traced run.
template <typename Fn>
double timed_phase(SpanKind kind, Fn&& fn) {
  const auto t0 = Clock::now();
  {
    ScopedSpan span(kind, 0);
    fn();
  }
  return seconds_since(t0);
}

/// The NfApp handed to Fabric::install: forwards to the real NF, counts its
/// calls and, in the traced run, records the nf.process span. The runtime,
/// engine and store calls the NF makes synchronously fall inside that span.
class TimedNf final : public shm::NfApp {
 public:
  TimedNf(std::unique_ptr<shm::NfApp> inner, std::size_t shard)
      : inner_(std::move(inner)), shard_(shard) {}

  void setup(pisa::Switch& sw, shm::ShmRuntime& rt) override { inner_->setup(sw, rt); }

  void process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) override {
    ++calls_;
    SpanTracer& tracer = SpanTracer::instance();
    if (!tracer.enabled()) {
      inner_->process(ctx, rt);
      return;
    }
    tracer.begin(SpanKind::kNfProcess, shard_);
    inner_->process(ctx, rt);
    tracer.end();
    // Library-driven edge traffic opens its inject span just before
    // Fabric::inject; the pipeline pass it covers ends with the NF.
    tracer.close_pending();
  }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }

 private:
  std::unique_ptr<shm::NfApp> inner_;
  std::size_t shard_;
  std::uint64_t calls_ = 0;
};

/// Per-switch delivery record. A switch's deliveries run on its own shard,
/// so each cell has a single writer.
struct SinkCell {
  std::uint64_t delivered = 0;
  std::vector<std::uint32_t> latency_ns;  ///< edge-to-delivery, stamped packets
};

/// Protocol payloads seen on the links, per wire type (traced run). One per
/// shard: the tap runs on the sending node's shard.
struct Capture {
  static constexpr std::size_t kSamplesPerType = 2048;
  std::array<std::uint64_t, 128> count{};
  std::array<std::uint64_t, 128> bytes{};
  std::array<std::vector<std::vector<std::uint8_t>>, 128> samples;
};

const char* msg_type_name(std::uint8_t type) {
  static constexpr std::array<const char*, pkt::kNumMsgTypes + 1> kNames{
      "unknown",     "WriteRequest", "WriteAck",    "EwoUpdate",        "Heartbeat",
      "ChainConfig", "GroupConfig",  "ReadRedirect", "OwnRequest",      "OwnGrant",
      "OwnUpdate",   "SwimPing",     "SwimAck",     "SwimPingReq",      "MembershipUpdate",
      "ConForward",  "ConPrepare",   "ConPromise",  "ConAccept",        "ConAccepted",
      "ConLearn"};
  return type < kNames.size() ? kNames[type] : "unknown";
}

/// Exact quantile by nearest rank over sorted samples.
double quantile(const std::vector<std::uint32_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size()) + 0.999999);
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

struct WorkloadShape {
  std::size_t leaves = 8;
  std::size_t spines = 2;
  std::size_t shards = 1;
  TimeNs traffic = 0;  ///< traffic duration
  TimeNs drain = 0;    ///< run after traffic stops
  TimeNs slice = 0;    ///< run_for slice length
};

/// One repetition of one workload: owns the fabric and the benchmark-side
/// instrumentation around it.
class Repetition {
 public:
  Repetition(const RunConfig& config, WorkloadShape shape)
      : config_(config), shape_(shape) {}

  RunResult run();

 private:
  shm::FabricConfig fabric_config() const;
  void add_spaces();
  std::unique_ptr<shm::NfApp> make_nf();
  void build_workload();
  void wire_sinks();
  void wire_tap();
  void timed_run();
  void post_run();
  void replay_codec();
  void check_flood();

  RunConfig config_;
  WorkloadShape shape_;
  RunResult result_;
  std::optional<shm::Fabric> fabric_;
  std::vector<TimedNf*> nfs_;
  std::vector<nf::HeavyHitterApp*> hh_;
  std::vector<nf::NatApp*> nat_;
  std::vector<nf::LoadBalancerApp*> lb_;
  std::vector<SinkCell> sinks_;
  std::vector<Capture> captures_;

  // ewo_flood_16x4
  class Pump;
  std::vector<std::unique_ptr<Pump>> pumps_;
  std::vector<pkt::PacketSpec> pool_;
  std::vector<std::size_t> pool_prefix_;
  // nat_flows / lb_failover
  std::unique_ptr<workload::TrafficGenerator> gen_;
  std::size_t kills_ = 0;
};

bool is_flood(const RunConfig& c) { return c.workload == "ewo_flood_16x4"; }
bool is_nat(const RunConfig& c) { return c.workload == "nat_flows"; }
bool is_lb(const RunConfig& c) { return c.workload == "lb_failover"; }

constexpr std::size_t kFloodPrefixes = 16;  ///< /24s, one HH counter slot each
constexpr std::size_t kFloodHostsPerPrefix = 4;
constexpr std::size_t kFloodBatch = 4;
constexpr TimeNs kFloodGap = 1 * kUs;
constexpr std::size_t kFloodPayload = 64;
const std::vector<pkt::Ipv4Addr> kLbBackends{{10, 1, 0, 1}, {10, 1, 0, 2}, {10, 1, 0, 3}};
const pkt::Ipv4Addr kLbVip{10, 200, 0, 1};

/// Self-rescheduling injector for one leaf, living on the leaf's shard:
/// every kFloodGap it builds kFloodBatch stamped packets and injects them.
class Repetition::Pump {
 public:
  Pump(Repetition& s, std::size_t leaf, std::size_t cursor)
      : s_(s),
        sim_(s.fabric_->simulator_for(leaf)),
        leaf_(leaf),
        shard_(s.fabric_->shard_of_switch(leaf)),
        cursor_(cursor) {}

  void start(TimeNs deadline) { arm(deadline); }

  [[nodiscard]] const std::array<std::uint64_t, kFloodPrefixes>& sent() const { return sent_; }

 private:
  void arm(TimeNs deadline) {
    sim_.post_after(kFloodGap, [this, deadline]() {
      if (sim_.now() >= deadline) return;
      for (std::size_t i = 0; i < kFloodBatch; ++i) fire();
      arm(deadline);
    });
  }

  void fire() {
    const std::size_t k = cursor_;
    cursor_ = (cursor_ + 1) % s_.pool_.size();
    pkt::Packet packet;
    {
      ScopedSpan span(SpanKind::kGenerate, shard_);
      scratch_ = s_.pool_[k];
      const workload::Stamp stamp{(static_cast<std::uint64_t>(leaf_) << 32) | k, seq_++,
                                  static_cast<std::uint64_t>(sim_.now())};
      scratch_.payload = stamp.encode(kFloodPayload);
      packet = pkt::build_packet(scratch_);
    }
    ++sent_[s_.pool_prefix_[k]];
    ScopedSpan span(SpanKind::kInject, shard_);
    s_.fabric_->sw(leaf_).inject(std::move(packet));
  }

  Repetition& s_;
  sim::Simulator& sim_;
  std::size_t leaf_;
  std::size_t shard_;
  std::size_t cursor_;
  std::uint32_t seq_ = 0;
  pkt::PacketSpec scratch_;
  std::array<std::uint64_t, kFloodPrefixes> sent_{};
};

shm::FabricConfig Repetition::fabric_config() const {
  shm::FabricConfig cfg;
  cfg.num_switches = shape_.leaves;
  cfg.topology = shm::FabricConfig::Topology::kLeafSpine;
  cfg.spine_count = shape_.spines;
  cfg.shards = shape_.shards;
  cfg.seed = config_.seed;
  if (is_nat(config_)) cfg.int_sample_every = 64;
  if (is_lb(config_)) {
    cfg.controller.membership = shm::MembershipProtocol::kSwim;
    cfg.runtime.heartbeat_period = 5 * kMs;
    cfg.controller.heartbeat_timeout = 30 * kMs;
    cfg.controller.check_period = 5 * kMs;
  }
  return cfg;
}

void Repetition::add_spaces() {
  shm::Fabric& f = *fabric_;
  if (is_flood(config_)) {
    f.add_space(nf::HeavyHitterApp::space(4096));
  } else if (is_nat(config_)) {
    shm::SpaceConfig s = nf::NatApp::space();
    s.kind = shm::SpaceKind::kSparse;  // nat.translation=sro:sparse
    s.table_backed = false;
    f.add_space(s);
    f.enable_spans(64);
    f.enable_observatory();
  } else {
    f.add_space(nf::LoadBalancerApp::space());
    f.add_space(nf::LoadBalancerApp::refcount_space(kLbBackends.size()));
  }
}

std::unique_ptr<shm::NfApp> Repetition::make_nf() {
  std::unique_ptr<shm::NfApp> inner;
  if (is_flood(config_)) {
    nf::HeavyHitterApp::Config hh;
    hh.threshold = 1'000'000'000;  // keep every packet counting
    auto app = std::make_unique<nf::HeavyHitterApp>(hh);
    hh_.push_back(app.get());
    inner = std::move(app);
  } else if (is_nat(config_)) {
    auto app = std::make_unique<nf::NatApp>(nf::NatApp::Config{});
    nat_.push_back(app.get());
    inner = std::move(app);
  } else {
    auto app = std::make_unique<nf::LoadBalancerApp>(
        nf::LoadBalancerApp::Config{kLbVip, kLbBackends, 65536});
    lb_.push_back(app.get());
    inner = std::move(app);
  }
  // Fabric::install builds switch i's NF i-th.
  const std::size_t shard = fabric_->shard_of_switch(nfs_.size());
  auto timed = std::make_unique<TimedNf>(std::move(inner), shard);
  nfs_.push_back(timed.get());
  return timed;
}

void Repetition::wire_sinks() {
  shm::Fabric& f = *fabric_;
  sinks_.resize(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    SinkCell* cell = &sinks_[i];
    sim::Simulator* sim = &f.simulator_for(i);
    const std::size_t shard = f.shard_of_switch(i);
    f.sw(i).set_delivery_sink([cell, sim, shard](const pkt::Packet& p) {
      ScopedSpan span(SpanKind::kSink, shard);
      ++cell->delivered;
      const pkt::ParsedPacket* parsed = p.parsed();
      if (parsed == nullptr) return;
      const auto stamp = workload::Stamp::decode(p.l4_payload(*parsed));
      if (!stamp) return;
      const auto now = static_cast<std::uint64_t>(sim->now());
      if (now >= stamp->send_time) {
        cell->latency_ns.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(now - stamp->send_time, UINT32_MAX)));
      }
    });
  }
}

void Repetition::wire_tap() {
  shm::Fabric& f = *fabric_;
  captures_.resize(f.shard_set().count());
  sim::ShardSet* shards = &f.shard_set();
  Capture* caps = captures_.data();
  f.network().set_tap([shards, caps](NodeId from, NodeId, const pkt::Packet& p, TimeNs) {
    const pkt::ParsedPacket* parsed = p.parsed();
    if (parsed == nullptr || !parsed->udp || parsed->udp->dst_port != pkt::kSwishPort) return;
    const auto payload = p.l4_payload(*parsed);
    if (payload.empty()) return;
    Capture& c = caps[shards->shard_of(from)];
    const std::uint8_t type = payload[0] & 0x7f;
    ++c.count[type];
    c.bytes[type] += payload.size();
    if (c.samples[type].size() < Capture::kSamplesPerType) {
      c.samples[type].emplace_back(payload.begin(), payload.end());
    }
  });
}

void Repetition::build_workload() {
  shm::Fabric& f = *fabric_;
  wire_sinks();
  if (config_.traced) wire_tap();
  const TimeNs deadline = f.simulator().now() + shape_.traffic;
  if (is_flood(config_)) {
    // Sources: kFloodHostsPerPrefix hosts in each of kFloodPrefixes /24s
    // whose third octet picks a distinct heavy-hitter counter slot; the
    // seed picks the second octet, the host bytes and each pump's start.
    Rng rng(config_.seed);
    const auto second = static_cast<std::uint32_t>(rng.next_below(256));
    for (std::size_t h = 0; h < kFloodHostsPerPrefix; ++h) {
      for (std::size_t j = 0; j < kFloodPrefixes; ++j) {
        pkt::PacketSpec spec;
        spec.eth_src = pkt::MacAddr::for_node(0xfeed);
        spec.ip_src = pkt::Ipv4Addr((50u << 24) | (second << 16) |
                                    (static_cast<std::uint32_t>(j) << 8) |
                                    static_cast<std::uint32_t>(1 + rng.next_below(254)));
        spec.ip_dst = pkt::Ipv4Addr(10, 200, 0, 1);
        spec.protocol = pkt::kProtoUdp;
        spec.src_port = static_cast<std::uint16_t>(20000 + rng.next_below(40000));
        spec.dst_port = 80;
        pool_.push_back(std::move(spec));
        pool_prefix_.push_back(j);
      }
    }
    for (std::size_t leaf = 0; leaf < f.size(); ++leaf) {
      pumps_.push_back(std::make_unique<Pump>(*this, leaf, rng.next_below(pool_.size())));
      pumps_.back()->start(deadline);
    }
    return;
  }
  workload::TrafficConfig traffic;
  traffic.flows_per_sec = is_nat(config_) ? 60000 : 20000;
  traffic.reroute_probability = 0.3;
  traffic.server_ip = is_nat(config_) ? pkt::Ipv4Addr(8, 8, 8, 8) : kLbVip;
  traffic.seed = config_.seed + 1;
  gen_ = std::make_unique<workload::TrafficGenerator>(f, traffic);
  gen_->on_inject = [](const workload::Stamp&, const pkt::Packet&) {
    SpanTracer& tracer = SpanTracer::instance();
    if (tracer.enabled()) tracer.open_pending(SpanKind::kInject, 0);
  };
  gen_->start(shape_.traffic);
  if (is_lb(config_)) {
    f.schedule_kill(2, 300 * kMs);
    f.schedule_revive(2, 600 * kMs);
    kills_ = 1;
  }
}

void Repetition::timed_run() {
  shm::Fabric& f = *fabric_;
  sim::ShardSet& shards = f.shard_set();
  const TimeNs end = f.simulator().now() + shape_.traffic + shape_.drain;
  const std::uint64_t events0 = shards.executed_events();
  const std::uint64_t parse0 = pkt::PacketStats::global().parse_executions;
  const std::uint64_t hits0 = pkt::PacketStats::global().parse_cache_hits;
  const std::uint64_t allocs0 = total_allocs();
  const auto t0 = Clock::now();
  while (f.simulator().now() < end) {
    const TimeNs step = std::min(shape_.slice, end - f.simulator().now());
    {
      ScopedSpan span(SpanKind::kRunSlice, 0);
      f.run_for(step);
    }
    if (config_.traced) {
      std::uint64_t pending = 0;
      for (std::size_t k = 0; k < shards.count(); ++k) pending += shards.sim(k).pending_events();
      result_.pending_peak = std::max(result_.pending_peak, pending);
    }
  }
  result_.host["run"] = seconds_since(t0);
  result_.run_allocs = total_allocs() - allocs0;
  auto& x = result_.exact;
  x["sim.seconds"] = static_cast<double>(shape_.traffic + shape_.drain) / kSec;
  x["fabric.switches"] = static_cast<double>(f.size());
  x["sim.events"] = static_cast<double>(shards.executed_events() - events0);
  x["shard.windows"] = static_cast<double>(shards.windows());
  x["shard.cross_events"] = static_cast<double>(shards.cross_events());
  x["packet.parse_executions"] =
      static_cast<double>(pkt::PacketStats::global().parse_executions - parse0);
  x["packet.parse_cache_hits"] =
      static_cast<double>(pkt::PacketStats::global().parse_cache_hits - hits0);
}

void Repetition::post_run() {
  shm::Fabric& f = *fabric_;
  auto& x = result_.exact;
  telemetry::MetricsSnapshot snap;
  std::size_t fabric_spans = 0;
  std::size_t int_reports = 0;
  std::map<NodeId, std::array<std::uint64_t, telemetry::kNumDropReasons>> drop_counts;
  result_.host["export"] = timed_phase(SpanKind::kExport, [&] {
    snap = f.metrics_snapshot();
    fabric_spans = f.all_spans().size();
    int_reports = f.all_int_reports().size();
    (void)f.all_drop_records();
    drop_counts = f.all_drop_counts();
  });

  // Edge traffic and delivery.
  std::uint64_t injected = 0;
  std::uint64_t sw_delivered = 0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    injected += f.sw(i).stats().injected;
    sw_delivered += f.sw(i).stats().delivered;
  }
  std::uint64_t delivered = 0;
  std::vector<std::uint32_t> latency;
  for (const SinkCell& c : sinks_) {
    delivered += c.delivered;
    latency.insert(latency.end(), c.latency_ns.begin(), c.latency_ns.end());
  }
  std::sort(latency.begin(), latency.end());
  result_.injected = injected;
  result_.delivered = delivered;
  x["edge.injected"] = static_cast<double>(injected);
  x["edge.delivered"] = static_cast<double>(delivered);
  x["latency.samples"] = static_cast<double>(latency.size());
  x["latency.p50_us"] = quantile(latency, 0.50) / 1e3;
  x["latency.p99_us"] = quantile(latency, 0.99) / 1e3;

  // Drops by reason, fabric-wide.
  std::array<std::uint64_t, telemetry::kNumDropReasons> by_reason{};
  for (const auto& [node, counts] : drop_counts) {
    for (std::size_t r = 0; r < counts.size(); ++r) by_reason[r] += counts[r];
  }
  std::uint64_t drops = 0;
  for (std::size_t r = 0; r < by_reason.size(); ++r) {
    drops += by_reason[r];
    if (by_reason[r] > 0) {
      x[std::string("drops.") + telemetry::to_string(static_cast<telemetry::DropReason>(r))] =
          static_cast<double>(by_reason[r]);
    }
  }
  x["drops.total"] = static_cast<double>(drops);

  // Network.
  const net::LinkStats link = f.network().total_stats();
  x["net.link_pkts"] = static_cast<double>(link.packets_sent);
  x["net.link_bytes"] = static_cast<double>(link.bytes_sent);
  x["net.lost"] = static_cast<double>(link.packets_dropped_loss);
  x["net.queue_dropped"] = static_cast<double>(link.packets_dropped_queue);
  x["net.dead_dropped"] = static_cast<double>(link.packets_dropped_dead);

  // Pipeline counters of every switch (leaves and spines) and NF calls.
  auto sum_suffix = [&snap](const std::string& prefix, const std::string& suffix) {
    double total = 0;
    for (const auto& [name, v] : snap.values) {
      if (name.size() < prefix.size() + suffix.size() || name.rfind(prefix, 0) != 0 ||
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
        continue;
      }
      total += v.is_integral() ? static_cast<double>(v.count) : v.number;
    }
    return total;
  };
  x["pisa.passes"] = sum_suffix("pisa.sw", ".processed");
  x["pisa.recirculated"] = sum_suffix("pisa.sw", ".recirculated");
  x["pisa.dropped_capacity"] = sum_suffix("pisa.sw", ".dropped_capacity");
  x["pisa.cp_backlog_drops"] = sum_suffix("pisa.sw", ".cp.dropped");
  std::uint64_t nf_calls = 0;
  for (const TimedNf* nf : nfs_) nf_calls += nf->calls();
  x["nf.calls"] = static_cast<double>(nf_calls);

  // Protocol runtime + engines, summed over the switches.
  Histogram write_latency;
  for (std::size_t i = 0; i < f.size(); ++i) {
    const shm::ShmRuntime::Stats s = f.runtime(i).stats();
    const std::pair<const char*, std::uint64_t> fields[] = {
        {"proto.writes_submitted", s.writes_submitted},
        {"proto.writes_committed", s.writes_committed},
        {"proto.write_retries", s.write_retries},
        {"proto.writes_failed", s.writes_failed},
        {"proto.chain_gap_drops", s.chain_gap_drops},
        {"proto.reads_local", s.reads_local},
        {"proto.reads_redirected", s.reads_redirected},
        {"proto.ewo_local_writes", s.ewo_local_writes},
        {"proto.ewo_updates_sent", s.ewo_updates_sent},
        {"proto.ewo_updates_received", s.ewo_updates_received},
        {"proto.ewo_entries_merged", s.ewo_entries_merged},
        {"proto.recovery_chunks", s.recovery_chunks_sent},
        {"proto.bytes.write_path", s.bytes_write_path},
        {"proto.bytes.ewo", s.bytes_ewo},
        {"proto.bytes.redirect", s.bytes_redirect},
        {"proto.bytes.own", s.bytes_own},
        {"proto.bytes.con", s.bytes_con},
        {"proto.bytes.control", s.bytes_control},
        {"proto.bytes.int", s.bytes_int},
        {"proto.bytes_total", s.bytes_total},
    };
    for (const auto& [name, value] : fields) x[name] += static_cast<double>(value);
    write_latency.merge(s.write_latency);
  }
  x["proto.write_commit.samples"] = static_cast<double>(write_latency.count());
  x["proto.write_commit.p50_us"] = static_cast<double>(write_latency.p50()) / 1e3;
  x["proto.write_commit.p99_us"] = static_cast<double>(write_latency.p99()) / 1e3;

  // Store gauges, membership, telemetry.
  x["store.live_keys"] = sum_suffix("store.sw", ".live_keys");
  x["store.memory_bytes"] = sum_suffix("store.sw", ".memory_bytes");
  x["store.cow_page_copies"] = sum_suffix("store.sw", ".cow_page_copies");
  auto hist = [&snap](const std::string& name) {
    const auto it = snap.values.find(name);
    return it == snap.values.end() ? Histogram{} : it->second.hist;
  };
  const auto detected = snap.values.find("membership.failures_detected");
  const double failures = detected == snap.values.end() ? 0.0 : detected->second.count;
  x["membership.failures_detected"] = failures;
  x["membership.false_positives"] = std::max(0.0, failures - static_cast<double>(kills_));
  x["membership.detection_ms"] = static_cast<double>(hist("failover.detection_ns").p50()) / 1e6;
  x["membership.repair_ms"] = static_cast<double>(hist("failover.repair_ns").p50()) / 1e6;
  Histogram lag;
  for (const auto& [name, v] : snap.values) {
    if (name.rfind("lag.class.", 0) == 0 && name.size() > 15 &&
        name.compare(name.size() - 15, 15, ".propagation_ns") == 0) {
      lag.merge(v.hist);
    }
  }
  x["telemetry.lag_p99_us"] = static_cast<double>(lag.p99()) / 1e3;
  x["telemetry.spans_recorded"] = static_cast<double>(fabric_spans);
  x["telemetry.int_reports"] = static_cast<double>(int_reports);

  // Workload and NF-level outcomes.
  if (gen_) {
    x["workload.flows"] = static_cast<double>(gen_->stats().flows_started);
    x["workload.syn_retransmits"] = static_cast<double>(gen_->stats().syn_retransmits);
    x["workload.flows_abandoned"] = static_cast<double>(gen_->stats().flows_abandoned);
    x["workload.reroutes"] = static_cast<double>(gen_->stats().reroutes);
  } else {
    x["workload.flows"] = static_cast<double>(pool_.size());
    x["workload.syn_retransmits"] = 0;
    x["workload.flows_abandoned"] = 0;
    x["workload.reroutes"] = 0;
  }
  for (const auto* app : nat_) {
    x["nf.nat.new_connections"] += static_cast<double>(app->stats().new_connections);
    x["nf.nat.redirected"] += static_cast<double>(app->stats().redirected);
    x["nf.nat.dropped_no_mapping"] += static_cast<double>(app->stats().dropped_no_mapping);
  }
  for (const auto* app : lb_) {
    x["nf.lb.new_connections"] += static_cast<double>(app->stats().new_connections);
    x["nf.lb.redirected"] += static_cast<double>(app->stats().redirected);
    x["nf.lb.pcc_violations"] += static_cast<double>(app->stats().pcc_violations);
  }
  for (const auto* app : hh_) {
    x["nf.hh.packets"] += static_cast<double>(app->stats().packets);
  }

  // Correctness checks shared by every workload.
  auto& fail = result_.failures;
  if (sw_delivered != delivered) {
    fail.push_back("sink saw " + std::to_string(delivered) + " deliveries, switches counted " +
                   std::to_string(sw_delivered));
  }
  if (injected != delivered + drops) {
    fail.push_back("accounting: injected " + std::to_string(injected) + " != delivered " +
                   std::to_string(delivered) + " + drops by reason " + std::to_string(drops));
  }
  if (is_flood(config_)) check_flood();
  if (is_nat(config_)) {
    if (delivered != injected) {
      fail.push_back("nat_flows delivered " + std::to_string(delivered) + " of " +
                     std::to_string(injected));
    }
    if (x["proto.writes_failed"] != 0) {
      fail.push_back("nat_flows writes_failed = " +
                     std::to_string(static_cast<std::uint64_t>(x["proto.writes_failed"])));
    }
  }
  if (config_.traced) replay_codec();
}

void Repetition::check_flood() {
  shm::Fabric& f = *fabric_;
  std::array<std::uint64_t, kFloodPrefixes> expected{};
  for (const auto& pump : pumps_) {
    for (std::size_t j = 0; j < kFloodPrefixes; ++j) expected[j] += pump->sent()[j];
  }
  std::uint64_t mismatches = 0;
  std::string first;
  for (std::size_t j = 0; j < kFloodPrefixes; ++j) {
    // pool_[j] is a host in the j-th /24.
    for (std::size_t i = 0; i < f.size(); ++i) {
      const std::uint64_t got = hh_[i]->count(f.runtime(i), pool_[j].ip_src);
      if (got != expected[j]) {
        if (mismatches++ == 0) {
          first = "switch " + std::to_string(i) + " prefix " + std::to_string(j) + ": count " +
                  std::to_string(got) + " != injected " + std::to_string(expected[j]);
        }
      }
    }
  }
  if (mismatches > 0) {
    result_.failures.push_back("ewo_flood_16x4: " + std::to_string(mismatches) +
                               " replica/prefix counts disagree with the pump (" + first + ")");
  }
}

void Repetition::replay_codec() {
  std::array<MsgTypeStats, 128> per_type{};
  std::array<std::vector<const std::vector<std::uint8_t>*>, 128> samples;
  for (const Capture& c : captures_) {
    for (std::size_t t = 0; t < per_type.size(); ++t) {
      per_type[t].count += c.count[t];
      per_type[t].bytes += c.bytes[t];
      for (const auto& s : c.samples[t]) samples[t].push_back(&s);
    }
  }
  std::uint64_t mismatches = 0;
  for (std::size_t t = 0; t < per_type.size(); ++t) {
    if (per_type[t].count == 0) continue;
    MsgTypeStats& st = per_type[t];
    std::vector<pkt::SwishMessage> decoded;
    std::vector<telemetry::SpanContext> contexts;
    decoded.reserve(samples[t].size());
    contexts.reserve(samples[t].size());
    // Decode every captured payload until at least 2 ms has been timed.
    std::uint64_t ops = 0;
    std::int64_t ns = 0;
    {
      ScopedSpan span(SpanKind::kCodecDecode, 0);
      const auto t0 = Clock::now();
      do {
        for (const auto* payload : samples[t]) {
          telemetry::SpanContext ctx;
          auto msg = pkt::decode_message(*payload, &ctx);
          if (decoded.size() < samples[t].size()) {
            if (msg) {
              decoded.push_back(std::move(*msg));
              contexts.push_back(ctx);
            } else {
              ++mismatches;
            }
          }
          ++ops;
        }
        ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
      } while (ns < 2'000'000);
    }
    st.decode_ns = static_cast<double>(ns) / static_cast<double>(ops);
    if (decoded.empty()) continue;
    // Re-encode; a replayed payload must come back byte for byte.
    ops = 0;
    {
      ScopedSpan span(SpanKind::kCodecEncode, 0);
      const auto t0 = Clock::now();
      bool first_pass = true;
      do {
        for (std::size_t k = 0; k < decoded.size(); ++k) {
          const std::vector<std::uint8_t> bytes = pkt::encode_message(decoded[k], contexts[k]);
          if (first_pass) {
            const auto& original = *samples[t][k];
            if (bytes.size() > original.size() ||
                !std::equal(bytes.begin(), bytes.end(), original.begin())) {
              ++mismatches;
            }
          }
          ++ops;
        }
        first_pass = false;
        ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
      } while (ns < 2'000'000);
    }
    st.encode_ns = static_cast<double>(ns) / static_cast<double>(ops);
    st.replayed = decoded.size();
  }
  for (std::size_t t = 0; t < per_type.size(); ++t) {
    if (per_type[t].count > 0) {
      result_.msg_types[msg_type_name(static_cast<std::uint8_t>(t))] = per_type[t];
    }
  }
  if (mismatches > 0) {
    result_.failures.push_back("codec replay: " + std::to_string(mismatches) +
                               " captured payloads did not decode and re-encode identically");
  }
}

RunResult Repetition::run() {
  auto& host = result_.host;
  host["setup.fabric"] =
      timed_phase(SpanKind::kSetupFabric, [&] { fabric_.emplace(fabric_config()); });
  host["setup.install"] = timed_phase(SpanKind::kSetupInstall, [&] {
    add_spaces();
    fabric_->install([this] { return make_nf(); });
  });
  host["setup.start"] = timed_phase(SpanKind::kSetupStart, [&] { fabric_->start(); });
  host["setup.workload"] = timed_phase(SpanKind::kSetupWorkload, [&] { build_workload(); });
  host["setup"] =
      host["setup.fabric"] + host["setup.install"] + host["setup.start"] + host["setup.workload"];
  timed_run();
  post_run();
  return std::move(result_);
}

WorkloadShape shape_of(const RunConfig& c) {
  WorkloadShape s;
  if (is_flood(c)) {
    s.leaves = 16;
    s.spines = 4;
    s.shards = c.shards != 0 ? c.shards : default_flood_shards();
    s.traffic = 10 * kMs;
    s.drain = 3 * kMs;
    s.slice = 1 * kMs;
  } else if (is_nat(c)) {
    s.traffic = 500 * kMs;
    s.drain = 100 * kMs;
    s.slice = 10 * kMs;
  } else {
    // The failure schedule is fixed in absolute time, so lb_failover keeps
    // its full length at any scale.
    s.traffic = 1000 * kMs;
    s.drain = 500 * kMs;
    s.slice = 10 * kMs;
    return s;
  }
  s.traffic = std::max<TimeNs>(kMs, static_cast<TimeNs>(static_cast<double>(s.traffic) * c.scale));
  return s;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames{"ewo_flood_16x4", "nat_flows", "lb_failover"};
  return kNames;
}

bool is_workload(const std::string& name) {
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::size_t default_flood_shards() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, hw);
}

RunResult run_workload(const RunConfig& config) {
  SpanTracer::instance().set_enabled(config.traced);
  Repetition rep(config, shape_of(config));
  RunResult result = rep.run();
  SpanTracer::instance().set_enabled(false);
  return result;
}

}  // namespace swish::bench
