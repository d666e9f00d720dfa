// Paper claims: one test per EXPERIMENTS.md entry (Table 1 and claims C1-C13
// of §3, §4, §6 and §7). The simulator is deterministic, so each test asserts
// the figure EXPERIMENTS.md quotes, exactly, on the cells that carry the
// claim. Rounded figures are compared at the precision the document quotes
// them. Absolute values are simulator-scale (DESIGN.md §2); the claims are
// the shapes: who wins, by what factor, where the crossovers fall.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/cp_replication.hpp"
#include "baseline/sharded_lb.hpp"
#include "baseline/software_nf.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "nf/common.hpp"
#include "nf/ddos.hpp"
#include "nf/firewall.hpp"
#include "nf/ips.hpp"
#include "nf/lb.hpp"
#include "nf/nat.hpp"
#include "nf/ratelimiter.hpp"
#include "swishmem/fabric.hpp"
#include "workload/attack.hpp"
#include "workload/stamp.hpp"
#include "workload/traffic.hpp"

namespace swish {
namespace {

/// Space ids used by the raw-register driver NF below.
constexpr std::uint32_t kSroSpace = 100;
constexpr std::uint32_t kEroSpace = 101;
constexpr std::uint32_t kCtrSpace = 102;

/// Minimal NF for the protocol-level claims: the UDP dst port encodes the op.
///   [1000, 2000): SRO write key (port-1000), value = src_port
///   [2000, 3000): SRO read  key (port-2000)
///   [3000, 4000): EWO counter add 1 at key (port-3000)
///   [4000, 5000): ERO write key (port-4000)
///   [5000, 6000): ERO read  key (port-5000)
class DriverNf : public shm::NfApp {
 public:
  void process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) override {
    if (!ctx.parsed || !ctx.parsed->udp) return;
    const std::uint16_t port = ctx.parsed->udp->dst_port;
    pisa::Switch* sw = &ctx.sw;
    if ((port >= 1000 && port < 2000) || (port >= 4000 && port < 5000)) {
      const bool sro = port < 2000;
      rt.write({{sro ? kSroSpace : kEroSpace, static_cast<std::uint64_t>(port % 1000),
                 ctx.parsed->udp->src_port}},
               std::move(ctx.packet), [sw](pkt::Packet&& p) { sw->deliver(std::move(p)); });
    } else if (port >= 2000 && port < 3000) {
      read(ctx, rt, kSroSpace, port - 2000);
    } else if (port >= 3000 && port < 4000) {
      rt.update(kCtrSpace, port - 3000, 1, nullptr);
      ctx.sw.deliver(std::move(ctx.packet));
    } else if (port >= 5000 && port < 6000) {
      read(ctx, rt, kEroSpace, port - 5000);
    }
  }

  std::uint64_t reads_ok = 0;
  std::uint64_t reads_redirected = 0;

 private:
  void read(pisa::PacketContext& ctx, shm::ShmRuntime& rt, std::uint32_t space,
            std::uint64_t key) {
    std::uint64_t value = 0;
    if (rt.read(&ctx, space, key, value) == shm::ReadStatus::kRedirected) {
      ++reads_redirected;
    } else {
      ++reads_ok;
      ctx.sw.deliver(std::move(ctx.packet));
    }
  }
};

/// A fabric pre-wired with the driver NF and its three spaces.
struct DriverRig {
  shm::Fabric fabric;
  std::vector<DriverNf*> apps;

  explicit DriverRig(shm::FabricConfig cfg, std::size_t space_size = 1024,
                     std::size_t mirror_batch = 1)
      : fabric(cfg) {
    shm::SpaceConfig sro;
    sro.id = kSroSpace;
    sro.name = "claims.sro";
    sro.cls = shm::ConsistencyClass::kSRO;
    sro.size = space_size;
    fabric.add_space(sro);
    shm::SpaceConfig ero = sro;
    ero.id = kEroSpace;
    ero.name = "claims.ero";
    ero.cls = shm::ConsistencyClass::kERO;
    fabric.add_space(ero);
    shm::SpaceConfig ctr;
    ctr.id = kCtrSpace;
    ctr.name = "claims.ctr";
    ctr.cls = shm::ConsistencyClass::kEWO;
    ctr.merge = shm::MergePolicy::kGCounter;
    ctr.size = space_size;
    ctr.mirror_batch = mirror_batch;
    fabric.add_space(ctr);
    fabric.install([this]() {
      auto app = std::make_unique<DriverNf>();
      apps.push_back(app.get());
      return app;
    });
    fabric.start();
  }

  /// Injects `count` copies of the op packet at `sw`, `gap` apart from t=1 ns.
  void schedule_ops(std::size_t sw, std::uint64_t count, TimeNs gap, std::uint16_t src_port,
                    const std::function<std::uint16_t(std::uint64_t)>& dst_port) {
    for (std::uint64_t i = 0; i < count; ++i) {
      fabric.simulator().schedule_at(static_cast<TimeNs>(i) * gap + 1,
                                     [this, sw, src_port, port = dst_port(i)]() {
                                       fabric.sw(sw).inject(op_packet(src_port, port));
                                     });
    }
  }

  std::uint64_t counter(std::size_t sw) { return nf::read_value(fabric.runtime(sw), kCtrSpace, 0); }

  static pkt::Packet op_packet(std::uint16_t src_port, std::uint16_t dst_port) {
    pkt::PacketSpec spec;
    spec.ip_src = pkt::Ipv4Addr(1, 2, 3, 4);
    spec.ip_dst = pkt::Ipv4Addr(9, 9, 9, 9);
    spec.protocol = pkt::kProtoUdp;
    spec.src_port = src_port;
    spec.dst_port = dst_port;
    spec.payload = {0};
    return pkt::build_packet(spec);
  }
};

std::string pct(double num, double den, int decimals = 1) {
  return format_double(100.0 * num / den, decimals);
}
std::string ms(TimeNs t, int decimals = 2) {
  return format_double(static_cast<double>(t) / 1e6, decimals);
}
std::string us(std::uint64_t ns) { return format_double(static_cast<double>(ns) / 1e3, 1); }

TimeNs gap_for(double per_sec) { return static_cast<TimeNs>(static_cast<double>(kSec) / per_sec); }
std::uint64_t count_for(double per_sec, TimeNs duration) {
  return static_cast<std::uint64_t>(per_sec * static_cast<double>(duration) / kSec);
}

// ---------------------------------------------------------------------------
// T1 — Table 1: NF access patterns
// ---------------------------------------------------------------------------

struct AccessRates {
  double writes_per_packet = 0;
  double reads_per_packet = 0;
  double flows_per_packet = 0;

  [[nodiscard]] std::string write_class() const {
    if (writes_per_packet >= 0.9) return "every packet";
    if (writes_per_packet >= 0.5 * flows_per_packet) return "new connection";
    return "low";
  }
  [[nodiscard]] std::string read_class() const {
    if (reads_per_packet >= 0.9) return "every packet";
    if (reads_per_packet >= 0.5 * flows_per_packet) return "new connection";
    return "every window";
  }
};

/// Runs one NF on a 3-switch fabric under the shared flow workload and
/// measures its shared-state accesses per packet.
AccessRates measure_access(const std::vector<shm::SpaceConfig>& spaces,
                           const std::function<std::unique_ptr<shm::NfApp>(shm::Fabric&)>& make,
                           bool ddos_traffic = false) {
  shm::FabricConfig cfg;
  cfg.num_switches = 3;
  shm::Fabric fabric(cfg);
  for (const auto& s : spaces) fabric.add_space(s);
  fabric.install([&]() { return make(fabric); });
  fabric.start();

  workload::TrafficConfig traffic;
  traffic.flows_per_sec = 3000;
  traffic.mean_packets_per_flow = 8;
  traffic.server_ip = ddos_traffic ? pkt::Ipv4Addr(10, 200, 0, 99) : pkt::Ipv4Addr(10, 200, 0, 1);
  workload::TrafficGenerator gen(fabric, traffic);
  gen.start(300 * kMs);
  fabric.run_for(1 * kSec);

  std::uint64_t reads = 0, writes = 0;
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    const auto& st = fabric.runtime(i).stats();
    reads += st.reads_local + st.reads_redirected + st.ewo_reads;
    writes += st.writes_submitted + st.ewo_local_writes;
  }
  const auto packets = static_cast<double>(gen.stats().packets_sent);
  return {static_cast<double>(writes) / packets, static_cast<double>(reads) / packets,
          static_cast<double>(gen.stats().flows_started) / packets};
}

TEST(PaperClaims, T1AccessPatternsLandInThePapersQuadrants) {
  // Read-intensive, strong: NAT, firewall, L4 LB write per new connection.
  EXPECT_EQ(nf::NatApp::space().cls, shm::ConsistencyClass::kSRO);
  const auto nat = measure_access({nf::NatApp::space()}, [](shm::Fabric&) {
    return std::make_unique<nf::NatApp>(nf::NatApp::Config{});
  });
  EXPECT_EQ(nat.write_class(), "new connection");
  EXPECT_EQ(format_double(nat.writes_per_packet, 2), "0.20");
  EXPECT_EQ(nat.read_class(), "every packet");
  EXPECT_EQ(format_double(nat.reads_per_packet, 2), "1.00");

  EXPECT_EQ(nf::FirewallApp::space().cls, shm::ConsistencyClass::kSRO);
  const auto fw = measure_access({nf::FirewallApp::space()}, [](shm::Fabric&) {
    return std::make_unique<nf::FirewallApp>(nf::FirewallApp::Config{});
  });
  EXPECT_EQ(fw.write_class(), "new connection");
  EXPECT_EQ(format_double(fw.writes_per_packet, 2), "0.40");  // open + close

  EXPECT_EQ(nf::LoadBalancerApp::space().cls, shm::ConsistencyClass::kSRO);
  const auto lb = measure_access({nf::LoadBalancerApp::space()}, [](shm::Fabric&) {
    return std::make_unique<nf::LoadBalancerApp>(nf::LoadBalancerApp::Config{
        {10, 200, 0, 1}, {{10, 1, 0, 1}, {10, 1, 0, 2}}, 65536});
  });
  EXPECT_EQ(lb.write_class(), "new connection");
  EXPECT_EQ(format_double(lb.writes_per_packet, 2), "0.20");
  EXPECT_EQ(lb.read_class(), "every packet");
  EXPECT_EQ(format_double(lb.reads_per_packet, 2), "1.00");

  // Read-intensive, weak: the IPS gets a handful of signature pushes.
  EXPECT_EQ(nf::IpsApp::space().cls, shm::ConsistencyClass::kERO);
  bool pushed = false;
  const auto ips = measure_access({nf::IpsApp::space()}, [&pushed](shm::Fabric& fabric) {
    auto app = std::make_unique<nf::IpsApp>(nf::IpsApp::Config{});
    if (!pushed) {
      pushed = true;
      fabric.simulator().schedule_after(10 * kMs, [raw = app.get(), &fabric]() {
        raw->install_signature(fabric.runtime(0), 0x1234567);
        raw->install_signature(fabric.runtime(0), 0x89ABCDE);
      });
    }
    return app;
  });
  EXPECT_EQ(ips.write_class(), "low");
  EXPECT_EQ(format_double(ips.writes_per_packet, 4), "0.0004");
  EXPECT_EQ(ips.read_class(), "every packet");
  EXPECT_EQ(format_double(ips.reads_per_packet, 2), "1.00");

  // Write-intensive, weak: DDoS sketch (3 rows + total) and rate limiter.
  EXPECT_EQ(nf::DdosDetectorApp::sketch_space().cls, shm::ConsistencyClass::kEWO);
  const auto ddos = measure_access(
      {nf::DdosDetectorApp::sketch_space(), nf::DdosDetectorApp::total_space()},
      [](shm::Fabric&) {
        return std::make_unique<nf::DdosDetectorApp>(nf::DdosDetectorApp::Config{});
      },
      /*ddos_traffic=*/true);
  EXPECT_EQ(ddos.write_class(), "every packet");
  EXPECT_EQ(format_double(ddos.writes_per_packet, 2), "4.00");
  EXPECT_EQ(ddos.read_class(), "every packet");
  EXPECT_EQ(format_double(ddos.reads_per_packet, 2), "3.13");

  EXPECT_EQ(nf::RateLimiterApp::space().cls, shm::ConsistencyClass::kEWO);
  const auto rl = measure_access({nf::RateLimiterApp::space()}, [](shm::Fabric&) {
    return std::make_unique<nf::RateLimiterApp>(nf::RateLimiterApp::Config{});
  });
  EXPECT_EQ(rl.write_class(), "every packet");
  EXPECT_EQ(format_double(rl.writes_per_packet, 2), "1.00");
}

// ---------------------------------------------------------------------------
// C1 — §3.1 switch vs server throughput
// ---------------------------------------------------------------------------

TEST(PaperClaims, C1SwitchOutrunsServerByItsCapacityRatio) {
  // Capacities scaled 1/1000: a 15 Kpps server vs a 5 Mpps switch.
  constexpr double kServerPps = 15e3;
  constexpr double kSwitchPps = 5e6;
  constexpr TimeNs kDuration = 100 * kMs;
  EXPECT_EQ(format_double(kSwitchPps / kServerPps, 0), "333");

  struct Row {
    double offered;
    std::uint64_t server, sw;
  };
  // Both deliver everything up to the server's capacity; past it the server
  // processes its 1.5 K per 100 ms plus its 128-slot queue, while the switch
  // delivers 100% until its own ceiling (5 M), then 500 K plus its queue.
  const std::vector<Row> expected{{5e3, 500, 500},         {15e3, 1500, 1500},
                                  {50e3, 1628, 5000},      {500e3, 1628, 50000},
                                  {5e6, 1629, 500000},     {10e6, 1629, 500128}};
  for (const Row& row : expected) {
    sim::Simulator sim;
    baseline::FixedRateProcessor server(sim, 1, {.pps = kServerPps, .max_queue = 128});
    baseline::FixedRateProcessor sw(sim, 2, {.pps = kSwitchPps, .max_queue = 128});
    const TimeNs gap = gap_for(row.offered);
    const std::uint64_t total = count_for(row.offered, kDuration);
    for (std::uint64_t i = 0; i < total; ++i) {
      sim.schedule_at(static_cast<TimeNs>(i) * gap + 1, [&] {
        server.offer(pkt::Packet{});
        sw.offer(pkt::Packet{});
      });
    }
    sim.run();
    EXPECT_EQ(server.stats().processed, row.server) << "offered " << row.offered;
    EXPECT_EQ(sw.stats().processed, row.sw) << "offered " << row.offered;
  }
}

// ---------------------------------------------------------------------------
// C2 — §3.3 data-plane vs control-plane replication
// ---------------------------------------------------------------------------

struct Replication {
  std::string visible_pct;  ///< increments visible at a remote replica, %
  std::uint64_t cp_dropped = 0;
};

constexpr TimeNs kC2Duration = 100 * kMs;
constexpr TimeNs kC2Settle = 200 * kMs;
constexpr std::size_t kC2Keys = 16;

Replication replicate_via_control_plane(double writes_per_sec) {
  shm::FabricConfig cfg;
  cfg.num_switches = 3;
  cfg.switch_config.control_plane.ops_per_sec = 10'000;
  cfg.switch_config.control_plane.max_queue = 256;
  shm::Fabric fabric(cfg);
  std::vector<baseline::CpReplCounterApp*> apps;
  fabric.install([&]() {
    baseline::CpReplCounterApp::Config acfg;
    acfg.keys = kC2Keys;
    acfg.peers = fabric.switch_ids();
    auto app = std::make_unique<baseline::CpReplCounterApp>(acfg);
    apps.push_back(app.get());
    return app;
  });
  fabric.start();
  pkt::PacketSpec spec;
  spec.ip_src = pkt::Ipv4Addr(1, 1, 1, 1);
  spec.ip_dst = pkt::Ipv4Addr(9, 9, 9, 9);
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = 1;
  spec.dst_port = 2;
  spec.payload = {0};
  const pkt::Packet increment = pkt::build_packet(spec);
  const TimeNs gap = gap_for(writes_per_sec);
  const std::uint64_t total = count_for(writes_per_sec, kC2Duration);
  for (std::uint64_t i = 0; i < total; ++i) {
    fabric.simulator().schedule_at(static_cast<TimeNs>(i) * gap + 1,
                                   [&]() { fabric.sw(0).inject(increment); });
  }
  fabric.run_for(kC2Duration + kC2Settle);
  const std::size_t key = pkt::Ipv4Addr(1, 1, 1, 1).value() % kC2Keys;
  return {pct(static_cast<double>(apps[1]->visible(key)), static_cast<double>(apps[0]->own(key))),
          apps[0]->stats().updates_dropped_cp + apps[1]->stats().updates_dropped_cp};
}

std::string replicate_via_ewo(double writes_per_sec) {
  shm::FabricConfig cfg;
  cfg.num_switches = 3;
  cfg.switch_config.control_plane.ops_per_sec = 10'000;  // same CPU; unused by EWO
  cfg.runtime.sync_period = 1 * kMs;
  DriverRig rig(cfg, kC2Keys, /*mirror_batch=*/8);
  const std::uint64_t total = count_for(writes_per_sec, kC2Duration);
  rig.schedule_ops(0, total, gap_for(writes_per_sec), 1, [](std::uint64_t) { return 3000; });
  rig.fabric.run_for(kC2Duration + kC2Settle);
  return pct(static_cast<double>(rig.counter(1)), static_cast<double>(total));
}

TEST(PaperClaims, C2ControlPlaneReplicaCollapsesWhileEwoStaysComplete) {
  // Shared counter on a 10 Kops/s switch CPU.
  const std::vector<std::pair<double, Replication>> cp{
      {1e3, {"100.0", 0}},     {5e3, {"100.0", 0}},     {2e4, {"62.8", 744}},
      {1e5, {"12.6", 8744}},   {5e5, {"2.5", 48744}}};
  for (const auto& [rate, want] : cp) {
    const Replication got = replicate_via_control_plane(rate);
    EXPECT_EQ(got.visible_pct, want.visible_pct) << rate << " writes/s";
    EXPECT_EQ(got.cp_dropped, want.cp_dropped) << rate << " writes/s";
    EXPECT_EQ(replicate_via_ewo(rate), "100.0") << rate << " writes/s";
  }
}

// ---------------------------------------------------------------------------
// C3 — §6.1 SRO write cost
// ---------------------------------------------------------------------------

TEST(PaperClaims, C3aCommitLatencyGrowsLinearlyWithChainLength) {
  // Unloaded: one chain traversal plus the ack, ~2 us per added hop.
  const std::vector<std::pair<std::size_t, std::string>> p50_us{
      {2, "15.0"}, {3, "17.0"}, {4, "19.0"}, {6, "23.0"}, {8, "27.1"}};
  for (const auto& [n, want] : p50_us) {
    shm::FabricConfig cfg;
    cfg.num_switches = n;
    DriverRig rig(cfg);
    rig.schedule_ops(0, 200, 100 * kUs, 7,
                     [](std::uint64_t i) { return static_cast<std::uint16_t>(1000 + i % 256); });
    rig.fabric.run_for(500 * kMs);
    const auto& h = rig.fabric.runtime(0).stats().write_latency;
    EXPECT_EQ(h.count(), 200u) << n << " switches";
    EXPECT_EQ(us(h.p50()), want) << n << " switches";
    EXPECT_EQ(us(h.p99()), want) << n << " switches";
  }
}

TEST(PaperClaims, C3bCommitRatePlateausAtTheControlPlane) {
  // 4-switch chain, 20 Kops/s CP: each write costs ~2 CP ops (issue +
  // release), so commits plateau near 11 K/s and the excess is rejected.
  struct Row {
    double offered;
    std::uint64_t committed, rejected;
    std::string p99_us;
  };
  const std::vector<Row> expected{{1e3, 100, 0, "59.0"},       {5e3, 500, 0, "59.0"},
                                  {1e4, 1000, 0, "109.0"},     {2e4, 1102, 898, "6409.0"},
                                  {5e4, 1081, 3919, "6449.0"}, {1e5, 1087, 8913, "6449.0"}};
  for (const Row& row : expected) {
    shm::FabricConfig cfg;
    cfg.num_switches = 4;
    cfg.switch_config.control_plane.ops_per_sec = 20'000;
    cfg.switch_config.control_plane.max_queue = 128;
    cfg.runtime.cp_buffer_limit = 100'000;
    DriverRig rig(cfg);
    rig.schedule_ops(0, count_for(row.offered, 100 * kMs), gap_for(row.offered), 7,
                     [](std::uint64_t i) { return static_cast<std::uint16_t>(1000 + i % 256); });
    rig.fabric.run_for(500 * kMs);
    const auto& st = rig.fabric.runtime(0).stats();
    EXPECT_EQ(st.writes_committed, row.committed) << row.offered << " writes/s";
    EXPECT_EQ(st.writes_rejected, row.rejected) << row.offered << " writes/s";
    EXPECT_EQ(us(st.write_latency.p99()), row.p99_us) << row.offered << " writes/s";
  }
}

// ---------------------------------------------------------------------------
// C4 — §6.1 read cost, SRO vs ERO
// ---------------------------------------------------------------------------

struct ReadCost {
  std::string redirected_pct;
  std::string p50_us, p99_us;
};

ReadCost measure_reads(bool ero, double writes_per_sec) {
  shm::FabricConfig cfg;
  cfg.num_switches = 4;
  cfg.link.propagation_delay = 50 * kUs;  // non-trivial chain traversal time
  DriverRig rig(cfg);

  // Reads: 20 K/s at the head (which sees pending bits), uniform over 64
  // keys, timed injection -> delivery through a stamp in the payload.
  Histogram latency;
  std::unordered_map<std::uint64_t, TimeNs> outstanding;
  std::uint64_t next_id = 0;
  rig.fabric.set_delivery_sink([&](const pkt::Packet& p) {
    auto parsed = p.parse();
    if (!parsed || !parsed->udp) return;
    const std::uint16_t port = parsed->udp->dst_port;
    const bool is_read = ero ? (port >= 5000 && port < 6000) : (port >= 2000 && port < 3000);
    if (!is_read) return;
    auto stamp = workload::Stamp::decode(p.l4_payload(*parsed));
    if (!stamp) return;
    auto it = outstanding.find(stamp->flow_id);
    if (it == outstanding.end()) return;
    latency.add(static_cast<std::uint64_t>(rig.fabric.simulator().now() - it->second));
    outstanding.erase(it);
  });

  const TimeNs duration = 100 * kMs;
  const std::uint16_t read_base = ero ? 5000 : 2000;
  const std::uint16_t write_base = ero ? 4000 : 1000;
  // Random keys and jittered timing keep reads from phase-locking against
  // the deterministic write schedule.
  Rng rng(0xC4);
  for (TimeNs t = 0; t < duration; t += 50 * kUs) {
    const auto jitter = static_cast<TimeNs>(rng.next_below(40 * kUs));
    rig.fabric.simulator().schedule_at(t + 1 + jitter, [&, read_base]() {
      const std::uint64_t id = next_id++;
      pkt::PacketSpec spec;
      spec.ip_src = pkt::Ipv4Addr(1, 2, 3, 4);
      spec.ip_dst = pkt::Ipv4Addr(9, 9, 9, 9);
      spec.protocol = pkt::kProtoUdp;
      spec.src_port = 1;
      spec.dst_port = static_cast<std::uint16_t>(read_base + rng.next_below(64));
      spec.payload = workload::Stamp{id, 0, 0}.encode();
      outstanding[id] = rig.fabric.simulator().now();
      rig.fabric.sw(0).inject(pkt::build_packet(spec));
    });
  }
  // Writes to the same keys from another switch.
  if (writes_per_sec > 0) {
    const TimeNs gap = gap_for(writes_per_sec);
    const std::uint64_t total = count_for(writes_per_sec, duration);
    for (std::uint64_t i = 0; i < total; ++i) {
      rig.fabric.simulator().schedule_at(static_cast<TimeNs>(i) * gap + 2, [&rig, i, write_base]() {
        rig.fabric.sw(1).inject(
            DriverRig::op_packet(3, static_cast<std::uint16_t>(write_base + i % 64)));
      });
    }
  }
  rig.fabric.run_for(duration + 300 * kMs);

  std::uint64_t local = 0, redirected = 0;
  for (const DriverNf* app : rig.apps) {
    local += app->reads_ok;
    redirected += app->reads_redirected;
  }
  return {pct(static_cast<double>(redirected), static_cast<double>(redirected + local)),
          us(latency.p50()), us(latency.p99())};
}

TEST(PaperClaims, C4SroRedirectsUnderWritesWhileEroStaysLocal) {
  struct Row {
    double writes;
    std::string redirected_pct, p99_us;
  };
  // SRO: redirected share grows with the write rate; p99 jumps from pipeline
  // latency to the tail round trip once pending bits are met. p50 stays 1 us.
  const std::vector<Row> sro{{0, "0.0", "1.0"},     {1e3, "0.3", "1.0"},  {5e3, "1.8", "52.0"},
                             {2e4, "6.0", "52.0"},  {1e5, "14.6", "52.0"}};
  for (const Row& row : sro) {
    const ReadCost s = measure_reads(/*ero=*/false, row.writes);
    EXPECT_EQ(s.redirected_pct, row.redirected_pct) << "SRO at " << row.writes << " writes/s";
    EXPECT_EQ(s.p50_us, "1.0") << "SRO at " << row.writes << " writes/s";
    EXPECT_EQ(s.p99_us, row.p99_us) << "SRO at " << row.writes << " writes/s";
    const ReadCost e = measure_reads(/*ero=*/true, row.writes);
    EXPECT_EQ(e.redirected_pct, "0.0") << "ERO at " << row.writes << " writes/s";
    EXPECT_EQ(e.p50_us, "1.0") << "ERO at " << row.writes << " writes/s";
    EXPECT_EQ(e.p99_us, "1.0") << "ERO at " << row.writes << " writes/s";
  }
}

// ---------------------------------------------------------------------------
// C5 — §6.2 sync bandwidth
// ---------------------------------------------------------------------------

TEST(PaperClaims, C5FullStateSyncIsAFewPercentOfSwitchBandwidth) {
  // The paper's cell: 10 MB every 1 ms on a 5 Tbps switch (it rounds to ~1%).
  constexpr double kSwitchBps = 5e12;
  EXPECT_EQ(format_double(100.0 * (10e6 * 8 / 1e-3) / kSwitchBps, 2), "1.60");

  // Measured sync bytes/s per switch, every register dirty: linear in the
  // state size, inverse in the period.
  struct Row {
    std::size_t regs;
    TimeNs period;
    std::uint64_t bytes_per_sec;
  };
  const std::vector<Row> expected{{1024, 1 * kMs, 88416000},
                                  {1024, 10 * kMs, 8841600},
                                  {8192, 1 * kMs, 707328000},
                                  {8192, 10 * kMs, 70732800}};
  for (const Row& row : expected) {
    shm::FabricConfig cfg;
    cfg.num_switches = 3;
    cfg.runtime.sync_period = row.period;
    cfg.runtime.sync_fanout = shm::SyncFanout::kRandomOne;
    DriverRig rig(cfg, row.regs);
    for (std::size_t k = 0; k < row.regs; ++k) {
      for (std::size_t sw = 0; sw < 3; ++sw) {
        rig.fabric.runtime(sw).update(kCtrSpace, k, 1, nullptr);
      }
    }
    const TimeNs duration = 200 * kMs;
    const auto before = rig.fabric.runtime(0).stats().bytes_ewo;
    rig.fabric.run_for(duration);
    const std::uint64_t bytes = rig.fabric.runtime(0).stats().bytes_ewo - before;
    EXPECT_EQ(bytes * kSec / duration, row.bytes_per_sec)
        << row.regs << " registers every " << row.period << " ns";
  }
}

// ---------------------------------------------------------------------------
// C6 — §6.2 EWO convergence and merge semantics
// ---------------------------------------------------------------------------

/// Time for all 3 replicas to read a 300-increment burst exactly (-1: never).
TimeNs convergence_time(double loss, TimeNs sync_period) {
  shm::FabricConfig cfg;
  cfg.num_switches = 3;
  cfg.link.loss_probability = loss;
  cfg.runtime.sync_period = sync_period;
  DriverRig rig(cfg);
  for (int i = 0; i < 300; ++i) rig.fabric.sw(i % 3).inject(DriverRig::op_packet(1, 3000));
  const TimeNs burst_end = rig.fabric.simulator().now();
  for (TimeNs t = 0; t < 5 * kSec; t += 100 * kUs) {
    rig.fabric.run_for(100 * kUs);
    if (rig.counter(0) == 300 && rig.counter(1) == 300 && rig.counter(2) == 300) {
      return rig.fabric.simulator().now() - burst_end;
    }
  }
  return -1;
}

TEST(PaperClaims, C6aEwoConvergesWithinASyncPeriodOfLoss) {
  // Mirrors alone converge in one 0.1 ms poll up to 20% loss; at 40% the
  // periodic sync is the backstop and bounds convergence by its period.
  for (double loss : {0.0, 0.05, 0.2}) {
    for (TimeNs period : {500 * kUs, 2 * kMs, 10 * kMs}) {
      EXPECT_EQ(ms(convergence_time(loss, period)), "0.10") << loss << " loss, period " << period;
    }
  }
  EXPECT_EQ(ms(convergence_time(0.4, 500 * kUs)), "1.10");
  EXPECT_EQ(ms(convergence_time(0.4, 2 * kMs)), "4.10");
  EXPECT_EQ(ms(convergence_time(0.4, 10 * kMs)), "20.10");
}

TEST(PaperClaims, C6bGCounterIsExactWhileLwwLosesConcurrentIncrements) {
  auto run = [](shm::MergePolicy merge) {
    shm::FabricConfig cfg;
    cfg.num_switches = 3;
    cfg.runtime.sync_period = 1 * kMs;
    shm::Fabric fabric(cfg);
    shm::SpaceConfig sp;
    sp.id = 1;
    sp.name = "c6";
    sp.cls = shm::ConsistencyClass::kEWO;
    sp.merge = merge;
    sp.size = 4;
    fabric.add_space(sp);
    fabric.install(nullptr);
    fabric.start();
    // 900 concurrent increments over 3 switches. LWW emulates a counter by
    // read-modify-write of a plain register, the idiom the CRDT replaces.
    for (int i = 0; i < 900; ++i) {
      auto& rt = fabric.runtime(i % 3);
      if (merge == shm::MergePolicy::kGCounter) {
        rt.update(1, 0, 1, nullptr);
      } else {
        rt.write({{1, 0, nf::read_value(rt, 1, 0) + 1}}, pkt::Packet{}, nullptr);
      }
      if (i % 10 == 9) fabric.run_for(200 * kUs);  // interleave with replication
    }
    fabric.run_for(500 * kMs);
    std::vector<std::uint64_t> values;
    for (std::size_t i = 0; i < 3; ++i) values.push_back(nf::read_value(fabric.runtime(i), 1, 0));
    return values;
  };
  EXPECT_EQ(run(shm::MergePolicy::kGCounter), (std::vector<std::uint64_t>{900, 900, 900}));
  // Agreement, but two thirds of the increments are gone.
  EXPECT_EQ(run(shm::MergePolicy::kLww), (std::vector<std::uint64_t>{300, 300, 300}));
}

// ---------------------------------------------------------------------------
// C7 — §6.3 SRO failover and recovery
// ---------------------------------------------------------------------------

TEST(PaperClaims, C7aSroFailoverTracksTheHeartbeatTimeoutAndLosesNoWrite) {
  struct Row {
    TimeNs hb_timeout;
    std::string detected_ms, repaired_ms, committed_ms;
  };
  const std::vector<Row> expected{{10 * kMs, "12.5", "13.0", "14.1"},
                                  {20 * kMs, "25.0", "25.5", "26.1"},
                                  {50 * kMs, "62.5", "63.0", "64.3"}};
  for (const Row& row : expected) {
    shm::FabricConfig cfg;
    cfg.num_switches = 4;
    cfg.runtime.heartbeat_period = row.hb_timeout / 4;
    cfg.controller.heartbeat_timeout = row.hb_timeout;
    cfg.controller.check_period = row.hb_timeout / 4;
    cfg.runtime.write_retry_timeout = 2 * kMs;
    // The retry budget must outlast the detection window, or a write in
    // flight at the failure dies before the chain is repaired.
    cfg.runtime.max_write_retries = 60;
    DriverRig rig(cfg);
    TimeNs detected_at = 0, repaired_at = 0;
    rig.fabric.controller().on_failure_detected = [&](SwitchId, TimeNs t) { detected_at = t; };
    rig.fabric.controller().on_failover_complete = [&](SwitchId, TimeNs t) { repaired_at = t; };
    rig.fabric.run_for(100 * kMs);  // warm heartbeats

    const TimeNs killed_at = rig.fabric.simulator().now();
    rig.fabric.kill_switch(3);  // the tail
    rig.fabric.sw(1).inject(DriverRig::op_packet(9, 1005));  // in flight at the failure
    rig.fabric.run_for(2 * kSec);

    const auto& st = rig.fabric.runtime(1).stats();
    EXPECT_EQ(ms(detected_at - killed_at, 1), row.detected_ms);
    EXPECT_EQ(ms(repaired_at - killed_at, 1), row.repaired_ms);
    EXPECT_EQ(st.write_latency.count(), 1u);
    EXPECT_EQ(ms(static_cast<TimeNs>(st.write_latency.max()), 1), row.committed_ms);
    EXPECT_EQ(st.writes_failed, 0u);
  }
}

TEST(PaperClaims, C7bSroRecoveryCostScalesWithLiveState) {
  struct Row {
    std::size_t keys;
    std::uint64_t chunks, donor_bytes;
    std::string recovery_ms;
  };
  const std::vector<Row> expected{
      {50, 2, 1506, "1.0"}, {200, 7, 6041, "1.0"}, {800, 25, 24047, "1.1"}};
  for (const Row& row : expected) {
    shm::FabricConfig cfg;
    cfg.num_switches = 4;
    cfg.runtime.heartbeat_period = 5 * kMs;
    cfg.controller.heartbeat_timeout = 20 * kMs;
    cfg.controller.check_period = 5 * kMs;
    DriverRig rig(cfg);
    rig.fabric.run_for(50 * kMs);
    for (std::size_t k = 0; k < row.keys; ++k) {
      rig.fabric.sw(k % 4).inject(DriverRig::op_packet(
          static_cast<std::uint16_t>(k), static_cast<std::uint16_t>(1000 + k % 1000)));
      if (k % 50 == 49) rig.fabric.run_for(5 * kMs);
    }
    rig.fabric.run_for(200 * kMs);
    rig.fabric.kill_switch(1);
    rig.fabric.run_for(100 * kMs);

    TimeNs recovered_at = -1;
    rig.fabric.controller().on_recovery_complete = [&](SwitchId, TimeNs t) { recovered_at = t; };
    // The donor is the current tail (switch 3).
    const auto before = rig.fabric.runtime(3).stats();
    const TimeNs revive_at = rig.fabric.simulator().now();
    rig.fabric.revive_switch(1);
    rig.fabric.run_for(2 * kSec);

    const auto donor = rig.fabric.runtime(3).stats();
    const std::uint64_t chunks_before = before.recovery_chunks_sent;
    const std::uint64_t bytes_before = before.bytes_write_path;
    EXPECT_EQ(donor.recovery_chunks_sent - chunks_before, row.chunks) << row.keys << " keys";
    EXPECT_EQ(donor.bytes_write_path - bytes_before, row.donor_bytes) << row.keys << " keys";
    ASSERT_GE(recovered_at, 0) << row.keys << " keys";
    EXPECT_EQ(ms(recovered_at - revive_at, 1), row.recovery_ms) << row.keys << " keys";
  }
}

// ---------------------------------------------------------------------------
// C8 — §6.3 EWO failover
// ---------------------------------------------------------------------------

shm::FabricConfig c8_config(double loss = 0.0) {
  shm::FabricConfig cfg;
  cfg.num_switches = 4;
  cfg.link.loss_probability = loss;
  cfg.runtime.sync_period = 1 * kMs;
  cfg.runtime.heartbeat_period = 5 * kMs;
  cfg.controller.heartbeat_timeout = 20 * kMs;
  return cfg;
}

TEST(PaperClaims, C8EwoSurvivorsAgreeOnADeadSwitchsCountWithoutFailover) {
  // The victim counts 100 packets and dies 30 us later, its mirrors partly
  // delivered and partly lost; survivors must agree on exactly 100.
  const std::vector<std::pair<double, std::string>> expected{
      {0.0, "0.20"}, {0.2, "0.20"}, {0.4, "4.00"}};
  for (const auto& [loss, agreement_ms] : expected) {
    DriverRig rig(c8_config(loss));
    rig.fabric.run_for(20 * kMs);
    for (int i = 0; i < 100; ++i) rig.fabric.sw(2).inject(DriverRig::op_packet(1, 3000));
    rig.fabric.run_for(30 * kUs);
    rig.fabric.kill_switch(2);

    const TimeNs t0 = rig.fabric.simulator().now();
    TimeNs agreed_at = -1;
    for (TimeNs t = 0; t < 5 * kSec && agreed_at < 0; t += 200 * kUs) {
      rig.fabric.run_for(200 * kUs);
      if (rig.counter(0) == 100 && rig.counter(1) == 100 && rig.counter(3) == 100) {
        agreed_at = rig.fabric.simulator().now();
      }
    }
    ASSERT_GE(agreed_at, 0) << loss << " loss";
    EXPECT_EQ(ms(agreed_at - t0), agreement_ms) << loss << " loss";
  }

  // A replacement is refilled to the exact count by periodic sync alone.
  DriverRig rig(c8_config());
  rig.fabric.run_for(20 * kMs);
  for (int i = 0; i < 60; ++i) rig.fabric.sw(i % 4).inject(DriverRig::op_packet(1, 3000));
  rig.fabric.run_for(50 * kMs);
  rig.fabric.kill_switch(0);
  rig.fabric.run_for(100 * kMs);
  const TimeNs revive_at = rig.fabric.simulator().now();
  rig.fabric.revive_switch(0);
  TimeNs refilled_at = -1;
  for (TimeNs t = 0; t < 2 * kSec && refilled_at < 0; t += 500 * kUs) {
    rig.fabric.run_for(500 * kUs);
    if (rig.counter(0) == 60) refilled_at = rig.fabric.simulator().now();
  }
  ASSERT_GE(refilled_at, 0);
  EXPECT_EQ(ms(refilled_at - revive_at), "1.50");
}

// ---------------------------------------------------------------------------
// C9 — §3.2/§4.1 per-connection consistency under re-routing
// ---------------------------------------------------------------------------

std::uint64_t pcc_violations(bool replicated, double reroute_prob) {
  const pkt::Ipv4Addr vip{10, 200, 0, 1};
  const std::vector<pkt::Ipv4Addr> backends{{10, 1, 0, 1}, {10, 1, 0, 2}, {10, 1, 0, 3}};
  shm::FabricConfig cfg;
  cfg.num_switches = 4;
  shm::Fabric fabric(cfg);
  if (replicated) fabric.add_space(nf::LoadBalancerApp::space());
  std::vector<nf::LoadBalancerApp*> lbs;
  std::vector<baseline::ShardedLbApp*> sharded;
  fabric.install([&]() -> std::unique_ptr<shm::NfApp> {
    if (replicated) {
      auto app = std::make_unique<nf::LoadBalancerApp>(
          nf::LoadBalancerApp::Config{vip, backends, 65536});
      lbs.push_back(app.get());
      return app;
    }
    auto app = std::make_unique<baseline::ShardedLbApp>(
        baseline::ShardedLbApp::Config{vip, backends, 65536});
    sharded.push_back(app.get());
    return app;
  });
  fabric.start();

  workload::TrafficConfig traffic;
  traffic.flows_per_sec = 1500;
  traffic.mean_packets_per_flow = 16;
  traffic.server_ip = vip;
  traffic.reroute_probability = reroute_prob;
  traffic.gate_data_on_syn = true;  // data waits for SYN delivery, like TCP
  workload::TrafficGenerator gen(fabric, traffic);
  fabric.set_delivery_sink([&](const pkt::Packet& p) {
    auto parsed = p.parse();
    if (!parsed) return;
    if (auto stamp = workload::Stamp::decode(p.l4_payload(*parsed))) gen.notify_delivered(*stamp);
  });
  gen.start(300 * kMs);
  fabric.run_for(1 * kSec);

  std::uint64_t violations = 0;
  for (const auto* app : lbs) violations += app->stats().pcc_violations;
  for (const auto* app : sharded) violations += app->stats().pcc_violations;
  return violations;
}

TEST(PaperClaims, C9ReplicatedLbKeepsEveryConnectionWhereShardingBreaksThem) {
  const std::vector<std::pair<double, std::uint64_t>> sharded{
      {0.0, 0}, {0.05, 375}, {0.2, 888}, {0.5, 1633}};
  for (const auto& [p, broken] : sharded) {
    EXPECT_EQ(pcc_violations(/*replicated=*/true, p), 0u) << p << " re-route probability";
    EXPECT_EQ(pcc_violations(/*replicated=*/false, p), broken) << p << " re-route probability";
  }
}

// ---------------------------------------------------------------------------
// C10 — §7 memory overhead
// ---------------------------------------------------------------------------

/// Bytes a switch spends on one space replicated over `replicas` switches.
std::size_t space_bytes(const shm::SpaceConfig& sp, std::size_t replicas) {
  sim::Simulator sim;
  net::Network net{sim, 1};
  pisa::Switch sw{sim, net, 1, {}};
  net.attach(sw);
  std::vector<SwitchId> group;
  for (std::size_t i = 0; i < replicas; ++i) group.push_back(static_cast<SwitchId>(i + 1));
  if (sp.cls == shm::ConsistencyClass::kEWO) {
    shm::EwoSpaceState state(sw, sp, group, 1);
    return sw.memory_bytes();
  }
  shm::SroSpaceState state(sw, sp);
  return sw.memory_bytes();
}

/// Bytes of a sparse (ordered CoW index) SRO space holding `live_keys`.
std::size_t sparse_space_bytes(std::size_t live_keys) {
  sim::Simulator sim;
  net::Network net{sim, 1};
  pisa::Switch sw{sim, net, 1, {}};
  net.attach(sw);
  shm::SpaceConfig sp;
  sp.cls = shm::ConsistencyClass::kSRO;
  sp.kind = shm::SpaceKind::kSparse;
  sp.name = "m";
  shm::SroSpaceState state(sw, sp);
  const auto token = sw.control_plane().token();
  // Golden-ratio stride spreads keys over the 64-bit space like a hash would.
  std::uint64_t key = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < live_keys; ++i, key += 0x9e3779b97f4a7c15ULL) {
    state.apply(key, i + 1, token);
  }
  return sw.memory_bytes();
}

shm::SpaceConfig memory_space(shm::ConsistencyClass cls, std::size_t keys,
                              shm::MergePolicy merge = shm::MergePolicy::kGCounter) {
  shm::SpaceConfig sp;
  sp.cls = cls;
  sp.merge = merge;
  sp.size = keys;
  sp.name = "m";
  return sp;
}

/// Protocol overhead (bytes beyond the 64-bit values) as % of a 10 MB budget.
std::string overhead_pct(const shm::SpaceConfig& sp, std::size_t replicas) {
  const std::size_t total = space_bytes(sp, replicas);
  const std::size_t values = sp.size * sp.value_bits / 8;
  return pct(static_cast<double>(total - std::min(total, values)), 10.0 * 1024 * 1024, 2);
}

TEST(PaperClaims, C10ProtocolStateFitsTheSwitchMemoryBudget) {
  using shm::ConsistencyClass;
  constexpr std::size_t kMillion = 1048576;
  // SRO per-key guards cost 33 bits/key: a million keys take 4.1 MB of guards.
  const auto sro = memory_space(ConsistencyClass::kSRO, kMillion);
  EXPECT_EQ(space_bytes(sro, 4) - kMillion * 8, 4325376u);
  EXPECT_EQ(overhead_pct(sro, 4), "41.25");
  EXPECT_EQ(overhead_pct(memory_space(ConsistencyClass::kSRO, 1024), 4), "0.04");
  EXPECT_EQ(overhead_pct(memory_space(ConsistencyClass::kSRO, 65536), 4), "2.58");
  // §7: 4096 shared guard slots cut that to 17 KB.
  auto shared = sro;
  shared.guard_slots = 4096;
  EXPECT_EQ(space_bytes(shared, 4) - kMillion * 8, 16896u);
  EXPECT_EQ(overhead_pct(shared, 4), "0.16");
  // ERO drops the pending bits.
  EXPECT_EQ(overhead_pct(memory_space(ConsistencyClass::kERO, kMillion), 4), "40.00");
  // EWO vectors scale as keys x replicas: 32 K keys fit 4 replicas, not 64;
  // 3 replicas of a million keys do not fit either.
  const auto ewo32k = memory_space(ConsistencyClass::kEWO, 32768);
  EXPECT_EQ(overhead_pct(ewo32k, 4), "7.50");
  EXPECT_EQ(overhead_pct(ewo32k, 16), "37.50");
  EXPECT_EQ(overhead_pct(ewo32k, 64), "157.50");
  EXPECT_EQ(overhead_pct(memory_space(ConsistencyClass::kEWO, kMillion), 3), "160.00");
  EXPECT_EQ(overhead_pct(memory_space(ConsistencyClass::kEWO, 262144, shm::MergePolicy::kLww), 16),
            "20.00");
}

TEST(PaperClaims, C10bSparseLayoutPaysPerLiveKey) {
  // Dense provisions the whole keyspace at 12.1 B/key; the sparse ordered
  // index costs ~5x per live key but only for the keys that are live.
  struct Row {
    std::size_t live;
    std::uint64_t dense, sparse;
  };
  const std::vector<Row> expected{{1024, 12416, 58784},
                                  {102400, 1241600, 5870336},
                                  {1048576, 12713984, 59498944}};
  for (const Row& row : expected) {
    EXPECT_EQ(space_bytes(memory_space(shm::ConsistencyClass::kSRO, row.live), 4), row.dense);
    EXPECT_EQ(sparse_space_bytes(row.live), row.sparse);
  }
}

// ---------------------------------------------------------------------------
// C11 — §7 bandwidth overhead and batching
// ---------------------------------------------------------------------------

TEST(PaperClaims, C11BatchingTradesBandwidthForStaleness) {
  // 20 K increments at one switch over 100 ms, mirrored to 2 peers.
  struct Row {
    std::size_t batch;
    std::uint64_t update_packets;
    std::string bytes_per_write;
    std::uint64_t staleness;
  };
  const std::vector<Row> expected{{1, 40004, "156.0", 0},  {4, 10004, "81.0", 0},
                                  {16, 2604, "62.5", 8},   {64, 804, "58.0", 8},
                                  {256, 204, "56.5", 200}};
  constexpr std::uint64_t kWrites = 20000;
  constexpr TimeNs kSpan = 100 * kMs;
  for (const Row& row : expected) {
    shm::FabricConfig cfg;
    cfg.num_switches = 3;
    cfg.runtime.sync_period = 50 * kMs;  // mirrors dominate
    cfg.runtime.mirror_flush_interval = 1 * kMs;
    DriverRig rig(cfg, 1024, row.batch);
    rig.schedule_ops(0, kWrites, kSpan / kWrites, 1, [](std::uint64_t) { return 3000; });
    std::uint64_t staleness = 0;
    rig.fabric.simulator().schedule_at(kSpan / 2, [&]() {
      const std::uint64_t local = rig.counter(0);
      staleness = local - std::min(local, rig.counter(1));
    });
    rig.fabric.run_for(kSpan + 100 * kMs);
    const auto& st = rig.fabric.runtime(0).stats();
    EXPECT_EQ(st.ewo_updates_sent, row.update_packets) << "batch " << row.batch;
    const double bytes_per_write = static_cast<double>(st.bytes_ewo) / kWrites;
    EXPECT_EQ(format_double(bytes_per_write, 1), row.bytes_per_write) << "batch " << row.batch;
    EXPECT_EQ(staleness, row.staleness) << "batch " << row.batch;
  }
}

// ---------------------------------------------------------------------------
// C12 — §4.2 distributed DDoS detection
// ---------------------------------------------------------------------------

/// Detection delay after the attack starts (-1: never detected).
TimeNs ddos_detection_delay(TimeNs sync_period, double attack_pps, bool shared) {
  shm::FabricConfig cfg;
  cfg.num_switches = 4;
  cfg.runtime.sync_period = shared ? sync_period : 1000 * kSec;
  auto sketch = nf::DdosDetectorApp::sketch_space();
  auto total = nf::DdosDetectorApp::total_space();
  sketch.mirror_writes = shared;  // local-only baseline: no replication
  total.mirror_writes = shared;
  shm::Fabric fabric(cfg);
  fabric.add_space(sketch);
  fabric.add_space(total);

  // Volumetric rule: >= 180 packets/window to one destination. The attack
  // is split over 4 ingress switches, so each sees only a quarter of it.
  nf::DdosDetectorApp::Config dcfg;
  dcfg.window = 10 * kMs;
  dcfg.volume_threshold = 180;
  dcfg.min_window_packets = 150;
  std::vector<nf::DdosDetectorApp*> apps;
  fabric.install([&]() {
    auto app = std::make_unique<nf::DdosDetectorApp>(dcfg);
    apps.push_back(app.get());
    return app;
  });
  fabric.start();

  const pkt::Ipv4Addr victim{10, 200, 0, 99};
  constexpr TimeNs kAttackStart = 100 * kMs;
  TimeNs delay = -1;
  for (auto* app : apps) {
    app->on_alarm = [&](pkt::Ipv4Addr dst, double, TimeNs t) {
      if (dst == victim && delay < 0) delay = t - kAttackStart;
    };
  }
  workload::TrafficConfig bg;
  bg.flows_per_sec = 4000;
  bg.server_ip = pkt::Ipv4Addr(10, 200, 0, 1);
  workload::TrafficGenerator background(fabric, bg);
  background.start(400 * kMs);

  workload::AttackConfig attack;
  attack.victim = victim;
  attack.packets_per_sec = attack_pps;
  attack.start = kAttackStart;
  attack.duration = 200 * kMs;
  workload::AttackGenerator attacker(fabric, attack);
  attacker.start();
  fabric.run_for(500 * kMs);
  return delay;
}

TEST(PaperClaims, C12SharedSketchDetectsASplitAttackLocalOnlyMissesIt) {
  for (double pps : {30e3, 60e3}) {
    for (TimeNs period : {1 * kMs, 5 * kMs, 20 * kMs}) {
      // One 10 ms detection window after the attack starts.
      EXPECT_EQ(ddos_detection_delay(period, pps, /*shared=*/true), 10 * kMs)
          << pps << " pps, sync every " << period << " ns";
    }
    EXPECT_EQ(ddos_detection_delay(1 * kMs, pps, /*shared=*/false), -1) << pps << " pps";
  }
}

// ---------------------------------------------------------------------------
// C13 — failure detection: heartbeat vs SWIM
// ---------------------------------------------------------------------------

enum class Fault { kCrashUnderLoss, kPeerPartition, kFlap };

struct DetectionCell {
  std::size_t detected = 0;  ///< of 5 seeds
  std::string p50_ms = "-", p99_ms = "-";
  std::uint64_t false_positives = 0;
  std::string ctl_bytes_per_sw_s;
};

/// One (protocol, size, fault) cell over seeds 1..5: the victim is switch
/// n/2, the fault strikes after 50 ms of warm-up and is observed for 500 ms.
DetectionCell detect(shm::MembershipProtocol proto, std::size_t n, Fault fault) {
  constexpr std::uint64_t kTrials = 5;
  constexpr TimeNs kWarm = 50 * kMs;
  constexpr TimeNs kObserve = 500 * kMs;
  constexpr TimeNs kFlap = 30 * kMs;
  DetectionCell cell;
  Histogram latency;
  double bytes_rate = 0;
  for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
    shm::FabricConfig cfg;
    cfg.num_switches = n;
    cfg.seed = seed;
    cfg.link.loss_probability = fault == Fault::kCrashUnderLoss ? 0.10 : 0.0;
    cfg.runtime.heartbeat_period = 5 * kMs;
    cfg.controller.heartbeat_timeout = 20 * kMs;
    cfg.controller.check_period = 5 * kMs;
    cfg.controller.membership = proto;
    shm::Fabric fabric(cfg);
    shm::SpaceConfig sp;
    sp.id = 100;
    sp.name = "c13";
    sp.cls = shm::ConsistencyClass::kSRO;
    sp.size = 64;
    fabric.add_space(sp);
    fabric.install(nullptr);
    fabric.start();

    const std::size_t victim = n / 2;
    const SwitchId victim_id = fabric.sw(victim).id();
    const bool victim_is_faulty = fault != Fault::kFlap;
    TimeNs detected_at = -1;
    std::set<SwitchId> wrongly_failed;
    fabric.controller().on_failure_detected = [&](SwitchId id, TimeNs t) {
      if (id == victim_id && victim_is_faulty) {
        if (detected_at < 0) detected_at = t;
      } else {
        wrongly_failed.insert(id);
      }
    };
    fabric.run_for(kWarm);
    const TimeNs fault_at = fabric.simulator().now();
    auto cut_peer_links = [&](double loss) {
      for (std::size_t j = 0; j < n; ++j) {
        if (j != victim) fabric.network().set_link_loss(victim_id, fabric.sw(j).id(), loss);
      }
    };
    switch (fault) {
      case Fault::kCrashUnderLoss:
        fabric.kill_switch(victim);
        fabric.run_for(kObserve);
        break;
      case Fault::kPeerPartition:  // the controller link stays up
        cut_peer_links(1.0);
        fabric.run_for(kObserve);
        break;
      case Fault::kFlap:  // a total blackout, then full recovery
        cut_peer_links(1.0);
        fabric.network().set_link_loss(victim_id, fabric.controller().id(), 1.0);
        fabric.run_for(kFlap);
        cut_peer_links(0.0);
        fabric.network().set_link_loss(victim_id, fabric.controller().id(), 0.0);
        fabric.run_for(kObserve - kFlap);
        const auto* st = fabric.controller().membership().view().find(victim_id);
        if (st != nullptr && st->state == shm::MemberState::kFaulty) {
          wrongly_failed.insert(victim_id);
        }
        break;
    }
    if (detected_at >= 0) {
      ++cell.detected;
      latency.add(static_cast<std::uint64_t>(detected_at - fault_at));
    }
    cell.false_positives += wrongly_failed.size();
    std::uint64_t control_bytes = 0;
    const std::string suffix = ".bytes_control";
    for (const auto& [name, value] : fabric.metrics_snapshot().values) {
      if (name.rfind("shm.sw", 0) == 0 && name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        control_bytes += value.count;
      }
    }
    const double secs = static_cast<double>(fabric.simulator().now()) / kSec;
    bytes_rate += static_cast<double>(control_bytes) / static_cast<double>(n) / secs /
                  static_cast<double>(kTrials);
  }
  if (latency.count() > 0) {
    cell.p50_ms = ms(static_cast<TimeNs>(latency.p50()), 1);
    cell.p99_ms = ms(static_cast<TimeNs>(latency.p99()), 1);
  }
  cell.ctl_bytes_per_sw_s = format_double(bytes_rate, 0);
  return cell;
}

struct DetectionRow {
  shm::MembershipProtocol proto;
  std::size_t switches;
  DetectionCell want;
};

void expect_detection(Fault fault, const std::vector<DetectionRow>& rows) {
  for (const DetectionRow& row : rows) {
    const DetectionCell got = detect(row.proto, row.switches, fault);
    const std::string where =
        std::string(shm::to_string(row.proto)) + " at " + std::to_string(row.switches);
    EXPECT_EQ(got.detected, row.want.detected) << where;
    EXPECT_EQ(got.p50_ms, row.want.p50_ms) << where;
    EXPECT_EQ(got.p99_ms, row.want.p99_ms) << where;
    EXPECT_EQ(got.false_positives, row.want.false_positives) << where;
    EXPECT_EQ(got.ctl_bytes_per_sw_s, row.want.ctl_bytes_per_sw_s) << where;
  }
}

using shm::MembershipProtocol;

TEST(PaperClaims, C13aBothDetectorsCatchACrashOnlyHeartbeatMisfiresUnderLoss) {
  // 10% fabric-wide loss: heartbeat detects at its 20 ms timeout rounded up
  // to the next 5 ms scan but evicts live switches; SWIM is slower (probe
  // round + log2(n) suspicion window) and never wrong.
  expect_detection(Fault::kCrashUnderLoss,
                   {{MembershipProtocol::kHeartbeat, 8, {5, "25.0", "25.0", 2, "9750"}},
                    {MembershipProtocol::kHeartbeat, 32, {5, "25.0", "25.0", 2, "10688"}},
                    {MembershipProtocol::kHeartbeat, 64, {5, "25.0", "25.0", 1, "10844"}},
                    {MembershipProtocol::kSwim, 8, {5, "54.0", "54.0", 0, "14407"}},
                    {MembershipProtocol::kSwim, 32, {5, "66.1", "70.0", 0, "16503"}},
                    {MembershipProtocol::kSwim, 64, {5, "70.0", "70.0", 0, "19018"}}});
}

TEST(PaperClaims, C13bOnlySwimDetectsAPeerPartition) {
  // The heartbeat scan only watches switch-controller links.
  expect_detection(Fault::kPeerPartition,
                   {{MembershipProtocol::kHeartbeat, 8, {0, "-", "-", 0, "11000"}},
                    {MembershipProtocol::kHeartbeat, 32, {0, "-", "-", 0, "11000"}},
                    {MembershipProtocol::kHeartbeat, 64, {0, "-", "-", 0, "11000"}},
                    {MembershipProtocol::kSwim, 8, {5, "50.0", "50.0", 0, "14176"}},
                    {MembershipProtocol::kSwim, 32, {5, "66.1", "66.1", 0, "13743"}},
                    {MembershipProtocol::kSwim, 64, {5, "70.0", "70.0", 0, "13493"}}});
}

TEST(PaperClaims, C13cOnlySwimRidesOutA30msFlap) {
  // Nobody died: every verdict is a false positive. SWIM's suspicion window
  // absorbs the flap; the plain timeout evicts the live switch every seed.
  expect_detection(Fault::kFlap,
                   {{MembershipProtocol::kHeartbeat, 8, {0, "-", "-", 5, "11000"}},
                    {MembershipProtocol::kHeartbeat, 32, {0, "-", "-", 5, "11000"}},
                    {MembershipProtocol::kHeartbeat, 64, {0, "-", "-", 5, "11000"}},
                    {MembershipProtocol::kSwim, 8, {0, "-", "-", 0, "13165"}},
                    {MembershipProtocol::kSwim, 32, {0, "-", "-", 0, "12890"}},
                    {MembershipProtocol::kSwim, 64, {0, "-", "-", 0, "12879"}}});
}

}  // namespace
}  // namespace swish
