// In-band network telemetry (INT) tests: the INT-MD wire codec (trailer
// round-trip, hop-cap truncation, and a fixed-seed fuzz of mutated
// trailers), mirror-on-drop forensics (every network loss carries a typed
// reason attributed to an exact switch, including under a kill schedule, and
// so does every NF discard; the flight recorder counts each drop once with
// its reason), per-node log retention (oldest-first eviction, dense seqs,
// tallies that outlive eviction), INT sink reports (per-hop path
// extraction), and the fleet-health collector (SLO burn math, anomaly
// detectors on synthetic series, JSON round-trip, and byte-identical output
// across --shards {1, 2, 4} under loss).
#include <gtest/gtest.h>

#include <algorithm>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nf/firewall.hpp"
#include "nf/lb.hpp"
#include "packet/int_md.hpp"
#include "packet/packet.hpp"
#include "swishmem/fabric.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/drop.hpp"
#include "telemetry/trace.hpp"

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

namespace swish::pkt {
namespace {

Packet udp_packet() {
  PacketSpec spec;
  spec.ip_src = Ipv4Addr(1, 2, 3, 4);
  spec.ip_dst = Ipv4Addr(9, 9, 9, 9);
  spec.protocol = kProtoUdp;
  spec.src_port = 5;
  spec.dst_port = 7;
  spec.payload = {1, 2, 3, 4, 5};
  return build_packet(spec);
}

telemetry::IntHop hop(std::uint32_t sw, TimeNs in, TimeNs out, std::uint32_t depth,
                      std::uint32_t rule) {
  telemetry::IntHop h;
  h.switch_id = sw;
  h.ingress_ts = in;
  h.egress_ts = out;
  h.queue_depth = depth;
  h.rule_hit = rule;
  return h;
}

TEST(IntWire, TrailerRoundTrip) {
  const Packet orig = udp_packet();
  EXPECT_FALSE(has_int_trailer(orig));
  EXPECT_EQ(int_trailer_size(orig), 0u);

  Packet p = with_int_trailer(orig, /*hop_cap=*/8);
  EXPECT_TRUE(has_int_trailer(p));
  EXPECT_EQ(p.size(), orig.size() + kIntTrailerBytes);
  // The trailer rides outside L3/L4 lengths: the packet still parses and the
  // headers are untouched.
  ASSERT_TRUE(p.parse().has_value());

  p = push_int_hop(p, hop(1, 100, 140, 3, 2));
  p = push_int_hop(p, hop(2, 1150, 1190, 0, 3));
  p = push_int_hop(p, hop(7, 2200, 2240, 12, 1));
  EXPECT_EQ(int_trailer_size(p), kIntTrailerBytes + 3 * kIntHopBytes);

  const auto stack = read_int_stack(p);
  ASSERT_TRUE(stack.has_value());
  EXPECT_EQ(stack->hop_cap, 8u);
  EXPECT_FALSE(stack->truncated);
  ASSERT_EQ(stack->hops.size(), 3u);
  EXPECT_EQ(stack->hops[0].switch_id, 1u);  // oldest hop first
  EXPECT_EQ(stack->hops[0].ingress_ts, 100);
  EXPECT_EQ(stack->hops[0].egress_ts, 140);
  EXPECT_EQ(stack->hops[0].queue_depth, 3u);
  EXPECT_EQ(stack->hops[0].rule_hit, 2u);
  EXPECT_EQ(stack->hops[2].switch_id, 7u);
  EXPECT_EQ(stack->hops[2].ingress_ts, 2200);

  const Packet stripped = strip_int_trailer(p);
  EXPECT_TRUE(std::ranges::equal(stripped.bytes(), orig.bytes()));  // byte-exact restoration
}

TEST(IntWire, HopCapSetsTruncationBitInsteadOfGrowing) {
  Packet p = with_int_trailer(udp_packet(), /*hop_cap=*/2);
  bool truncated = false;
  p = push_int_hop(p, hop(1, 10, 20, 0, 1), &truncated);
  EXPECT_FALSE(truncated);
  p = push_int_hop(p, hop(2, 30, 40, 0, 1), &truncated);
  EXPECT_FALSE(truncated);
  const std::size_t full_size = p.size();

  p = push_int_hop(p, hop(3, 50, 60, 0, 1), &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(p.size(), full_size);  // no growth past the cap

  const auto stack = read_int_stack(p);
  ASSERT_TRUE(stack.has_value());
  EXPECT_TRUE(stack->truncated);
  ASSERT_EQ(stack->hops.size(), 2u);  // the first two hops survive
  EXPECT_EQ(stack->hops[0].switch_id, 1u);
  EXPECT_EQ(stack->hops[1].switch_id, 2u);
}

TEST(IntWire, PlainPacketsNeverMisdetect) {
  EXPECT_FALSE(has_int_trailer(udp_packet()));
  EXPECT_FALSE(read_int_stack(udp_packet()).has_value());
  // A runt buffer can't hold ethernet + trailer.
  EXPECT_FALSE(has_int_trailer(Packet(std::vector<std::uint8_t>(10, 0x54))));
}

/// One random change aimed at the trailer: the fixed tail's count and cap
/// bytes, any of the last 64 bytes, or the buffer's length at either end.
void mutate_trailer(std::vector<std::uint8_t>& bytes, Rng& rng) {
  const std::size_t n = bytes.size();
  switch (rng.next_below(5)) {
    case 0:  // hop_count or hop_cap
      if (n >= kIntTrailerBytes) {
        bytes[n - kIntTrailerBytes + rng.next_below(2)] =
            static_cast<std::uint8_t>(rng.next_below(256));
      }
      break;
    case 1:  // bit flip near the tail
      if (n > 0) {
        bytes[n - 1 - rng.next_below(std::min<std::size_t>(n, 64))] ^= 1u << rng.next_below(8);
      }
      break;
    case 2:  // random byte near the tail
      if (n > 0) {
        bytes[n - 1 - rng.next_below(std::min<std::size_t>(n, 64))] =
            static_cast<std::uint8_t>(rng.next_below(256));
      }
      break;
    case 3:  // cut bytes off the front: declared hop records may overrun it
      bytes.erase(bytes.begin(),
                  bytes.begin() + static_cast<std::ptrdiff_t>(rng.next_below(n + 1)));
      break;
    default:  // cut bytes off the end
      bytes.resize(n - rng.next_below(std::min<std::size_t>(n, 16) + 1));
      break;
  }
}

TEST(IntFuzz, MutatedTrailersParseSafely) {
  // Stacks of random depth (past the cap, too) round-trip exactly; after
  // random mutation, every trailer function returns without throwing and
  // stays inside the buffer (tools/check.sh runs this under ASan/UBSan), and
  // whatever still parses is structurally consistent.
  Rng rng(0x1A7F);
  const Packet orig = udp_packet();
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 2000; ++round) {
    const auto cap = static_cast<std::uint8_t>(rng.next_range(1, 8));
    Packet p = with_int_trailer(orig, cap);
    std::vector<telemetry::IntHop> pushed;
    for (auto n = rng.next_below(cap + 2u); n > 0; --n) {
      const telemetry::IntHop h =
          hop(static_cast<std::uint32_t>(rng.next()), static_cast<TimeNs>(rng.next() >> 1),
              static_cast<TimeNs>(rng.next() >> 1), static_cast<std::uint32_t>(rng.next()),
              static_cast<std::uint32_t>(rng.next()));
      if (pushed.size() < cap) pushed.push_back(h);
      p = push_int_hop(p, h);
    }
    const auto stack = read_int_stack(p);
    ASSERT_TRUE(stack.has_value());
    EXPECT_EQ(stack->hop_cap, cap);
    ASSERT_EQ(stack->hops.size(), pushed.size());
    for (std::size_t i = 0; i < pushed.size(); ++i) {
      EXPECT_EQ(stack->hops[i].switch_id, pushed[i].switch_id);
      EXPECT_EQ(stack->hops[i].ingress_ts, pushed[i].ingress_ts);
      EXPECT_EQ(stack->hops[i].egress_ts, pushed[i].egress_ts);
      EXPECT_EQ(stack->hops[i].queue_depth, pushed[i].queue_depth);
      EXPECT_EQ(stack->hops[i].rule_hit, pushed[i].rule_hit);
    }
    EXPECT_TRUE(std::ranges::equal(strip_int_trailer(p).bytes(), orig.bytes()));

    std::vector<std::uint8_t> bytes(p.bytes().begin(), p.bytes().end());
    for (auto n = rng.next_range(1, 3); n > 0; --n) mutate_trailer(bytes, rng);
    const Packet m{std::span<const std::uint8_t>(bytes)};
    std::optional<IntStack> got;
    ASSERT_NO_THROW(got = read_int_stack(m));
    Packet stripped;
    Packet grown;
    ASSERT_NO_THROW(stripped = strip_int_trailer(m));
    ASSERT_NO_THROW(grown = push_int_hop(m, pushed.empty() ? hop(1, 2, 3, 4, 5) : pushed[0]));
    if (!got) {
      ++rejected;
      EXPECT_FALSE(has_int_trailer(m));
      EXPECT_EQ(int_trailer_size(m), 0u);
      EXPECT_EQ(stripped.size(), m.size());
      EXPECT_EQ(grown.size(), m.size());
      continue;
    }
    ++parsed;
    EXPECT_TRUE(has_int_trailer(m));
    EXPECT_LE(got->hops.size(), got->hop_cap);
    EXPECT_EQ(int_trailer_size(m), kIntTrailerBytes + got->hops.size() * kIntHopBytes);
    EXPECT_EQ(stripped.size(), m.size() - int_trailer_size(m));
    const bool full = got->hops.size() == got->hop_cap;
    EXPECT_EQ(grown.size(), m.size() + (full ? 0 : kIntHopBytes));
  }
  EXPECT_GT(parsed, 200u);
  EXPECT_GT(rejected, 200u);
}

}  // namespace
}  // namespace swish::pkt

// ---------------------------------------------------------------------------
// Mirror-on-drop + INT sink reports, full-fabric
// ---------------------------------------------------------------------------

namespace swish::shm {
namespace {

constexpr std::uint32_t kReg = 80;

SpaceConfig sro_space() {
  SpaceConfig sp;
  sp.id = kReg;
  sp.name = "t.reg";
  sp.cls = ConsistencyClass::kSRO;
  sp.size = 32;
  return sp;
}

struct IntRig {
  Fabric fabric;

  explicit IntRig(std::size_t shards = 1, double loss = 0.0, std::uint64_t sample = 2,
                  std::uint64_t seed = 11, bool observatory = false)
      : fabric(config(shards, loss, sample, seed)) {
    if (observatory) fabric.enable_observatory();
    fabric.add_space(sro_space());
    fabric.install([] { return std::unique_ptr<NfApp>(); });
    fabric.start();
  }

  static FabricConfig config(std::size_t shards, double loss, std::uint64_t sample,
                             std::uint64_t seed) {
    FabricConfig cfg;
    cfg.num_switches = 4;
    cfg.shards = shards;
    cfg.seed = seed;
    cfg.link.loss_probability = loss;
    cfg.int_sample_every = sample;
    cfg.int_hop_cap = 8;
    return cfg;
  }

  /// Shard-local write driving (same discipline as test_sharded_sim.cpp):
  /// timings are a pure function of each switch's own clock.
  void drive_writes(int rounds = 6) {
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      Fabric* f = &fabric;
      for (int w = 0; w < rounds; ++w) {
        const TimeNs at = 1 * kMs + w * 5 * kMs + static_cast<TimeNs>(i) * 250 * kUs;
        fabric.simulator_for(i).schedule_at(at, [f, i, w]() {
          pkt::PacketSpec spec;
          spec.ip_src = pkt::Ipv4Addr(1, 2, 3, 4);
          spec.ip_dst = pkt::Ipv4Addr(9, 9, 9, 9);
          spec.src_port = 5;
          spec.dst_port = 1;
          spec.payload = {0};
          f->runtime(i).write({{kReg, i, 100 * i + static_cast<std::uint64_t>(w)}},
                              pkt::build_packet(spec), [](pkt::Packet&&) {});
        });
      }
    }
    fabric.run_for(300 * kMs);
  }

  std::map<telemetry::DropReason, std::uint64_t> fleet_drops() {
    std::map<telemetry::DropReason, std::uint64_t> out;
    for (const auto& [node, counts] : fabric.all_drop_counts()) {
      for (std::size_t r = 0; r < telemetry::kNumDropReasons; ++r) {
        if (counts[r] != 0) out[static_cast<telemetry::DropReason>(r)] += counts[r];
      }
    }
    return out;
  }
};

TEST(MirrorOnDrop, EveryNetworkLossHasTypedReasonAndLocation) {
  IntRig rig(/*shards=*/1, /*loss=*/0.05);
  rig.drive_writes();

  const auto net = rig.fabric.network().total_stats();
  ASSERT_GT(net.packets_dropped_loss, 0u) << "scenario produced no loss to attribute";

  // 100% attribution: the per-reason tallies reconcile exactly with the link
  // counters, so no drop site is silent.
  auto drops = rig.fleet_drops();
  EXPECT_EQ(drops[telemetry::DropReason::kLinkLoss], net.packets_dropped_loss);
  EXPECT_EQ(drops[telemetry::DropReason::kLinkQueueOverflow], net.packets_dropped_queue);
  EXPECT_EQ(drops[telemetry::DropReason::kDeadNode], net.packets_dropped_dead);

  // Every retained record names a switch and a reason inside the enum, and
  // per-node seqs are dense recording order.
  std::map<NodeId, std::uint64_t> last_seq;
  for (const auto& rec : rig.fabric.all_drop_records()) {
    EXPECT_NE(rec.node, kInvalidNode);
    EXPECT_LT(static_cast<std::size_t>(rec.reason), telemetry::kNumDropReasons);
    EXPECT_EQ(rec.seq, last_seq[rec.node] + 1) << "node " << rec.node;
    last_seq[rec.node] = rec.seq;
  }
}

TEST(MirrorOnDrop, KillScheduleAttributesDeadNodeBlackholes) {
  IntRig rig;
  rig.fabric.schedule_kill(1, 20 * kMs);  // switch id 2 goes dark mid-run
  rig.drive_writes();

  const auto net = rig.fabric.network().total_stats();
  ASSERT_GT(net.packets_dropped_dead, 0u);

  const auto counts = rig.fabric.all_drop_counts();
  const auto it = counts.find(rig.fabric.switch_ids().at(1));
  ASSERT_NE(it, counts.end());
  const std::uint64_t at_dead_switch =
      it->second[static_cast<std::size_t>(telemetry::DropReason::kDeadNode)];
  EXPECT_EQ(at_dead_switch, net.packets_dropped_dead)
      << "every blackholed packet is attributed to the dead switch";
}

TEST(MirrorOnDrop, FlightRecorderCountsEachDropOnceWithItsReason) {
  // A lossy kill/revive run on two shards: the recorder's drop events per
  // (node, reason) equal the exact drop tallies, because DropRing::record
  // writes the one drop event for every reason and no drop site adds another.
  IntRig rig(/*shards=*/2, /*loss=*/0.1);
  rig.fabric.enable_trace(telemetry::kTraceDrop);
  rig.fabric.schedule_kill(1, 10 * kMs);
  rig.fabric.schedule_revive(1, 40 * kMs);
  rig.drive_writes();

  std::map<std::pair<NodeId, std::string>, std::uint64_t> expected;
  for (const auto& [node, counts] : rig.fabric.all_drop_counts()) {
    for (std::size_t r = 0; r < telemetry::kNumDropReasons; ++r) {
      if (counts[r] == 0) continue;
      expected[{node, telemetry::to_string(static_cast<telemetry::DropReason>(r))}] = counts[r];
    }
  }
  std::map<std::pair<NodeId, std::string>, std::uint64_t> traced;
  for (const auto& ev : rig.fabric.all_trace_events()) {
    EXPECT_EQ(ev.category, telemetry::kTraceDrop);
    ++traced[{ev.node, ev.what}];
  }
  const auto fleet = rig.fleet_drops();
  ASSERT_GT(fleet.count(telemetry::DropReason::kLinkLoss), 0u);
  ASSERT_GT(fleet.count(telemetry::DropReason::kDeadNode), 0u);
  EXPECT_EQ(traced, expected);
}

TEST(IntSink, ReportsCarryTheFullPerHopPath) {
  IntRig rig;
  rig.drive_writes();

  const auto reports = rig.fabric.all_int_reports();
  ASSERT_FALSE(reports.empty());
  for (const auto& rep : reports) {
    ASSERT_FALSE(rep.hops.empty());
    // The sink switch appends itself as the final decoded hop.
    EXPECT_EQ(rep.hops.back().switch_id, rep.sink);
    EXPECT_GT(rep.packet_bytes, 0u);
    if (!rep.truncated) {
      EXPECT_LE(rep.hops.size(), static_cast<std::size_t>(rep.hop_cap) + 1);
    }
    for (std::size_t i = 0; i + 1 < rep.hops.size(); ++i) {
      EXPECT_LE(rep.hops[i].ingress_ts, rep.hops[i].egress_ts);
      EXPECT_LE(rep.hops[i].egress_ts, rep.hops[i + 1].ingress_ts)
          << "hop timestamps must be causally ordered along the path";
    }
  }
}

TEST(IntSink, UnsampledRunRecordsNothing) {
  IntRig rig(/*shards=*/1, /*loss=*/0.0, /*sample=*/0);
  rig.drive_writes();
  EXPECT_TRUE(rig.fabric.all_int_reports().empty());
}

/// NF discards on a 3-switch fabric running one app per switch: the app's
/// own discard counter at switch i must equal the kNfDiscard tally there.
template <typename App>
struct NfRig {
  Fabric fabric;
  std::vector<App*> apps;
  std::uint64_t delivered = 0;

  NfRig(const SpaceConfig& space, const typename App::Config& app_config)
      : fabric(config()) {
    fabric.add_space(space);
    fabric.install([this, app_config]() {
      auto app = std::make_unique<App>(app_config);
      apps.push_back(app.get());
      return app;
    });
    fabric.start();
    fabric.set_delivery_sink([this](const pkt::Packet&) { ++delivered; });
  }

  static FabricConfig config() {
    FabricConfig cfg;
    cfg.num_switches = 3;
    return cfg;
  }

  std::uint64_t nf_discards(std::size_t i) {
    const auto counts = fabric.all_drop_counts();
    const auto it = counts.find(fabric.sw(i).id());
    if (it == counts.end()) return 0;
    return it->second[static_cast<std::size_t>(telemetry::DropReason::kNfDiscard)];
  }
};

pkt::Packet tcp(pkt::Ipv4Addr src, pkt::Ipv4Addr dst, std::uint16_t sport, std::uint8_t flags) {
  pkt::PacketSpec spec;
  spec.ip_src = src;
  spec.ip_dst = dst;
  spec.protocol = pkt::kProtoTcp;
  spec.src_port = sport;
  spec.dst_port = 80;
  spec.tcp_flags = flags;
  spec.payload = {0};
  return pkt::build_packet(spec);
}

TEST(MirrorOnDrop, NfDiscardsAttributedAtTheDroppingSwitch) {
  const pkt::Ipv4Addr client{192, 168, 1, 10};
  const pkt::Ipv4Addr server{8, 8, 8, 8};

  // Firewall: unsolicited inbound packets at switch 1 are blocked there.
  NfRig<nf::FirewallApp> fw(nf::FirewallApp::space(), nf::FirewallApp::Config{});
  for (std::uint16_t k = 0; k < 3; ++k) {
    fw.fabric.sw(1).inject(tcp(server, client, static_cast<std::uint16_t>(1000 + k),
                               pkt::TcpFlags::kAck));
  }
  fw.fabric.run_for(50 * kMs);
  EXPECT_EQ(fw.delivered, 0u);
  EXPECT_EQ(fw.apps[1]->stats().blocked_in, 3u);
  EXPECT_EQ(fw.nf_discards(1), fw.apps[1]->stats().blocked_in);
  EXPECT_EQ(fw.nf_discards(0), 0u);

  // LB: mid-flow packets with no mapping anywhere are PCC violations at
  // switch 2, mirrored there with the packet's size.
  const pkt::Ipv4Addr vip{10, 200, 0, 1};
  NfRig<nf::LoadBalancerApp> lb(nf::LoadBalancerApp::space(),
                                nf::LoadBalancerApp::Config{vip, {{10, 1, 0, 1}}, 65536});
  for (std::uint16_t k = 0; k < 2; ++k) {
    lb.fabric.sw(2).inject(
        tcp(client, vip, static_cast<std::uint16_t>(2000 + k), pkt::TcpFlags::kAck));
  }
  lb.fabric.run_for(50 * kMs);
  EXPECT_EQ(lb.delivered, 0u);
  EXPECT_EQ(lb.apps[2]->stats().pcc_violations, 2u);
  EXPECT_EQ(lb.nf_discards(2), lb.apps[2]->stats().pcc_violations);
  for (const auto& rec : lb.fabric.all_drop_records()) {
    EXPECT_EQ(rec.node, lb.fabric.sw(2).id());
    EXPECT_EQ(rec.reason, telemetry::DropReason::kNfDiscard);
    EXPECT_GT(rec.packet_bytes, 0u);
  }
}

// ---------------------------------------------------------------------------
// NodeLog retention
// ---------------------------------------------------------------------------

TEST(NodeLog, EvictsOldestKeepsDenseSeqsAndNodeOrder) {
  telemetry::NodeLog<telemetry::DropRecord> log(/*capacity=*/2);
  for (TimeNs t = 1; t <= 5; ++t) {
    telemetry::DropRecord rec;
    rec.time = t;
    rec.node = 9;
    log.append(9, rec);  // node 9 first: output order must not follow it
    rec.node = 4;
    if (t <= 3) log.append(4, rec);
  }
  const auto recs = log.records();
  ASSERT_EQ(recs.size(), 4u);
  // Nodes ascending; within a node, the two newest records survive with the
  // seqs they were stamped with (dense from 1, never reused after eviction).
  EXPECT_EQ(recs[0].node, 4u);
  EXPECT_EQ(recs[0].seq, 2u);
  EXPECT_EQ(recs[0].time, 2);
  EXPECT_EQ(recs[1].seq, 3u);
  EXPECT_EQ(recs[2].node, 9u);
  EXPECT_EQ(recs[2].seq, 4u);
  EXPECT_EQ(recs[2].time, 4);
  EXPECT_EQ(recs[3].seq, 5u);
  EXPECT_EQ(recs[3].time, 5);
}

TEST(NodeLog, DropRingTalliesSurviveEviction) {
  telemetry::DropRing ring(/*records_per_node=*/2);
  for (int k = 0; k < 5; ++k) ring.record(7, telemetry::DropReason::kLinkLoss, 64, 0);
  ring.record(7, telemetry::DropReason::kNfDiscard, 64, 0);
  ring.record(3, telemetry::DropReason::kNoRoute, 64, 0);

  const auto recs = ring.records();
  ASSERT_EQ(recs.size(), 3u);  // node 3's one record + node 7's newest two
  EXPECT_EQ(recs[0].node, 3u);
  EXPECT_EQ(recs[1].seq, 5u);
  EXPECT_EQ(recs[2].seq, 6u);
  EXPECT_EQ(recs[2].reason, telemetry::DropReason::kNfDiscard);

  const auto& counts = ring.counts();
  EXPECT_EQ(counts.at(7)[static_cast<std::size_t>(telemetry::DropReason::kLinkLoss)], 5u);
  EXPECT_EQ(counts.at(7)[static_cast<std::size_t>(telemetry::DropReason::kNfDiscard)], 1u);
  EXPECT_EQ(counts.at(3)[static_cast<std::size_t>(telemetry::DropReason::kNoRoute)], 1u);
}

// ---------------------------------------------------------------------------
// Fleet-health collector
// ---------------------------------------------------------------------------

telemetry::IntHop mk_hop(std::uint32_t sw, TimeNs in, TimeNs out, std::uint32_t depth) {
  telemetry::IntHop h;
  h.switch_id = sw;
  h.ingress_ts = in;
  h.egress_ts = out;
  h.queue_depth = depth;
  return h;
}

telemetry::IntSinkReport mk_report(TimeNs t, std::vector<telemetry::IntHop> hops) {
  telemetry::IntSinkReport r;
  r.time = t;
  r.sink = hops.back().switch_id;
  r.hop_cap = 8;
  r.packet_bytes = 100;
  r.hops = std::move(hops);
  return r;
}

TEST(HealthCollector, SloBurnFractionMatchesSampleSplit) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.add(1000);
  for (int i = 0; i < 10; ++i) h.add(1'000'000);
  EXPECT_NEAR(telemetry::slo_burn_fraction(h, 500'000), 0.10, 0.02);
  EXPECT_DOUBLE_EQ(telemetry::slo_burn_fraction(h, 2'000'000), 0.0);
  EXPECT_DOUBLE_EQ(telemetry::slo_burn_fraction(h, 10), 1.0);
  EXPECT_DOUBLE_EQ(telemetry::slo_burn_fraction(Histogram{}, 10), 0.0);
}

TEST(HealthCollector, QueueHotspotFlaggedQuietSwitchNot) {
  telemetry::HealthCollector coll;
  std::vector<telemetry::IntSinkReport> reports;
  for (int i = 0; i < 32; ++i) {
    const TimeNs t = i * 1 * kMs;
    // Switch 1: flat queue. Switch 2: sustained growth into the hundreds.
    const std::uint32_t hot = i < 16 ? 1 : 100 + static_cast<std::uint32_t>(i) * 10;
    reports.push_back(mk_report(t + 2000, {mk_hop(1, t, t + 40, 1), mk_hop(2, t + 1000, t + 1040, hot)}));
  }
  coll.ingest_reports(reports);
  coll.ingest_drops({}, {});
  coll.finalize();

  ASSERT_EQ(coll.anomalies().size(), 1u);
  const auto& f = coll.anomalies()[0];
  EXPECT_EQ(f.kind, telemetry::AnomalyFlag::Kind::kQueueGrowth);
  EXPECT_EQ(f.a, 2u);
  EXPECT_GT(f.severity, 4.0);
}

TEST(HealthCollector, DropSpikeAgainstWholeRunBaseline) {
  telemetry::HealthCollector coll;
  // Observation range pinned by sink reports over 400ms; all 64 of switch
  // 3's drops land in one 10ms window.
  std::vector<telemetry::IntSinkReport> reports;
  reports.push_back(mk_report(0, {mk_hop(1, 0, 40, 0)}));
  reports.push_back(mk_report(400 * kMs, {mk_hop(1, 400 * kMs, 400 * kMs + 40, 0)}));
  std::vector<telemetry::DropRecord> records;
  std::map<NodeId, std::array<std::uint64_t, telemetry::kNumDropReasons>> counts;
  for (int i = 0; i < 64; ++i) {
    telemetry::DropRecord rec;
    rec.time = 200 * kMs + i * 10 * kUs;
    rec.node = 3;
    rec.reason = telemetry::DropReason::kLinkQueueOverflow;
    rec.seq = static_cast<std::uint64_t>(i) + 1;
    records.push_back(rec);
  }
  counts[3][static_cast<std::size_t>(telemetry::DropReason::kLinkQueueOverflow)] = 64;
  coll.ingest_reports(reports);
  coll.ingest_drops(records, counts);
  coll.finalize();

  ASSERT_EQ(coll.anomalies().size(), 1u);
  EXPECT_EQ(coll.anomalies()[0].kind, telemetry::AnomalyFlag::Kind::kDropSpike);
  EXPECT_EQ(coll.anomalies()[0].a, 3u);
  EXPECT_EQ(coll.drops_total(), 64u);
  EXPECT_EQ(coll.drops_attributed(), 64u);
}

TEST(HealthCollector, AsymmetricLinkLatencyFlagged) {
  telemetry::HealthCollector coll;
  std::vector<telemetry::IntSinkReport> reports;
  for (int i = 0; i < 20; ++i) {
    const TimeNs t = i * 1 * kMs;
    // 1 -> 2 takes 1us; 2 -> 1 takes 50us. Links 1<->3 are symmetric.
    reports.push_back(mk_report(t + 9000, {mk_hop(1, t, t + 40, 0), mk_hop(2, t + 1040, t + 1080, 0)}));
    reports.push_back(
        mk_report(t + 9001, {mk_hop(2, t, t + 40, 0), mk_hop(1, t + 50040, t + 50080, 0)}));
    reports.push_back(mk_report(t + 9002, {mk_hop(1, t, t + 40, 0), mk_hop(3, t + 1040, t + 1080, 0)}));
    reports.push_back(mk_report(t + 9003, {mk_hop(3, t, t + 40, 0), mk_hop(1, t + 1040, t + 1080, 0)}));
  }
  coll.ingest_reports(reports);
  coll.ingest_drops({}, {});
  coll.finalize();

  ASSERT_EQ(coll.anomalies().size(), 1u);
  const auto& f = coll.anomalies()[0];
  EXPECT_EQ(f.kind, telemetry::AnomalyFlag::Kind::kAsymLink);
  EXPECT_EQ(f.a, 1u);
  EXPECT_EQ(f.b, 2u);
  EXPECT_GT(f.severity, 10.0);
}

TEST(HealthCollector, PublishesHealthSubtreeAndJsonRoundTrips) {
  IntRig rig(/*shards=*/1, /*loss=*/0.05, /*sample=*/2, /*seed=*/11, /*observatory=*/true);
  rig.drive_writes();

  telemetry::HealthCollector coll;
  coll.ingest_reports(rig.fabric.all_int_reports());
  coll.ingest_drops(rig.fabric.all_drop_records(), rig.fabric.all_drop_counts());
  coll.ingest_lag(rig.fabric.metrics_snapshot());
  coll.finalize();
  ASSERT_GT(coll.int_reports(), 0u);
  ASSERT_GT(coll.drops_total(), 0u);
  ASSERT_FALSE(coll.slo_burns().empty()) << "observatory lag should feed SLO burn";

  telemetry::MetricsRegistry reg;
  coll.publish(reg);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.values.at("health.int.reports").count, coll.int_reports());
  EXPECT_EQ(snap.values.at("health.drop.total").count, coll.drops_total());
  EXPECT_EQ(snap.values.at("health.drop.attributed").count, coll.drops_total());
  EXPECT_GT(snap.values.at("health.drop.reason.link_loss").count, 0u);
  EXPECT_TRUE(snap.values.count("health.slo.SRO.burn"));

  // JSON -> analyze-path renderer round-trip: parses and reproduces the key
  // totals of the direct report.
  const std::string json = coll.to_json();
  std::ostringstream direct;
  coll.print_report(direct);
  std::istringstream in(json);
  std::ostringstream parsed;
  telemetry::print_health_report(parsed, in);
  EXPECT_EQ(parsed.str(), direct.str());

  std::istringstream garbage("{\"traceEvents\":[]}");
  std::ostringstream sink;
  EXPECT_THROW(telemetry::print_health_report(sink, garbage), std::runtime_error);
}

TEST(HealthCollector, ByteIdenticalAcrossShardCounts) {
  auto health_json = [](std::size_t shards) {
    IntRig rig(shards, /*loss=*/0.05, /*sample=*/2, /*seed=*/13, /*observatory=*/true);
    rig.drive_writes();
    telemetry::HealthCollector coll;
    coll.ingest_reports(rig.fabric.all_int_reports());
    coll.ingest_drops(rig.fabric.all_drop_records(), rig.fabric.all_drop_counts());
    coll.ingest_lag(rig.fabric.metrics_snapshot());
    coll.finalize();
    return coll.to_json();
  };
  const std::string one = health_json(1);
  EXPECT_NE(one.find("\"int_reports\""), std::string::npos);
  EXPECT_EQ(health_json(2), one);
  EXPECT_EQ(health_json(4), one);
}

}  // namespace
}  // namespace swish::shm
