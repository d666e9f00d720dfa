// Telemetry cost in deterministic units. A saturating heavy-hitter flood on a
// 4-leaf x 2-spine fabric (every packet bumps a shared EWO counter, which
// multicasts mirror updates) runs with tracing off and on, and the runs are
// compared by events executed, link packets and bytes, packets delivered and
// heap allocations, never by wall-clock time. Each claim is checked at two
// traffic lengths, so a cost that grows with traffic shows as a difference
// between them.
//
// This binary links perfbench's allocation counter, which replaces the
// global operator new, so it is not part of another test binary.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "alloc_counter.hpp"
#include "nf/heavyhitter.hpp"
#include "swishmem/fabric.hpp"
#include "telemetry/trace.hpp"

namespace swish {
namespace {

struct FloodCost {
  std::uint64_t events = 0;
  std::uint64_t link_packets = 0;
  std::uint64_t link_bytes = 0;
  std::uint64_t delivered = 0;
  std::uint64_t injected = 0;  ///< edge packets, all leaves
  std::uint64_t allocs = 0;    ///< from fabric construction to the end of the run
};

struct Telemetry {
  std::uint64_t span_sample = 0;  ///< 0: span recorder off
  std::uint64_t int_sample = 0;   ///< 0: INT off
};

constexpr std::size_t kLeaves = 4;
constexpr std::size_t kSwitches = kLeaves + 2;  // and 2 spines

/// Every leaf injects 4 prebuilt packets per microsecond for `traffic`, then
/// the fabric drains for 2 ms.
FloodCost flood(TimeNs traffic, Telemetry telemetry) {
  constexpr std::size_t kBatch = 4;
  constexpr TimeNs kGap = 1 * kUs;
  // 512 distinct sources over /24 prefixes, so the NF's counter slots spread.
  std::vector<pkt::Packet> pool;
  for (std::uint32_t i = 0; i < 512; ++i) {
    pkt::PacketSpec spec;
    spec.eth_src = pkt::MacAddr::for_node(0xfeed);
    spec.ip_src = pkt::Ipv4Addr((50u << 24) | ((i % 64) << 8) | (1 + i / 64));
    spec.ip_dst = pkt::Ipv4Addr(10, 200, 0, 1);
    spec.protocol = pkt::kProtoUdp;
    spec.src_port = static_cast<std::uint16_t>(20000 + i);
    spec.dst_port = 80;
    spec.payload.assign(64, 0xAB);
    pool.push_back(pkt::build_packet(spec));
  }

  const std::uint64_t allocs_before = bench::total_allocs();
  shm::FabricConfig cfg;
  cfg.num_switches = kLeaves;
  cfg.topology = shm::FabricConfig::Topology::kLeafSpine;
  cfg.spine_count = kSwitches - kLeaves;
  cfg.seed = 7;
  cfg.int_sample_every = telemetry.int_sample;
  shm::Fabric fabric(cfg);
  if (telemetry.span_sample > 0) fabric.enable_spans(telemetry.span_sample);
  fabric.add_space(nf::HeavyHitterApp::space(4096));
  nf::HeavyHitterApp::Config hh;
  hh.threshold = 1'000'000'000;  // never fires: the detector keeps counting
  fabric.install([&]() { return std::make_unique<nf::HeavyHitterApp>(hh); });
  fabric.start();
  FloodCost cost;
  fabric.set_delivery_sink([&cost](const pkt::Packet&) { ++cost.delivered; });

  const TimeNs deadline = fabric.simulator().now() + traffic;
  std::vector<std::size_t> cursor(kLeaves, 0);
  std::function<void(std::size_t)> pump = [&](std::size_t leaf) {
    fabric.simulator().post_after(kGap, [&, leaf]() {
      if (fabric.simulator().now() >= deadline) return;
      for (std::size_t i = 0; i < kBatch; ++i) {
        fabric.sw(leaf).inject(pool[cursor[leaf]]);
        cursor[leaf] = (cursor[leaf] + 1) % pool.size();
      }
      pump(leaf);
    });
  };
  for (std::size_t leaf = 0; leaf < kLeaves; ++leaf) pump(leaf);

  const std::uint64_t events_before = fabric.shard_set().executed_events();
  fabric.run_for(traffic + 2 * kMs);
  cost.events = fabric.shard_set().executed_events() - events_before;
  cost.allocs = bench::total_allocs() - allocs_before;
  const auto link = fabric.network().total_stats();
  cost.link_packets = link.packets_sent;
  cost.link_bytes = link.bytes_sent;
  for (std::size_t i = 0; i < kLeaves; ++i) cost.injected += fabric.sw(i).stats().injected;
  return cost;
}

constexpr std::uint64_t kNeverSample = std::uint64_t{1} << 62;

TEST(TelemetryCost, UnsampledSpanRecorderCostsAConstant) {
  // Enabled but never sampling: every send pays the recorder-enabled branch,
  // and only setup (plus the first root span) allocates or adds wire bytes.
  for (TimeNs traffic : {2 * kMs, 4 * kMs}) {
    const FloodCost off = flood(traffic, {});
    const FloodCost on = flood(traffic, {.span_sample = kNeverSample});
    EXPECT_EQ(on.events, off.events) << traffic << " ns of traffic";
    EXPECT_EQ(on.link_packets, off.link_packets) << traffic << " ns of traffic";
    EXPECT_EQ(on.delivered, off.delivered) << traffic << " ns of traffic";
    EXPECT_EQ(on.allocs - off.allocs, 16u) << traffic << " ns of traffic";
    EXPECT_EQ(on.link_bytes - off.link_bytes, 408u) << traffic << " ns of traffic";
  }
}

TEST(TelemetryCost, MaskedOffTraceEventsNeverAllocate) {
  // A masked-off category costs one load and one branch: a disabled tracer,
  // and one with only other categories on, record 1000 events with no heap
  // allocation.
  telemetry::Tracer tracer;
  const std::uint64_t allocs_before = bench::total_allocs();
  for (std::uint64_t i = 0; i < 1000; ++i) tracer.record(telemetry::kTracePacket, 1, "off", i);
  tracer.enable(telemetry::kTraceDrop);
  for (std::uint64_t i = 0; i < 1000; ++i) tracer.record(telemetry::kTracePacket, 1, "off", i);
  EXPECT_EQ(bench::total_allocs() - allocs_before, 0u);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(TelemetryCost, InbandSamplingAt1In64CostsASixtyFourthOfFullSampling) {
  // INT tags 1 in N packets per switch. Its extra allocations and wire bytes
  // must scale down with N: at 1-in-64 at most 1/64 of 1-in-1's extra, plus
  // one sampled packet's worth per switch for each switch's countdown
  // rounding. At 1-in-1 every edge packet is sampled, so one sampled packet's
  // worth is at most 1-in-1's extra over the injected packets.
  for (TimeNs traffic : {2 * kMs, 4 * kMs}) {
    const FloodCost off = flood(traffic, {});
    const FloodCost every = flood(traffic, {.int_sample = 1});
    const FloodCost sampled = flood(traffic, {.int_sample = 64});
    EXPECT_EQ(sampled.events, off.events) << traffic << " ns of traffic";
    EXPECT_EQ(sampled.link_packets, off.link_packets) << traffic << " ns of traffic";
    EXPECT_EQ(sampled.delivered, off.delivered) << traffic << " ns of traffic";

    auto bound = [&](std::uint64_t off_value, std::uint64_t every_value) {
      const auto extra = static_cast<double>(every_value - off_value);
      const double per_sampled_packet = extra / static_cast<double>(off.injected);
      return extra / 64 + static_cast<double>(kSwitches) * per_sampled_packet;
    };
    EXPECT_LE(static_cast<double>(sampled.allocs - off.allocs), bound(off.allocs, every.allocs))
        << traffic << " ns of traffic";
    EXPECT_LE(static_cast<double>(sampled.link_bytes - off.link_bytes),
              bound(off.link_bytes, every.link_bytes))
        << traffic << " ns of traffic";
  }
}

/// Bumps the EWO counter named by the packet's UDP destination port.
class PortCounter : public shm::NfApp {
 public:
  static constexpr std::uint32_t kSpace = 40;
  void process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) override {
    if (ctx.parsed != nullptr && ctx.parsed->udp) {
      rt.update(kSpace, ctx.parsed->udp->dst_port, 1, nullptr);
    }
  }
};

TEST(TelemetryCost, MirrorFlushAllocatesOnlyItsFrames) {
  // A 16-entry mirror flush to 15 peers builds 15 frames, one allocation
  // each: the first frame's encoding is copied into the other 14, and the
  // message, peer list and event pools are reused from the warm-up flush.
  constexpr std::size_t kSwitchCount = 16;
  constexpr std::size_t kEntries = 16;
  shm::FabricConfig cfg;
  cfg.num_switches = kSwitchCount;
  cfg.runtime.sync_period = 10 * kSec;  // no sync rounds
  shm::Fabric fabric(cfg);
  shm::SpaceConfig ctr;
  ctr.id = PortCounter::kSpace;
  ctr.name = "ctr";
  ctr.cls = shm::ConsistencyClass::kEWO;
  ctr.merge = shm::MergePolicy::kGCounter;
  ctr.size = 64;
  ctr.mirror_batch = kEntries;
  fabric.add_space(ctr);
  fabric.install([]() { return std::make_unique<PortCounter>(); });
  fabric.start();

  std::vector<pkt::Packet> writes;
  for (std::uint16_t k = 0; k < kEntries; ++k) {
    pkt::PacketSpec spec;
    spec.ip_src = pkt::Ipv4Addr(1, 2, 3, 4);
    spec.ip_dst = pkt::Ipv4Addr(9, 9, 9, 9);
    spec.dst_port = k;
    writes.push_back(pkt::build_packet(spec));
  }
  for (const pkt::Packet& p : writes) fabric.sw(0).inject(p);  // warm-up flush
  fabric.run_for(1 * kMs);
  for (std::size_t k = 0; k + 1 < kEntries; ++k) fabric.sw(0).inject(writes[k]);

  const std::uint64_t sent_before = fabric.runtime(0).stats().ewo_updates_sent;
  const std::uint64_t allocs_before = bench::total_allocs();
  fabric.sw(0).inject(writes.back());  // the 16th write flushes
  const std::uint64_t allocs = bench::total_allocs() - allocs_before;
  EXPECT_EQ(fabric.runtime(0).stats().ewo_updates_sent - sent_before, kSwitchCount - 1);
  EXPECT_EQ(allocs, kSwitchCount - 1);
}

}  // namespace
}  // namespace swish
