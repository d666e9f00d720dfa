// Runtime edge cases: retry exhaustion, CP buffer limits, stale config
// pushes, unknown spaces, and stats accounting.
#include <gtest/gtest.h>

#include "swishmem/fabric.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kSpace = 70;

Fabric* make(std::unique_ptr<Fabric>& holder, FabricConfig cfg) {
  holder = std::make_unique<Fabric>(cfg);
  SpaceConfig sp;
  sp.id = kSpace;
  sp.name = "m";
  sp.cls = ConsistencyClass::kSRO;
  sp.size = 16;
  holder->add_space(sp);
  SpaceConfig ctr;
  ctr.id = kSpace + 1;
  ctr.name = "mc";
  ctr.cls = ConsistencyClass::kEWO;
  ctr.merge = MergePolicy::kGCounter;
  ctr.size = 4;
  holder->add_space(ctr);
  holder->install(nullptr);
  holder->start();
  return holder.get();
}

TEST(RuntimeMisc, WriteFailsAfterMaxRetriesWhenHeadUnreachable) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  cfg.runtime.write_retry_timeout = 1 * kMs;
  cfg.runtime.max_write_retries = 3;
  // Disable failure detection so the chain is never repaired.
  cfg.controller.heartbeat_timeout = 1000 * kSec;
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  fabric.run_for(10 * kMs);
  fabric.kill_switch(0);  // the head, permanently

  bool released = false;
  fabric.runtime(2).write({{kSpace, 1, 9}}, pkt::Packet{},
                          [&](pkt::Packet&&) { released = true; });
  fabric.run_for(500 * kMs);
  EXPECT_FALSE(released);
  EXPECT_EQ(fabric.runtime(2).stats().writes_failed, 1u);
  EXPECT_EQ(fabric.runtime(2).stats().write_retries, 3u);
  EXPECT_EQ(fabric.runtime(2).cp_buffered_packets(), 0u);  // buffer reclaimed
}

TEST(RuntimeMisc, CpBufferLimitRejectsExcessWrites) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  cfg.runtime.cp_buffer_limit = 2;
  cfg.link.propagation_delay = 10 * kMs;  // keep writes pending a while
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  for (int i = 0; i < 5; ++i) {
    fabric.runtime(1).write({{kSpace, static_cast<std::uint64_t>(i), 1}}, pkt::Packet{},
                            nullptr);
  }
  EXPECT_EQ(fabric.runtime(1).stats().writes_rejected, 3u);
  EXPECT_EQ(fabric.runtime(1).cp_buffered_packets(), 2u);
  fabric.run_for(500 * kMs);
  EXPECT_EQ(fabric.runtime(1).stats().writes_committed, 2u);
}

TEST(RuntimeMisc, StaleConfigPushesIgnored) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  const auto epoch = fabric.runtime(0).chain().epoch;
  ASSERT_GE(epoch, 1u);
  pkt::ChainConfig stale;
  stale.epoch = 0;
  stale.chain = {99};
  fabric.runtime(0).set_chain(stale);
  EXPECT_EQ(fabric.runtime(0).chain().epoch, epoch);  // unchanged
  pkt::GroupConfig stale_group;
  stale_group.epoch = 0;
  stale_group.members = {99};
  fabric.runtime(0).set_group(stale_group);
  EXPECT_NE(fabric.runtime(0).group().members, (std::vector<SwitchId>{99}));
}

TEST(RuntimeMisc, UnknownSpacesAreSafeNoOps) {
  FabricConfig cfg;
  cfg.num_switches = 2;
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  ShmRuntime& rt = fabric.runtime(0);
  std::uint64_t value = 7;
  EXPECT_EQ(rt.read(nullptr, 999, 0, value), ReadStatus::kMiss);
  EXPECT_EQ(value, 7u);  // untouched on a miss
  EXPECT_FALSE(rt.read_lpm(999, 0).has_value());
  EXPECT_FALSE(rt.update(999, 0, 1, nullptr));
  // A write naming an undeclared space is refused whole.
  EXPECT_FALSE(rt.write({{999, 0, 1}}, pkt::Packet{}, nullptr));
  EXPECT_FALSE(rt.write({{kSpace, 0, 1}, {999, 0, 1}}, pkt::Packet{}, nullptr));
  EXPECT_FALSE(rt.write({}, pkt::Packet{}, nullptr));
  EXPECT_EQ(fabric.runtime(0).sro_space(999), nullptr);
  EXPECT_EQ(fabric.runtime(0).ewo_space(999), nullptr);
  EXPECT_FALSE(fabric.runtime(0).hosts_space(999));
  EXPECT_TRUE(fabric.runtime(0).hosts_space(kSpace));
}

TEST(RuntimeMisc, ProtocolByteCountersAccount) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  fabric.runtime(0).write({{kSpace, 1, 5}}, pkt::Packet{}, nullptr);
  fabric.runtime(0).update(kSpace + 1, 0, 1, nullptr);
  fabric.run_for(100 * kMs);
  EXPECT_GT(fabric.runtime(0).stats().bytes_write_path, 0u);
  EXPECT_GT(fabric.runtime(0).stats().bytes_ewo, 0u);
  // Latency histogram is coherent.
  const auto& h = fabric.runtime(0).stats().write_latency;
  EXPECT_EQ(h.count(), 1u);
  EXPECT_LE(h.p50(), h.p99());
}

TEST(RuntimeMisc, MalformedProtocolPacketConsumedSilently) {
  FabricConfig cfg;
  cfg.num_switches = 2;
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  // UDP to the SwiShmem port with garbage payload: must be dropped, not
  // crash or reach an NF.
  pkt::PacketSpec spec;
  spec.ip_src = net::node_ip(2);
  spec.ip_dst = net::node_ip(1);
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = pkt::kSwishPort;
  spec.dst_port = pkt::kSwishPort;
  spec.payload = {0xff, 0x00, 0x01};
  fabric.sw(0).inject(pkt::build_packet(spec));
  fabric.run_for(10 * kMs);
  SUCCEED();
}

TEST(RuntimeMisc, WriterReleaseRunsOnWriterSwitch) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  std::unique_ptr<Fabric> holder;
  Fabric& fabric = *make(holder, cfg);
  // The release callback runs after the tail ack returns to the writer: its
  // timing must include a full chain traversal, not fire synchronously.
  TimeNs released_at = -1;
  const TimeNs submit_at = fabric.simulator().now();
  fabric.runtime(2).write({{kSpace, 3, 1}}, pkt::Packet{}, [&](pkt::Packet&&) {
released_at = fabric.simulator().now();
  });
  EXPECT_EQ(released_at, -1);  // not synchronous
  fabric.run_for(100 * kMs);
  ASSERT_GT(released_at, submit_at);
  EXPECT_GT(released_at - submit_at, 2 * cfg.link.propagation_delay);
}

}  // namespace
}  // namespace swish::shm
