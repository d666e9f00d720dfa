// Runtime edge cases: the retry path (exhaustion for every user, refused
// control-plane work), CP buffer limits, stale config pushes, unknown
// spaces, and stats accounting.
#include <gtest/gtest.h>

#include "swishmem/fabric.hpp"
#include "swishmem/protocols/owner_engine.hpp"

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

std::uint64_t drops_at(Fabric& fabric, std::size_t i, telemetry::DropReason reason) {
  const auto counts = fabric.all_drop_counts();
  const auto it = counts.find(fabric.runtime(i).self());
  return it == counts.end() ? 0 : it->second[static_cast<std::size_t>(reason)];
}

// -- The one retry path (RetryTable, protocols/engine.hpp) -------------------

/// What a retry-path user did once its peer became unreachable.
struct RetryOutcome {
  std::uint64_t retransmissions = 0;
  std::uint64_t typed_drops = 0;  ///< drops of the user's DropReason at the requester
  bool reclaimed = false;         ///< the request's entry (and timer) is gone
};

struct RetryUser {
  const char* name;
  RetryOutcome (*run)(const FabricConfig& cfg);
};

void PrintTo(const RetryUser& user, std::ostream* os) { *os << user.name; }

/// Three switches whose failure detector never fires (a dead peer stays in
/// every chain and group), a 1 ms retry timeout and a budget of 3.
FabricConfig retry_cfg() {
  FabricConfig cfg;
  cfg.num_switches = 3;
  cfg.runtime.write_retry_timeout = 1 * kMs;
  cfg.runtime.max_write_retries = 3;
  cfg.controller.heartbeat_timeout = 1000 * kSec;
  return cfg;
}

std::unique_ptr<Fabric> make_space(const FabricConfig& cfg, ConsistencyClass cls,
                                   std::size_t size = 16) {
  auto fabric = std::make_unique<Fabric>(cfg);
  SpaceConfig sp;
  sp.id = kSpace;
  sp.name = "r";
  sp.cls = cls;
  sp.size = size;
  fabric->add_space(sp);
  fabric->install(nullptr);
  fabric->start();
  fabric->run_for(10 * kMs);
  return fabric;
}

RetryOutcome sro_write_head_dead(const FabricConfig& cfg) {
  auto fabric = make_space(cfg, ConsistencyClass::kSRO);
  fabric->kill_switch(0);  // the chain head, for good
  bool released = false;
  fabric->runtime(2).write({{kSpace, 1, 9}}, pkt::Packet{},
                           [&](pkt::Packet&&) { released = true; });
  fabric->run_for(500 * kMs);
  const auto st = fabric->runtime(2).stats();
  return {st.write_retries,
          drops_at(*fabric, 2, telemetry::DropReason::kWriteRetriesExhausted),
          !released && st.writes_failed == 1 && fabric->runtime(2).cp_buffered_packets() == 0};
}

RetryOutcome con_write_no_quorum(const FabricConfig& cfg) {
  auto fabric = make_space(cfg, ConsistencyClass::kCON);
  fabric->kill_switch(1);
  fabric->kill_switch(2);  // the coordinator (switch 0) is alone of three
  bool released = false;
  fabric->runtime(0).write({{kSpace, 1, 9}}, pkt::Packet{},
                           [&](pkt::Packet&&) { released = true; });
  fabric->run_for(500 * kMs);
  const auto st = fabric->runtime(0).stats();
  return {st.write_retries, drops_at(*fabric, 0, telemetry::DropReason::kQuorumUnreachable),
          !released && st.writes_failed == 1 && fabric->runtime(0).cp_buffered_packets() == 0};
}

RetryOutcome own_acquire_home_dead(const FabricConfig& cfg) {
  auto fabric = make_space(cfg, ConsistencyClass::kOWN);
  const auto& own = dynamic_cast<const OwnerEngine&>(*fabric->runtime(2).engine_for_space(kSpace));
  std::uint64_t key = 0;
  while (own.home_of(kSpace, key) != fabric->runtime(0).self()) ++key;
  fabric->kill_switch(0);  // the key's home, for good
  fabric->runtime(2).write({{kSpace, key, 9}}, pkt::Packet{}, nullptr);
  fabric->run_for(500 * kMs);
  const OwnerEngine::Stats& st = own.own_stats();
  const RetryOutcome out{st.acquisition_retries,
                         drops_at(*fabric, 2, telemetry::DropReason::kWriteRetriesExhausted),
                         st.acquisitions_failed == 1};
  // Reclaimed: the next write to the key starts a fresh acquisition instead
  // of queueing behind the spent one.
  fabric->runtime(2).write({{kSpace, key, 10}}, pkt::Packet{}, nullptr);
  return {out.retransmissions, out.typed_drops,
          out.reclaimed && st.acquisitions_started.value() == 2};
}

RetryOutcome recovery_target_dies(const FabricConfig& base) {
  FabricConfig cfg = base;
  cfg.link.propagation_delay = 300 * kUs;  // a chunk round trip well inside the timeout
  auto fabric = make_space(cfg, ConsistencyClass::kSRO, 256);
  for (std::uint64_t k = 0; k < 100; ++k) {  // 100 non-zero registers: 4 chunks
    fabric->runtime(1).write({{kSpace, k, k + 1}}, pkt::Packet{}, nullptr);
  }
  fabric->run_for(100 * kMs);
  bool done = false;
  fabric->runtime(2).start_recovery_stream(fabric->runtime(0).self(), [&] { done = true; });
  fabric->run_for(800 * kUs);  // chunk 1 acknowledged, chunk 2 in flight
  fabric->kill_switch(0);
  fabric->run_for(100 * kMs);
  const auto donor = fabric->runtime(2).stats();
  const auto target = fabric->runtime(0).stats();
  // Every chunk sent beyond the ones the target applied and the lost one.
  const std::uint64_t retransmissions =
      donor.recovery_chunks_sent - target.recovery_chunks_applied - 1;
  fabric->run_for(100 * kMs);
  return {retransmissions, drops_at(*fabric, 2, telemetry::DropReason::kRecoveryAbandoned),
          !done && target.recovery_chunks_applied == 1 &&
              fabric->runtime(2).stats().recovery_chunks_sent == donor.recovery_chunks_sent};
}

class RetryExhaustion : public ::testing::TestWithParam<RetryUser> {};

TEST_P(RetryExhaustion, ResendsTheBudgetThenDropsTypedAndReclaims) {
  const FabricConfig cfg = retry_cfg();
  const RetryOutcome out = GetParam().run(cfg);
  EXPECT_EQ(out.retransmissions, cfg.runtime.max_write_retries);
  EXPECT_EQ(out.typed_drops, 1u);
  EXPECT_TRUE(out.reclaimed);
}

INSTANTIATE_TEST_SUITE_P(
    RetryPathUsers, RetryExhaustion,
    ::testing::Values(RetryUser{"SroWriteHeadDead", sro_write_head_dead},
                      RetryUser{"ConWriteNoQuorum", con_write_no_quorum},
                      RetryUser{"OwnAcquireHomeDead", own_acquire_home_dead},
                      RetryUser{"RecoveryTargetDiesMidStream", recovery_target_dies}),
    [](const ::testing::TestParamInfo<RetryUser>& info) { return info.param.name; });

/// Fills switch `i`'s control-plane queue to the brim (~41 ms of work on
/// the default CPU).
void fill_control_plane(Fabric& fabric, std::size_t i) {
  pisa::ControlPlane& cp = fabric.sw(i).control_plane();
  while (cp.submit([] {})) {
  }
}

class RefusedRelease : public ::testing::TestWithParam<ConsistencyClass> {};

TEST_P(RefusedRelease, IsReportedAsCpBufferFull) {
  // The commit path releases the buffered output through the writer's CP; a
  // release the CPU refuses must leave a typed drop, not vanish. A probe run
  // of the (deterministic) scenario finds the instant the commit reaches the
  // writer; the second run fills the writer's CP at that instant, just ahead
  // of the commit.
  const FabricConfig cfg = retry_cfg();
  const auto service = static_cast<TimeNs>(
      static_cast<double>(kSec) / cfg.switch_config.control_plane.ops_per_sec);
  TimeNs released_at = -1;
  const auto run = [&](TimeNs fill_at) {
    auto fabric = make_space(cfg, GetParam());
    Fabric& f = *fabric;
    released_at = -1;
    if (fill_at >= 0) f.simulator().post_at(fill_at, [&f] { fill_control_plane(f, 2); });
    f.runtime(2).write({{kSpace, 1, 9}}, pkt::Packet{},
                       [&](pkt::Packet&&) { released_at = f.simulator().now(); });
    f.run_for(500 * kMs);
    return fabric;
  };
  run(-1);  // probe: an idle CP runs the release one service time after the commit
  ASSERT_GT(released_at, 0);
  const auto fabric = run(released_at - service);
  EXPECT_EQ(released_at, -1);
  EXPECT_EQ(fabric->runtime(2).stats().writes_committed, 1u);
  EXPECT_EQ(drops_at(*fabric, 2, telemetry::DropReason::kCpBufferFull), 1u);
  EXPECT_EQ(fabric->runtime(2).cp_buffered_packets(), 0u);
}

INSTANTIATE_TEST_SUITE_P(ChainAndCon, RefusedRelease,
                         ::testing::Values(ConsistencyClass::kSRO, ConsistencyClass::kCON),
                         [](const ::testing::TestParamInfo<ConsistencyClass>& info) {
                           return std::string(to_string(info.param));
                         });

TEST(RuntimeMisc, RefusedRecoveryStartStillStreams) {
  // The donor's CP refuses the job that starts the stream; the first chunk
  // must still go out (on the retry path) and the stream complete.
  auto fabric = make_space(retry_cfg(), ConsistencyClass::kSRO, 256);
  for (std::uint64_t k = 0; k < 100; ++k) {
    fabric->runtime(1).write({{kSpace, k, k + 1}}, pkt::Packet{}, nullptr);
  }
  fabric->run_for(100 * kMs);
  fill_control_plane(*fabric, 2);
  bool done = false;
  fabric->runtime(2).start_recovery_stream(fabric->runtime(0).self(), [&] { done = true; });
  fabric->run_for(500 * kMs);
  EXPECT_TRUE(done);
  EXPECT_EQ(fabric->runtime(0).stats().recovery_chunks_applied, 4u);
  EXPECT_EQ(drops_at(*fabric, 2, telemetry::DropReason::kRecoveryAbandoned), 0u);
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
