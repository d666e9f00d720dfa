// kCON consensus engine: coordinator election, majority-quorum commit, read
// leases, loss-driven retry/repair, revived-replica catch-up, and the
// multi-key packet transactions that occupy one log slot (all-or-nothing on
// every replica, surviving mid-flight coordinator failure).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "swishmem/fabric.hpp"
#include "swishmem/protocols/consensus_engine.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kSpaceA = 30;
constexpr std::uint32_t kSpaceB = 31;

/// Driver NF on the uniform API: UDP dst port selects an action.
///  port 1000+k : write A[k] = src_port (single-op)
///  port 2000+k : read A[k]; records value and status
///  port 4000+k : transaction { A[k] = src_port, B[k] = src_port + 1 }
class Driver : public NfApp {
 public:
  void process(pisa::PacketContext& ctx, ShmRuntime& rt) override {
    if (!ctx.parsed || !ctx.parsed->udp) return;
    const std::uint16_t port = ctx.parsed->udp->dst_port;
    const std::uint64_t src = ctx.parsed->udp->src_port;
    pisa::Switch* sw = &ctx.sw;
    if (port >= 1000 && port < 2000) {
      std::vector<pkt::WriteOp> ops{{kSpaceA, static_cast<std::uint64_t>(port - 1000), src}};
      rt.write(std::move(ops), std::move(ctx.packet),
               [sw](pkt::Packet&& p) { sw->deliver(std::move(p)); });
    } else if (port >= 2000 && port < 3000) {
      std::uint64_t value = 0;
      const auto st = rt.read(&ctx, kSpaceA, port - 2000, value);
      if (st == ReadStatus::kOk) {
        last_read = value;
        ++reads_ok;
        ctx.sw.deliver(std::move(ctx.packet));
      } else if (st == ReadStatus::kRedirected) {
        ++reads_redirected;
      }
    } else if (port >= 4000 && port < 5000) {
      const std::uint64_t key = port - 4000;
      std::vector<pkt::WriteOp> ops{{kSpaceA, key, src}, {kSpaceB, key, src + 1}};
      txn_accepted = rt.write(std::move(ops), std::move(ctx.packet),
                              [sw](pkt::Packet&& p) { sw->deliver(std::move(p)); });
    }
  }
  std::uint64_t last_read = 0;
  int reads_ok = 0;
  int reads_redirected = 0;
  bool txn_accepted = false;
};

pkt::Packet udp(std::uint16_t src_port, std::uint16_t dst_port) {
  pkt::PacketSpec spec;
  spec.ip_src = pkt::Ipv4Addr(1, 2, 3, 4);
  spec.ip_dst = pkt::Ipv4Addr(9, 9, 9, 9);
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = src_port;
  spec.dst_port = dst_port;
  spec.payload = {0};
  return pkt::build_packet(spec);
}

struct Rig {
  shm::Fabric fabric;
  std::vector<Driver*> drivers;
  std::uint64_t delivered = 0;

  explicit Rig(FabricConfig cfg, SpaceKind kind = SpaceKind::kDense) : fabric(cfg) {
    for (std::uint32_t id : {kSpaceA, kSpaceB}) {
      SpaceConfig sp;
      sp.id = id;
      sp.name = id == kSpaceA ? "con.a" : "con.b";
      sp.cls = ConsistencyClass::kCON;
      sp.kind = kind;
      sp.size = 256;
      fabric.add_space(sp);
    }
    fabric.install([this]() {
      auto d = std::make_unique<Driver>();
      drivers.push_back(d.get());
      return d;
    });
    fabric.start();
    fabric.set_delivery_sink([this](const pkt::Packet&) { ++delivered; });
  }

  std::optional<std::uint64_t> stored(std::size_t i, std::uint32_t space, std::uint64_t key) {
    const auto* st = fabric.runtime(i).con_space(space);
    return st ? st->read(key) : std::nullopt;
  }
};

FabricConfig cfg4() {
  FabricConfig c;
  c.num_switches = 4;
  return c;
}

TEST(Consensus, ElectionCompletesAndWritesReplicateEverywhere) {
  Rig rig(cfg4());
  rig.fabric.run_for(20 * kMs);
  // Exactly one election: the initial coordinator (lowest-id member).
  EXPECT_GE(rig.fabric.runtime(0).stats().con_elections, 1u);
  for (int k = 0; k < 6; ++k) {
    rig.fabric.sw(k % 4).inject(udp(static_cast<std::uint16_t>(100 + k),
                                    static_cast<std::uint16_t>(1000 + k)));
  }
  rig.fabric.run_for(50 * kMs);
  EXPECT_EQ(rig.delivered, 6u);
  for (std::size_t i = 0; i < rig.fabric.size(); ++i) {
    for (int k = 0; k < 6; ++k) {
      EXPECT_EQ(rig.stored(i, kSpaceA, k).value_or(~0ull), 100u + k)
          << "replica " << i << " key " << k;
    }
    // One log slot per write, applied exactly once per replica (duplicate
    // forwards/learns are deduplicated, lease heartbeats re-apply nothing).
    EXPECT_EQ(rig.fabric.runtime(i).stats().con_slots_applied, 6u) << "replica " << i;
  }
}

TEST(Consensus, ReadOnFollowerStaysLocalThroughIdlePeriods) {
  Rig rig(cfg4());
  rig.fabric.sw(2).inject(udp(77, 1003));
  rig.fabric.run_for(50 * kMs);
  // Long idle: the coordinator's lease heartbeats must keep follower reads
  // local (no write traffic to piggyback on).
  rig.fabric.run_for(200 * kMs);
  rig.fabric.sw(2).inject(udp(0, 2003));
  rig.fabric.run_for(10 * kMs);
  EXPECT_EQ(rig.drivers[2]->reads_ok, 1);
  EXPECT_EQ(rig.drivers[2]->reads_redirected, 0);
  EXPECT_EQ(rig.drivers[2]->last_read, 77u);
}

class ConsensusLoss : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConsensusLoss, WritesConvergeUnderLoss) {
  FabricConfig cfg = cfg4();
  cfg.link.loss_probability = 0.05;
  cfg.seed = GetParam();
  Rig rig(cfg);
  rig.fabric.run_for(20 * kMs);
  for (int k = 0; k < 12; ++k) {
    rig.fabric.sw(k % 4).inject(udp(static_cast<std::uint16_t>(500 + k),
                                    static_cast<std::uint16_t>(1000 + k)));
  }
  rig.fabric.run_for(400 * kMs);  // covers forward retries and learn repair
  EXPECT_EQ(rig.delivered, 12u);
  for (std::size_t i = 0; i < rig.fabric.size(); ++i) {
    for (int k = 0; k < 12; ++k) {
      EXPECT_EQ(rig.stored(i, kSpaceA, k).value_or(~0ull), 500u + k)
          << "seed " << GetParam() << " replica " << i << " key " << k;
    }
  }
}

TEST_P(ConsensusLoss, TransactionsApplyAllOrNothingUnderLoss) {
  FabricConfig cfg = cfg4();
  cfg.link.loss_probability = 0.1;
  cfg.seed = GetParam();
  Rig rig(cfg);
  rig.fabric.run_for(20 * kMs);
  for (int k = 0; k < 10; ++k) {
    rig.fabric.sw(k % 4).inject(udp(static_cast<std::uint16_t>(300 + k),
                                    static_cast<std::uint16_t>(4000 + k)));
  }
  rig.fabric.run_for(500 * kMs);
  for (std::size_t i = 0; i < rig.fabric.size(); ++i) {
    for (int k = 0; k < 10; ++k) {
      const auto a = rig.stored(i, kSpaceA, k);
      const auto b = rig.stored(i, kSpaceB, k);
      // The pair lives in one log slot: a replica either applied both ops or
      // neither, never a torn half.
      ASSERT_EQ(a.has_value(), b.has_value())
          << "torn transaction: seed " << GetParam() << " replica " << i << " key " << k;
      if (a) {
        EXPECT_EQ(*a, 300u + k);
        EXPECT_EQ(*b, *a + 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LossSeeds, ConsensusLoss, ::testing::Values(1, 7, 23));

TEST(Consensus, WritesRecommitAfterCoordinatorFailure) {
  Rig rig(cfg4());
  rig.fabric.run_for(50 * kMs);  // heartbeats flowing, switch 0 coordinates
  rig.fabric.kill_switch(0);
  rig.fabric.run_for(200 * kMs);  // detection + epoch push + re-election
  EXPECT_GE(rig.fabric.runtime(1).stats().con_elections, 1u)
      << "next-lowest member must take over coordination";
  rig.fabric.sw(2).inject(udp(88, 1005));
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(rig.delivered, 1u);
  for (std::size_t i = 1; i < rig.fabric.size(); ++i) {
    EXPECT_EQ(rig.stored(i, kSpaceA, 5).value_or(~0ull), 88u) << "replica " << i;
  }
}

TEST(Consensus, TransactionSurvivesMidFlightCoordinatorFailure) {
  // Slow links stretch the commit round trips so the coordinator dies with
  // the transaction proposed but not yet learned anywhere: phase-1 recovery
  // must re-propose it from the acceptors' promises, whole or not at all.
  FabricConfig cfg = cfg4();
  cfg.link.propagation_delay = 1 * kMs;
  Rig rig(cfg);
  rig.fabric.run_for(50 * kMs);
  rig.fabric.sw(2).inject(udp(42, 4009));
  // forward reaches switch 0 at ~1 ms; its accepts are in flight at 1.5 ms.
  rig.fabric.run_for(1500 * kUs);
  rig.fabric.kill_switch(0);
  rig.fabric.run_for(400 * kMs);  // detection, election, re-proposal, retry
  for (std::size_t i = 1; i < rig.fabric.size(); ++i) {
    const auto a = rig.stored(i, kSpaceA, 9);
    const auto b = rig.stored(i, kSpaceB, 9);
    ASSERT_EQ(a.has_value(), b.has_value()) << "torn transaction on replica " << i;
    EXPECT_EQ(a.value_or(~0ull), 42u) << "replica " << i;
    EXPECT_EQ(b.value_or(~0ull), 43u) << "replica " << i;
  }
  EXPECT_EQ(rig.delivered, 1u) << "writer must release the packet exactly once";
}

TEST(Consensus, RevivedReplicaCatchesUpFromRepair) {
  Rig rig(cfg4());
  rig.fabric.run_for(50 * kMs);
  rig.fabric.kill_switch(3);
  rig.fabric.run_for(150 * kMs);
  for (int k = 0; k < 5; ++k) {
    rig.fabric.sw(k % 3).inject(udp(static_cast<std::uint16_t>(700 + k),
                                    static_cast<std::uint16_t>(1000 + k)));
  }
  rig.fabric.run_for(100 * kMs);
  rig.fabric.revive_switch(3);
  rig.fabric.run_for(400 * kMs);  // readmission + learn backfill from slot 1
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(rig.stored(3, kSpaceA, k).value_or(~0ull), 700u + k)
        << "revived replica missing key " << k;
  }
}

TEST(Consensus, SparseSpacesCarryTransactionsToo) {
  FabricConfig cfg = cfg4();
  Rig rig(cfg, SpaceKind::kSparse);
  rig.fabric.run_for(20 * kMs);
  rig.fabric.sw(1).inject(udp(11, 4002));
  rig.fabric.run_for(50 * kMs);
  EXPECT_TRUE(rig.drivers[1]->txn_accepted);
  for (std::size_t i = 0; i < rig.fabric.size(); ++i) {
    EXPECT_EQ(rig.stored(i, kSpaceA, 2).value_or(~0ull), 11u) << "replica " << i;
    EXPECT_EQ(rig.stored(i, kSpaceB, 2).value_or(~0ull), 12u) << "replica " << i;
  }
}

TEST(Consensus, CrossEngineTransactionRefused) {
  FabricConfig cfg = cfg4();
  shm::Fabric fabric(cfg);
  SpaceConfig a;
  a.id = kSpaceA;
  a.name = "con.a";
  a.cls = ConsistencyClass::kCON;
  a.size = 256;
  fabric.add_space(a);
  SpaceConfig b;
  b.id = kSpaceB;
  b.name = "ewo.b";
  b.cls = ConsistencyClass::kEWO;
  b.size = 256;
  fabric.add_space(b);
  fabric.install([]() { return std::unique_ptr<NfApp>(); });
  fabric.start();
  fabric.run_for(20 * kMs);
  std::vector<pkt::WriteOp> ops{{kSpaceA, 1, 2}, {kSpaceB, 1, 3}};
  bool released = false;
  EXPECT_FALSE(fabric.runtime(0).write(std::move(ops), pkt::Packet{},
                                       [&](pkt::Packet&&) { released = true; }));
  fabric.run_for(20 * kMs);
  EXPECT_FALSE(released);
  EXPECT_FALSE(fabric.runtime(0).write({}, pkt::Packet{}, [](pkt::Packet&&) {}));
}

TEST(Consensus, StaleMinorityAcceptNeverAppliesOnCommitAdvance) {
  // Failover divergence regression: replica 3 accepts a value at slot 1 from
  // a coordinator that then dies; the successor (whose promise quorum
  // excluded replica 3) fills slot 1 differently and commits. The learn for
  // slot 1 is lost, but a learn for slot 2 carries commit_upto = 2. The
  // commit prefix passing over slot 1 must NOT apply the stale
  // minority-accepted entry — it stays a gap until the repair learn names
  // slot 1 with the actually-chosen value.
  // Sparse stores distinguish "never written" from "written 0", which is
  // exactly what the divergence probe needs.
  Rig rig(cfg4(), SpaceKind::kSparse);
  rig.fabric.run_for(20 * kMs);
  // runtime(3) is switch id 4: a follower (switch 1 coordinates).
  auto* eng = dynamic_cast<ConsensusEngine*>(rig.fabric.runtime(3).engine_for_space(kSpaceA));
  ASSERT_NE(eng, nullptr);
  ASSERT_FALSE(eng->is_coordinator());
  const std::uint64_t b1 = (1000ULL << 32) | 4;  // dying coordinator (sw 3)
  const std::uint64_t b2 = (2000ULL << 32) | 3;  // its successor (sw 2)
  // Minority accept: only this replica ever saw value 111 at slot 1.
  eng->handle_message(pkt::ConAccept{0, b1, 1, 0, 3, 0x42, {{kSpaceA, 5, 111}}});
  EXPECT_EQ(eng->applied_upto(), 0u);
  // Successor's learn for slot 2 proves slots <= 2 committed — but our
  // slot-1 entry was accepted under the older ballot and may be superseded.
  eng->handle_message(pkt::ConLearn{0, b2, 2, 2, 2, 0x43, {{kSpaceA, 6, 222}}});
  EXPECT_FALSE(rig.stored(3, kSpaceA, 5).has_value())
      << "stale minority accept applied when the commit prefix passed it";
  EXPECT_EQ(eng->applied_upto(), 0u) << "must stall at the unchosen slot, not skip it";
  // The repair learn names slot 1 with the chosen no-op fill: the log
  // unblocks and applies in order, without ever surfacing value 111.
  eng->handle_message(pkt::ConLearn{0, b2, 1, 2, kInvalidNode, 0, {}});
  EXPECT_EQ(eng->applied_upto(), 2u);
  EXPECT_FALSE(rig.stored(3, kSpaceA, 5).has_value());
  EXPECT_EQ(rig.stored(3, kSpaceA, 6).value_or(~0ull), 222u);
}

TEST(Consensus, DeposedCoordinatorWriteRetriesInsteadOfStranding) {
  // A write proposed by the coordinator itself must carry the same retry
  // protection as a forwarded one: if the coordinator is deposed with the
  // slot in flight, the pending write re-routes (or fails after the retry
  // budget) instead of leaking its buffered packet forever.
  FabricConfig cfg = cfg4();
  cfg.link.propagation_delay = 1 * kMs;  // keep the accepts in flight
  Rig rig(cfg);
  rig.fabric.run_for(50 * kMs);
  auto* eng = dynamic_cast<ConsensusEngine*>(rig.fabric.runtime(0).engine_for_space(kSpaceA));
  ASSERT_NE(eng, nullptr);
  ASSERT_TRUE(eng->is_coordinator());
  rig.fabric.sw(0).inject(udp(55, 1007));
  rig.fabric.run_for(900 * kUs);  // proposed; ConAccepted replies still in flight
  EXPECT_EQ(eng->con_stats().writes_submitted.value(), 1u);
  // A higher-ballot prepare (naming switch 2 as coordinator) deposes
  // switch 1; the in-flight slot can never commit here and nobody answers
  // the re-routed forwards either (the rest of the fabric still believes in
  // switch 1), so the retry budget must eventually fail the write rather
  // than strand it.
  eng->handle_message(pkt::ConPrepare{0, (5000ULL << 32) | 3, 2});
  ASSERT_FALSE(eng->is_coordinator());
  rig.fabric.run_for(300 * kMs);  // > con_max_retries * con_retry_timeout
  EXPECT_EQ(eng->con_stats().writes_failed.value(), 1u)
      << "deposed coordinator's write neither re-routed nor failed: stranded";
  EXPECT_EQ(rig.delivered, 0u);
}

TEST(Consensus, SingleSwitchDeploymentCommitsSynchronously) {
  FabricConfig cfg;
  cfg.num_switches = 1;
  Rig rig(cfg);
  rig.fabric.run_for(10 * kMs);
  rig.fabric.sw(0).inject(udp(9, 4001));
  rig.fabric.run_for(10 * kMs);
  EXPECT_EQ(rig.delivered, 1u);
  EXPECT_EQ(rig.stored(0, kSpaceA, 1).value_or(~0ull), 9u);
  EXPECT_EQ(rig.stored(0, kSpaceB, 1).value_or(~0ull), 10u);
}

}  // namespace
}  // namespace swish::shm
