// End-to-end smoke tests: a small fabric running both protocol classes.
#include <gtest/gtest.h>

#include "nf/common.hpp"
#include "swishmem/fabric.hpp"

namespace swish {
namespace {

constexpr std::uint32_t kCtrSpace = 10;
constexpr std::uint32_t kRegSpace = 11;

/// Test NF: UDP packets to port 1111 increment an EWO counter keyed by dst
/// port payload; packets to port 2222 perform an SRO register write.
class TestApp : public shm::NfApp {
 public:
  void process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) override {
    if (!ctx.parsed || !ctx.parsed->udp) return;
    if (ctx.parsed->udp->dst_port == 1111) {
      rt.update(kCtrSpace, 0, 1, nullptr);
      ctx.sw.deliver(std::move(ctx.packet));
    } else if (ctx.parsed->udp->dst_port == 2222) {
      std::vector<pkt::WriteOp> ops{{kRegSpace, 5, 42}};
      pisa::Switch* sw = &ctx.sw;
      rt.write(std::move(ops), std::move(ctx.packet),
               [sw](pkt::Packet&& p) { sw->deliver(std::move(p)); });
    }
  }
};

pkt::Packet udp_packet(std::uint16_t dst_port) {
  pkt::PacketSpec spec;
  spec.ip_src = pkt::Ipv4Addr(1, 2, 3, 4);
  spec.ip_dst = pkt::Ipv4Addr(10, 0, 0, 1);
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = 5555;
  spec.dst_port = dst_port;
  spec.payload = {1, 2, 3, 4};
  return pkt::build_packet(spec);
}

shm::FabricConfig smoke_config() {
  shm::FabricConfig cfg;
  cfg.num_switches = 3;
  return cfg;
}

TEST(Smoke, EwoCounterConvergesAcrossSwitches) {
  shm::Fabric fabric(smoke_config());
  shm::SpaceConfig ctr;
  ctr.id = kCtrSpace;
  ctr.name = "test.ctr";
  ctr.cls = shm::ConsistencyClass::kEWO;
  ctr.merge = shm::MergePolicy::kGCounter;
  ctr.size = 4;
  fabric.add_space(ctr);
  fabric.install([] { return std::make_unique<TestApp>(); });
  fabric.start();

  // 10 increments at switch 0, 5 at switch 1.
  for (int i = 0; i < 10; ++i) fabric.sw(0).inject(udp_packet(1111));
  for (int i = 0; i < 5; ++i) fabric.sw(1).inject(udp_packet(1111));
  fabric.run_for(50 * kMs);

  for (std::size_t i = 0; i < fabric.size(); ++i) {
    EXPECT_EQ(nf::read_value(fabric.runtime(i), kCtrSpace, 0), 15u) << "switch " << i;
  }
}

TEST(Smoke, SroWriteCommitsOnAllReplicasAndReleasesOutput) {
  shm::Fabric fabric(smoke_config());
  shm::SpaceConfig reg;
  reg.id = kRegSpace;
  reg.name = "test.reg";
  reg.cls = shm::ConsistencyClass::kSRO;
  reg.size = 16;
  fabric.add_space(reg);
  fabric.install([] { return std::make_unique<TestApp>(); });
  fabric.start();

  std::uint64_t delivered = 0;
  fabric.set_delivery_sink([&](const pkt::Packet&) { ++delivered; });

  fabric.sw(2).inject(udp_packet(2222));  // write from a non-head switch
  fabric.run_for(100 * kMs);

  EXPECT_EQ(delivered, 1u);  // output released only after commit
  EXPECT_EQ(fabric.runtime(2).stats().writes_committed, 1u);
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    ASSERT_NE(fabric.runtime(i).sro_space(kRegSpace), nullptr);
    EXPECT_EQ(fabric.runtime(i).sro_space(kRegSpace)->read(5).value_or(0), 42u)
        << "switch " << i;
  }
}

}  // namespace
}  // namespace swish
