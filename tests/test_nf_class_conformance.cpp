// NF x consistency-class matrix: every (class, storage kind) cell a user can
// pick for an NF's shared space — what `swish_sim --space NAME=CLS[:KIND]`
// does — is either refused at install with std::invalid_argument or runs
// the NF correctly. No cell may crash, and none may install and then
// silently compute nothing.
//
// The functional checks go through the same four runtime calls for every
// class. Where they look at a second switch they honour the class's read
// contract: every replica answers for SRO/ERO/EWO/CON, while OWN reads are
// fresh only at the owner and the key's home (which holds the backup).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>

#include "nf/ddos.hpp"
#include "nf/firewall.hpp"
#include "nf/lb.hpp"
#include "nf/nat.hpp"
#include "nf/ratelimiter.hpp"
#include "swishmem/fabric.hpp"
#include "swishmem/protocols/owner_engine.hpp"

namespace swish::nf {
namespace {

using shm::ConsistencyClass;
using shm::SpaceKind;

/// One matrix cell: a class plus an optional storage kind (unset keeps the
/// NF's default kind, like `--space NAME=CLS`).
struct Cell {
  ConsistencyClass cls;
  std::optional<SpaceKind> kind;
};

/// Applies a cell exactly as swish_sim's --space override does.
shm::SpaceConfig with_cell(shm::SpaceConfig s, Cell c) {
  s.cls = c.cls;
  if (c.kind) {
    s.kind = *c.kind;
    if (*c.kind == SpaceKind::kSparse) s.table_backed = false;
  }
  return s;
}

bool counts(ConsistencyClass cls) {
  return cls == ConsistencyClass::kEWO || cls == ConsistencyClass::kOWN;
}

/// The install checks' verdict for a flow table (NAT / firewall / LB).
bool table_servable(const shm::SpaceConfig& s) {
  const bool registers_only = s.cls == ConsistencyClass::kEWO || s.cls == ConsistencyClass::kOWN;
  return s.sparse() || !s.table_backed || !registers_only;
}

/// The install checks' verdict for a counter (rate limiter / DDoS sketch).
bool counter_servable(const shm::SpaceConfig& s) {
  return counts(s.cls) && !(s.cls == ConsistencyClass::kEWO && s.sparse());
}

pkt::Packet tcp(pkt::Ipv4Addr src, pkt::Ipv4Addr dst, std::uint16_t sport, std::uint16_t dport,
                std::uint8_t flags) {
  pkt::PacketSpec spec;
  spec.ip_src = src;
  spec.ip_dst = dst;
  spec.protocol = pkt::kProtoTcp;
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.tcp_flags = flags;
  spec.payload.assign(8, 0x11);
  return pkt::build_packet(spec);
}

pkt::Packet udp(pkt::Ipv4Addr src, pkt::Ipv4Addr dst) {
  pkt::PacketSpec spec;
  spec.ip_src = src;
  spec.ip_dst = dst;
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = 4000;
  spec.dst_port = 53;
  spec.payload.assign(16, 0x22);
  return pkt::build_packet(spec);
}

std::uint64_t flow_key(const pkt::Packet& p) { return pkt::FlowKey::from(*p.parse()).hash(); }

const pkt::Ipv4Addr kInside{192, 168, 1, 10};
const pkt::Ipv4Addr kRemote{8, 8, 8, 8};
const pkt::Ipv4Addr kVip{10, 200, 0, 1};
const std::vector<pkt::Ipv4Addr> kBackends{{10, 0, 9, 1}, {10, 0, 9, 2}, {10, 0, 9, 3}};

/// A 4-switch fabric running one NF app per switch over `spaces`.
/// `installed` is false when the engines refused a space at install.
template <class App>
struct Rig {
  shm::Fabric fabric;
  std::vector<App*> apps;
  std::vector<pkt::Packet> delivered;
  bool installed = false;

  Rig(const std::vector<shm::SpaceConfig>& spaces, std::function<std::unique_ptr<App>()> make)
      : fabric(config()) {
    for (const auto& s : spaces) fabric.add_space(s);
    try {
      fabric.install([&]() {
        auto app = make();
        apps.push_back(app.get());
        return app;
      });
    } catch (const std::invalid_argument&) {
      return;
    }
    installed = true;
    fabric.start();
    fabric.set_delivery_sink([this](const pkt::Packet& p) { delivered.push_back(p); });
  }

  /// Index of the switch a packet for `key` is re-routed to: another switch
  /// for classes whose every replica serves reads, the key's home for OWN.
  std::size_t reroute_target(std::uint32_t space, std::uint64_t key) {
    const auto* own =
        dynamic_cast<const shm::OwnerEngine*>(fabric.runtime(0).engine_for_space(space));
    if (own == nullptr) return 2;
    const SwitchId home = own->home_of(space, key);
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      if (fabric.sw(i).id() == home) return i;
    }
    ADD_FAILURE() << "no switch is home of key " << key;
    return 0;
  }

  /// Sum over `keys` of the freshest copy on any switch: every replica's
  /// copy for EWO (which must also converge), the owner's for OWN.
  std::uint64_t aggregate(std::uint32_t space, const std::vector<std::uint64_t>& keys) {
    std::uint64_t total = 0;
    for (std::uint64_t key : keys) {
      std::uint64_t freshest = 0;
      for (std::size_t i = 0; i < fabric.size(); ++i) {
        freshest = std::max(freshest, read_value(fabric.runtime(i), space, key));
      }
      total += freshest;
    }
    return total;
  }

 private:
  static shm::FabricConfig config() {
    shm::FabricConfig c;
    c.num_switches = 4;
    return c;
  }
};

class NfClassConformance : public ::testing::TestWithParam<Cell> {};

TEST_P(NfClassConformance, NatTranslatesBothDirections) {
  const shm::SpaceConfig space = with_cell(NatApp::space(), GetParam());
  Rig<NatApp> rig({space}, [] { return std::make_unique<NatApp>(NatApp::Config{}); });
  ASSERT_EQ(rig.installed, table_servable(space));
  if (!rig.installed) return;

  rig.fabric.sw(0).inject(tcp(kInside, kRemote, 1234, 80, pkt::TcpFlags::kSyn));
  rig.fabric.run_for(50 * kMs);
  ASSERT_EQ(rig.delivered.size(), 1u) << "outbound SYN not released";
  const auto out = rig.delivered[0].parse();
  ASSERT_TRUE(out && out->ipv4);
  EXPECT_EQ(out->ipv4->src, NatApp::Config{}.public_ip);
  const std::uint16_t public_port = out->src_port();

  // The reply enters at the translation's owner and at a second switch.
  const pkt::Packet reply =
      tcp(kRemote, NatApp::Config{}.public_ip, 80, public_port, pkt::TcpFlags::kAck);
  const std::size_t other = rig.reroute_target(kNatSpace, flow_key(reply));
  for (std::size_t at : {std::size_t{0}, other}) {
    rig.delivered.clear();
    rig.fabric.sw(at).inject(reply);
    rig.fabric.run_for(20 * kMs);
    ASSERT_EQ(rig.delivered.size(), 1u) << "reply dropped at switch " << at;
    const auto in = rig.delivered[0].parse();
    ASSERT_TRUE(in && in->ipv4);
    EXPECT_EQ(in->ipv4->dst, kInside) << "switch " << at;
    EXPECT_EQ(in->dst_port(), 1234) << "switch " << at;
  }
}

TEST_P(NfClassConformance, FirewallAdmitsRepliesOnly) {
  const shm::SpaceConfig space = with_cell(FirewallApp::space(), GetParam());
  Rig<FirewallApp> rig({space},
                       [] { return std::make_unique<FirewallApp>(FirewallApp::Config{}); });
  ASSERT_EQ(rig.installed, table_servable(space));
  if (!rig.installed) return;

  rig.fabric.sw(0).inject(tcp(kInside, kRemote, 5555, 443, pkt::TcpFlags::kSyn));
  rig.fabric.run_for(50 * kMs);
  ASSERT_EQ(rig.delivered.size(), 1u) << "outbound SYN not released";

  const pkt::Packet reply = tcp(kRemote, kInside, 443, 5555, pkt::TcpFlags::kAck);
  const pkt::Packet unsolicited = tcp(kRemote, kInside, 443, 6666, pkt::TcpFlags::kSyn);
  const std::size_t other =
      rig.reroute_target(kFirewallSpace, pkt::FlowKey::from(*reply.parse()).canonical().hash());
  for (std::size_t at : {std::size_t{0}, other}) {
    rig.delivered.clear();
    rig.fabric.sw(at).inject(unsolicited);
    rig.fabric.run_for(20 * kMs);
    EXPECT_TRUE(rig.delivered.empty()) << "unsolicited inbound admitted at switch " << at;
    rig.fabric.sw(at).inject(reply);
    rig.fabric.run_for(20 * kMs);
    EXPECT_EQ(rig.delivered.size(), 1u) << "reply dropped at switch " << at;
  }
}

TEST_P(NfClassConformance, LbKeepsAffinityForReroutedFlow) {
  // Both lb.* spaces take the cell, so engines that serve both run the
  // connection install and the DIP refcount bump as one write.
  const shm::SpaceConfig conn = with_cell(LoadBalancerApp::space(), GetParam());
  const shm::SpaceConfig refs =
      with_cell(LoadBalancerApp::refcount_space(kBackends.size()), GetParam());
  Rig<LoadBalancerApp> rig({conn, refs}, [] {
    return std::make_unique<LoadBalancerApp>(LoadBalancerApp::Config{kVip, kBackends, 65536});
  });
  ASSERT_EQ(rig.installed, table_servable(conn));
  if (!rig.installed) return;

  const pkt::Packet syn = tcp(kRemote, kVip, 40000, 80, pkt::TcpFlags::kSyn);
  rig.fabric.sw(0).inject(syn);
  rig.fabric.run_for(50 * kMs);
  ASSERT_EQ(rig.delivered.size(), 1u) << "SYN not forwarded";
  const pkt::Ipv4Addr dip = rig.delivered[0].parse()->ipv4->dst;
  EXPECT_NE(dip, kVip);

  const std::size_t other = rig.reroute_target(kLbSpace, flow_key(syn));
  rig.delivered.clear();
  rig.fabric.sw(other).inject(tcp(kRemote, kVip, 40000, 80, pkt::TcpFlags::kAck));
  rig.fabric.run_for(20 * kMs);
  ASSERT_EQ(rig.delivered.size(), 1u) << "re-routed packet dropped at switch " << other;
  EXPECT_EQ(rig.delivered[0].parse()->ipv4->dst, dip);
  for (const LoadBalancerApp* app : rig.apps) EXPECT_EQ(app->stats().pcc_violations, 0u);
}

TEST_P(NfClassConformance, RateLimiterCountsFabricWideBytes) {
  const shm::SpaceConfig space = with_cell(RateLimiterApp::space(), GetParam());
  Rig<RateLimiterApp> rig({space, RateLimiterApp::subnet_space()}, [] {
    return std::make_unique<RateLimiterApp>(RateLimiterApp::Config{});
  });
  ASSERT_EQ(rig.installed, counter_servable(space));
  if (!rig.installed) return;

  const pkt::Packet p = udp(kInside, kRemote);
  constexpr std::size_t kPackets = 12;
  for (std::size_t n = 0; n < kPackets; ++n) rig.fabric.sw(n % 4).inject(p);
  rig.fabric.run_for(50 * kMs);  // OWN: covers acquisition retries
  const std::uint64_t slot = rig.apps[0]->user_slot(kInside);
  EXPECT_EQ(rig.aggregate(kRateLimiterSpace, {slot}), kPackets * p.size());
  if (space.cls == ConsistencyClass::kEWO) {
    for (std::size_t i = 0; i < rig.fabric.size(); ++i) {
      EXPECT_EQ(read_value(rig.fabric.runtime(i), kRateLimiterSpace, slot), kPackets * p.size())
          << "switch " << i;
    }
  }
}

/// Injects packets to one victim across the fabric and checks a DDoS space
/// (the sketch or the packet total) counted every one of them.
void expect_ddos_counts(const shm::SpaceConfig& sketch, const shm::SpaceConfig& total,
                        const shm::SpaceConfig& overridden) {
  Rig<DdosDetectorApp> rig({sketch, total}, [] {
    return std::make_unique<DdosDetectorApp>(DdosDetectorApp::Config{});
  });
  ASSERT_EQ(rig.installed, counter_servable(overridden));
  if (!rig.installed) return;

  constexpr std::size_t kPackets = 20;
  for (std::size_t n = 0; n < kPackets; ++n) rig.fabric.sw(n % 4).inject(udp(kRemote, kInside));
  rig.fabric.run_for(50 * kMs);  // OWN: covers acquisition retries
  // Every packet bumps exactly one cell per sketch row: row 0 (keys
  // [0, cols)) sums to the packet count, as does the total's key 0.
  std::vector<std::uint64_t> keys{0};
  if (overridden.id == kDdosSketchSpace) {
    keys.clear();
    for (std::uint64_t k = 0; k < DdosDetectorApp::Config{}.sketch_cols; ++k) keys.push_back(k);
  }
  EXPECT_EQ(rig.aggregate(overridden.id, keys), kPackets);
}

TEST_P(NfClassConformance, DdosSketchCountsFabricWidePackets) {
  const shm::SpaceConfig sketch = with_cell(DdosDetectorApp::sketch_space(), GetParam());
  expect_ddos_counts(sketch, DdosDetectorApp::total_space(), sketch);
}

TEST_P(NfClassConformance, DdosTotalCountsFabricWidePackets) {
  const shm::SpaceConfig total = with_cell(DdosDetectorApp::total_space(), GetParam());
  expect_ddos_counts(DdosDetectorApp::sketch_space(), total, total);
}

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (ConsistencyClass cls : {ConsistencyClass::kSRO, ConsistencyClass::kERO,
                               ConsistencyClass::kEWO, ConsistencyClass::kOWN,
                               ConsistencyClass::kCON}) {
    for (std::optional<SpaceKind> kind :
         {std::optional<SpaceKind>{}, std::optional<SpaceKind>{SpaceKind::kDense},
          std::optional<SpaceKind>{SpaceKind::kSparse}}) {
      cells.push_back({cls, kind});
    }
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(AllCells, NfClassConformance, ::testing::ValuesIn(all_cells()),
                         [](const ::testing::TestParamInfo<Cell>& info) {
                           return std::string(shm::to_string(info.param.cls)) + "_" +
                                  (info.param.kind ? shm::to_string(*info.param.kind)
                                                   : "default");
                         });

}  // namespace
}  // namespace swish::nf
