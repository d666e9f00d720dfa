// Distributed NAT (§4.1): the translation table is shared with strong
// consistency (SRO, table-backed — connection tables on real switches are
// control-plane tables). The free-port pool has two modes:
//
//   sharded (default)  — each switch owns a disjoint port range, so the pool
//                        needs no shared state at all, as the paper
//                        prescribes for partitionable resources;
//   shared (kOWN)      — one global next-port counter allocated with the
//                        owner engine's linearizable fetch-add. The counter
//                        key migrates to whichever switch allocates, so a
//                        stable ingress allocates at data-plane speed while
//                        correctness (no duplicate port handed to two
//                        switches) holds under arbitrary re-routing.
#pragma once

#include <cstdint>

#include "nf/common.hpp"

namespace swish::nf {

class NatApp : public shm::NfApp {
 public:
  struct Config {
    pkt::Ipv4Addr internal_prefix{192, 168, 0, 0};
    unsigned internal_prefix_len = 16;
    pkt::Ipv4Addr public_ip{203, 0, 113, 1};
    /// Each switch owns ports [base + id*span, base + (id+1)*span).
    std::uint16_t port_base = 10000;
    std::uint16_t port_span = 2048;
    std::size_t table_size = 65536;
    /// Allocate public ports from one fabric-wide pool (kNatPortPoolSpace,
    /// kOWN) instead of the per-switch sharded ranges.
    bool shared_port_pool = false;
    /// Shared-pool mode: ports cycle through [port_base, port_base + pool_size).
    std::uint32_t pool_size = 40000;
  };

  struct Stats {
    std::uint64_t translated_out = 0;
    std::uint64_t translated_in = 0;
    std::uint64_t new_connections = 0;
    std::uint64_t dropped_no_mapping = 0;
    std::uint64_t dropped_pool_exhausted = 0;
    std::uint64_t redirected = 0;
    std::uint64_t pool_allocations = 0;  ///< shared-pool fetch-adds completed
  };

  explicit NatApp(Config config) : config_(config) {}

  /// The shared space this NF needs; add to the fabric before install().
  static shm::SpaceConfig space(std::size_t table_size = 65536) {
    shm::SpaceConfig s;
    s.id = kNatSpace;
    s.name = "nat.translation";
    s.cls = shm::ConsistencyClass::kSRO;
    s.size = table_size;
    s.table_backed = true;
    return s;
  }

  /// The shared port-pool counter space (only needed with shared_port_pool).
  static shm::SpaceConfig port_pool_space() {
    shm::SpaceConfig s;
    s.id = kNatPortPoolSpace;
    s.name = "nat.port_pool";
    s.cls = shm::ConsistencyClass::kOWN;
    s.merge = shm::MergePolicy::kGCounter;  // fetch-add: classes without update() refuse it
    s.size = 16;  // one counter key; small register footprint
    return s;
  }

  void process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) override;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void outbound(pisa::PacketContext& ctx, shm::ShmRuntime& rt, const pkt::ParsedPacket& p);
  void inbound(pisa::PacketContext& ctx, shm::ShmRuntime& rt, const pkt::ParsedPacket& p);
  void install_mapping(pisa::Switch& sw, shm::ShmRuntime& rt, pkt::Packet packet,
                       std::uint64_t key, std::uint16_t public_port, pkt::Ipv4Addr internal_ip,
                       std::uint16_t internal_port, pkt::Ipv4Addr remote_ip,
                       std::uint16_t remote_port, std::uint8_t protocol);

  Config config_;
  Stats stats_;
  std::uint16_t next_port_offset_ = 0;
};

}  // namespace swish::nf
