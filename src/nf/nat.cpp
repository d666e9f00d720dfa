#include "nf/nat.hpp"

#include <memory>

namespace swish::nf {

void NatApp::process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) {
  if (!ctx.parsed || !ctx.parsed->ipv4 || (!ctx.parsed->tcp && !ctx.parsed->udp)) return;
  const pkt::ParsedPacket& p = *ctx.parsed;
  if (in_prefix(p.ipv4->src, config_.internal_prefix, config_.internal_prefix_len)) {
    outbound(ctx, rt, p);
  } else if (p.ipv4->dst == config_.public_ip) {
    inbound(ctx, rt, p);
  } else {
    ctx.sw.deliver(std::move(ctx.packet));  // transit traffic: not ours
  }
}

void NatApp::outbound(pisa::PacketContext& ctx, shm::ShmRuntime& rt,
                      const pkt::ParsedPacket& p) {
  const std::uint64_t key = pkt::FlowKey::from(p).hash();
  std::uint64_t mapping = 0;
  switch (rt.read(&ctx, kNatSpace, key, mapping)) {
    case shm::ReadStatus::kOk: {
      ++stats_.translated_out;
      ctx.sw.deliver(pkt::rewrite_l3l4(ctx.packet, p, endpoint_ip(mapping), std::nullopt,
                                       endpoint_port(mapping), std::nullopt));
      return;
    }
    case shm::ReadStatus::kRedirected:
      ++stats_.redirected;
      return;
    case shm::ReadStatus::kMiss:
      break;
  }

  if (config_.shared_port_pool) {
    // New connection, shared pool: fetch-add the fabric-wide next-port
    // counter through the OWN engine. The mapping install and packet release
    // run once the allocation completes — immediately when this switch
    // already owns the counter key, after one ownership migration otherwise.
    const pkt::Ipv4Addr internal_ip = p.ipv4->src;
    const pkt::Ipv4Addr remote_ip = p.ipv4->dst;
    const std::uint16_t internal_port = p.src_port();
    const std::uint16_t remote_port = p.dst_port();
    const std::uint8_t protocol = p.ipv4->protocol;
    pisa::Switch* sw = &ctx.sw;
    shm::ShmRuntime* rtp = &rt;
    // UpdateDone must be copyable; the held packet is shared, moved out once.
    auto packet = std::make_shared<pkt::Packet>(std::move(ctx.packet));
    rt.update(kNatPortPoolSpace, 0, 1,
              [this, sw, rtp, packet, key, internal_ip, internal_port, remote_ip, remote_port,
               protocol](std::uint64_t next) {
                ++stats_.pool_allocations;
                ++stats_.new_connections;
                const auto public_port = static_cast<std::uint16_t>(
                    config_.port_base + (next - 1) % config_.pool_size);
                install_mapping(*sw, *rtp, std::move(*packet), key, public_port, internal_ip,
                                internal_port, remote_ip, remote_port, protocol);
              });
    return;
  }

  // New connection: allocate a port from this switch's disjoint range (the
  // pool is sharded, so no shared state is touched, §4.1).
  if (next_port_offset_ >= config_.port_span) {
    // Wrap: stale mappings are assumed expired. A production NAT would track
    // free ports; the simulation's flow counts stay below the span.
    next_port_offset_ = 0;
    ++stats_.dropped_pool_exhausted;
  }
  const std::uint16_t public_port = static_cast<std::uint16_t>(
      config_.port_base + ctx.sw.id() * config_.port_span + next_port_offset_++);
  ++stats_.new_connections;

  // Both directions of the mapping commit as one multi-key transaction: one
  // consensus log slot under kCON, one chain write request under the chain
  // classes.
  const pkt::FlowKey reverse{p.ipv4->dst, config_.public_ip, p.dst_port(), public_port,
                             p.ipv4->protocol};
  std::vector<pkt::WriteOp> ops{
      {kNatSpace, key, pack_endpoint(config_.public_ip, public_port)},
      {kNatSpace, reverse.hash(), pack_endpoint(p.ipv4->src, p.src_port())},
  };
  pkt::Packet out = pkt::rewrite_l3l4(ctx.packet, p, config_.public_ip, std::nullopt,
                                      public_port, std::nullopt);
  pisa::Switch* sw = &ctx.sw;
  rt.write(std::move(ops), std::move(out),
           [sw](pkt::Packet&& released) { sw->deliver(std::move(released)); });
}

void NatApp::install_mapping(pisa::Switch& sw, shm::ShmRuntime& rt, pkt::Packet packet,
                             std::uint64_t key, std::uint16_t public_port,
                             pkt::Ipv4Addr internal_ip, std::uint16_t internal_port,
                             pkt::Ipv4Addr remote_ip, std::uint16_t remote_port,
                             std::uint8_t protocol) {
  // Both directions of the mapping commit as one multi-key transaction (see
  // outbound() above for the class-by-class atomicity guarantees).
  const pkt::FlowKey reverse{remote_ip, config_.public_ip, remote_port, public_port, protocol};
  std::vector<pkt::WriteOp> ops{
      {kNatSpace, key, pack_endpoint(config_.public_ip, public_port)},
      {kNatSpace, reverse.hash(), pack_endpoint(internal_ip, internal_port)},
  };
  auto parsed = packet.parse();
  if (!parsed) return;
  pkt::Packet out = pkt::rewrite_l3l4(packet, *parsed, config_.public_ip, std::nullopt,
                                      public_port, std::nullopt);
  pisa::Switch* swp = &sw;
  rt.write(std::move(ops), std::move(out),
           [swp](pkt::Packet&& released) { swp->deliver(std::move(released)); });
}

void NatApp::inbound(pisa::PacketContext& ctx, shm::ShmRuntime& rt, const pkt::ParsedPacket& p) {
  const std::uint64_t key = pkt::FlowKey::from(p).hash();
  std::uint64_t mapping = 0;
  switch (rt.read(&ctx, kNatSpace, key, mapping)) {
    case shm::ReadStatus::kOk:
      ++stats_.translated_in;
      ctx.sw.deliver(pkt::rewrite_l3l4(ctx.packet, p, std::nullopt, endpoint_ip(mapping),
                                       std::nullopt, endpoint_port(mapping)));
      return;
    case shm::ReadStatus::kRedirected:
      ++stats_.redirected;
      return;
    case shm::ReadStatus::kMiss:
      ++stats_.dropped_no_mapping;  // unsolicited inbound: drop
      return;
  }
}

}  // namespace swish::nf
