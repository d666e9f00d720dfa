#include "nf/heavyhitter.hpp"

namespace swish::nf {

void HeavyHitterApp::process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) {
  if (!ctx.parsed || !ctx.parsed->ipv4) {
    discard(ctx);
    return;
  }
  ++stats_.packets;
  const pkt::Ipv4Addr src = ctx.parsed->ipv4->src;
  // Count locally; the aggregate reflects every switch's traffic after the
  // EWO merge — the "network-wide" part, with no controller involved. The
  // completion captures 16 trivially-copyable bytes, which std::function
  // stores inline: counting allocates nothing per packet.
  rt.update(kHeavyHitterSpace, slot_of(src), 1,
            [this, src](std::uint64_t aggregate) { on_counted(src, aggregate); });
  ctx.sw.deliver(std::move(ctx.packet));
}

void HeavyHitterApp::on_counted(pkt::Ipv4Addr src, std::uint64_t aggregate) {
  const std::uint64_t slot = slot_of(src);
  if (aggregate < config_.threshold || reported_.contains(slot)) return;
  reported_.insert(slot);
  ++stats_.reports;
  const std::uint32_t mask = config_.prefix_len == 0 ? 0 : ~0u << (32 - config_.prefix_len);
  if (on_heavy_hitter) {
    on_heavy_hitter(pkt::Ipv4Addr(src.value() & mask), aggregate, sw_->simulator().now());
  }
}

}  // namespace swish::nf
