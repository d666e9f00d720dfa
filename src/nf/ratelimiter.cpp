#include "nf/ratelimiter.hpp"

namespace swish::nf {

void RateLimiterApp::setup(pisa::Switch& sw, shm::ShmRuntime& runtime) {
  limited_ = &sw.add_register_array("rl.limited", config_.user_slots, 1);
  window_base_.assign(config_.user_slots, 0);
  rt_ = &runtime;
  // Periodic meter read (§4.2: "periodically, the meters are read to
  // identify users exceeding their bandwidth limit").
  sw.start_packet_generator(config_.window, [this]() { window_tick(); });
}

void RateLimiterApp::process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) {
  if (!ctx.parsed || !ctx.parsed->ipv4) return;
  const pkt::Ipv4Addr src = ctx.parsed->ipv4->src;
  const auto slot = static_cast<RegisterIndex>(user_slot(src));

  if (limited_ && limited_->read(slot) != 0) {
    ++stats_.dropped_limited;
    return;
  }
  // The completion captures 16 trivially-copyable bytes, which std::function
  // stores inline: counting allocates nothing per packet.
  rt.update(kRateLimiterSpace, slot, static_cast<std::int64_t>(ctx.packet.size()),
            [this, src](std::uint64_t aggregate) { on_counted(src, aggregate); });
  ++stats_.passed;
  ctx.sw.deliver(std::move(ctx.packet));
}

void RateLimiterApp::on_counted(pkt::Ipv4Addr src, std::uint64_t aggregate) {
  const auto slot = static_cast<RegisterIndex>(user_slot(src));
  // A subnet-specific budget (longest matching prefix) overrides the global
  // default; deployments without subnet_space() read nullopt and pay nothing.
  std::uint64_t limit = config_.bytes_per_window;
  if (const auto sub = rt_->read_lpm(kRateLimiterPrefixSpace, src.value())) limit = *sub;
  // Inline over-limit check gives sub-window reaction on the switch that
  // carries most of the user's traffic; cross-switch aggregation catches the
  // rest at the window boundary.
  if (aggregate - window_base_[slot] > limit && limited_ && limited_->read(slot) == 0) {
    limited_->write(slot, 1);
    ++stats_.users_limited;
  }
}

void RateLimiterApp::window_tick() {
  for (std::size_t slot = 0; slot < config_.user_slots; ++slot) {
    window_base_[slot] = read_value(*rt_, kRateLimiterSpace, slot);
    if (limited_) limited_->write(static_cast<RegisterIndex>(slot), 0);
  }
}

}  // namespace swish::nf
