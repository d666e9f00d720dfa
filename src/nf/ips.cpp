#include "nf/ips.hpp"

namespace swish::nf {

void IpsApp::setup(pisa::Switch& sw, shm::ShmRuntime&) {
  // Per-source match counters are detection state local to each switch;
  // only the signature store is shared.
  match_counts_ = &sw.add_register_array("ips.match_counts", config_.blocklist_size, 32);
}

std::uint64_t IpsApp::signature_of(std::span<const std::uint8_t> payload) noexcept {
  // FNV-1a over the payload: cheap enough to imagine in a pipeline stage.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : payload) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h == 0 ? 1 : h;  // 0 means "empty slot" in the shared store
}

void IpsApp::install_signature(shm::ShmRuntime& rt, std::uint64_t signature) {
  ++stats_.signatures_installed;
  std::vector<pkt::WriteOp> ops{{kIpsSignatureSpace, slot_of(signature), signature}};
  rt.write(std::move(ops), pkt::Packet{}, nullptr);
}

void IpsApp::process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) {
  if (!ctx.parsed || !ctx.parsed->ipv4) return;
  const pkt::ParsedPacket& p = *ctx.parsed;
  const std::uint64_t src_slot = p.ipv4->src.value() % config_.blocklist_size;

  const bool blocked =
      config_.shared_blocklist
          ? read_value(rt, kIpsBlocklistSpace, src_slot) != 0
          : match_counts_ && match_counts_->read(static_cast<RegisterIndex>(src_slot)) >=
                                 config_.block_threshold;
  if (blocked) {
    ++stats_.dropped_blocked;
    return;
  }

  const std::uint64_t sig = signature_of(ctx.packet.l4_payload(p));
  std::uint64_t stored = 0;
  // ERO answers locally; a strong class may redirect to its tail instead.
  const shm::ReadStatus status = rt.read(&ctx, kIpsSignatureSpace, slot_of(sig), stored);
  if (status == shm::ReadStatus::kRedirected) return;
  if (status == shm::ReadStatus::kOk && stored == sig) {
    ++stats_.matches;
    if (match_counts_) {
      const std::uint64_t count = match_counts_->add(static_cast<RegisterIndex>(src_slot), 1);
      if (config_.shared_blocklist && count >= config_.block_threshold) {
        // Publish the block decision fabric-wide (grow-only set: a blocked
        // source stays blocked everywhere, regardless of delivery order).
        rt.write({{kIpsBlocklistSpace, src_slot, 1}}, pkt::Packet{}, nullptr);
      }
    }
    return;  // matched packet dropped
  }
  ++stats_.passed;
  ctx.sw.deliver(std::move(ctx.packet));
}

}  // namespace swish::nf
