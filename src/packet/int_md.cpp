#include "packet/int_md.hpp"

#include <cstring>

#include "packet/headers.hpp"

namespace swish::pkt {

namespace {

/// Minimum bytes of real packet that must precede a trailer for it to be
/// structurally plausible (an Ethernet header at the very least).
constexpr std::size_t kMinPacketBytes = kEthernetHeaderLen;

std::uint32_t read_u32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

std::uint64_t read_u64(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint64_t>(read_u32(p)) << 32) | read_u32(p + 4);
}

/// Validated trailer geometry; count/cap/flags plus where the hop records
/// start. Returns false when the tail is not a consistent INT trailer.
struct Geometry {
  std::size_t hops_offset = 0;
  std::uint8_t count = 0;
  std::uint8_t cap = 0;
  std::uint8_t flags = 0;
};

bool geometry(std::span<const std::uint8_t> b, Geometry& g) noexcept {
  if (b.size() < kMinPacketBytes + kIntTrailerBytes) return false;
  const std::size_t n = b.size();
  if (read_u32(&b[n - 4]) != kIntMagic) return false;
  if (b[n - 5] != kIntVersion) return false;
  g.flags = b[n - 6];
  g.cap = b[n - 7];
  g.count = b[n - 8];
  if (g.cap == 0 || g.count > g.cap) return false;
  const std::size_t hop_bytes = static_cast<std::size_t>(g.count) * kIntHopBytes;
  if (n < kMinPacketBytes + kIntTrailerBytes + hop_bytes) return false;
  g.hops_offset = n - kIntTrailerBytes - hop_bytes;
  return true;
}

}  // namespace

void write_int_trailer(SpanWriter& w, std::uint8_t hop_cap) {
  w.u8(0);                           // hop_count
  w.u8(hop_cap == 0 ? 1 : hop_cap);  // hop_cap
  w.u8(0);                           // flags
  w.u8(kIntVersion);
  w.u32(kIntMagic);
}

Packet with_int_trailer(const Packet& packet, std::uint8_t hop_cap) {
  const auto src = packet.bytes();
  return Packet::build(src.size() + kIntTrailerBytes, [&](std::span<std::uint8_t> out) {
    SpanWriter w(out);
    w.raw(src);
    write_int_trailer(w, hop_cap);
  });
}

bool has_int_trailer(const Packet& packet) noexcept {
  Geometry g;
  return geometry(packet.bytes(), g);
}

std::size_t int_trailer_size(const Packet& packet) noexcept {
  Geometry g;
  if (!geometry(packet.bytes(), g)) return 0;
  return kIntTrailerBytes + static_cast<std::size_t>(g.count) * kIntHopBytes;
}

Packet push_int_hop(const Packet& packet, const telemetry::IntHop& hop, bool* truncated) {
  if (truncated != nullptr) *truncated = false;
  Geometry g;
  const auto src = packet.bytes();
  if (!geometry(src, g)) return packet;
  const std::size_t n = src.size();
  if (g.count >= g.cap) {
    // Stack full: record only that the path outgrew it.
    if (truncated != nullptr) *truncated = true;
    return Packet::build(n, [&](std::span<std::uint8_t> out) {
      std::memcpy(out.data(), src.data(), n);
      out[n - 6] = static_cast<std::uint8_t>(g.flags | kIntFlagTruncated);
    });
  }
  // New hop goes at the top of the stack, directly before the fixed tail.
  return Packet::build(n + kIntHopBytes, [&](std::span<std::uint8_t> out) {
    SpanWriter w(out);
    w.raw(src.first(n - kIntTrailerBytes));
    w.u32(hop.switch_id);
    w.u64(static_cast<std::uint64_t>(hop.ingress_ts));
    w.u64(static_cast<std::uint64_t>(hop.egress_ts));
    w.u32(hop.queue_depth);
    w.u32(hop.rule_hit);
    w.raw(src.last(kIntTrailerBytes));
    out[out.size() - 8] = static_cast<std::uint8_t>(g.count + 1);
  });
}

std::optional<IntStack> read_int_stack(const Packet& packet) {
  Geometry g;
  const auto b = packet.bytes();
  if (!geometry(b, g)) return std::nullopt;
  IntStack stack;
  stack.hop_cap = g.cap;
  stack.truncated = (g.flags & kIntFlagTruncated) != 0;
  stack.hops.reserve(g.count);
  for (std::size_t i = 0; i < g.count; ++i) {
    const std::uint8_t* rec = &b[g.hops_offset + i * kIntHopBytes];
    telemetry::IntHop hop;
    hop.switch_id = read_u32(rec);
    hop.ingress_ts = static_cast<TimeNs>(read_u64(rec + 4));
    hop.egress_ts = static_cast<TimeNs>(read_u64(rec + 12));
    hop.queue_depth = read_u32(rec + 20);
    hop.rule_hit = read_u32(rec + 24);
    stack.hops.push_back(hop);
  }
  return stack;
}

Packet strip_int_trailer(const Packet& packet) {
  Geometry g;
  const auto src = packet.bytes();
  if (!geometry(src, g)) return packet;
  return Packet(src.first(g.hops_offset));
}

}  // namespace swish::pkt
