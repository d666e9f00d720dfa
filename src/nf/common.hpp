// Shared helpers for the NF implementations of §4 / Table 1.
#pragma once

#include <cstdint>

#include "packet/flow.hpp"
#include "swishmem/runtime.hpp"

namespace swish::nf {

/// Register-space ids used by the bundled NFs (one id space per deployment;
/// deploy at most one NF per space id or renumber).
inline constexpr std::uint32_t kNatSpace = 1;
inline constexpr std::uint32_t kFirewallSpace = 2;
inline constexpr std::uint32_t kIpsSignatureSpace = 3;
inline constexpr std::uint32_t kLbSpace = 4;
inline constexpr std::uint32_t kDdosSketchSpace = 5;
inline constexpr std::uint32_t kDdosTotalSpace = 6;
inline constexpr std::uint32_t kRateLimiterSpace = 7;
inline constexpr std::uint32_t kIpsBlocklistSpace = 8;
inline constexpr std::uint32_t kNatPortPoolSpace = 9;
inline constexpr std::uint32_t kFirewallPrefixSpace = 10;
inline constexpr std::uint32_t kRateLimiterPrefixSpace = 11;
inline constexpr std::uint32_t kLbRefcountSpace = 12;

/// Ends the packet in `ctx` without delivering it. Every NF discard goes
/// through here so it is mirrored as a typed drop (DropReason::kNfDiscard)
/// at this switch, like any other loss in the fabric.
inline void discard(pisa::PacketContext& ctx) {
  ctx.sw.report_drop(telemetry::DropReason::kNfDiscard, &ctx.packet);
}

/// Local read outside packet processing (window ticks, sketch queries,
/// reports): the key's value, or 0 when it has no live entry.
inline std::uint64_t read_value(shm::ShmRuntime& rt, std::uint32_t space, std::uint64_t key) {
  std::uint64_t value = 0;
  rt.read(nullptr, space, key, value);
  return value;
}

/// Packs an (IPv4, L4 port) endpoint into one 64-bit register value.
constexpr std::uint64_t pack_endpoint(pkt::Ipv4Addr ip, std::uint16_t port) noexcept {
  return (static_cast<std::uint64_t>(ip.value()) << 16) | port;
}

constexpr pkt::Ipv4Addr endpoint_ip(std::uint64_t packed) noexcept {
  return pkt::Ipv4Addr(static_cast<std::uint32_t>(packed >> 16));
}

constexpr std::uint16_t endpoint_port(std::uint64_t packed) noexcept {
  return static_cast<std::uint16_t>(packed & 0xffff);
}

/// True when `addr` falls inside prefix/len.
constexpr bool in_prefix(pkt::Ipv4Addr addr, pkt::Ipv4Addr prefix, unsigned len) noexcept {
  if (len == 0) return true;
  const std::uint32_t mask = ~0u << (32 - len);
  return (addr.value() & mask) == (prefix.value() & mask);
}

}  // namespace swish::nf
