// The simulated packet: a refcounted immutable byte buffer plus a
// lazily-parsed, cached L2-L4 view.
//
// Copying a Packet never copies bytes — copies share one underlying buffer,
// so forwarding, multicast fan-out, egress-queue closures, and taps are all
// zero-copy. Rewrites (rewrite_l3l4, the NAT/LB data paths) produce a fresh
// buffer: copy-on-write semantics. Because buffers are immutable, the parse
// result is computed at most once per distinct buffer and shared by every
// Packet handle referencing it (a packet parsed at the ingress switch is not
// re-parsed at later hops, taps, or recirculations).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "packet/headers.hpp"

namespace swish::pkt {

/// Parsed view of a packet's stacked headers. Offsets index into the raw
/// bytes so payloads can be sliced without copying.
struct ParsedPacket {
  EthernetHeader eth;
  std::optional<Ipv4Header> ipv4;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::size_t l4_payload_offset = 0;

  [[nodiscard]] bool is_tcp() const noexcept { return tcp.has_value(); }
  [[nodiscard]] bool is_udp() const noexcept { return udp.has_value(); }
  [[nodiscard]] std::uint16_t src_port() const noexcept {
    return tcp ? tcp->src_port : (udp ? udp->src_port : 0);
  }
  [[nodiscard]] std::uint16_t dst_port() const noexcept {
    return tcp ? tcp->dst_port : (udp ? udp->dst_port : 0);
  }
};

/// Relaxed atomic counter with plain-integer ergonomics. The packet-layer
/// stats are process-global while the sharded simulator runs one thread per
/// shard, so the bumps must be atomic; relaxed ordering keeps them a single
/// uncontended RMW (each counter is a pure tally — no ordering is derived
/// from it, totals are read after the run joins).
class RelaxedCounter {
 public:
  constexpr RelaxedCounter() noexcept = default;
  void operator++() noexcept { v_.fetch_add(1, std::memory_order_relaxed); }
  void operator+=(std::uint64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  operator std::uint64_t() const noexcept {  // NOLINT(google-explicit-constructor)
    return v_.load(std::memory_order_relaxed);
  }

 private:
  friend struct PacketStats;
  std::atomic<std::uint64_t> v_{0};
};

/// Data-path instrumentation (single global instance, shared by every shard).
/// Cheap enough to keep always-on: a few relaxed bumps per buffer/parse,
/// nothing per-copy.
struct PacketStats {
  RelaxedCounter buffers_created;   ///< fresh buffer allocations
  RelaxedCounter buffer_bytes;      ///< bytes placed into fresh buffers
  RelaxedCounter parse_executions;  ///< full header-stack parses run
  RelaxedCounter parse_cache_hits;  ///< parse() answered from the buffer cache
  RelaxedCounter rewrite_copies;    ///< copy-on-write buffer materializations
  RelaxedCounter rewrite_bytes;     ///< bytes copied by those rewrites

  void reset() noexcept {
    for (RelaxedCounter* c : {&buffers_created, &buffer_bytes, &parse_executions,
                              &parse_cache_hits, &rewrite_copies, &rewrite_bytes}) {
      c->v_.store(0, std::memory_order_relaxed);
    }
  }
  static PacketStats& global() noexcept;
};

/// An immutable network packet backed by a shared buffer. Rewrites go
/// through the builder helpers, producing fresh bytes with fixed checksums.
///
/// The buffer is one heap block: an atomic reference count (handles cross
/// shard threads), the parse cache, then the bytes.
class Packet {
 public:
  Packet() noexcept = default;
  /// Copies `bytes` into a fresh buffer.
  explicit Packet(std::span<const std::uint8_t> bytes);

  /// A fresh `size`-byte packet whose bytes `fill` writes; `fill` receives
  /// them as a std::span<std::uint8_t>. This is the only moment a buffer is
  /// mutable: no copy or parse of the packet exists yet.
  template <class Fill>
  static Packet build(std::size_t size, Fill&& fill) {
    Packet p(allocate(size));
    fill(std::span<std::uint8_t>(p.buf_->data(), size));
    return p;
  }

  Packet(const Packet& other) noexcept : buf_(other.buf_) {
    if (buf_) ++buf_->refs;
  }
  Packet(Packet&& other) noexcept : buf_(std::exchange(other.buf_, nullptr)) {}
  Packet& operator=(Packet other) noexcept {  // copy or move, then swap
    std::swap(buf_, other.buf_);
    return *this;
  }
  ~Packet() { release(); }

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    if (!buf_) return {};
    return {buf_->data(), buf_->size};
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_ ? buf_->size : 0; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Parses the header stack; returns nullopt on truncation / bad checksum /
  /// non-IPv4. The result is cached on the shared buffer, so repeated calls
  /// (including through copies of this packet) parse at most once.
  [[nodiscard]] std::optional<ParsedPacket> parse() const;

  /// Cached-parse accessor without the optional copy: nullptr when the
  /// packet is empty or unparseable.
  [[nodiscard]] const ParsedPacket* parsed() const;

  [[nodiscard]] std::span<const std::uint8_t> l4_payload(const ParsedPacket& p) const noexcept {
    const auto b = bytes();
    if (p.l4_payload_offset >= b.size()) return {};
    return b.subspan(p.l4_payload_offset);
  }

  /// True when both packets reference the same underlying buffer (i.e. no
  /// byte copy separates them).
  [[nodiscard]] bool shares_buffer_with(const Packet& other) const noexcept {
    return buf_ != nullptr && buf_ == other.buf_;
  }

  /// Number of Packet handles sharing this packet's buffer (0 for empty).
  [[nodiscard]] long buffer_use_count() const noexcept {
    return buf_ ? static_cast<long>(buf_->refs.load()) : 0;
  }

 private:
  /// Block header; the `size` bytes follow it in the same allocation.
  struct Buffer {
    std::atomic<std::uint32_t> refs{1};
    std::uint32_t size = 0;
    // Parse cache: valid once parse_done; immutability of the bytes makes
    // the cache trivially coherent. `mutable` because caching happens
    // through const handles.
    mutable bool parse_done = false;
    mutable std::optional<ParsedPacket> parsed;

    [[nodiscard]] std::uint8_t* data() noexcept {
      return reinterpret_cast<std::uint8_t*>(this + 1);
    }
    [[nodiscard]] const std::uint8_t* data() const noexcept {
      return reinterpret_cast<const std::uint8_t*>(this + 1);
    }
  };

  explicit Packet(Buffer* buf) noexcept : buf_(buf) {}
  /// One block for a `size`-byte buffer, reference count 1.
  static Buffer* allocate(std::size_t size);
  void release() noexcept {
    if (buf_ && --buf_->refs == 0) destroy(buf_);
    buf_ = nullptr;
  }
  static void destroy(Buffer* buf) noexcept;

  Buffer* buf_ = nullptr;
};

/// Fields a caller supplies to build an L3/L4 packet; lengths and checksums
/// are computed by the builder.
struct PacketSpec {
  MacAddr eth_src;
  MacAddr eth_dst;
  Ipv4Addr ip_src;
  Ipv4Addr ip_dst;
  std::uint8_t protocol = kProtoUdp;  // kProtoTcp or kProtoUdp
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t tcp_flags = 0;        // TCP only
  std::uint32_t tcp_seq = 0;         // TCP only
  std::uint8_t ttl = 64;
  std::vector<std::uint8_t> payload;
};

/// Writes spec's Ethernet/IPv4/TCP-or-UDP headers for an L4 payload of
/// `payload_len` bytes (lengths and checksum computed; spec.payload is not
/// read). The payload itself goes right after.
void write_headers(SpanWriter& w, const PacketSpec& spec, std::size_t payload_len);

/// Builds a fully-encoded packet of spec's headers followed by `payload`,
/// in one allocation (spec.payload is not read).
Packet build_packet(const PacketSpec& spec, std::span<const std::uint8_t> payload);

/// build_packet(spec, spec.payload).
Packet build_packet(const PacketSpec& spec);

/// Returns a copy of `packet` with rewritten IPv4 addresses/ports (the NAT
/// and load-balancer data paths use this). Recomputes lengths and checksums.
/// This is the copy-on-write point: the original packet's buffer and cached
/// parse are untouched.
Packet rewrite_l3l4(const Packet& packet, const ParsedPacket& parsed,
                    std::optional<Ipv4Addr> new_src_ip, std::optional<Ipv4Addr> new_dst_ip,
                    std::optional<std::uint16_t> new_src_port,
                    std::optional<std::uint16_t> new_dst_port);

}  // namespace swish::pkt
