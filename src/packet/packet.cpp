#include "packet/packet.hpp"

#include <cstring>
#include <new>

namespace swish::pkt {

namespace {

std::optional<ParsedPacket> parse_bytes(std::span<const std::uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    ParsedPacket out;
    out.eth = EthernetHeader::decode(r);
    if (out.eth.ether_type != kEtherTypeIpv4) {
      out.l4_payload_offset = kEthernetHeaderLen;
      return out;  // non-IP frame: opaque payload (e.g. control messages)
    }
    auto ip = Ipv4Header::decode(r);
    if (!ip) return std::nullopt;
    out.ipv4 = *ip;
    if (ip->protocol == kProtoTcp) {
      if (r.remaining() < kTcpHeaderLen) return std::nullopt;
      out.tcp = TcpHeader::decode(r);
    } else if (ip->protocol == kProtoUdp) {
      if (r.remaining() < kUdpHeaderLen) return std::nullopt;
      out.udp = UdpHeader::decode(r);
    }
    out.l4_payload_offset = r.position();
    return out;
  } catch (const BufferError&) {
    return std::nullopt;
  }
}

/// Bytes of the Ethernet/IPv4/L4 headers build_packet puts before the
/// payload.
std::size_t header_len(const PacketSpec& spec) noexcept {
  return kEthernetHeaderLen + kIpv4HeaderLen +
         (spec.protocol == kProtoTcp ? kTcpHeaderLen : kUdpHeaderLen);
}

}  // namespace

PacketStats& PacketStats::global() noexcept {
  static PacketStats stats;
  return stats;
}

Packet::Buffer* Packet::allocate(std::size_t size) {
  auto& stats = PacketStats::global();
  ++stats.buffers_created;
  stats.buffer_bytes += size;
  if (size > UINT32_MAX) throw BufferError("packet too large");
  auto* buf = new (::operator new(sizeof(Buffer) + size)) Buffer;
  buf->size = static_cast<std::uint32_t>(size);
  return buf;
}

void Packet::destroy(Buffer* buf) noexcept {
  buf->~Buffer();
  ::operator delete(buf);
}

Packet::Packet(std::span<const std::uint8_t> bytes) : Packet(allocate(bytes.size())) {
  if (!bytes.empty()) std::memcpy(buf_->data(), bytes.data(), bytes.size());
}

const ParsedPacket* Packet::parsed() const {
  if (!buf_) return nullptr;
  if (!buf_->parse_done) {
    ++PacketStats::global().parse_executions;
    buf_->parsed = parse_bytes(bytes());
    buf_->parse_done = true;
  } else {
    ++PacketStats::global().parse_cache_hits;
  }
  return buf_->parsed ? &*buf_->parsed : nullptr;
}

std::optional<ParsedPacket> Packet::parse() const {
  const ParsedPacket* p = parsed();
  if (!p) return std::nullopt;
  return *p;
}

void write_headers(SpanWriter& w, const PacketSpec& spec, std::size_t payload_len) {
  const std::size_t l4_len =
      (spec.protocol == kProtoTcp ? kTcpHeaderLen : kUdpHeaderLen) + payload_len;

  EthernetHeader eth{spec.eth_dst, spec.eth_src, kEtherTypeIpv4};
  eth.encode(w);

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(kIpv4HeaderLen + l4_len);
  ip.ttl = spec.ttl;
  ip.protocol = spec.protocol;
  ip.src = spec.ip_src;
  ip.dst = spec.ip_dst;
  ip.encode(w);

  if (spec.protocol == kProtoTcp) {
    TcpHeader tcp;
    tcp.src_port = spec.src_port;
    tcp.dst_port = spec.dst_port;
    tcp.seq = spec.tcp_seq;
    tcp.flags = spec.tcp_flags;
    tcp.encode(w);
  } else {
    UdpHeader udp;
    udp.src_port = spec.src_port;
    udp.dst_port = spec.dst_port;
    udp.length = static_cast<std::uint16_t>(l4_len);
    udp.encode(w);
  }
}

Packet build_packet(const PacketSpec& spec, std::span<const std::uint8_t> payload) {
  return Packet::build(header_len(spec) + payload.size(), [&](std::span<std::uint8_t> out) {
    SpanWriter w(out);
    write_headers(w, spec, payload.size());
    w.raw(payload);
  });
}

Packet build_packet(const PacketSpec& spec) { return build_packet(spec, spec.payload); }

Packet rewrite_l3l4(const Packet& packet, const ParsedPacket& parsed,
                    std::optional<Ipv4Addr> new_src_ip, std::optional<Ipv4Addr> new_dst_ip,
                    std::optional<std::uint16_t> new_src_port,
                    std::optional<std::uint16_t> new_dst_port) {
  PacketSpec spec;
  spec.eth_src = parsed.eth.src;
  spec.eth_dst = parsed.eth.dst;
  const Ipv4Header& ip = parsed.ipv4.value();
  spec.ip_src = new_src_ip.value_or(ip.src);
  spec.ip_dst = new_dst_ip.value_or(ip.dst);
  spec.protocol = ip.protocol;
  spec.ttl = ip.ttl;
  spec.src_port = new_src_port.value_or(parsed.src_port());
  spec.dst_port = new_dst_port.value_or(parsed.dst_port());
  if (parsed.tcp) {
    spec.tcp_flags = parsed.tcp->flags;
    spec.tcp_seq = parsed.tcp->seq;
  }
  Packet out = build_packet(spec, packet.l4_payload(parsed));
  auto& stats = PacketStats::global();
  ++stats.rewrite_copies;
  stats.rewrite_bytes += out.size();
  return out;
}

}  // namespace swish::pkt
