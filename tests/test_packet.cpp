// Unit tests: wire formats — headers, checksums, builder, rewrite, flow keys.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "packet/flow.hpp"
#include "packet/packet.hpp"
#include "packet/pcap.hpp"

namespace swish::pkt {
namespace {

PacketSpec tcp_spec() {
  PacketSpec s;
  s.eth_src = MacAddr::for_node(1);
  s.eth_dst = MacAddr::for_node(2);
  s.ip_src = Ipv4Addr(192, 168, 1, 10);
  s.ip_dst = Ipv4Addr(10, 0, 0, 1);
  s.protocol = kProtoTcp;
  s.src_port = 12345;
  s.dst_port = 80;
  s.tcp_flags = TcpFlags::kSyn;
  s.tcp_seq = 777;
  s.payload = {0xde, 0xad, 0xbe, 0xef};
  return s;
}

TEST(Addr, Ipv4ToString) {
  EXPECT_EQ(Ipv4Addr(192, 168, 1, 10).to_string(), "192.168.1.10");
  EXPECT_EQ(Ipv4Addr(0).to_string(), "0.0.0.0");
}

TEST(Addr, MacForNodeDeterministic) {
  EXPECT_EQ(MacAddr::for_node(5), MacAddr::for_node(5));
  EXPECT_NE(MacAddr::for_node(5), MacAddr::for_node(6));
  EXPECT_EQ(MacAddr::for_node(0x01020304).to_string(), "02:00:01:02:03:04");
}

TEST(Checksum, Rfc1071Example) {
  // Classic example bytes; verifying complement-sum identity instead of a
  // magic constant: appending the checksum makes the total sum 0xffff.
  std::vector<std::uint8_t> data{0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00,
                                 0x40, 0x06, 0x00, 0x00, 0xac, 0x10, 0x0a, 0x63,
                                 0xac, 0x10, 0x0a, 0x0c};
  const std::uint16_t sum = internet_checksum(data);
  data[10] = static_cast<std::uint8_t>(sum >> 8);
  data[11] = static_cast<std::uint8_t>(sum);
  EXPECT_EQ(internet_checksum(data), 0);
}

TEST(Checksum, OddLength) {
  std::vector<std::uint8_t> data{0x01, 0x02, 0x03};
  EXPECT_NE(internet_checksum(data), 0);  // well-defined, no crash
}

TEST(Packet, TcpRoundTrip) {
  const Packet p = build_packet(tcp_spec());
  EXPECT_EQ(p.size(), kEthernetHeaderLen + kIpv4HeaderLen + kTcpHeaderLen + 4);
  auto parsed = p.parse();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->eth.src, MacAddr::for_node(1));
  ASSERT_TRUE(parsed->ipv4.has_value());
  EXPECT_EQ(parsed->ipv4->src, Ipv4Addr(192, 168, 1, 10));
  EXPECT_EQ(parsed->ipv4->dst, Ipv4Addr(10, 0, 0, 1));
  EXPECT_EQ(parsed->ipv4->protocol, kProtoTcp);
  EXPECT_EQ(parsed->ipv4->total_length, kIpv4HeaderLen + kTcpHeaderLen + 4);
  ASSERT_TRUE(parsed->tcp.has_value());
  EXPECT_EQ(parsed->tcp->src_port, 12345);
  EXPECT_EQ(parsed->tcp->dst_port, 80);
  EXPECT_EQ(parsed->tcp->seq, 777u);
  EXPECT_EQ(parsed->tcp->flags, TcpFlags::kSyn);
  auto payload = p.l4_payload(*parsed);
  ASSERT_EQ(payload.size(), 4u);
  EXPECT_EQ(payload[0], 0xde);
}

TEST(Packet, UdpRoundTrip) {
  PacketSpec s = tcp_spec();
  s.protocol = kProtoUdp;
  const Packet p = build_packet(s);
  auto parsed = p.parse();
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->udp.has_value());
  EXPECT_EQ(parsed->udp->length, kUdpHeaderLen + 4);
  EXPECT_EQ(parsed->src_port(), 12345);
  EXPECT_EQ(parsed->dst_port(), 80);
}

TEST(Packet, TruncatedFailsParse) {
  const Packet full = build_packet(tcp_spec());
  // Cut inside the IPv4 header.
  EXPECT_FALSE(Packet(full.bytes().first(kEthernetHeaderLen + 10)).parse().has_value());
}

TEST(Packet, EmptyFailsParse) { EXPECT_FALSE(Packet{}.parse().has_value()); }

TEST(Packet, NonIpv4ParsesAsOpaque) {
  ByteWriter w;
  EthernetHeader eth{MacAddr::for_node(1), MacAddr::for_node(2), 0x0806};  // ARP
  eth.encode(w);
  w.u32(0xdeadbeef);
  auto parsed = Packet(std::move(w).take()).parse();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->ipv4.has_value());
  EXPECT_EQ(parsed->l4_payload_offset, kEthernetHeaderLen);
}

TEST(Packet, RewriteSrcEndpoint) {
  const Packet p = build_packet(tcp_spec());
  auto parsed = p.parse();
  const Packet q = rewrite_l3l4(p, *parsed, Ipv4Addr(1, 1, 1, 1), std::nullopt, 999,
                                std::nullopt);
  auto qp = q.parse();
  ASSERT_TRUE(qp.has_value());
  EXPECT_EQ(qp->ipv4->src, Ipv4Addr(1, 1, 1, 1));
  EXPECT_EQ(qp->ipv4->dst, Ipv4Addr(10, 0, 0, 1));  // untouched
  EXPECT_EQ(qp->tcp->src_port, 999);
  EXPECT_EQ(qp->tcp->dst_port, 80);
  EXPECT_EQ(qp->tcp->flags, TcpFlags::kSyn);  // flags preserved
  EXPECT_EQ(q.l4_payload(*qp).size(), 4u);    // payload preserved
}

TEST(Packet, RewritePreservesChecksumValidity) {
  const Packet p = build_packet(tcp_spec());
  auto parsed = p.parse();
  const Packet q =
      rewrite_l3l4(p, *parsed, std::nullopt, Ipv4Addr(8, 8, 8, 8), std::nullopt, std::nullopt);
  EXPECT_TRUE(q.parse().has_value());  // parse re-verifies structure
}

TEST(FlowKey, ExtractAndHashStable) {
  const Packet p = build_packet(tcp_spec());
  auto parsed = p.parse();
  const FlowKey k = FlowKey::from(*parsed);
  EXPECT_EQ(k.src_ip, Ipv4Addr(192, 168, 1, 10));
  EXPECT_EQ(k.dst_port, 80);
  EXPECT_EQ(k.protocol, kProtoTcp);
  EXPECT_EQ(k.hash(), FlowKey::from(*parsed).hash());
}

TEST(FlowKey, CanonicalFoldsDirections) {
  FlowKey a{Ipv4Addr(1, 0, 0, 1), Ipv4Addr(2, 0, 0, 2), 100, 200, 6};
  EXPECT_EQ(a.canonical(), a.reversed().canonical());
  EXPECT_NE(a.hash(), a.reversed().hash());
  EXPECT_EQ(a.canonical().hash(), a.reversed().canonical().hash());
}

TEST(FlowKey, ReversedSwapsBothFields) {
  FlowKey a{Ipv4Addr(1, 0, 0, 1), Ipv4Addr(2, 0, 0, 2), 100, 200, 17};
  const FlowKey r = a.reversed();
  EXPECT_EQ(r.src_ip, a.dst_ip);
  EXPECT_EQ(r.src_port, a.dst_port);
  EXPECT_EQ(r.reversed(), a);
}

TEST(FlowKey, HashDispersion) {
  // Neighbouring ports must land in different hash buckets (register index
  // derivation depends on it).
  std::set<std::uint64_t> hashes;
  for (std::uint16_t port = 0; port < 1000; ++port) {
    FlowKey k{Ipv4Addr(1, 2, 3, 4), Ipv4Addr(5, 6, 7, 8), port, 80, 6};
    hashes.insert(k.hash() % 4096);
  }
  EXPECT_GT(hashes.size(), 800u);  // low collision rate in 4096 buckets
}

TEST(Pcap, WritesValidHeaderAndRecords) {
  const std::string path = "/tmp/swish_pcap_test.pcap";
  const Packet p = build_packet(tcp_spec());
  {
    PcapWriter writer(path);
    writer.write(1500, p);                 // 1.5 us
    writer.write(2'000'000'000, p);        // 2 s
    writer.flush();
    EXPECT_EQ(writer.packets_written(), 2u);
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  // Global header: 24 bytes; two records: 16-byte header + packet each.
  ASSERT_EQ(bytes.size(), 24 + 2 * (16 + p.size()));
  // Little-endian magic 0xa1b2c3d4.
  EXPECT_EQ(bytes[0], 0xd4);
  EXPECT_EQ(bytes[1], 0xc3);
  EXPECT_EQ(bytes[2], 0xb2);
  EXPECT_EQ(bytes[3], 0xa1);
  // Link type Ethernet (offset 20).
  EXPECT_EQ(bytes[20], 1);
  // First record: ts_sec = 0, incl_len = packet size.
  EXPECT_EQ(bytes[24], 0);
  EXPECT_EQ(bytes[32], static_cast<std::uint8_t>(p.size()));
  // Second record's ts_sec = 2.
  const std::size_t second = 24 + 16 + p.size();
  EXPECT_EQ(bytes[second], 2);
  // Packet bytes round-trip.
  EXPECT_TRUE(std::equal(p.bytes().begin(), p.bytes().end(), bytes.begin() + 24 + 16));
  std::remove(path.c_str());
}

TEST(Pcap, UnwritablePathThrows) {
  EXPECT_THROW(PcapWriter("/nonexistent_dir/x.pcap"), std::runtime_error);
}

}  // namespace
}  // namespace swish::pkt
