// Unit tests: SwiShmem protocol message serialization (round-trips, edge
// cases, malformed input) including parameterized sweeps over payload sizes,
// golden wire bytes for every message type and a deterministic mutation fuzz
// of the decoder.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "packet/swish_wire.hpp"

namespace swish::pkt {
namespace {

/// Trace context of the golden traced encodings (every byte non-zero, so no
/// single mutation can turn it into an unsampled context).
const telemetry::SpanContext kGoldenCtx{0x1122334455667788ULL, 0x99AABBCCDDEEFF01ULL, 5};

/// One populated instance of every message type with its encodings: plain,
/// and traced with kGoldenCtx. Field values are chosen so that a reordered
/// or resized field changes the bytes. The hex strings pin the wire format;
/// never regenerate them from the encoder under test.
struct Golden {
  SwishMessage msg;
  std::string plain;
  std::string traced;
};

const std::vector<Golden>& golden_corpus() {
  static const std::vector<Golden> corpus{
      {WriteRequest{3, 7, 0x0A0B0C0D0E0F1011ULL, true, (4u << 16) | 2u, {{1, 42, 100}}, {}},
       "0100000003000000070a0b0c0d0e0f1011010004000200010000000001000000000000002a000000"
       "0000000064",
       "81112233445566778899aabbccddeeff010500000003000000070a0b0c0d0e0f1011010004000200"
       "010000000001000000000000002a0000000000000064"},
      {WriteRequest{5, 2, 9, false, 0, {{6, 0xFFFFFFFFFFULL, 200}}, {77}},
       "0100000005000000020000000000000009000000000000010100000006000000ffffffffff000000"
       "00000000c8000000000000004d",
       "81112233445566778899aabbccddeeff010500000005000000020000000000000009000000000000"
       "010100000006000000ffffffffff00000000000000c8000000000000004d"},
      {WriteAck{9, 4, 123456789, {{3, 1, 2}, {4, 5, 6}}, {42, 43}},
       "02000000090000000400000000075bcd150002010000000300000000000000010000000000000002"
       "000000000000002a0000000400000000000000050000000000000006000000000000002b",
       "82112233445566778899aabbccddeeff0105000000090000000400000000075bcd15000201000000"
       "0300000000000000010000000000000002000000000000002a000000040000000000000005000000"
       "0000000006000000000000002b"},
      {EwoUpdate{11, true, {{5, 10, 0xAABB, 77}, {6, 12, 0xCCDD, 88}}},
       "030000000b01000200000005000000000000000a000000000000aabb000000000000004d00000006"
       "000000000000000c000000000000ccdd0000000000000058",
       "83112233445566778899aabbccddeeff01050000000b01000200000005000000000000000a000000"
       "000000aabb000000000000004d00000006000000000000000c000000000000ccdd00000000000000"
       "58"},
      {Heartbeat{13, 999999},
       "040000000d00000000000f423f",
       "84112233445566778899aabbccddeeff01050000000d00000000000f423f"},
      {ChainConfig{7, {1, 2, 3}},
       "05000000070003000000010000000200000003",
       "85112233445566778899aabbccddeeff0105000000070003000000010000000200000003"},
      {GroupConfig{8, {9, 6}},
       "060000000800020000000900000006",
       "86112233445566778899aabbccddeeff01050000000800020000000900000006"},
      {ReadRedirect{3, {0xDE, 0xAD, 0xBE, 0xEF}},
       "07000000030004deadbeef",
       "87112233445566778899aabbccddeeff0105000000030004deadbeef"},
      {OwnRequest{9, 0xDEADBEEFCAFEULL, 3, 0x123456789ABCULL, true},
       "08000000090000deadbeefcafe000000030000123456789abc01",
       "88112233445566778899aabbccddeeff0105000000090000deadbeefcafe00000003000012345678"
       "9abc01"},
      {OwnGrant{9, 42, 2, 77, 0xFFFFFFFFFFFFFFFEULL, 1000},
       "0900000009000000000000002a00000002000000000000004dfffffffffffffffe00000000000003"
       "e8",
       "89112233445566778899aabbccddeeff010500000009000000000000002a00000002000000000000"
       "004dfffffffffffffffe00000000000003e8"},
      {OwnUpdate{5, false, {{9, 1, 0xAA, 3}}},
       "0a0000000500000100000009000000000000000100000000000000aa0000000000000003",
       "8a112233445566778899aabbccddeeff010500000005000001000000090000000000000001000000"
       "00000000aa0000000000000003"},
      {SwimPing{3, 1, 0x1122334455ULL, 7, {{2, 1, 4, 123456}, {5, 2, 0, 999}}},
       "0b00000003000000010000001122334455000000070002000000020100000004000000000001e240"
       "00000005020000000000000000000003e7",
       "8b112233445566778899aabbccddeeff010500000003000000010000001122334455000000070002"
       "000000020100000004000000000001e24000000005020000000000000000000003e7"},
      {SwimAck{9, 0xFFFFFFFFFFFFFFF0ULL, 0xFFFFFFF1u, {{1, 0, 6, 0}}},
       "0c00000009fffffffffffffff0fffffff100010000000100000000060000000000000000",
       "8c112233445566778899aabbccddeeff010500000009fffffffffffffff0fffffff1000100000001"
       "00000000060000000000000000"},
      {SwimPingReq{2, 6, 42, {{4, 2, 11, 50000000}}},
       "0d0000000200000006000000000000002a000100000004020000000b0000000002faf080",
       "8d112233445566778899aabbccddeeff01050000000200000006000000000000002a000100000004"
       "020000000b0000000002faf080"},
      {MembershipUpdate{5, {{3, 2, 1, 44000000}, {7, 0, 9, 0}}},
       "0e00000005000200000003020000000100000000029f630000000007000000000900000000000000"
       "00",
       "8e112233445566778899aabbccddeeff010500000005000200000003020000000100000000029f63"
       "000000000700000000090000000000000000"},
      {ConForward{4, 2, (std::uint64_t{2} << 40) | 17, {{1, 42, 100}, {12, 3, 1}}},
       "0f0000000400000002000002000000001100020000000001000000000000002a0000000000000064"
       "0000000c00000000000000030000000000000001",
       "8f112233445566778899aabbccddeeff010500000004000000020000020000000011000200000000"
       "01000000000000002a00000000000000640000000c00000000000000030000000000000001"},
      {ConPrepare{6, (std::uint64_t{6} << 32) | 1, 8},
       "1000000006000000060000000100000008",
       "90112233445566778899aabbccddeeff010500000006000000060000000100000008"},
      {ConPromise{6, (std::uint64_t{6} << 32) | 1, 3, 12,
                  {{13, (std::uint64_t{5} << 32) | 2, 1, 99, {{1, 7, 8}, {2, 9, 10}}},
                   {14, (std::uint64_t{6} << 32) | 4, 2, 100, {}}}},
       "1100000006000000060000000100000003000000000000000c0002000000000000000d0000000500"
       "00000200000001000000000000006300020000000001000000000000000700000000000000080000"
       "00020000000000000009000000000000000a000000000000000e0000000600000004000000020000"
       "000000000064000000",
       "91112233445566778899aabbccddeeff010500000006000000060000000100000003000000000000"
       "000c0002000000000000000d00000005000000020000000100000000000000630002000000000100"
       "000000000000070000000000000008000000020000000000000009000000000000000a0000000000"
       "00000e0000000600000004000000020000000000000064000000"},
      {ConAccept{6, (std::uint64_t{6} << 32) | 1, 15, 14, 2, 31, {{4, 0xFFFFFFFFFFULL, 7}}},
       "12000000060000000600000001000000000000000f000000000000000e0000000200000000000000"
       "1f00010000000004000000ffffffffff0000000000000007",
       "92112233445566778899aabbccddeeff0105000000060000000600000001000000000000000f0000"
       "00000000000e00000002000000000000001f00010000000004000000ffffffffff00000000000000"
       "07"},
      {ConAccepted{6, (std::uint64_t{6} << 32) | 1, 15, 1, 14},
       "13000000060000000600000001000000000000000f00000001000000000000000e",
       "93112233445566778899aabbccddeeff0105000000060000000600000001000000000000000f0000"
       "0001000000000000000e"},
      {ConLearn{6, (std::uint64_t{6} << 32) | 1, 16, 15, 2, 31, {{4, 11, 7}, {5, 12, 8}}},
       "140000000600000006000000010000000000000010000000000000000f0000000200000000000000"
       "1f00020000000004000000000000000b000000000000000700000005000000000000000c00000000"
       "00000008",
       "94112233445566778899aabbccddeeff010500000006000000060000000100000000000000100000"
       "00000000000f00000002000000000000001f00020000000004000000000000000b00000000000000"
       "0700000005000000000000000c0000000000000008"},
  };
  return corpus;
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char buf[3];
  for (auto b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

template <typename T>
T roundtrip(const T& msg) {
  auto bytes = encode_message(msg);
  auto decoded = decode_message(bytes);
  EXPECT_TRUE(decoded.has_value());
  const T* out = std::get_if<T>(&*decoded);
  EXPECT_NE(out, nullptr);
  return *out;
}

TEST(Wire, WriteRequestRoundTripUnsequenced) {
  WriteRequest m;
  m.epoch = 3;
  m.writer = 7;
  m.write_id = 0xABCDEF;
  m.ops = {{1, 42, 100}, {2, 0xFFFFFFFFFFULL, 200}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, WriteRequestRoundTripSequenced) {
  WriteRequest m;
  m.epoch = 1;
  m.writer = 2;
  m.write_id = 5;
  m.snapshot_replay = true;
  m.snapshot_epoch = (4u << 16) | 2u;  // recovery stream id: donor 4, stream 2
  m.ops = {{1, 9, 10}};
  m.seqs = {77};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, WriteAckRoundTrip) {
  WriteAck m;
  m.epoch = 9;
  m.writer = 4;
  m.write_id = 123456789;
  m.ops = {{3, 1, 2}};
  m.seqs = {42};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, EwoUpdateRoundTrip) {
  EwoUpdate m;
  m.origin = 11;
  m.periodic = true;
  m.entries = {{5, 10, 0xAABB, 77}, {5, 11, 0xCCDD, 88}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, HeartbeatRoundTrip) {
  Heartbeat m{13, 999999};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ChainConfigRoundTrip) {
  ChainConfig m{7, {1, 2, 3, 4}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, GroupConfigRoundTrip) {
  GroupConfig m{8, {9, 8, 7}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ReadRedirectRoundTrip) {
  ReadRedirect m{3, {1, 2, 3, 4, 5}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, OwnRequestRoundTrip) {
  OwnRequest m;
  m.space = 9;
  m.key = 0xDEADBEEFCAFEULL;
  m.requester = 3;
  m.req_id = 0x123456789ABCULL;
  m.revoke = true;
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, OwnGrantRoundTrip) {
  OwnGrant m;
  m.space = 9;
  m.key = 42;
  m.new_owner = 2;
  m.req_id = 77;
  m.value = 0xFFFFFFFFFFFFFFFFULL;
  m.version = 1000;
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, OwnUpdateRoundTrip) {
  OwnUpdate m;
  m.owner = 5;
  m.claim = false;
  m.entries = {{9, 1, 0xAA, 3}, {9, 2, 0xBB, 4}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, SwimPingRoundTrip) {
  SwimPing m;
  m.sender = 3;
  m.origin = 1;
  m.seq = 0x1122334455ULL;
  m.incarnation = 7;
  m.gossip = {{2, 1, 4, 123456}, {5, 2, 0, 999}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, SwimAckRoundTrip) {
  SwimAck m;
  m.subject = 9;
  m.seq = 0xFFFFFFFFFFFFFFFFULL;
  m.incarnation = 0xFFFFFFFFu;
  m.gossip = {{1, 0, 0, 0}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, SwimPingReqRoundTrip) {
  SwimPingReq m;
  m.sender = 2;
  m.target = 6;
  m.seq = 42;
  m.gossip = {{4, 2, 11, 50000000}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, MembershipUpdateRoundTrip) {
  MembershipUpdate m;
  m.sender = 5;
  m.entries = {{3, 2, 1, 44000000}, {7, 0, 9, 0}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, SwimGossipTruncationRejected) {
  SwimPing m;
  m.sender = 1;
  m.origin = 1;
  m.seq = 9;
  m.incarnation = 3;
  m.gossip = {{2, 1, 4, 123456}, {5, 2, 0, 999}};
  const auto bytes = encode_message(m);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto cut = decode_message(std::span(bytes.data(), len));
    if (cut) {
      const auto* p = std::get_if<SwimPing>(&*cut);
      EXPECT_TRUE(p == nullptr || !(*p == m));
    }
  }
  EXPECT_TRUE(decode_message(bytes).has_value());
}

TEST(Wire, ConForwardRoundTrip) {
  ConForward m;
  m.epoch = 4;
  m.writer = 2;
  m.req_id = (std::uint64_t{2} << 40) | 17;
  m.ops = {{1, 42, 100}, {12, 3, 1}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ConPrepareRoundTrip) {
  ConPrepare m;
  m.epoch = 6;
  m.ballot = (std::uint64_t{6} << 32) | 1;
  m.coordinator = 0;
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ConPromiseRoundTrip) {
  ConPromise m;
  m.epoch = 6;
  m.ballot = (std::uint64_t{6} << 32) | 1;
  m.acceptor = 3;
  m.applied_upto = 12;
  m.entries = {{13, (std::uint64_t{5} << 32) | 2, 1, 99, {{1, 7, 8}, {2, 9, 10}}},
               {14, (std::uint64_t{6} << 32) | 1, 2, 100, {}}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ConAcceptRoundTrip) {
  ConAccept m;
  m.epoch = 6;
  m.ballot = (std::uint64_t{6} << 32) | 1;
  m.slot = 15;
  m.commit_upto = 14;
  m.writer = 2;
  m.req_id = 31;
  m.ops = {{4, 0xFFFFFFFFFFULL, 7}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ConAcceptedRoundTrip) {
  ConAccepted m;
  m.epoch = 6;
  m.ballot = (std::uint64_t{6} << 32) | 1;
  m.slot = 15;
  m.acceptor = 1;
  m.applied_upto = 14;
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ConLearnRoundTrip) {
  ConLearn m;
  m.epoch = 6;
  m.ballot = (std::uint64_t{6} << 32) | 1;
  m.slot = 15;
  m.commit_upto = 15;
  m.writer = 2;
  m.req_id = 31;
  m.ops = {{4, 11, 7}, {4, 12, 8}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ConTruncationRejectedEverywhere) {
  ConPromise m;
  m.epoch = 2;
  m.ballot = (std::uint64_t{2} << 32) | 3;
  m.acceptor = 2;
  m.applied_upto = 5;
  m.entries = {{6, (std::uint64_t{1} << 32) | 1, 0, 12, {{1, 2, 3}}}};
  const auto bytes = encode_message(m);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto cut = decode_message(std::span(bytes.data(), len));
    if (cut) {
      const auto* p = std::get_if<ConPromise>(&*cut);
      EXPECT_TRUE(p == nullptr || !(*p == m));
    }
  }
  EXPECT_TRUE(decode_message(bytes).has_value());
}

TEST(Wire, EmptyCollectionsRoundTrip) {
  EXPECT_EQ(roundtrip(WriteRequest{}), WriteRequest{});
  EXPECT_EQ(roundtrip(EwoUpdate{}), EwoUpdate{});
  EXPECT_EQ(roundtrip(ChainConfig{}), ChainConfig{});
  EXPECT_EQ(roundtrip(ReadRedirect{}), ReadRedirect{});
  EXPECT_EQ(roundtrip(OwnUpdate{}), OwnUpdate{});
  EXPECT_EQ(roundtrip(SwimPing{}), SwimPing{});
  EXPECT_EQ(roundtrip(SwimAck{}), SwimAck{});
  EXPECT_EQ(roundtrip(SwimPingReq{}), SwimPingReq{});
  EXPECT_EQ(roundtrip(MembershipUpdate{}), MembershipUpdate{});
  EXPECT_EQ(roundtrip(ConForward{}), ConForward{});
  EXPECT_EQ(roundtrip(ConPromise{}), ConPromise{});
  EXPECT_EQ(roundtrip(ConAccept{}), ConAccept{});
  EXPECT_EQ(roundtrip(ConLearn{}), ConLearn{});
}

TEST(Wire, UnknownTypeRejected) {
  std::vector<std::uint8_t> bytes{0x7F, 0, 0, 0};
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(Wire, EmptyPayloadRejected) {
  EXPECT_FALSE(decode_message(std::span<const std::uint8_t>{}).has_value());
}

TEST(Wire, TruncationRejectedEverywhere) {
  WriteRequest m;
  m.ops = {{1, 2, 3}, {4, 5, 6}};
  m.seqs = {7, 8};
  const auto bytes = encode_message(m);
  // Every strict prefix must fail to decode or decode to a different message;
  // none may crash.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto cut = decode_message(std::span(bytes.data(), len));
    if (cut) {
      const auto* wr = std::get_if<WriteRequest>(&*cut);
      EXPECT_TRUE(wr == nullptr || !(*wr == m));
    }
  }
  EXPECT_TRUE(decode_message(bytes).has_value());
}

TEST(Wire, EncodedSizeMatchesEncoding) {
  EwoUpdate m;
  m.origin = 1;
  for (int i = 0; i < 10; ++i) {
    m.entries.push_back({1, static_cast<std::uint64_t>(i), 1, 2});
  }
  EXPECT_EQ(encode_message(m).size(), 8u + 10 * 28);
}

TEST(Wire, SmallMessagesStaySmall) {
  // The paper's premise: NF register updates are tiny (~100 B objects).
  WriteRequest m;
  m.ops = {{1, 2, 3}};
  EXPECT_LE(encode_message(m).size(), 64u);
  EwoUpdate u;
  u.entries = {{1, 2, 3, 4}};
  EXPECT_LE(encode_message(u).size(), 64u);
}

class WireSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WireSweep, EwoUpdateRoundTripAtSize) {
  EwoUpdate m;
  m.origin = 2;
  for (std::size_t i = 0; i < GetParam(); ++i) {
    m.entries.push_back({static_cast<std::uint32_t>(i % 7), i, i * 3 + 1, i * 5});
  }
  EXPECT_EQ(roundtrip(m), m);
  // 28 bytes per entry + 8 header.
  EXPECT_EQ(encode_message(m).size(), 8 + GetParam() * 28);
}

TEST_P(WireSweep, WriteRequestRoundTripAtSize) {
  WriteRequest m;
  m.write_id = GetParam();
  for (std::size_t i = 0; i < GetParam(); ++i) {
    m.ops.push_back({1, i, i * 2});
    m.seqs.push_back(i + 1);
  }
  EXPECT_EQ(roundtrip(m), m);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WireSweep, ::testing::Values(0, 1, 2, 16, 64, 255, 1000));

// ---------------------------------------------------------------------------
// In-band trace context (causal tracing)
// ---------------------------------------------------------------------------

TEST(WireTrace, SampledContextRoundTrips) {
  WriteRequest m;
  m.epoch = 2;
  m.writer = 5;
  m.write_id = 0xFEED;
  m.ops = {{1, 7, 9}};
  const telemetry::SpanContext ctx{0x1122334455667788ULL, 0x99AABBCCDDEEFF00ULL, 3};
  const auto bytes = encode_message(m, ctx);
  EXPECT_EQ(bytes[0] & kTracedFlag, kTracedFlag);
  EXPECT_EQ(bytes.size(), encode_message(m).size() + telemetry::kSpanContextWireBytes);

  telemetry::SpanContext out;
  const auto decoded = decode_message(bytes, &out);
  ASSERT_TRUE(decoded.has_value());
  const auto* req = std::get_if<WriteRequest>(&*decoded);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(*req, m);
  EXPECT_EQ(out, ctx);

  // The context-less decoder skips the header transparently.
  const auto plain = decode_message(bytes);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*std::get_if<WriteRequest>(&*plain), m);
}

TEST(WireTrace, UnsampledContextEncodesByteIdentical) {
  // An unsampled write must be indistinguishable on the wire from a run with
  // tracing compiled out — the bandwidth model and pcap-level tests rely on
  // this.
  EwoUpdate m;
  m.origin = 3;
  m.entries = {{5, 10, 0xAABB, 77}};
  EXPECT_EQ(encode_message(m, telemetry::SpanContext{}), encode_message(m));

  telemetry::SpanContext out{1, 2, 3};  // poison: decode must reset it
  const auto decoded = decode_message(encode_message(m), &out);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(out.sampled());
}

TEST(WireTrace, TruncatedTracedHeaderRejected) {
  OwnRequest m;
  m.space = 1;
  m.key = 2;
  m.requester = 3;
  m.req_id = 4;
  const telemetry::SpanContext ctx{7, 8, 1};
  auto bytes = encode_message(m, ctx);
  // Any cut inside the 17-byte context (or the body behind it) must fail
  // cleanly rather than mis-frame the message.
  for (std::size_t len = 1; len < bytes.size(); ++len) {
    telemetry::SpanContext out;
    EXPECT_FALSE(decode_message({bytes.data(), len}, &out).has_value())
        << "truncated at " << len;
  }
}

TEST(WireTrace, EveryMessageTypeCarriesContext) {
  std::set<std::size_t> covered;
  for (const auto& g : golden_corpus()) {
    telemetry::SpanContext out;
    const auto decoded = decode_message(encode_message(g.msg, kGoldenCtx), &out);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, g.msg);
    EXPECT_EQ(out, kGoldenCtx);
    covered.insert(g.msg.index());
  }
  EXPECT_EQ(covered.size(), std::variant_size_v<SwishMessage>);
}

// ---------------------------------------------------------------------------
// Golden wire bytes and mutation fuzz
// ---------------------------------------------------------------------------

TEST(WireGolden, EveryMessageTypeEncodesToPinnedBytes) {
  std::set<std::size_t> covered;
  for (const auto& g : golden_corpus()) {
    SCOPED_TRACE("variant index " + std::to_string(g.msg.index()));
    EXPECT_EQ(hex(encode_message(g.msg)), g.plain);
    EXPECT_EQ(hex(encode_message(g.msg, kGoldenCtx)), g.traced);
    covered.insert(g.msg.index());
  }
  EXPECT_EQ(covered.size(), std::variant_size_v<SwishMessage>);
  // A one-op WriteRequest: 45 bytes from the writer, 53 once the head has
  // sequenced it.
  EXPECT_EQ(encode_message(golden_corpus()[0].msg).size(), 45u);
  EXPECT_EQ(encode_message(golden_corpus()[1].msg).size(), 53u);
}

TEST(WireGolden, ConMessagesSkipCarriedSeqs) {
  // Con op blocks are written unsequenced, but a flagged payload still
  // decodes with its seqs skipped. WriteAck and ConForward share the header
  // layout (u32, u32, u64), so a sequenced WriteAck retyped as ConForward is
  // exactly such a payload.
  const std::vector<WriteOp> ops{{1, 42, 100}, {12, 3, 1}};
  auto bytes = encode_message(WriteAck{4, 2, 17, ops, {7, 8}});
  bytes[0] = static_cast<std::uint8_t>(MsgType::kConForward);
  const auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.has_value());
  const ConForward want{4, 2, 17, ops};
  EXPECT_EQ(*decoded, SwishMessage{want});
}

/// Applies one random mutation: bit flip, byte overwrite, truncation or
/// append.
void mutate(std::vector<std::uint8_t>& bytes, Rng& rng) {
  switch (rng.next_below(4)) {
    case 0:
      if (!bytes.empty()) bytes[rng.next_below(bytes.size())] ^= 1u << rng.next_below(8);
      break;
    case 1:
      if (!bytes.empty()) {
        bytes[rng.next_below(bytes.size())] = static_cast<std::uint8_t>(rng.next_below(256));
      }
      break;
    case 2:
      bytes.resize(rng.next_below(bytes.size() + 1));
      break;
    default:
      for (auto n = rng.next_range(1, 8); n > 0; --n) {
        bytes.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
      }
      break;
  }
}

TEST(WireFuzz, MutatedPayloadsDecodeSafelyAndReencodeStably) {
  Rng rng(0x5EED);
  std::size_t decoded_count = 0;
  std::size_t rejected_count = 0;
  for (int round = 0; round < 400; ++round) {
    for (const auto& g : golden_corpus()) {
      for (const bool traced : {false, true}) {
        auto bytes = traced ? encode_message(g.msg, kGoldenCtx) : encode_message(g.msg);
        for (auto n = rng.next_range(1, 3); n > 0; --n) mutate(bytes, rng);

        telemetry::SpanContext ctx;
        std::optional<SwishMessage> decoded;
        ASSERT_NO_THROW(decoded = decode_message(bytes, &ctx));
        if (!decoded) {
          ++rejected_count;
          continue;
        }
        ++decoded_count;
        // decode(encode(decode(b))) == decode(b). An unsampled context is
        // never encoded, so it comes back empty.
        telemetry::SpanContext ctx_again;
        const auto again = decode_message(encode_message(*decoded, ctx), &ctx_again);
        ASSERT_TRUE(again.has_value());
        EXPECT_EQ(*again, *decoded);
        EXPECT_EQ(ctx_again, ctx.sampled() ? ctx : telemetry::SpanContext{});
      }
    }
  }
  EXPECT_GT(decoded_count, 1000u);
  EXPECT_GT(rejected_count, 1000u);
}

}  // namespace
}  // namespace swish::pkt
