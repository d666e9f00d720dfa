#include "packet/swish_wire.hpp"

#include <array>
#include <concepts>
#include <type_traits>
#include <utility>

namespace swish::pkt {
namespace {

// Each message and nested record declares its layout once, as a field list
// in wire order; Encoder and Decoder below walk the same list. The C++ field
// type fixes the wire width: bool/u8 -> 1 byte, u32 -> 4, u64 -> 8. A
// std::vector<T> is a u16 count followed by its elements, and a
// std::vector<uint8_t> a u16 length followed by raw bytes.

template <class M, class T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

/// The one special shape: a u16 count, a u8 has-seqs flag, then interleaved
/// `op[, seq]`. Con messages carry no seqs (`seqs` null): they write flag 0
/// and skip the seqs of a flagged payload.
template <class Ops, class Seqs>
struct OpBlock {
  Ops& ops;
  Seqs* seqs;
};

template <class Ops, class Seqs>
OpBlock<Ops, Seqs> op_block(Ops& ops, Seqs& seqs) {
  return {ops, &seqs};
}

template <class Ops>
OpBlock<Ops, std::vector<SeqNum>> op_block(Ops& ops) {
  return {ops, nullptr};
}

void fields(auto& io, Is<WriteOp> auto& m) { io(m.space, m.key, m.value); }
void fields(auto& io, Is<EwoEntry> auto& m) { io(m.space, m.key, m.version, m.value); }
void fields(auto& io, Is<MemberInfo> auto& m) {
  io(m.member, m.state, m.incarnation, m.evidence_ns);
}
void fields(auto& io, Is<ConEntry> auto& m) {
  io(m.slot, m.ballot, m.writer, m.req_id, op_block(m.ops));
}

void fields(auto& io, Is<WriteRequest> auto& m) {
  io(m.epoch, m.writer, m.write_id, m.snapshot_replay, m.snapshot_epoch, op_block(m.ops, m.seqs));
}
void fields(auto& io, Is<WriteAck> auto& m) {
  io(m.epoch, m.writer, m.write_id, op_block(m.ops, m.seqs));
}
void fields(auto& io, Is<EwoUpdate> auto& m) { io(m.origin, m.periodic, m.entries); }
void fields(auto& io, Is<Heartbeat> auto& m) { io(m.sender, m.send_time_ns); }
void fields(auto& io, Is<ChainConfig> auto& m) { io(m.epoch, m.chain); }
void fields(auto& io, Is<GroupConfig> auto& m) { io(m.epoch, m.members); }
void fields(auto& io, Is<ReadRedirect> auto& m) { io(m.origin, m.original_packet); }
void fields(auto& io, Is<OwnRequest> auto& m) {
  io(m.space, m.key, m.requester, m.req_id, m.revoke);
}
void fields(auto& io, Is<OwnGrant> auto& m) {
  io(m.space, m.key, m.new_owner, m.req_id, m.value, m.version);
}
void fields(auto& io, Is<OwnUpdate> auto& m) { io(m.owner, m.claim, m.entries); }
void fields(auto& io, Is<SwimPing> auto& m) {
  io(m.sender, m.origin, m.seq, m.incarnation, m.gossip);
}
void fields(auto& io, Is<SwimAck> auto& m) { io(m.subject, m.seq, m.incarnation, m.gossip); }
void fields(auto& io, Is<SwimPingReq> auto& m) { io(m.sender, m.target, m.seq, m.gossip); }
void fields(auto& io, Is<MembershipUpdate> auto& m) { io(m.sender, m.entries); }
void fields(auto& io, Is<ConForward> auto& m) {
  io(m.epoch, m.writer, m.req_id, op_block(m.ops));
}
void fields(auto& io, Is<ConPrepare> auto& m) { io(m.epoch, m.ballot, m.coordinator); }
void fields(auto& io, Is<ConPromise> auto& m) {
  io(m.epoch, m.ballot, m.acceptor, m.applied_upto, m.entries);
}
void fields(auto& io, Is<ConAccept> auto& m) {
  io(m.epoch, m.ballot, m.slot, m.commit_upto, m.writer, m.req_id, op_block(m.ops));
}
void fields(auto& io, Is<ConAccepted> auto& m) {
  io(m.epoch, m.ballot, m.slot, m.acceptor, m.applied_upto);
}
void fields(auto& io, Is<ConLearn> auto& m) {
  io(m.epoch, m.ballot, m.slot, m.commit_upto, m.writer, m.req_id, op_block(m.ops));
}

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// Counts the bytes an encode would write; Encoder<Sizer> walks a field
/// list to size a message exactly before it is written.
struct Sizer {
  std::size_t n = 0;
  void u8(std::uint8_t) { n += 1; }
  void u16(std::uint16_t) { n += 2; }
  void u32(std::uint32_t) { n += 4; }
  void u64(std::uint64_t) { n += 8; }
  void raw(std::span<const std::uint8_t> data) { n += data.size(); }
};

template <class Writer>
struct Encoder {
  Writer& w;

  void operator()(const auto&... f) { (put(f), ...); }

  template <class T>
  void put(const T& f) {
    if constexpr (std::is_same_v<T, bool>) {
      w.u8(f ? 1 : 0);
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
      if constexpr (sizeof(T) == 1) w.u8(f);
      else if constexpr (sizeof(T) == 4) w.u32(f);
      else w.u64(f);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      w.u16(static_cast<std::uint16_t>(f.size()));
      w.raw(f);
    } else if constexpr (kIsVector<T>) {
      w.u16(static_cast<std::uint16_t>(f.size()));
      for (const auto& e : f) put(e);
    } else {
      fields(*this, f);
    }
  }

  template <class Ops, class Seqs>
  void put(const OpBlock<Ops, Seqs>& b) {
    const bool has_seqs = b.seqs != nullptr && !b.seqs->empty();
    w.u16(static_cast<std::uint16_t>(b.ops.size()));
    w.u8(has_seqs ? 1 : 0);
    for (std::size_t i = 0; i < b.ops.size(); ++i) {
      put(b.ops[i]);
      if (has_seqs) w.u64((*b.seqs)[i]);
    }
  }
};

struct Decoder {
  ByteReader& r;

  void operator()(auto&&... f) { (get(f), ...); }

  template <class T>
  void get(T& f) {
    if constexpr (std::is_same_v<T, bool>) {
      f = r.u8() != 0;
    } else if constexpr (std::is_integral_v<T>) {
      if constexpr (sizeof(T) == 1) f = r.u8();
      else if constexpr (sizeof(T) == 4) f = r.u32();
      else f = r.u64();
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      const auto raw = r.raw(r.u16());
      f.assign(raw.begin(), raw.end());
    } else if constexpr (kIsVector<T>) {
      f.resize(r.u16());
      for (auto& e : f) get(e);
    } else {
      fields(*this, f);
    }
  }

  template <class Ops, class Seqs>
  void get(OpBlock<Ops, Seqs>& b) {
    const std::uint16_t n = r.u16();
    const bool has_seqs = r.u8() != 0;
    b.ops.resize(n);
    if (b.seqs != nullptr) b.seqs->assign(has_seqs ? n : 0, 0);
    for (std::uint16_t i = 0; i < n; ++i) {
      get(b.ops[i]);
      if (!has_seqs) continue;
      if (b.seqs != nullptr) (*b.seqs)[i] = r.u64();
      else r.skip(sizeof(SeqNum));
    }
  }
};

/// Decodes the body of variant alternative I in place.
template <std::size_t I>
std::optional<SwishMessage> decode_as(ByteReader& r) {
  std::optional<SwishMessage> out(std::in_place, std::in_place_index<I>);
  Decoder dec{r};
  fields(dec, std::get<I>(*out));
  return out;
}

/// Decoder of each message type, indexed by type byte - 1.
constexpr auto kDecoders = []<std::size_t... I>(std::index_sequence<I...>) {
  return std::array<std::optional<SwishMessage> (*)(ByteReader&), sizeof...(I)>{
      &decode_as<I>...};
}(std::make_index_sequence<kNumMsgTypes>{});

/// Type byte (flagged when traced), the context if sampled, then the body.
template <class Writer>
void encode_into(Writer& w, const SwishMessage& msg, const telemetry::SpanContext& ctx) {
  const auto type = static_cast<std::uint8_t>(msg.index() + 1);
  if (ctx.sampled()) {
    w.u8(type | kTracedFlag);
    w.u64(ctx.trace_id);
    w.u64(ctx.span_id);
    w.u8(ctx.hop);
  } else {
    w.u8(type);
  }
  Encoder<Writer> enc{w};
  std::visit([&enc](const auto& m) { fields(enc, m); }, msg);
}

}  // namespace

std::size_t encoded_size(const SwishMessage& msg, const telemetry::SpanContext& ctx) {
  Sizer sizer;
  encode_into(sizer, msg, ctx);
  return sizer.n;
}

void encode_message(SpanWriter& w, const SwishMessage& msg, const telemetry::SpanContext& ctx) {
  encode_into(w, msg, ctx);
}

std::vector<std::uint8_t> encode_message(const SwishMessage& msg) {
  return encode_message(msg, telemetry::SpanContext{});
}

std::vector<std::uint8_t> encode_message(const SwishMessage& msg,
                                         const telemetry::SpanContext& ctx) {
  std::vector<std::uint8_t> out(encoded_size(msg, ctx));
  SpanWriter w(out);
  encode_into(w, msg, ctx);
  return out;
}

std::optional<SwishMessage> decode_message(std::span<const std::uint8_t> payload) {
  telemetry::SpanContext ignored;
  return decode_message(payload, &ignored);
}

std::optional<SwishMessage> decode_message(std::span<const std::uint8_t> payload,
                                           telemetry::SpanContext* ctx) {
  *ctx = {};
  try {
    ByteReader r(payload);
    const std::uint8_t type_byte = r.u8();
    if ((type_byte & kTracedFlag) != 0) {
      ctx->trace_id = r.u64();
      ctx->span_id = r.u64();
      ctx->hop = r.u8();
    }
    const std::size_t type = type_byte & ~kTracedFlag;
    if (type == 0 || type > kNumMsgTypes) return std::nullopt;
    return kDecoders[type - 1](r);
  } catch (const BufferError&) {
    return std::nullopt;
  }
}

}  // namespace swish::pkt
