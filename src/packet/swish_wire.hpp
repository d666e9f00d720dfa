// Wire format of the SwiShmem replication protocol (§6, §7 of the paper).
//
// Protocol messages travel as UDP payloads on kSwishPort between switches in
// the simulated fabric, so they are subject to the same loss/reordering as
// application traffic — exactly the environment the protocols are designed
// for. Messages are deliberately small (the paper notes ~100-byte objects
// suit in-switch replication); a WriteRequest with one op is 45 bytes of
// payload, 53 once the chain head has sequenced it.
//
// Each message's byte layout is declared once, as a field list in
// swish_wire.cpp; the encoder, the decoder and the type byte (variant index
// + 1) all derive from it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/buffer.hpp"
#include "common/types.hpp"
#include "telemetry/span.hpp"

namespace swish::pkt {

/// UDP destination port carrying SwiShmem protocol messages.
inline constexpr std::uint16_t kSwishPort = 9599;

/// High bit of the type byte: the message carries an in-band trace context
/// (17 bytes: trace id, span id, hop count) between the type byte and the
/// body. Unsampled messages never set it, so their encoding is byte-identical
/// to a tracing-disabled build.
inline constexpr std::uint8_t kTracedFlag = 0x80;

enum class MsgType : std::uint8_t {
  kWriteRequest = 1,
  kWriteAck = 2,
  kEwoUpdate = 3,
  kHeartbeat = 4,
  kChainConfig = 5,
  kGroupConfig = 6,
  kReadRedirect = 7,
  kOwnRequest = 8,
  kOwnGrant = 9,
  kOwnUpdate = 10,
  kSwimPing = 11,
  kSwimAck = 12,
  kSwimPingReq = 13,
  kMembershipUpdate = 14,
  kConForward = 15,
  kConPrepare = 16,
  kConPromise = 17,
  kConAccept = 18,
  kConAccepted = 19,
  kConLearn = 20,
};

/// One register mutation inside a write request.
struct WriteOp {
  std::uint32_t space = 0;       ///< logical register array id
  std::uint64_t key = 0;         ///< register index, or 64-bit table key
  std::uint64_t value = 0;

  friend bool operator==(const WriteOp&, const WriteOp&) = default;
};

/// SRO/ERO chain write. Created by the writer's control plane (seqs empty),
/// sequenced by the chain head (seqs filled, one per op), then propagated
/// down the chain. `write_id` is globally unique per logical write so
/// retries and duplicated acks are idempotent.
struct WriteRequest {
  std::uint32_t epoch = 0;            ///< chain configuration epoch
  SwitchId writer = kInvalidNode;     ///< switch whose control plane buffers P'
  std::uint64_t write_id = 0;
  bool snapshot_replay = false;       ///< recovery resend guarded by old seqs
  /// Recovery only: identifies the donor stream this chunk belongs to
  /// ((donor << 16) | stream counter, never 0). A target seeing a new epoch
  /// resets its write_id cursor, so restarted or re-homed streams — whose
  /// write_ids start from 1 again — are not misread as duplicates.
  std::uint32_t snapshot_epoch = 0;
  std::vector<WriteOp> ops;
  std::vector<SeqNum> seqs;           ///< parallel to ops once head-assigned

  friend bool operator==(const WriteRequest&, const WriteRequest&) = default;
};

/// Sent by the chain tail to the writer (releases the buffered output packet)
/// and multicast to chain members (clears pending bits).
struct WriteAck {
  std::uint32_t epoch = 0;
  SwitchId writer = kInvalidNode;
  std::uint64_t write_id = 0;
  std::vector<WriteOp> ops;   ///< echoed so receivers can clear per-key state
  std::vector<SeqNum> seqs;

  friend bool operator==(const WriteAck&, const WriteAck&) = default;
};

/// One register slot inside an EWO update.
struct EwoEntry {
  std::uint32_t space = 0;
  std::uint64_t key = 0;
  RawVersion version = 0;  ///< LWW version, or monotone counter value for CRDTs
  std::uint64_t value = 0;

  friend bool operator==(const EwoEntry&, const EwoEntry&) = default;
};

/// Asynchronous EWO state delta: either a per-write egress-mirrored update or
/// a chunk of the periodic full synchronization (§6.2). `origin` names the
/// replica whose slot is being reported (needed by CRDT vector merges).
struct EwoUpdate {
  SwitchId origin = kInvalidNode;
  bool periodic = false;  ///< true when produced by the packet-generator scan
  std::vector<EwoEntry> entries;

  friend bool operator==(const EwoUpdate&, const EwoUpdate&) = default;
};

/// Liveness beacon consumed by the central controller's failure detector.
struct Heartbeat {
  SwitchId sender = kInvalidNode;
  std::uint64_t send_time_ns = 0;

  friend bool operator==(const Heartbeat&, const Heartbeat&) = default;
};

/// Controller -> switch: the SRO chain for a new epoch.
struct ChainConfig {
  std::uint32_t epoch = 0;
  std::vector<SwitchId> chain;  ///< head first, tail last

  friend bool operator==(const ChainConfig&, const ChainConfig&) = default;
};

/// Controller -> switch: EWO replica-group membership for a new epoch.
struct GroupConfig {
  std::uint32_t epoch = 0;
  std::vector<SwitchId> members;

  friend bool operator==(const GroupConfig&, const GroupConfig&) = default;
};

/// A read that hit a pending register, encapsulated to the chain tail (§6.1).
/// Carries the original packet so the tail can run the NF logic on the
/// latest committed state and emit the output itself.
struct ReadRedirect {
  SwitchId origin = kInvalidNode;
  std::vector<std::uint8_t> original_packet;

  friend bool operator==(const ReadRedirect&, const ReadRedirect&) = default;
};

/// kOWN ownership acquisition (per-key single-writer migration, §6.3
/// write-intensive class). Sent requester -> home replica; when the key is
/// currently owned by a third switch, the home forwards it to that owner
/// with `revoke` set. `req_id` is requester-unique so lost grants can be
/// re-driven idempotently by retransmitting the same request.
struct OwnRequest {
  std::uint32_t space = 0;
  std::uint64_t key = 0;
  SwitchId requester = kInvalidNode;
  std::uint64_t req_id = 0;
  bool revoke = false;  ///< home -> current-owner leg (give the key up)

  friend bool operator==(const OwnRequest&, const OwnRequest&) = default;
};

/// kOWN ownership transfer: carries the key's latest value+version to its
/// new owner. Travels old-owner -> home (directory update) -> requester.
struct OwnGrant {
  std::uint32_t space = 0;
  std::uint64_t key = 0;
  SwitchId new_owner = kInvalidNode;
  std::uint64_t req_id = 0;
  std::uint64_t value = 0;
  std::uint64_t version = 0;  ///< per-key write counter, monotone across owners

  friend bool operator==(const OwnGrant&, const OwnGrant&) = default;
};

/// kOWN periodic backup flush: an owner reports dirty owned keys to their
/// home replicas so ownership can be re-granted from the home copy after an
/// owner failure. Entries reuse the EwoEntry shape (space, key, version,
/// value); `claim` re-asserts directory ownership after a home restart.
struct OwnUpdate {
  SwitchId owner = kInvalidNode;
  bool claim = true;
  std::vector<EwoEntry> entries;

  friend bool operator==(const OwnUpdate&, const OwnUpdate&) = default;
};

/// One gossiped membership assertion, piggybacked on SWIM protocol traffic
/// (anti-entropy dissemination) and carried by MembershipUpdate verdicts.
/// `state` is shm::MemberState (0 alive, 1 suspect, 2 faulty); assertions
/// about the same member are ordered by incarnation, then by state severity.
struct MemberInfo {
  SwitchId member = kInvalidNode;
  std::uint8_t state = 0;
  std::uint32_t incarnation = 0;
  /// Observer-side silence when the assertion was made: ns since the asserting
  /// switch last had proof of life (0 for alive assertions). Preserved by
  /// gossip relays so detection latency survives dissemination.
  std::uint64_t evidence_ns = 0;

  friend bool operator==(const MemberInfo&, const MemberInfo&) = default;
};

/// SWIM direct or proxied probe. `origin` is the probe initiator the ack must
/// return to; it equals `sender` for direct pings and names the requesting
/// switch when the ping was relayed by a ping-req proxy.
struct SwimPing {
  SwitchId sender = kInvalidNode;
  SwitchId origin = kInvalidNode;
  std::uint64_t seq = 0;             ///< origin-local probe sequence number
  std::uint32_t incarnation = 0;     ///< sender's own incarnation
  std::vector<MemberInfo> gossip;

  friend bool operator==(const SwimPing&, const SwimPing&) = default;
};

/// SWIM probe answer, sent by the probed member straight to the probe origin.
struct SwimAck {
  SwitchId subject = kInvalidNode;   ///< the member that answered
  std::uint64_t seq = 0;
  std::uint32_t incarnation = 0;     ///< subject's own incarnation
  std::vector<MemberInfo> gossip;

  friend bool operator==(const SwimAck&, const SwimAck&) = default;
};

/// SWIM indirection: after a direct-probe timeout the origin asks k proxies
/// to ping the target on its behalf (distinguishes a dead member from a bad
/// origin<->target path).
struct SwimPingReq {
  SwitchId sender = kInvalidNode;    ///< probe origin
  SwitchId target = kInvalidNode;    ///< member to ping on the origin's behalf
  std::uint64_t seq = 0;
  std::vector<MemberInfo> gossip;

  friend bool operator==(const SwimPingReq&, const SwimPingReq&) = default;
};

/// Switch -> controller membership verdict feed: a switch that locally
/// committed a member to faulty reports it so the central repair machinery
/// (chain/group reconfiguration, recovery) can run. Detection itself is
/// switch-to-switch; the controller only consumes finished verdicts.
struct MembershipUpdate {
  SwitchId sender = kInvalidNode;
  std::vector<MemberInfo> entries;

  friend bool operator==(const MembershipUpdate&, const MembershipUpdate&) = default;
};

/// kCON write submission: a non-coordinator replica forwards a — possibly
/// multi-key, multi-space — op batch to the elected coordinator, which
/// sequences it as one consensus slot (the whole batch commits and applies
/// atomically: the "packet transaction" primitive). `req_id` is
/// writer-unique so retransmitted forwards are idempotent.
struct ConForward {
  std::uint32_t epoch = 0;
  SwitchId writer = kInvalidNode;
  std::uint64_t req_id = 0;
  std::vector<WriteOp> ops;

  friend bool operator==(const ConForward&, const ConForward&) = default;
};

/// kCON phase-1a: a newly elected coordinator asks every replica to promise
/// its ballot and report accepted-but-unapplied slots.
struct ConPrepare {
  std::uint32_t epoch = 0;
  std::uint64_t ballot = 0;
  SwitchId coordinator = kInvalidNode;

  friend bool operator==(const ConPrepare&, const ConPrepare&) = default;
};

/// One accepted log entry reported back in a phase-1b promise.
struct ConEntry {
  std::uint64_t slot = 0;
  std::uint64_t ballot = 0;       ///< ballot the entry was accepted under
  SwitchId writer = kInvalidNode;
  std::uint64_t req_id = 0;
  std::vector<WriteOp> ops;

  friend bool operator==(const ConEntry&, const ConEntry&) = default;
};

/// kCON phase-1b: an acceptor promises `ballot` and reports every slot it
/// has accepted above its applied prefix, so the new coordinator can
/// re-propose in-flight transactions before opening for new writes.
struct ConPromise {
  std::uint32_t epoch = 0;
  std::uint64_t ballot = 0;
  SwitchId acceptor = kInvalidNode;
  std::uint64_t applied_upto = 0;  ///< highest contiguously applied slot
  std::vector<ConEntry> entries;

  friend bool operator==(const ConPromise&, const ConPromise&) = default;
};

/// kCON phase-2a: the coordinator proposes the transaction `ops` at `slot`
/// under `ballot`. `commit_upto` piggybacks the highest contiguously
/// committed slot so acceptors apply without a separate learn round trip.
struct ConAccept {
  std::uint32_t epoch = 0;
  std::uint64_t ballot = 0;
  std::uint64_t slot = 0;
  std::uint64_t commit_upto = 0;
  SwitchId writer = kInvalidNode;
  std::uint64_t req_id = 0;
  std::vector<WriteOp> ops;

  friend bool operator==(const ConAccept&, const ConAccept&) = default;
};

/// kCON phase-2b, doubling as the learn acknowledgement: `applied_upto`
/// tells the coordinator how far this acceptor's applied prefix reaches, so
/// lost learns (and freshly revived, empty replicas) are repaired by
/// re-sending the missing slots.
struct ConAccepted {
  std::uint32_t epoch = 0;
  std::uint64_t ballot = 0;
  std::uint64_t slot = 0;
  SwitchId acceptor = kInvalidNode;
  std::uint64_t applied_upto = 0;

  friend bool operator==(const ConAccepted&, const ConAccepted&) = default;
};

/// kCON commit notification. Carries the full op batch so it is also the
/// repair carrier for replicas that missed the accept, and its receipt from
/// the current-ballot coordinator refreshes the receiver's read lease.
struct ConLearn {
  std::uint32_t epoch = 0;
  std::uint64_t ballot = 0;
  std::uint64_t slot = 0;
  std::uint64_t commit_upto = 0;
  SwitchId writer = kInvalidNode;
  std::uint64_t req_id = 0;
  std::vector<WriteOp> ops;

  friend bool operator==(const ConLearn&, const ConLearn&) = default;
};

using SwishMessage = std::variant<WriteRequest, WriteAck, EwoUpdate, Heartbeat, ChainConfig,
                                  GroupConfig, ReadRedirect, OwnRequest, OwnGrant, OwnUpdate,
                                  SwimPing, SwimAck, SwimPingReq, MembershipUpdate, ConForward,
                                  ConPrepare, ConPromise, ConAccept, ConAccepted, ConLearn>;

/// Number of distinct protocol message types (registry sizing). The type
/// byte of alternative i is i + 1, matching MsgType.
inline constexpr std::size_t kNumMsgTypes = std::variant_size_v<SwishMessage>;
static_assert(static_cast<std::size_t>(MsgType::kConLearn) == kNumMsgTypes);

/// Name of a message's type, e.g. "WriteRequest" (static storage).
inline const char* message_name(const SwishMessage& msg) noexcept {
  static constexpr std::array<const char*, kNumMsgTypes> kNames{
      "WriteRequest", "WriteAck",    "EwoUpdate",   "Heartbeat",        "ChainConfig",
      "GroupConfig",  "ReadRedirect", "OwnRequest",  "OwnGrant",         "OwnUpdate",
      "SwimPing",     "SwimAck",     "SwimPingReq", "MembershipUpdate", "ConForward",
      "ConPrepare",   "ConPromise",  "ConAccept",   "ConAccepted",      "ConLearn"};
  return kNames[msg.index()];
}

/// Serializes a protocol message (type byte + body) into a UDP payload.
std::vector<std::uint8_t> encode_message(const SwishMessage& msg);

/// Serializes with an in-band trace context. An unsampled context produces
/// exactly the plain encoding; a sampled one sets kTracedFlag on the type
/// byte and inserts the 17-byte context before the body.
std::vector<std::uint8_t> encode_message(const SwishMessage& msg,
                                         const telemetry::SpanContext& ctx);

/// Parses a payload; returns nullopt on truncation or unknown type. Traced
/// payloads decode transparently (the context is skipped).
std::optional<SwishMessage> decode_message(std::span<const std::uint8_t> payload);

/// Parses a payload and, when kTracedFlag is set, fills `ctx` with the
/// carried trace context (left unsampled otherwise). `ctx` must be non-null.
std::optional<SwishMessage> decode_message(std::span<const std::uint8_t> payload,
                                           telemetry::SpanContext* ctx);

}  // namespace swish::pkt
