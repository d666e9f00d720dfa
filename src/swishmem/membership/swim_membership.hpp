// Decentralized SWIM failure detection (Das et al., DSN'02) between switch
// control planes, as the ROADMAP item 2 alternative to the central heartbeat
// scan. Detection is entirely switch-to-switch over the lossy data network:
//
//  - every protocol period (10 ms) each switch probes the next member of a
//    shuffled ring (SwimPing) and expects a SwimAck within 2 ms;
//  - a missed ack triggers indirection: two proxies are asked (SwimPingReq)
//    to probe the target on the origin's behalf, separating a dead member
//    from a bad origin<->target path;
//  - a member that fails both rounds becomes *suspect*, gossiped as such, and
//    is only committed to *faulty* after a suspicion timeout (40 ms, or more
//    on large fabrics) — giving it time to refute the rumor by bumping its
//    incarnation number;
//  - membership assertions piggyback on all SWIM traffic (anti-entropy
//    dissemination), each retransmitted 8 times.
//
// These timings are named constants in swim_membership.cpp.
//
// The controller never participates: its SwimMembership service is a passive
// aggregator that receives finished faulty verdicts (MembershipUpdate) from
// the switches and feeds them to the unchanged repair machinery.
#pragma once

#include <deque>
#include <set>

#include "common/rng.hpp"
#include "swishmem/membership/membership.hpp"
#include "telemetry/metrics.hpp"

namespace swish::shm {

class ShmRuntime;

/// Controller-side SWIM membership: consumes switch-reported verdicts, runs
/// no detection of its own (no timers, no probes — the controller is out of
/// the detection loop entirely).
class SwimMembership final : public MembershipService {
 public:
  explicit SwimMembership(sim::Simulator& sim) : MembershipService(sim) {}

  void start() override;
  void on_update(const pkt::MembershipUpdate& update) override;
  void force_fail(SwitchId id) override;
  /// Bumps the recorded incarnation past the failed one so stale pre-revival
  /// verdicts still floating in the gossip mesh cannot re-fail the member.
  void readmit(SwitchId id) override;

  [[nodiscard]] MembershipProtocol protocol() const noexcept override {
    return MembershipProtocol::kSwim;
  }

 private:
  /// A faulty verdict waiting for corroboration: the set of distinct usable
  /// reporters that asserted it at this incarnation. Committing on a single
  /// report would let one peer-partitioned switch (its controller link still
  /// up, every peer unreachable) evict the entire rest of the fabric.
  struct PendingVerdict {
    std::uint32_t incarnation = 0;
    TimeNs first_report = 0;
    std::set<SwitchId> reporters;
  };

  [[nodiscard]] std::size_t quorum() const noexcept;

  std::map<SwitchId, PendingVerdict> pending_;
};

/// Per-switch SWIM detector. Lives inside the switch's ShmRuntime; the probe
/// tick and all timeouts run as gated control-plane jobs on the switch's own
/// simulator, so a failed switch falls silent immediately (probes unanswered,
/// timers no-op) and the whole protocol stays shard-deterministic — every
/// agent's events execute on its own switch's shard.
class SwimAgent {
 public:
  SwimAgent(ShmRuntime& host, const std::vector<SwitchId>& peers);

  /// Arms the periodic probe tick (call once, from ShmRuntime::start()).
  void start();

  /// Post-recover() reset: the agent returns with a bumped incarnation (its
  /// refutation key — peers recorded at most the old one, so the announced
  /// alive entry overrides any lingering suspect/faulty rumor), an optimistic
  /// all-alive view (gossip re-teaches real faults), and empty gossip.
  void reset();

  // Wire ingress, dispatched by ShmRuntime::handle_protocol_packet.
  void on_ping(const pkt::SwimPing& msg);
  void on_ack(const pkt::SwimAck& msg);
  void on_ping_req(const pkt::SwimPingReq& msg);
  void on_update(const pkt::MembershipUpdate& msg);

  [[nodiscard]] std::uint32_t incarnation() const noexcept { return incarnation_; }
  [[nodiscard]] MemberState peer_state(SwitchId id) const noexcept;

 private:
  struct Peer {
    MemberState state = MemberState::kAlive;
    std::uint32_t incarnation = 0;
    TimeNs last_proof = 0;
    sim::TimerHandle suspicion_timer;
    /// True when this agent's own failed probe started the suspicion (it then
    /// re-probes the suspect ahead of the ring). Gossip-learned suspicions
    /// stay false: if every agent re-probed every rumored suspect, one rumor
    /// would aim the whole fabric's probes at a single control plane at once,
    /// and the ack delay from that pile-on reads as further evidence of death.
    bool self_suspected = false;
  };

  /// One dissemination-queue entry; dropped after sends_left transmissions
  /// (the SWIM λ·log n retransmit bound, configured as a flat count).
  struct GossipItem {
    pkt::MemberInfo info;
    unsigned sends_left = 0;
  };

  void tick();
  void probe(SwitchId target);
  /// Sends one direct ping for the current probe and arms its ack timeout.
  void send_ping(SwitchId target);
  void on_probe_timeout(SwitchId target, std::uint64_t seq);
  void on_indirect_timeout(SwitchId target, std::uint64_t seq);
  void begin_suspicion(SwitchId id);
  void arm_suspicion_timer(SwitchId id);
  void declare_faulty(SwitchId id);
  void report_to_controller(const pkt::MemberInfo& info);
  void apply_gossip(const std::vector<pkt::MemberInfo>& entries);
  /// Direct proof of life (a ping or ack from the member itself).
  void refresh(SwitchId id, std::uint32_t incarnation);
  void enqueue_gossip(const pkt::MemberInfo& info);
  /// Piggyback slots per message: max(configured fanout, log2 of fabric size).
  [[nodiscard]] std::size_t gossip_fanout() const;
  [[nodiscard]] std::vector<pkt::MemberInfo> take_gossip();
  [[nodiscard]] SwitchId next_probe_target();
  /// Round-robin over currently-suspect peers; kInvalidNode when none.
  [[nodiscard]] SwitchId next_suspect_target();
  [[nodiscard]] std::vector<SwitchId> pick_proxies(SwitchId exclude);
  void send_msg(SwitchId dst, const pkt::SwishMessage& msg);
  void trace(const char* what, std::uint64_t a, std::uint64_t b = 0);

  ShmRuntime& host_;
  std::map<SwitchId, Peer> peers_;   // every other switch; ordered => determinism
  std::vector<SwitchId> ring_;       // shuffled probe order, reshuffled per wrap
  std::size_t ring_pos_ = 0;
  std::size_t suspect_rr_ = 0;       // rotates suspect re-probes when several
  std::uint32_t incarnation_ = 0;
  std::uint64_t next_seq_ = 1;
  // At most one outstanding probe (the tick rate bounds detector load).
  SwitchId probe_target_ = kInvalidNode;
  std::uint64_t probe_seq_ = 0;
  bool probe_indirect_ = false;      // direct round failed, proxies in flight
  bool probe_retried_ = false;       // second direct ping already spent
  std::deque<GossipItem> gossip_;
  Rng rng_;
  sim::TimerHandle tick_timer_;

  // Registry-backed counters under `membership.sw<id>.*`.
  telemetry::Counter pings_sent_;
  telemetry::Counter acks_sent_;
  telemetry::Counter ping_reqs_sent_;
  telemetry::Counter suspicions_;
  telemetry::Counter refutations_;
  telemetry::Counter faults_declared_;
  telemetry::Counter updates_sent_;
  telemetry::Counter bytes_;
};

}  // namespace swish::shm
