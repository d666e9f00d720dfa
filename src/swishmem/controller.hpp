// Central controller (§6.3): detects fail-stop switch failures from missing
// heartbeats, repairs the SRO chain and the EWO replica group, reprograms
// routing around failed switches, and orchestrates recovery of replacement
// switches via the tail's snapshot stream.
//
// Heartbeats arrive over the data network (lossy); configuration pushes use
// an out-of-band management network modelled as a reliable RPC with fixed
// latency — standard practice for SDN controllers (Onix et al.).
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "net/network.hpp"
#include "swishmem/membership/membership.hpp"
#include "swishmem/runtime.hpp"

namespace swish::shm {

class Controller : public net::Node {
 public:
  struct Config {
    /// Declare failure after this much heartbeat silence. Heartbeats ride the
    /// lossy data network, so keep several periods of margin: with 10 ms
    /// beats, 60 ms tolerates 5 consecutive losses before a false positive.
    TimeNs heartbeat_timeout = 60 * kMs;
    TimeNs check_period = 10 * kMs;   ///< failure-detector scan interval
    TimeNs mgmt_latency = 500 * kUs;  ///< management RPC one-way latency
    /// Failure-detection strategy: the central heartbeat scan above, or
    /// decentralized SWIM gossip between the switches (the controller then
    /// only consumes finished verdicts; the timing knobs live per switch in
    /// RuntimeConfig).
    MembershipProtocol membership = MembershipProtocol::kHeartbeat;

    /// Throws std::invalid_argument when the timing configuration is
    /// impossible (non-positive periods, or a timeout the scan could never
    /// observe). Public so front-ends (swish_sim) can validate flag
    /// combinations up front and exit cleanly instead of crashing on the
    /// constructor's throw.
    void validate() const;
  };

  /// Runs on the shard `shards` assigns to `id`. With more than one shard
  /// the controller routes every member-object call through the shard set:
  /// config/chain pushes land on the member's shard, recovery-stream
  /// kickoffs run on the donor's shard, and stream-completion callbacks hop
  /// back to the controller's shard. One shard keeps the legacy direct paths
  /// bit-for-bit. Throws std::invalid_argument when the timing configuration
  /// is impossible (non-positive periods, or a timeout the scan could never
  /// observe).
  Controller(sim::ShardSet& shards, net::Network& network, NodeId id, Config config);

  /// Registers a switch and its runtime. Registration order defines the
  /// initial chain order (head first).
  void register_switch(pisa::Switch& sw, ShmRuntime& runtime);

  /// Installs epoch-1 chain/group/routing on all switches, directly (models
  /// pre-provisioned configuration before traffic starts).
  void bootstrap();

  /// Starts the heartbeat-based failure detector.
  void start();

  void handle_packet(pkt::Packet packet, net::PortId ingress_port) override;

  /// Re-admits a recovered/replacement switch: rejoins the EWO group at once
  /// (periodic sync restores it, §6.3) and re-enters the SRO chain only after
  /// the tail's snapshot stream completes.
  void readmit_switch(SwitchId id);

  // -- Directory service (§9): partitioned spaces -----------------------------

  /// Registers a partitioned space replicated only on `replicas`. Must be
  /// called before bootstrap(). The directory owns the space's chain.
  void register_space(const SpaceConfig& config, std::vector<SwitchId> replicas);

  /// Migrates a partitioned space to a new replica set: new members receive
  /// the state through the tail's snapshot stream, then the space's chain
  /// switches over. `done` fires when the new chain is installed.
  void migrate_space(std::uint32_t space, std::vector<SwitchId> new_replicas,
                     std::function<void(TimeNs)> done = nullptr);

  /// Current replica set of a partitioned space (nullptr if unregistered).
  [[nodiscard]] const std::vector<SwitchId>* space_replicas(std::uint32_t space) const;

  /// Immediately marks a switch failed (bypasses heartbeat timeout), for
  /// experiments that separate detection time from repair time.
  void declare_failed(SwitchId id);

  [[nodiscard]] const pkt::ChainConfig& chain() const noexcept { return chain_; }
  [[nodiscard]] const pkt::GroupConfig& group() const noexcept { return group_; }

  /// The failure-detection service feeding the repair machinery.
  [[nodiscard]] const MembershipService& membership() const noexcept { return *membership_; }

  // Experiment hooks.
  std::function<void(SwitchId, TimeNs)> on_failure_detected;
  std::function<void(SwitchId, TimeNs)> on_failover_complete;
  std::function<void(SwitchId, TimeNs)> on_recovery_complete;

 private:
  /// Repair path, driven by the membership service's faulty verdicts:
  /// `detection_ns` is the service-reported silence when the verdict landed.
  void handle_failure(SwitchId failed, TimeNs detection_ns);

  [[nodiscard]] bool sharded() const noexcept { return shards_.count() > 1; }

  /// Runs `fn` after `delay` on the shard executing `node`'s events (the
  /// legacy sim_.post_after when unsharded — same event position, so a
  /// one-shard run stays byte-identical).
  void post_to_node(NodeId node, TimeNs delay, sim::EventFn fn);

  /// Wraps a callback that will fire on a member's shard so its body executes
  /// on the controller's shard (one lookahead later); identity when unsharded.
  /// std::function (not sim::EventFn) because stream-done callbacks are
  /// copyable handles held by the runtime.
  [[nodiscard]] std::function<void()> to_controller(std::function<void()> fn);

  /// Pushes chain/group/routing to all live switches over the management
  /// network (mgmt_latency); `immediate` bypasses latency for bootstrap.
  void push_configs(bool immediate);

  [[nodiscard]] std::vector<NodeId> failed_nodes() const;

  /// Installs directory-owned space chains on every live switch.
  void push_space_chains(bool immediate);

  struct SpaceEntry {
    SpaceConfig config;
    std::vector<SwitchId> replicas;
  };

  struct Member {
    pisa::Switch* sw = nullptr;
    ShmRuntime* runtime = nullptr;
  };

  /// Usable for chains/groups/routing per the membership service.
  [[nodiscard]] bool usable(SwitchId id) const noexcept {
    return membership_->view().usable(id);
  }

  sim::ShardSet& shards_;
  sim::Simulator& sim_;
  net::Network& network_;
  Config config_;
  std::unique_ptr<MembershipService> membership_;
  std::map<SwitchId, Member> members_;  // ordered => deterministic chain order
  // Failure observability: detection (silence at verdict) and repair (verdict
  // to reconfiguration-applied) latencies, split per ROADMAP item 2.
  telemetry::Counter failures_detected_;
  telemetry::Histo detection_ns_;
  telemetry::Histo repair_ns_;
  pkt::ChainConfig chain_;
  pkt::GroupConfig group_;
  std::map<std::uint32_t, SpaceEntry> directory_;  ///< partitioned spaces (§9)
  std::uint32_t next_epoch_ = 1;
};

}  // namespace swish::shm
