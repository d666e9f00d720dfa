// OWN: per-key single-writer ownership with a home-replica directory — the
// protocol the paper sketches for write-intensive strongly-consistent state
// (§6.3's NAT port-allocation discussion). Each key has a home replica,
// chosen by hashing the key over the live group; the home tracks the key's
// current owner in a directory and keeps a backup copy. A switch that wants
// to write a key it does not own asks the home (OwnRequest); the home either
// grants from its backup (key unowned) or revokes the current owner, which
// relinquishes and ships (value, version) back through the home (OwnGrant).
// Writes by the owner are purely local and linearizable per key; a periodic
// OwnUpdate flush backs dirty keys up to their homes, which doubles as
// directory self-healing (claim flag). Every hop is idempotent: requests are
// retried with the same req_id, grants are version-checked, and a stale
// grant can never install dual ownership because the requester only accepts
// a grant matching its outstanding req_id.
#pragma once

#include <map>

#include "swishmem/protocols/engine.hpp"
#include "swishmem/protocols/own_space.hpp"

namespace swish::shm {

class OwnerEngine final : public ProtocolEngine {
 public:
  /// Registry-backed counters under `shm.sw<id>.own.*`; this struct is a
  /// view over the simulator's MetricsRegistry cells.
  struct Stats {
    telemetry::Counter reads;
    telemetry::Counter local_writes;       ///< writes applied as owner
    telemetry::Counter acquisitions_started;
    telemetry::Counter acquisitions_completed;
    telemetry::Counter acquisitions_failed;  ///< retry budget exhausted
    telemetry::Counter acquisition_retries;
    telemetry::Counter revokes_served;     ///< ownership relinquished
    telemetry::Counter grants_issued;      ///< grants sent by this home
    telemetry::Counter queue_rejected;     ///< ops dropped at the per-key queue limit
    telemetry::Counter backup_entries_sent;
    telemetry::Counter backup_entries_merged;
    telemetry::Counter bytes;  ///< OwnRequest + OwnGrant + OwnUpdate
  };

  explicit OwnerEngine(ShmRuntime& host);

  [[nodiscard]] ConsistencyClass cls() const noexcept override {
    return ConsistencyClass::kOWN;
  }

  void add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) override;
  [[nodiscard]] bool hosts_space(std::uint32_t space) const noexcept override;
  void start() override;
  void reset() override;
  void on_config_update() override;

  ReadStatus read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                  std::uint64_t& value) override;
  void write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) override;
  bool update(std::uint32_t space, std::uint64_t key, std::int64_t delta,
              UpdateDone done) override;

  [[nodiscard]] std::vector<pkt::MsgType> message_types() const override;
  bool handle_message(const pkt::SwishMessage& msg) override;

  [[nodiscard]] std::unique_ptr<SnapshotSource> snapshot_source(
      std::optional<std::uint32_t> space_filter) override;
  void apply_recovery_op(const pkt::WriteOp& op, SeqNum seq) override;

  // -- Introspection (tests, tools) ---------------------------------------------
  [[nodiscard]] const OwnSpaceState* space_state(std::uint32_t id) const;
  [[nodiscard]] const Stats& own_stats() const noexcept { return stats_; }
  /// Home replica of a key (hash placement over the live group).
  [[nodiscard]] SwitchId home_of(std::uint32_t space, std::uint64_t key) const;
  /// True when this switch currently owns the key.
  [[nodiscard]] bool owns(std::uint32_t space, std::uint64_t key) const;

 private:
  using KeyRef = std::pair<std::uint32_t, std::uint64_t>;  ///< (space, key)

  /// One queued operation awaiting ownership.
  struct QueuedOp {
    bool is_update = false;
    std::uint64_t value = 0;           ///< write payload
    std::int64_t delta = 0;            ///< update payload
    UpdateDone done;                   ///< update completion (receives new value)
    std::function<void()> completion;  ///< write completion (releases the output)
  };

  /// Requester-side in-flight acquisition.
  struct PendingAcquire {
    std::uint64_t req_id = 0;
    std::vector<QueuedOp> queue;
  };

  /// Home-side in-flight revoke: set when the revoke is forwarded to the
  /// current owner, cleared when the matching OwnGrant flows back. Grants
  /// with a non-matching req_id are dropped (stale-grant guard).
  struct PendingGrant {
    std::uint64_t req_id = 0;
    SwitchId requester = kInvalidNode;
  };

  void on_own_request(const pkt::OwnRequest& msg);
  void on_own_grant(const pkt::OwnGrant& msg);
  void on_own_update(const pkt::OwnUpdate& msg);

  /// Applies `op` now if this switch owns the key, else queues it behind an
  /// (possibly new) acquisition.
  void apply_or_acquire(std::uint32_t space, std::uint64_t key, QueuedOp op);
  void apply_owned(OwnSpaceState& st, std::uint32_t space, std::uint64_t key, QueuedOp& op);
  void begin_acquire(std::uint32_t space, std::uint64_t key);
  void install_grant(const pkt::OwnGrant& msg);

  /// Home-side: grant `key` to `requester` from the local backup copy.
  void grant_from_backup(OwnSpaceState& st, std::uint32_t space, std::uint64_t key,
                         SwitchId requester, std::uint64_t req_id);

  /// Periodic owner -> home flush of dirty keys (also heals directories).
  void backup_flush();
  /// Sends claim-updates for every owned key (directory healing after a
  /// group change moved some keys' homes).
  void flush_claims();
  void send_backup_entries(std::uint32_t space, const OwnSpaceState& st,
                           const std::vector<std::uint64_t>& slots);

  /// Routes a protocol message, short-circuiting self-delivery (a switch can
  /// be requester, home, and owner in any combination).
  void deliver(SwitchId dst, const pkt::SwishMessage& msg);

  [[nodiscard]] const std::vector<SwitchId>& members() const noexcept;

  std::map<std::uint32_t, std::unique_ptr<OwnSpaceState>> spaces_;
  std::map<KeyRef, PendingGrant> pending_grants_;  // home side
  Stats stats_;
  /// Requester side, on the retry path. Retries reuse the SAME req_id
  /// (idempotent at home and owner) but recompute the home, so they survive
  /// a failover-driven re-homing.
  RetryTable<KeyRef, PendingAcquire> pending_acquires_;
};

}  // namespace swish::shm
