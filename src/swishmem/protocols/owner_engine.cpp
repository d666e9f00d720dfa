#include "swishmem/protocols/owner_engine.hpp"

#include <algorithm>
#include <map>

#include "swishmem/runtime.hpp"

namespace swish::shm {
namespace {

/// Owner -> home dirty-key backup flush period.
constexpr TimeNs kBackupInterval = 1 * kMs;

/// Entries per backup packet.
constexpr std::size_t kBackupChunk = 64;

/// Operations buffered per key while an ownership migration is in flight;
/// excess operations are rejected (their callbacks never fire).
constexpr std::size_t kQueueLimit = 1024;

}  // namespace

OwnerEngine::OwnerEngine(ShmRuntime& host)
    : ProtocolEngine(host),
      pending_acquires_(host,
                        {telemetry::DropReason::kWriteRetriesExhausted,
                         &stats_.acquisition_retries, &stats_.acquisitions_failed},
                        [this](const KeyRef& ref, auto& e) {
                          deliver(home_of(ref.first, ref.second),
                                  pkt::OwnRequest{ref.first, ref.second, host_.self(),
                                                  e.payload.req_id, /*revoke=*/false});
                        }) {
  telemetry::MetricsRegistry& reg = host_metrics();
  const std::string p = metric_prefix("own");
  stats_.reads = reg.counter(p + "reads");
  stats_.local_writes = reg.counter(p + "local_writes");
  stats_.acquisitions_started = reg.counter(p + "acquisitions_started");
  stats_.acquisitions_completed = reg.counter(p + "acquisitions_completed");
  stats_.acquisitions_failed = reg.counter(p + "acquisitions_failed");
  stats_.acquisition_retries = reg.counter(p + "acquisition_retries");
  stats_.revokes_served = reg.counter(p + "revokes_served");
  stats_.grants_issued = reg.counter(p + "grants_issued");
  stats_.queue_rejected = reg.counter(p + "queue_rejected");
  stats_.backup_entries_sent = reg.counter(p + "backup_entries_sent");
  stats_.backup_entries_merged = reg.counter(p + "backup_entries_merged");
  stats_.bytes = reg.counter(p + "bytes");
}

void OwnerEngine::add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) {
  (void)replicas;  // OWN spaces span the deployment; homes come from members()
  check_servable(config);
  spaces_.emplace(config.id, std::make_unique<OwnSpaceState>(host_.sw(), config));
}

bool OwnerEngine::hosts_space(std::uint32_t space) const noexcept {
  return spaces_.contains(space);
}

void OwnerEngine::start() {
  host_.every(kBackupInterval, [this]() { backup_flush(); });
}

void OwnerEngine::reset() {
  for (auto& [id, sp] : spaces_) sp->reset();
  pending_acquires_.clear();
  // Home-side pending grants carry no timers (the requester's retry re-drives
  // a lost migration), so clearing the map is the whole cleanup.
  pending_grants_.clear();
  // Request ids keep counting across the wipe, so a stale grant addressed
  // to the pre-failure incarnation never matches a new acquisition's req_id
  // and is rejected by the guard on the (freshly emptied) pending map.
}

void OwnerEngine::on_config_update() {
  // Home side: reclaim keys whose recorded owner left the live set — the next
  // acquisition is granted from this home's backup copy (§6.3 failover; the
  // un-flushed tail of the dead owner's writes is the protocol's loss window).
  const auto& live = members();
  for (auto& [id, sp] : spaces_) {
    for (std::uint64_t slot : sp->dir_slots_owned_outside(live)) {
      sp->clear_dir_owner(slot);
    }
  }
  // In-flight revokes may reference dead switches; drop them and let the
  // requesters' retries re-walk the (repaired) directory.
  pending_grants_.clear();
  // Owner side: a group change can move a key's home to a replica whose
  // directory has never heard of us. Proactively re-claim everything we own
  // so the new homes converge in one round trip instead of one backup period.
  flush_claims();
}

std::vector<pkt::MsgType> OwnerEngine::message_types() const {
  return {pkt::MsgType::kOwnRequest, pkt::MsgType::kOwnGrant, pkt::MsgType::kOwnUpdate};
}

bool OwnerEngine::handle_message(const pkt::SwishMessage& msg) {
  if (const auto* req = std::get_if<pkt::OwnRequest>(&msg)) {
    if (!spaces_.contains(req->space)) return false;
    on_own_request(*req);
    return true;
  }
  if (const auto* grant = std::get_if<pkt::OwnGrant>(&msg)) {
    if (!spaces_.contains(grant->space)) return false;
    on_own_grant(*grant);
    return true;
  }
  if (const auto* update = std::get_if<pkt::OwnUpdate>(&msg)) {
    if (update->entries.empty() || !spaces_.contains(update->entries.front().space)) {
      return false;
    }
    on_own_update(*update);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

const std::vector<SwitchId>& OwnerEngine::members() const noexcept {
  const auto& group = host_.group().members;
  return group.empty() ? host_.deployment() : group;
}

SwitchId OwnerEngine::home_of(std::uint32_t space, std::uint64_t key) const {
  const auto& m = members();
  if (m.empty()) return host_.self();
  const std::uint64_t mix =
      own_mix64(key ^ (static_cast<std::uint64_t>(space) * 0x9e3779b97f4a7c15ULL));
  return m[mix % m.size()];
}

bool OwnerEngine::owns(std::uint32_t space, std::uint64_t key) const {
  auto it = spaces_.find(space);
  return it != spaces_.end() && it->second->owned(key);
}

void OwnerEngine::deliver(SwitchId dst, const pkt::SwishMessage& msg) {
  if (dst == host_.self()) {
    handle_message(msg);
    return;
  }
  stats_.bytes += host_.send({&dst, 1}, msg);
}

// ---------------------------------------------------------------------------
// Datapath
// ---------------------------------------------------------------------------

ReadStatus OwnerEngine::read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                             std::uint64_t& value) {
  (void)ctx;  // reads never redirect: owner-fresh locally, backup-stale remotely
  auto it = spaces_.find(space);
  if (it == spaces_.end()) return ReadStatus::kMiss;
  ++stats_.reads;
  obs_.on_read(space, key, host_.self());
  const std::optional<std::uint64_t> v = it->second->read(key);
  if (!v) return ReadStatus::kMiss;
  value = *v;
  return ReadStatus::kOk;
}

void OwnerEngine::write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) {
  // The output releases when the last op of the batch has applied (each op
  // may wait on its own key's ownership migration).
  struct Batch {
    std::size_t remaining;
    pkt::Packet output;
    WriteRelease release;
  };
  auto batch = std::make_shared<Batch>();
  batch->remaining = ops.size();
  batch->output = std::move(output);
  batch->release = std::move(release);
  for (const auto& op : ops) {
    QueuedOp q;
    q.is_update = false;
    q.value = op.value;
    q.completion = [batch]() {
      if (--batch->remaining == 0 && batch->release) {
        batch->release(std::move(batch->output));
      }
    };
    apply_or_acquire(op.space, op.key, std::move(q));
  }
}

bool OwnerEngine::update(std::uint32_t space, std::uint64_t key, std::int64_t delta,
                         UpdateDone done) {
  auto it = spaces_.find(space);
  if (it == spaces_.end() || !it->second->addressable(key)) return false;
  QueuedOp q;
  q.is_update = true;
  q.delta = delta;
  q.done = std::move(done);
  apply_or_acquire(space, key, std::move(q));
  return true;
}

void OwnerEngine::apply_owned(OwnSpaceState& st, std::uint32_t space, std::uint64_t key,
                              QueuedOp& op) {
  ++stats_.local_writes;
  trace_origin("own_write", space, key);
  if (op.is_update) {
    const std::uint64_t result = st.value(key) + static_cast<std::uint64_t>(op.delta);
    st.owner_write(key, result);
    if (op.done) op.done(result);
  } else {
    st.owner_write(key, op.value);
    if (op.completion) op.completion();
  }
  // OWN propagates owner writes to exactly one replica — the key's home —
  // via the periodic backup flush (or the grant relinquish path). Self-homed
  // keys have no remote copy to lag behind.
  if (obs_.enabled() && home_of(space, key) != host_.self()) {
    obs_.on_commit(space, key, st.version(key), host_.self(), 1);
  }
}

void OwnerEngine::apply_or_acquire(std::uint32_t space, std::uint64_t key, QueuedOp op) {
  auto it = spaces_.find(space);
  if (it == spaces_.end()) return;
  OwnSpaceState& st = *it->second;
  if (!st.addressable(key)) {  // no register for the key: the write is dropped
    if (op.completion) op.completion();
    return;
  }
  if (st.owned(key)) {
    apply_owned(st, space, key, op);
    return;
  }
  const KeyRef ref{space, key};
  auto* pending = pending_acquires_.find(ref);
  if (pending == nullptr) {
    begin_acquire(space, key);
    // When this switch is its own home (or the whole path is local) the grant
    // installs synchronously inside begin_acquire.
    if (st.owned(key)) {
      apply_owned(st, space, key, op);
      return;
    }
    pending = pending_acquires_.find(ref);
    if (pending == nullptr) return;  // acquisition not startable
  }
  std::vector<QueuedOp>& queue = pending->payload.queue;
  if (queue.size() >= kQueueLimit) {
    ++stats_.queue_rejected;
    host_.report_drop(telemetry::DropReason::kOwnQueueOverflow, key);
    return;  // dropped; the op's callbacks never fire
  }
  queue.push_back(std::move(op));
}

// ---------------------------------------------------------------------------
// Acquisition (requester side)
// ---------------------------------------------------------------------------

void OwnerEngine::begin_acquire(std::uint32_t space, std::uint64_t slot) {
  ++stats_.acquisitions_started;
  const KeyRef ref{space, slot};
  const std::uint64_t req_id = pending_acquires_.mint_id();
  pending_acquires_.open(ref, {req_id, {}}, trace_origin("own_acquire", space, slot), slot);
  pending_acquires_.transmit(ref);
}

void OwnerEngine::install_grant(const pkt::OwnGrant& msg) {
  auto sit = spaces_.find(msg.space);
  if (sit == spaces_.end() || !sit->second->addressable(msg.key)) return;
  OwnSpaceState& st = *sit->second;
  const KeyRef ref{msg.space, msg.key};
  const auto* pending = pending_acquires_.find(ref);
  if (pending == nullptr || pending->payload.req_id != msg.req_id) {
    return;  // stale grant (e.g. for an acquisition that already timed out):
             // installing it could create a second owner, so drop it
  }
  if (msg.version >= st.version(msg.key)) st.store(msg.key, msg.value, msg.version);
  st.set_owned(msg.key, true);
  ++stats_.acquisitions_completed;
  host_.sw().simulator().tracer().record(telemetry::kTraceMigration, host_.self(),
                                         "own_acquired", msg.space, msg.key);
  trace_point("own_acquired", msg.space, msg.key);
  std::vector<QueuedOp> queue = std::move(pending_acquires_.close(ref)->payload.queue);
  for (auto& op : queue) apply_owned(st, msg.space, msg.key, op);
}

// ---------------------------------------------------------------------------
// Home directory + owner revocation
// ---------------------------------------------------------------------------

void OwnerEngine::grant_from_backup(OwnSpaceState& st, std::uint32_t space, std::uint64_t slot,
                                    SwitchId requester, std::uint64_t req_id) {
  st.set_dir_owner(slot, requester);
  ++stats_.grants_issued;
  deliver(requester,
          pkt::OwnGrant{space, slot, requester, req_id, st.value(slot), st.version(slot)});
}

void OwnerEngine::on_own_request(const pkt::OwnRequest& msg) {
  auto sit = spaces_.find(msg.space);
  if (sit == spaces_.end() || !sit->second->addressable(msg.key)) return;
  OwnSpaceState& st = *sit->second;

  if (msg.revoke) {
    // Owner side: relinquish, keeping the (now read-only, stale-allowed) copy,
    // and ship the authoritative value back through the home. A duplicate
    // revoke after relinquishing re-sends the same state; the home's req_id
    // check makes that harmless.
    if (st.owned(msg.key)) {
      st.set_owned(msg.key, false);
      ++stats_.revokes_served;
      host_.sw().simulator().tracer().record(telemetry::kTraceMigration, host_.self(),
                                             "own_revoked", msg.space, msg.key);
      trace_point("own_revoke", msg.space, msg.key);
    }
    deliver(home_of(msg.space, msg.key),
            pkt::OwnGrant{msg.space, msg.key, msg.requester, msg.req_id, st.value(msg.key),
                          st.version(msg.key)});
    return;
  }

  // Home side. Ignore requests that landed on a stale home; the requester's
  // retry recomputes placement from the next group config.
  if (home_of(msg.space, msg.key) != host_.self()) return;

  const SwitchId current = st.dir_owner(msg.key);
  if (current == kInvalidNode || current == msg.requester) {
    // Unowned (or a duplicate of a request we already granted): grant from
    // the backup copy.
    grant_from_backup(st, msg.space, msg.key, msg.requester, msg.req_id);
    return;
  }
  const KeyRef ref{msg.space, msg.key};
  auto git = pending_grants_.find(ref);
  if (git != pending_grants_.end() && git->second.req_id != msg.req_id) {
    // A migration for another requester is already in flight: first come,
    // first served. This requester's retry will revoke the new owner next.
    return;
  }
  pending_grants_[ref] = {msg.req_id, msg.requester};
  deliver(current, pkt::OwnRequest{msg.space, msg.key, msg.requester, msg.req_id,
                                   /*revoke=*/true});
}

void OwnerEngine::on_own_grant(const pkt::OwnGrant& msg) {
  auto sit = spaces_.find(msg.space);
  if (sit == spaces_.end() || !sit->second->addressable(msg.key)) return;
  OwnSpaceState& st = *sit->second;

  // Home relay: an owner relinquished in response to our revoke. Fold the
  // authoritative value into the backup, repoint the directory, and forward
  // the grant to the requester.
  auto git = pending_grants_.find(KeyRef{msg.space, msg.key});
  if (git != pending_grants_.end() && git->second.req_id == msg.req_id) {
    if (msg.version >= st.version(msg.key)) {
      // The relinquished value folding into the home backup IS the (single)
      // replica apply for the old owner's in-flight writes: close their
      // propagation records here so migration does not leak inflight entries.
      const SwitchId prev_owner = st.dir_owner(msg.key);
      if (prev_owner != kInvalidNode && prev_owner != host_.self()) {
        obs_.on_apply(msg.space, msg.key, prev_owner, msg.version, host_.self());
      }
      st.store(msg.key, msg.value, msg.version);
    }
    const SwitchId requester = git->second.requester;
    pending_grants_.erase(git);
    grant_from_backup(st, msg.space, msg.key, requester, msg.req_id);
    return;
  }

  // Requester side: install (req_id-guarded).
  if (msg.new_owner == host_.self()) install_grant(msg);
}

// ---------------------------------------------------------------------------
// Backup flush (owner -> home) and directory healing
// ---------------------------------------------------------------------------

void OwnerEngine::send_backup_entries(std::uint32_t space, const OwnSpaceState& st,
                                      const std::vector<std::uint64_t>& slots) {
  // Keys hash to per-key homes: bucket the entries by destination, then chunk.
  std::map<SwitchId, std::vector<pkt::EwoEntry>> by_home;
  for (std::uint64_t slot : slots) {
    if (!st.owned(slot)) continue;  // relinquished since marked dirty
    by_home[home_of(space, slot)].push_back(
        {space, slot, st.version(slot), st.value(slot)});
  }
  for (auto& [home, entries] : by_home) {
    if (home == host_.self()) continue;  // backup of self-homed keys is the copy itself
    for (std::size_t off = 0; off < entries.size(); off += kBackupChunk) {
      pkt::OwnUpdate update;
      update.owner = host_.self();
      update.claim = true;
      const std::size_t end = std::min(off + kBackupChunk, entries.size());
      update.entries.assign(entries.begin() + static_cast<std::ptrdiff_t>(off),
                            entries.begin() + static_cast<std::ptrdiff_t>(end));
      stats_.backup_entries_sent += update.entries.size();
      deliver(home, std::move(update));
    }
  }
}

void OwnerEngine::backup_flush() {
  // Root a span per flush round: backup propagation is the apply half of
  // OWN's consistency lag, so it must be visible in the causal DAG.
  const telemetry::SpanContext tr = trace_root("own_backup");
  ActiveTraceScope scope(host_, tr.sampled() ? tr : host_.active_trace());
  for (auto& [id, sp] : spaces_) send_backup_entries(id, *sp, sp->take_dirty());
}

void OwnerEngine::flush_claims() {
  const telemetry::SpanContext tr = trace_root("own_claims");
  ActiveTraceScope scope(host_, tr.sampled() ? tr : host_.active_trace());
  for (auto& [id, sp] : spaces_) send_backup_entries(id, *sp, sp->owned_slots());
}

void OwnerEngine::on_own_update(const pkt::OwnUpdate& msg) {
  bool merged_any = false;
  for (const auto& entry : msg.entries) {
    auto sit = spaces_.find(entry.space);
    if (sit == spaces_.end() || !sit->second->addressable(entry.key)) continue;
    OwnSpaceState& st = *sit->second;
    if (st.owned(entry.key)) continue;  // our owned copy outranks any backup
    if (entry.version > st.version(entry.key)) {
      st.store(entry.key, entry.value, entry.version);
      ++stats_.backup_entries_merged;
      merged_any = true;
    }
    // The observatory subsumes older idents and deduplicates replicas, so
    // reporting every entry (merged or not) is safe and closes records whose
    // value reached us through another path first.
    obs_.on_apply(entry.space, entry.key, msg.owner, entry.version, host_.self());
    if (msg.claim && home_of(entry.space, entry.key) == host_.self()) {
      // Directory self-healing: adopt the claimant when the directory has no
      // owner on record. A conflicting record wins — grants are authoritative.
      if (st.dir_owner(entry.key) == kInvalidNode) st.set_dir_owner(entry.key, msg.owner);
    }
  }
  if (merged_any && !msg.entries.empty()) {
    trace_point("own_backup_apply", msg.entries.front().space, msg.entries.front().key);
  }
}

// ---------------------------------------------------------------------------
// Recovery (§6.3)
// ---------------------------------------------------------------------------

std::unique_ptr<SnapshotSource> OwnerEngine::snapshot_source(
    std::optional<std::uint32_t> space_filter) {
  std::vector<std::unique_ptr<SnapshotSource>> parts;  // spaces_ is id-ordered
  for (const auto& [id, sp] : spaces_) {
    if (!space_filter || id == *space_filter) parts.push_back(sp->snapshot_source());
  }
  return make_chained_source(std::move(parts));
}

void OwnerEngine::apply_recovery_op(const pkt::WriteOp& op, SeqNum seq) {
  auto sit = spaces_.find(op.space);
  if (sit == spaces_.end() || !sit->second->addressable(op.key)) return;
  OwnSpaceState& st = *sit->second;
  if (st.owned(op.key)) return;
  if (seq > st.version(op.key)) st.store(op.key, op.value, seq);
}

const OwnSpaceState* OwnerEngine::space_state(std::uint32_t id) const {
  auto it = spaces_.find(id);
  return it == spaces_.end() ? nullptr : it->second.get();
}

}  // namespace swish::shm
