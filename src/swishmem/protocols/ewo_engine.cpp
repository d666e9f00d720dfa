#include "swishmem/protocols/ewo_engine.hpp"

#include <algorithm>
#include <optional>

#include "swishmem/runtime.hpp"
#include "swishmem/version.hpp"

namespace swish::shm {
namespace {

/// Registers per periodic-sync packet.
constexpr std::size_t kSyncChunkEntries = 64;

}  // namespace

EwoEngine::EwoEngine(ShmRuntime& host)
    : ProtocolEngine(host), rng_(0xe40 ^ (host.self() * 0x9e3779b9ULL)) {
  telemetry::MetricsRegistry& reg = host_metrics();
  const std::string p = metric_prefix("ewo");
  stats_.reads = reg.counter(p + "reads");
  stats_.local_writes = reg.counter(p + "local_writes");
  stats_.updates_sent = reg.counter(p + "updates_sent");
  stats_.updates_received = reg.counter(p + "updates_received");
  stats_.entries_merged = reg.counter(p + "entries_merged");
  stats_.sync_rounds = reg.counter(p + "sync_rounds");
  stats_.sync_entries_sent = reg.counter(p + "sync_entries_sent");
  stats_.bytes = reg.counter(p + "bytes");
}

void EwoEngine::add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) {
  check_servable(config);
  spaces_.emplace(config.id,
                  std::make_unique<EwoSpaceState>(host_.sw(), config, replicas, host_.self()));
}

bool EwoEngine::hosts_space(std::uint32_t space) const noexcept {
  return spaces_.contains(space);
}

void EwoEngine::start() {
  host_.every(host_.config().sync_period, [this]() { periodic_sync(); });
  host_.every(host_.config().mirror_flush_interval, [this]() { flush_mirror_buffer(); });
}

void EwoEngine::reset() {
  for (auto& [id, sp] : spaces_) sp->reset();
  mirror_buffer_.clear();
}

std::vector<pkt::MsgType> EwoEngine::message_types() const {
  return {pkt::MsgType::kEwoUpdate};
}

bool EwoEngine::handle_message(const pkt::SwishMessage& msg) {
  const auto* update = std::get_if<pkt::EwoUpdate>(&msg);
  if (!update) return false;
  ++stats_.updates_received;
  const bool observe = obs_.enabled();
  bool merged_any = false;
  // Entries come in runs of one space (a flush or sync chunk collects space
  // by space), so the space is looked up once per run, not once per entry.
  EwoSpaceState* st = nullptr;
  std::optional<std::uint32_t> st_id;
  for (const auto& entry : update->entries) {
    if (entry.space != st_id) {
      auto it = spaces_.find(entry.space);
      st = it == spaces_.end() ? nullptr : it->second.get();
      st_id = entry.space;
    }
    if (st == nullptr) continue;
    const bool merged = st->merge(entry);
    if (merged) {
      ++stats_.entries_merged;
      merged_any = true;
    }
    // Periodic full-state syncs rebroadcast every slot every round; almost
    // all entries are already known, so only the ones that actually changed
    // local state report to the observatory — keeping the per-entry map
    // lookup off the steady-state sync path. Mirror flushes (one delivery
    // per write, possibly retransmitted) always report; the observatory
    // deduplicates by identity and replica.
    if (observe && (merged || !update->periodic)) {
      // Origin and identity are recoverable from the entry itself: LWW
      // versions embed the writing switch, CRDT slots name their owner in
      // the tag. Duplicates and already-known entries are deduplicated by
      // the observatory (identity subsume + one count per replica).
      NodeId origin;
      std::uint64_t ident;
      if (st->config().merge == MergePolicy::kLww) {
        origin = Version::switch_id(entry.version);
        ident = entry.version;
      } else {
        origin = static_cast<NodeId>(entry.version >> 1);
        ident = entry.value;
      }
      obs_.on_apply(entry.space, entry.key, origin, ident, host_.self());
    }
  }
  if (merged_any && !update->entries.empty()) {
    trace_point("ewo_apply", update->entries.front().space, update->entries.front().key);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Datapath: every operation applies locally in the data plane (§6.2)
// ---------------------------------------------------------------------------

ReadStatus EwoEngine::read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                           std::uint64_t& value) {
  (void)ctx;  // EWO never redirects
  auto it = spaces_.find(space);
  if (it == spaces_.end()) return ReadStatus::kMiss;
  ++stats_.reads;
  obs_.on_read(space, key, host_.self());
  const std::optional<std::uint64_t> v = it->second->read(key);
  if (!v) return ReadStatus::kMiss;
  value = *v;
  return ReadStatus::kOk;
}

std::optional<std::uint64_t> EwoEngine::read_lpm(std::uint32_t space, std::uint64_t key) {
  auto it = spaces_.find(space);
  if (it == spaces_.end()) return std::nullopt;
  ++stats_.reads;
  return it->second->read_lpm(key);
}

void EwoEngine::write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) {
  // EWO commits locally: apply, then release the output immediately.
  for (const auto& op : ops) {
    auto it = spaces_.find(op.space);
    if (it == spaces_.end() || !it->second->addressable(op.key)) continue;
    EwoSpaceState& st = *it->second;
    switch (st.config().merge) {
      case MergePolicy::kLww:
        write_lww(st, op.space, op.key, op.value);
        break;
      case MergePolicy::kGSet:
        ++stats_.local_writes;
        st.set_add_local(op.key, op.value);
        publish_crdt(st, op.space, op.key, "ewo_set_add");
        break;
      case MergePolicy::kGCounter:
      case MergePolicy::kPNCounter:
        break;  // counters change only through update()
    }
  }
  if (release) release(std::move(output));
}

bool EwoEngine::update(std::uint32_t space, std::uint64_t key, std::int64_t delta,
                       UpdateDone done) {
  auto it = spaces_.find(space);
  if (it == spaces_.end() || !it->second->addressable(key)) return false;
  EwoSpaceState& st = *it->second;
  const MergePolicy merge = st.config().merge;
  if (merge != MergePolicy::kPNCounter && (merge != MergePolicy::kGCounter || delta < 0)) {
    return false;
  }
  ++stats_.local_writes;
  const std::uint64_t result = st.add_local(key, delta);
  publish_crdt(st, space, key, "ewo_add");
  if (done) done(result);
  return true;
}

void EwoEngine::write_lww(EwoSpaceState& st, std::uint32_t space, std::uint64_t key,
                          std::uint64_t value) {
  ++stats_.local_writes;
  // Lamport-style hybrid timestamp (§6.2 allows either a Lamport clock or a
  // synchronized real-time clock): strictly monotone per switch, so two
  // same-instant local writes still produce ordered versions and the later
  // value is never rejected by remote merges.
  TimeNs ts = host_.sw().simulator().now() + host_.config().clock_offset;
  if (ts <= last_lww_timestamp_) ts = last_lww_timestamp_ + 1;
  last_lww_timestamp_ = ts;
  const RawVersion version = Version::pack(ts, host_.self());
  st.write_local(key, value, version);
  const telemetry::SpanContext tr = trace_origin("ewo_write", space, key);
  if (obs_.enabled()) obs_.on_commit(space, key, version, host_.self(), expected_replicas());
  if (st.config().mirror_writes) mirror_enqueue(st, key, tr);
}

void EwoEngine::publish_crdt(const EwoSpaceState& st, std::uint32_t space, std::uint64_t key,
                             const char* span_name) {
  const telemetry::SpanContext tr = trace_origin(span_name, space, key);
  if (obs_.enabled()) {
    // The identity the observatory will see back in on_apply: the value of
    // this switch's own slot (monotone). collect_own_entries gives exactly
    // the entries we would mirror.
    observe_scratch_.clear();
    st.collect_own_entries(key, observe_scratch_);
    std::uint64_t ident = 0;
    for (const auto& e : observe_scratch_) ident = std::max(ident, e.value);
    obs_.on_commit(space, key, ident, host_.self(), expected_replicas());
  }
  if (st.config().mirror_writes) mirror_enqueue(st, key, tr);
}

// ---------------------------------------------------------------------------
// Mirroring / periodic sync (§6.2)
// ---------------------------------------------------------------------------

const std::vector<SwitchId>& EwoEngine::replication_targets() const noexcept {
  const auto& members = host_.group().members;
  return members.empty() ? host_.deployment() : members;
}

std::uint32_t EwoEngine::expected_replicas() const noexcept {
  std::uint32_t n = 0;
  for (SwitchId dst : replication_targets()) {
    if (dst != host_.self()) ++n;
  }
  return n;
}

void EwoEngine::mirror_enqueue(const EwoSpaceState& st, std::uint64_t key,
                               const telemetry::SpanContext& trace) {
  mirror_buffer_.push_back({&st, key, trace});
  if (mirror_buffer_.size() >= st.config().mirror_batch) flush_mirror_buffer();
}

const std::vector<SwitchId>& EwoEngine::peers() {
  peers_.clear();
  for (SwitchId m : replication_targets()) {
    if (m != host_.self()) peers_.push_back(m);
  }
  return peers_;
}

void EwoEngine::flush_mirror_buffer() {
  if (mirror_buffer_.empty()) return;
  // Built in the reused scratch message, already wrapped as the SwishMessage
  // send() takes: no per-flush copy, and the entries keep their capacity
  // from one flush to the next.
  auto& update = std::get<pkt::EwoUpdate>(mirror_msg_);
  update.origin = host_.self();
  update.periodic = false;
  update.entries.clear();
  // A coalesced flush carries one trace context on the wire: the first
  // sampled write in the batch. Later sampled writes in the same batch lose
  // their individual linkage (documented in DESIGN.md §9).
  telemetry::SpanContext flush_trace;
  for (const auto& slot : mirror_buffer_) {
    slot.st->collect_own_entries(slot.key, update.entries);
    if (!flush_trace.sampled() && slot.trace.sampled()) flush_trace = slot.trace;
  }
  mirror_buffer_.clear();
  ActiveTraceScope scope(host_, flush_trace);
  const std::vector<SwitchId>& dsts = peers();
  stats_.bytes += host_.send(dsts, mirror_msg_);
  stats_.updates_sent += dsts.size();
}

void EwoEngine::periodic_sync() {
  if (spaces_.empty()) return;
  ++stats_.sync_rounds;
  // Sync spaces in ascending id order: sync packets (and therefore the whole
  // simulation) must not depend on unordered_map iteration order.
  std::vector<std::uint32_t> ids;
  ids.reserve(spaces_.size());
  for (const auto& [id, sp] : spaces_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  std::vector<pkt::EwoEntry> all;
  for (const std::uint32_t id : ids) spaces_.at(id)->collect_sync_entries(all);
  if (all.empty()) return;

  const std::vector<SwitchId>& targets = peers();
  if (targets.empty()) return;

  // Root a span per sync round so anti-entropy repair traffic is visible in
  // the causal DAG (sampled at the same 1-in-N rate as writes).
  const telemetry::SpanContext sync_trace = trace_root("ewo_sync");
  ActiveTraceScope scope(host_, sync_trace.sampled() ? sync_trace : host_.active_trace());

  pkt::SwishMessage msg(std::in_place_type<pkt::EwoUpdate>);
  auto& update = std::get<pkt::EwoUpdate>(msg);
  update.origin = host_.self();
  update.periodic = true;
  for (std::size_t off = 0; off < all.size(); off += kSyncChunkEntries) {
    const std::size_t end = std::min(off + kSyncChunkEntries, all.size());
    update.entries.assign(all.begin() + static_cast<std::ptrdiff_t>(off),
                          all.begin() + static_cast<std::ptrdiff_t>(end));
    if (host_.config().sync_fanout == SyncFanout::kRandomOne) {
      const SwitchId dst = targets[rng_.next_below(targets.size())];
      stats_.bytes += host_.send({&dst, 1}, msg);
      stats_.sync_entries_sent += update.entries.size();
      ++stats_.updates_sent;
    } else {
      stats_.bytes += host_.send(targets, msg);
      stats_.sync_entries_sent += update.entries.size() * targets.size();
      stats_.updates_sent += targets.size();
    }
  }
}

const EwoSpaceState* EwoEngine::space_state(std::uint32_t id) const {
  auto it = spaces_.find(id);
  return it == spaces_.end() ? nullptr : it->second.get();
}

}  // namespace swish::shm
