// Eventual Write Optimized (§6.2): writes apply locally in the data plane and
// are replicated asynchronously — an immediate (optionally batched) mirror to
// the replica group plus a periodic full-state sync that also repairs after
// failures (§6.3). Merge policy per space: LWW, G-/PN-counter, or G-set.
#pragma once

#include <unordered_map>

#include "common/rng.hpp"
#include "pisa/switch.hpp"
#include "swishmem/protocols/engine.hpp"
#include "swishmem/spaces.hpp"

namespace swish::shm {

class EwoEngine final : public ProtocolEngine {
 public:
  /// Registry-backed counters under `shm.sw<id>.ewo.*`; this struct is a
  /// view over the simulator's MetricsRegistry cells.
  struct Stats {
    telemetry::Counter reads;
    telemetry::Counter local_writes;
    telemetry::Counter updates_sent;
    telemetry::Counter updates_received;
    telemetry::Counter entries_merged;  ///< entries that changed local state
    telemetry::Counter sync_rounds;
    telemetry::Counter sync_entries_sent;
    telemetry::Counter bytes;  ///< EwoUpdate (mirror + sync)
  };

  explicit EwoEngine(ShmRuntime& host);

  [[nodiscard]] ConsistencyClass cls() const noexcept override {
    return ConsistencyClass::kEWO;
  }

  void add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) override;
  [[nodiscard]] bool hosts_space(std::uint32_t space) const noexcept override;
  void start() override;
  void reset() override;

  ReadStatus read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                  std::uint64_t& value) override;
  [[nodiscard]] std::optional<std::uint64_t> read_lpm(std::uint32_t space,
                                                      std::uint64_t key) override;
  void write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) override;
  bool update(std::uint32_t space, std::uint64_t key, std::int64_t delta,
              UpdateDone done) override;

  [[nodiscard]] std::vector<pkt::MsgType> message_types() const override;
  bool handle_message(const pkt::SwishMessage& msg) override;

  [[nodiscard]] const EwoSpaceState* space_state(std::uint32_t id) const;
  [[nodiscard]] const Stats& ewo_stats() const noexcept { return stats_; }

 private:
  struct MirrorSlot {
    const EwoSpaceState* st = nullptr;
    std::uint64_t key = 0;
    telemetry::SpanContext trace;  ///< causal chain of the buffered write
  };

  /// LWW local write under a fresh per-switch version.
  void write_lww(EwoSpaceState& st, std::uint32_t space, std::uint64_t key,
                 std::uint64_t value);
  /// Span, observatory commit-at-origin and mirror of a CRDT (counter /
  /// G-set) write already applied to `st`.
  void publish_crdt(const EwoSpaceState& st, std::uint32_t space, std::uint64_t key,
                    const char* span_name);
  void mirror_enqueue(const EwoSpaceState& st, std::uint64_t key,
                      const telemetry::SpanContext& trace);
  void flush_mirror_buffer();
  void periodic_sync();
  [[nodiscard]] const std::vector<SwitchId>& replication_targets() const noexcept;
  /// Replicas other than this switch (expected applies for lag accounting).
  [[nodiscard]] std::uint32_t expected_replicas() const noexcept;

  std::unordered_map<std::uint32_t, std::unique_ptr<EwoSpaceState>> spaces_;

  // Mirror batch buffer: (space state, key) pairs awaiting flush. Spaces are
  // add-only and unique_ptr-owned, so the pointers stay valid and the flush
  // avoids a map lookup per buffered entry.
  std::vector<MirrorSlot> mirror_buffer_;

  // Scratch for publish_crdt: with the observatory on, every local write
  // collects its own entries — reusing one buffer keeps that allocation-free.
  std::vector<pkt::EwoEntry> observe_scratch_;

  TimeNs last_lww_timestamp_ = 0;  ///< per-switch monotone LWW clock (§6.2)

  Rng rng_;  ///< kRandomOne sync target selection
  Stats stats_;
};

}  // namespace swish::shm
