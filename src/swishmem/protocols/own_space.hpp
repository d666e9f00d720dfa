// Storage for OWN (per-key single-writer ownership) spaces, backed by PISA
// register arrays like the other classes:
//
//   values / versions — the key's value and a per-key monotone write counter
//                       that survives ownership transfers (merge guard);
//   owned             — 1-bit "this switch is the key's current owner";
//   dir               — the home replica's ownership directory, owner id + 1
//                       (0 = unowned). Allocated on every switch, meaningful
//                       only for keys this switch is home for.
//
// Dirty-key tracking for the owner -> home backup flush is control-plane
// metadata and lives in plain memory.
//
// SpaceKind::kSparse folds all four arrays into one ordered CoW index entry
// per live key: value/version in the entry, the owned bit in flags, the
// directory owner (+1) in aux, and the scans (snapshot_source / owned_slots /
// dir_slots_owned_outside) walk live entries in key order instead of the
// full array. Either way a key is its own slot: ownership is per key.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "pisa/switch.hpp"
#include "swishmem/config.hpp"
#include "swishmem/protocols/engine.hpp"
#include "swishmem/store/store_space.hpp"

namespace swish::shm {

/// 64-bit finalizer used for OWN home placement.
std::uint64_t own_mix64(std::uint64_t h) noexcept;

class OwnSpaceState {
 public:
  OwnSpaceState(pisa::Switch& sw, const SpaceConfig& config);

  [[nodiscard]] const SpaceConfig& config() const noexcept { return cfg_; }

  /// Any sparse key; dense keys below `size` (the per-key calls need one).
  [[nodiscard]] bool addressable(std::uint64_t key) const noexcept {
    return store_ != nullptr || key < cfg_.size;
  }

  /// Datapath read: nullopt when the key is not addressable or, sparse, has
  /// no live entry (never written, or tombstoned).
  [[nodiscard]] std::optional<std::uint64_t> read(std::uint64_t key) const;
  [[nodiscard]] std::uint64_t value(std::uint64_t key) const;
  [[nodiscard]] std::uint64_t version(std::uint64_t key) const;

  /// Installs (value, version) without ownership semantics (grant install,
  /// backup merge, recovery replay).
  void store(std::uint64_t key, std::uint64_t value, std::uint64_t version);

  /// Owner-side write: stores the value, bumps the version, marks the key
  /// dirty for the next backup flush. Requires ownership.
  void owner_write(std::uint64_t key, std::uint64_t value);

  [[nodiscard]] bool owned(std::uint64_t key) const;
  void set_owned(std::uint64_t key, bool owned);

  /// Home-side ownership directory.
  [[nodiscard]] SwitchId dir_owner(std::uint64_t key) const;  ///< kInvalidNode = unowned
  void set_dir_owner(std::uint64_t key, SwitchId owner);
  void clear_dir_owner(std::uint64_t key);

  /// Slots whose dir entry points at a switch outside `live`; used by the
  /// home to reclaim ownership from failed switches (§6.3).
  [[nodiscard]] std::vector<std::uint64_t> dir_slots_owned_outside(
      const std::vector<SwitchId>& live) const;

  /// Drains the dirty-key set accumulated by owner_write.
  [[nodiscard]] std::vector<std::uint64_t> take_dirty();

  /// All slots this switch currently owns.
  [[nodiscard]] std::vector<std::uint64_t> owned_slots() const;

  /// Donor snapshot (§6.3): every written key (nonzero version) in key
  /// order as {value, seq = version}, frozen at this call. A sparse space
  /// pins an O(1) CoW view drained lazily; a dense one collects eagerly.
  [[nodiscard]] std::unique_ptr<SnapshotSource> snapshot_source() const;

  void reset();

 private:
  SpaceConfig cfg_;
  pisa::RegisterArray* values_ = nullptr;
  pisa::RegisterArray* versions_ = nullptr;
  pisa::RegisterArray* owned_ = nullptr;
  pisa::RegisterArray* dir_ = nullptr;
  store::StoreSpace* store_ = nullptr;  ///< sparse layout (ordered CoW index)
  // Ordered so the backup flush drains keys deterministically (the simulator
  // is bit-reproducible per seed).
  std::set<std::uint64_t> dirty_;
};

}  // namespace swish::shm
