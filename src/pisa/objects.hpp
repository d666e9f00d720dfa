// P4 stateful objects as exposed by a PISA pipeline (§2 of the paper):
// register arrays are data-plane writable; match-action tables can only be
// mutated through the control plane. We enforce the latter in the type
// system: table mutators require a CpToken, which only a ControlPlane can
// mint. Shared state beyond these two (sparse keys, longest-prefix match)
// lives in the ordered store (swishmem/store/), registered via add_object.
//
// Every object reports its memory footprint; the Switch sums footprints
// against the ~10 MB SRAM budget the paper emphasizes.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace swish::pisa {

class ControlPlane;

/// Capability proving a call originates from the control plane. Only
/// ControlPlane can construct one (friend), so data-plane code cannot mutate
/// tables — mirroring real PISA hardware.
class CpToken {
 private:
  friend class ControlPlane;
  CpToken() = default;
};

/// Common interface for memory accounting.
class StatefulObject {
 public:
  explicit StatefulObject(std::string name) : name_(std::move(name)) {}
  virtual ~StatefulObject() = default;
  StatefulObject(const StatefulObject&) = delete;
  StatefulObject& operator=(const StatefulObject&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] virtual std::size_t memory_bytes() const noexcept = 0;

 private:
  std::string name_;
};

/// Data-plane register array: fixed-size vector of w-bit values (we store
/// uint64 and account `entry_bits` toward the SRAM budget).
class RegisterArray : public StatefulObject {
 public:
  RegisterArray(std::string name, std::size_t size, unsigned entry_bits = 64)
      : StatefulObject(std::move(name)), entry_bits_(entry_bits), values_(size, 0) {
    if (entry_bits == 0 || entry_bits > 64) {
      throw std::invalid_argument("RegisterArray: entry_bits must be 1..64");
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] unsigned entry_bits() const noexcept { return entry_bits_; }

  [[nodiscard]] std::uint64_t read(RegisterIndex i) const {
    check(i);
    return values_[i];
  }

  void write(RegisterIndex i, std::uint64_t v) {
    check(i);
    values_[i] = v & mask();
  }

  /// Stateful-ALU style read-modify-write; returns the new value.
  std::uint64_t add(RegisterIndex i, std::uint64_t delta) {
    check(i);
    values_[i] = (values_[i] + delta) & mask();
    return values_[i];
  }

  /// Conditional max (used by CRDT merges): keeps the larger value.
  std::uint64_t merge_max(RegisterIndex i, std::uint64_t v) {
    check(i);
    if (v > values_[i]) values_[i] = v & mask();
    return values_[i];
  }

  /// Bitwise-OR accumulate (used by grow-only set CRDT merges).
  std::uint64_t merge_or(RegisterIndex i, std::uint64_t bits) {
    check(i);
    values_[i] = (values_[i] | bits) & mask();
    return values_[i];
  }

  /// Resets every entry (used when a replacement switch boots empty).
  void fill(std::uint64_t v) {
    for (auto& e : values_) e = v & mask();
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return (values_.size() * entry_bits_ + 7) / 8;
  }

 private:
  void check(RegisterIndex i) const {
    if (i >= values_.size()) throw std::out_of_range("RegisterArray '" + name() + "' index");
  }
  [[nodiscard]] std::uint64_t mask() const noexcept {
    return entry_bits_ == 64 ? ~0ULL : ((1ULL << entry_bits_) - 1);
  }

  unsigned entry_bits_;
  std::vector<std::uint64_t> values_;
};

/// Exact-match table: 64-bit key -> 64-bit action data. Mutation requires a
/// CpToken (control-plane only), matching PISA semantics.
class ExactTable : public StatefulObject {
 public:
  ExactTable(std::string name, std::size_t capacity, unsigned key_bits = 64,
             unsigned value_bits = 64)
      : StatefulObject(std::move(name)),
        capacity_(capacity),
        key_bits_(key_bits),
        value_bits_(value_bits) {}

  [[nodiscard]] std::optional<std::uint64_t> lookup(std::uint64_t key) const noexcept {
    auto it = entries_.find(key);
    return it == entries_.end() ? std::nullopt : std::optional{it->second};
  }

  /// Returns false when the table is full (caller decides the policy).
  bool insert(CpToken, std::uint64_t key, std::uint64_t value);
  bool erase(CpToken, std::uint64_t key) { return entries_.erase(key) > 0; }
  void clear(CpToken) { entries_.clear(); }

  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const std::unordered_map<std::uint64_t, std::uint64_t>& entries() const noexcept {
    return entries_;
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    return capacity_ * ((key_bits_ + value_bits_ + 7) / 8 + 1);
  }

 private:
  std::size_t capacity_;
  unsigned key_bits_;
  unsigned value_bits_;
  std::unordered_map<std::uint64_t, std::uint64_t> entries_;
};

}  // namespace swish::pisa
