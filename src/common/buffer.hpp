// Bounds-checked byte buffer reader/writer with network (big-endian) order.
//
// All wire formats in src/packet serialize through these helpers so that the
// simulated packets are real byte strings: parsers can fail on truncation,
// checksums cover actual octets, and sizes reported by the bandwidth model
// are the sizes a switch would see.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace swish {

/// Error thrown when a read or write would step outside the buffer.
class BufferError : public std::runtime_error {
 public:
  explicit BufferError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// Stores `v` big-endian in the N bytes at `p`.
template <std::size_t N, class T>
inline void store_be(std::uint8_t* p, T v) noexcept {
  for (std::size_t i = 0; i < N; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * (N - 1 - i)));
}

}  // namespace detail

/// Appends big-endian integers and raw bytes to a growable byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { bytes_.reserve(reserve); }

  void u8(std::uint8_t v) { bytes_.push_back(v); }

  // Multi-byte writes grow the vector once and store bytes directly, rather
  // than paying a capacity check per byte.
  void u16(std::uint16_t v) { detail::store_be<2>(grow(2), v); }
  void u32(std::uint32_t v) { detail::store_be<4>(grow(4), v); }
  void u64(std::uint64_t v) { detail::store_be<8>(grow(8), v); }

  void raw(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  /// Overwrites a previously written 16-bit field (e.g. a checksum slot).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    if (offset + 2 > bytes_.size()) throw BufferError("patch_u16 out of range");
    detail::store_be<2>(bytes_.data() + offset, v);
  }

  [[nodiscard]] std::size_t size() const noexcept { return bytes_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(bytes_); }

 private:
  /// Extends the buffer by `n` bytes and returns a pointer to the new region.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    return bytes_.data() + at;
  }

  std::vector<std::uint8_t> bytes_;
};

/// Writes big-endian integers and raw bytes into caller-owned storage of a
/// size fixed in advance (a packet buffer sized exactly before it is
/// written). It writes like ByteWriter but never allocates: a write past
/// the end throws BufferError instead of growing.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::uint8_t> out) noexcept : out_(out) {}

  void u8(std::uint8_t v) { *grow(1) = v; }
  void u16(std::uint16_t v) { detail::store_be<2>(grow(2), v); }
  void u32(std::uint32_t v) { detail::store_be<4>(grow(4), v); }
  void u64(std::uint64_t v) { detail::store_be<8>(grow(8), v); }

  void raw(std::span<const std::uint8_t> data) {
    if (!data.empty()) std::memcpy(grow(data.size()), data.data(), data.size());
  }

  /// Overwrites a previously written 16-bit field (e.g. a checksum slot).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    if (offset + 2 > pos_) throw BufferError("patch_u16 out of range");
    detail::store_be<2>(out_.data() + offset, v);
  }

 private:
  /// Claims the next `n` bytes of the storage.
  std::uint8_t* grow(std::size_t n) {
    if (n > out_.size() - pos_) throw BufferError("SpanWriter overflow");
    std::uint8_t* p = out_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
};

/// Consumes big-endian integers and raw bytes from a non-owning byte view.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  std::uint8_t u8() {
    require(1);
    return data_[pos_++];
  }

  // Multi-byte reads bounds-check once per field, not per byte.
  std::uint16_t u16() {
    require(2);
    auto v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return v;
  }

  std::span<const std::uint8_t> raw(std::size_t n) {
    require(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw BufferError("buffer underrun: need " + std::to_string(n) + " bytes, have " +
                        std::to_string(data_.size() - pos_));
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace swish
