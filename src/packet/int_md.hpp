// In-band Network Telemetry metadata (INT-MD, hop-by-hop push model): an
// opt-in trailer appended to the END of a sampled packet's byte buffer that
// each traversed switch pushes a per-hop record onto.
//
// Wire layout (everything big-endian), reading the buffer backwards:
//
//   [ original packet bytes ]
//   [ hop record 0 ][ hop record 1 ] ... [ hop record N-1 ]   28 bytes each
//   [ hop_count u8 ][ hop_cap u8 ][ flags u8 ][ version u8 ][ magic u32 ]
//
// Hop record: switch_id u32, ingress_ts u64, egress_ts u64, queue_depth u32,
// rule_hit u32. The fixed tail is 8 bytes with the magic last, so detecting
// a trailer is an O(1) check on the final 8 bytes of the buffer and no other
// layer needs to know packet lengths.
//
// Why a trailer and not a header: the simulator's parser reads eth/ipv4/l4
// sequentially and tolerates trailing bytes (l4_payload slices to the end of
// the buffer, and decode_message ignores bytes after the message body), so a
// trailer is invisible to every existing consumer. The IP/UDP length fields
// are NOT updated — the trailer rides outside the L3/L4 lengths, exactly so
// unsampled traffic (no trailer) stays byte-identical and checksums never
// change. The sink strips the trailer before handing the packet on.
//
// False-positive guard: detection requires the 5-byte magic+version match
// AND a structurally consistent hop count (count <= cap, records fit in the
// buffer with room for an Ethernet header). A random payload passes that
// with probability ~2^-40; callers additionally only look for trailers when
// INT sampling is enabled on the fabric.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "packet/packet.hpp"
#include "telemetry/drop.hpp"

namespace swish::pkt {

inline constexpr std::uint32_t kIntMagic = 0x53574954;  // "SWIT"
inline constexpr std::uint8_t kIntVersion = 1;
inline constexpr std::size_t kIntTrailerBytes = 8;   ///< fixed tail
inline constexpr std::size_t kIntHopBytes = 28;      ///< per-hop record
inline constexpr std::uint8_t kIntFlagTruncated = 0x01;

/// Decoded INT stack.
struct IntStack {
  std::vector<telemetry::IntHop> hops;
  std::uint8_t hop_cap = 0;
  bool truncated = false;
};

/// Writes an empty INT trailer (kIntTrailerBytes; hop_cap clamped to at
/// least 1), for builders that put it into a fresh packet directly.
void write_int_trailer(SpanWriter& w, std::uint8_t hop_cap);

/// Returns `packet` with an empty INT trailer appended (hop_cap clamped to
/// at least 1). This is the sampling decision point: only packets tagged
/// here ever accumulate hop records.
Packet with_int_trailer(const Packet& packet, std::uint8_t hop_cap);

/// O(1) tail check: does this packet carry a structurally valid INT trailer?
[[nodiscard]] bool has_int_trailer(const Packet& packet) noexcept;

/// Bytes the trailer currently occupies (fixed tail + hop records), or 0
/// when the packet carries none.
[[nodiscard]] std::size_t int_trailer_size(const Packet& packet) noexcept;

/// Returns `packet` with `hop` pushed onto its INT stack. At the hop cap the
/// stack is left unchanged and the truncation bit is set instead (the sink
/// learns the path was longer than the record). `truncated`, when non-null,
/// reports whether this push truncated. Packets without a trailer are
/// returned unchanged.
Packet push_int_hop(const Packet& packet, const telemetry::IntHop& hop,
                    bool* truncated = nullptr);

/// Decodes the INT stack, oldest hop first; nullopt when the packet carries
/// no (valid) trailer.
std::optional<IntStack> read_int_stack(const Packet& packet);

/// Returns the packet with its INT trailer removed (the original bytes the
/// source sent). Packets without a trailer are returned unchanged.
Packet strip_int_trailer(const Packet& packet);

}  // namespace swish::pkt
