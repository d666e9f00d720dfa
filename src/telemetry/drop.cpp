#include "telemetry/drop.hpp"

namespace swish::telemetry {

const char* to_string(DropReason reason) noexcept {
  switch (reason) {
    case DropReason::kLinkQueueOverflow: return "link_queue_overflow";
    case DropReason::kLinkLoss: return "link_loss";
    case DropReason::kDeadNode: return "dead_node";
    case DropReason::kNoRoute: return "no_route";
    case DropReason::kDataplaneCapacity: return "dataplane_capacity";
    case DropReason::kRecircCap: return "recirc_cap";
    case DropReason::kParseError: return "parse_error";
    case DropReason::kCpBufferFull: return "cp_buffer_full";
    case DropReason::kOwnQueueOverflow: return "own_queue_overflow";
    case DropReason::kConQueueOverflow: return "con_queue_overflow";
    case DropReason::kWriteRetriesExhausted: return "write_retries_exhausted";
    case DropReason::kQuorumUnreachable: return "quorum_unreachable";
    case DropReason::kRecoveryAbandoned: return "recovery_abandoned";
    case DropReason::kNfDiscard: return "nf_discard";
  }
  return "unknown";
}

void DropRing::record(NodeId node, DropReason reason, std::uint32_t packet_bytes,
                      std::uint64_t detail, std::vector<IntHop> hops) {
  ++counts_[node][static_cast<std::size_t>(reason)];
  DropRecord rec;
  rec.time = now_ != nullptr ? *now_ : 0;
  rec.node = node;
  rec.reason = reason;
  rec.packet_bytes = packet_bytes;
  rec.detail = detail;
  rec.hops = std::move(hops);
  log_.append(node, std::move(rec));
}

}  // namespace swish::telemetry
