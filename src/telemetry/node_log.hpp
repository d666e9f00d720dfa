// Per-node telemetry records: one retention mechanism and one merge order.
//
// Every per-node record the fabric produces — mirror-on-drop records, INT
// sink reports, causal spans — carries a (time, node, seq) identity where
// seq is dense per node in that node's recording order. Each node lives on
// exactly one shard and records single-writer in simulation order, so the
// identity is a pure function of the node's own event stream: gathering the
// per-shard (or per-switch) sources and sorting by it yields the same
// canonical stream at every shard count. merge_canonical is that sort;
// record_key overloads next to each record type define its identity.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace swish::telemetry {

/// The canonical identity of one per-node record.
struct RecordKey {
  TimeNs time = 0;
  NodeId node = 0;
  std::uint64_t seq = 0;

  friend auto operator<=>(const RecordKey&, const RecordKey&) = default;
};

/// Per-node bounded ring of records with a dense per-node seq from 1. Past
/// `capacity` records a node's oldest record is evicted first; seqs are
/// never reused, so gaps at the front of a node's retained run show how
/// much aged out. `Record` has a `seq` member, which append() stamps.
template <typename Record>
class NodeLog {
 public:
  explicit NodeLog(std::size_t capacity) : capacity_(capacity) {}

  void append(NodeId node, Record rec) {
    Ring& ring = rings_[node];
    rec.seq = ring.next_seq++;
    ring.records.push_back(std::move(rec));
    if (ring.records.size() > capacity_) ring.records.pop_front();
  }

  /// Retained records, nodes ascending and per-node recording order.
  [[nodiscard]] std::vector<Record> records() const {
    std::vector<Record> out;
    for (const auto& [node, ring] : rings_) {
      out.insert(out.end(), ring.records.begin(), ring.records.end());
    }
    return out;
  }

 private:
  struct Ring {
    std::deque<Record> records;
    std::uint64_t next_seq = 1;
  };

  std::size_t capacity_;
  std::map<NodeId, Ring> rings_;
};

/// Gathers per-source record lists into canonical (time, node, seq) order.
/// Identities are unique (seq is per node), so the result does not depend
/// on how nodes were spread over the sources.
template <typename Record>
std::vector<Record> merge_canonical(std::vector<std::vector<Record>> parts) {
  std::vector<Record> out;
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  out.reserve(total);
  for (auto& part : parts) {
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(out.begin(), out.end(),
            [](const Record& a, const Record& b) { return record_key(a) < record_key(b); });
  return out;
}

}  // namespace swish::telemetry
