// The benchmark's three workloads, each built and driven through the public
// shm::Fabric API:
//
//  - ewo_flood_16x4: heavy-hitter NF (EWO G-counter update per packet) on 16
//    leaves x 4 spines at min(4, nproc) shards, stamped 64-B UDP packets
//    pumped back to back from every leaf, telemetry off.
//  - nat_flows: NAT with its translation table SRO on the sparse store, 8
//    leaves x 2 spines, one shard, Poisson/Zipf TCP flows with 0.3 per-packet
//    re-route, INT 1-in-64, spans 1-in-64 and the lag observatory on.
//  - lb_failover: L4 LB with its default SRO spaces, 8 x 2, one shard, SWIM
//    membership, flows as in nat_flows, leaf 2 killed at 300 ms and revived
//    at 600 ms.
//
// One call of run_workload() is one repetition: fresh fabric, set-up, timed
// run, post-run exports and correctness checks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace swish::bench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Shard count for ewo_flood_16x4 (0 = min(4, nproc)); the other
  /// workloads always run at one shard.
  std::size_t shards = 0;
  /// Multiplies the traffic duration (the self-test runs scaled down).
  double scale = 1.0;
  /// Traced run: spans on, network tap capturing protocol payloads,
  /// pending-event sampling between run_for slices.
  bool traced = false;
};

/// Protocol messages of one wire type seen on the links (traced run).
struct MsgTypeStats {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  double decode_ns = 0;  ///< per message, from the codec replay
  double encode_ns = 0;
  std::uint64_t replayed = 0;
};

struct RunResult {
  /// Host times in seconds: setup.{fabric,install,start,workload}, setup
  /// (their sum), run (all run_for slices), export.
  std::map<std::string, double> host;
  /// Metrics that are a pure function of (workload, seed): event, packet,
  /// byte and protocol counts, simulated latencies. Repetitions with one
  /// seed must agree bit for bit.
  std::map<std::string, double> exact;
  /// Heap allocations inside the timed run (deterministic per mode; the
  /// traced run allocates for its span logs too).
  std::uint64_t run_allocs = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  /// Correctness violations; empty when every check passed.
  std::vector<std::string> failures;
  /// Traced run only.
  std::map<std::string, MsgTypeStats> msg_types;
  std::uint64_t pending_peak = 0;
};

[[nodiscard]] bool is_workload(const std::string& name);
[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] std::size_t default_flood_shards();

RunResult run_workload(const RunConfig& config);

}  // namespace swish::bench
