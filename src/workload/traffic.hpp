// Flow-level synthetic traffic (§3.1 workloads): Poisson connection arrivals,
// Zipf-popular clients, bounded-Pareto flow lengths. Flows enter the NF
// cluster at an ingress switch chosen by flow hash; a configurable re-route
// probability moves a live flow to a different ingress mid-stream — the
// multipath/failure scenario that motivates global shared state (§3.2).
#pragma once

#include <functional>

#include "common/rng.hpp"
#include "packet/packet.hpp"
#include "swishmem/fabric.hpp"
#include "workload/stamp.hpp"

namespace swish::workload {

struct TrafficConfig {
  double flows_per_sec = 2000;
  double mean_packets_per_flow = 8;    ///< bounded Pareto [2, 64], shape fit to mean
  TimeNs packet_interval = 200 * kUs;  ///< within-flow spacing
  std::size_t payload_bytes = 64;
  bool tcp = true;                     ///< false = UDP (no SYN/FIN semantics)

  std::size_t num_clients = 256;
  double zipf_theta = 0.99;
  pkt::Ipv4Addr client_prefix{192, 168, 0, 0};  ///< client i = prefix | i
  pkt::Ipv4Addr server_ip{10, 200, 0, 1};
  std::uint16_t server_port = 80;

  /// Per-packet probability of switching the flow to another ingress switch.
  double reroute_probability = 0.0;
  std::uint64_t seed = 42;

  /// TCP handshake gating: hold a flow's data packets until its SYN has been
  /// observed leaving the NF cluster (wire the fabric's delivery sink to
  /// TrafficGenerator::notify_delivered). Un-acked SYNs are retransmitted —
  /// the real client behaviour that lets connection setup ride out a write
  /// stall or failover instead of spraying orphan data packets.
  bool gate_data_on_syn = false;
  TimeNs syn_retransmit_timeout = 10 * kMs;
  unsigned max_syn_retries = 8;
};

class TrafficGenerator {
 public:
  struct Stats {
    std::uint64_t flows_started = 0;
    std::uint64_t flows_finished = 0;
    std::uint64_t flows_abandoned = 0;  ///< SYN never delivered (gated mode)
    std::uint64_t packets_sent = 0;
    std::uint64_t syn_retransmits = 0;
    std::uint64_t reroutes = 0;
  };

  /// Throws std::invalid_argument unless config.flows_per_sec > 0.
  TrafficGenerator(shm::Fabric& fabric, TrafficConfig config);

  /// Schedules flow arrivals over [now, now + duration).
  void start(TimeNs duration);

  /// Optional hook: observe every packet before injection (e.g. to record
  /// per-flow ground truth). Return value ignored.
  std::function<void(const Stamp&, const pkt::Packet&)> on_inject;

  /// Feed delivered packets back (gated mode): call from the delivery sink
  /// with the stamp decoded from each delivered packet. Must run on the
  /// generator's shard (shard 0) — sharded harnesses post the notification
  /// back through the shard set.
  void notify_delivered(const Stamp& stamp);

  /// Replaces the direct sw(i).alive() liveness check used for ingress
  /// steering. Sharded runs must install one: a switch's alive flag flips on
  /// its own shard, so the generator (shard 0) computes liveness from the
  /// experiment's kill/revive schedule instead of peeking across shards.
  void set_liveness_oracle(std::function<bool(std::size_t)> oracle) {
    liveness_ = std::move(oracle);
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Flow {
    std::uint64_t id = 0;
    pkt::Ipv4Addr client;
    std::uint16_t src_port = 0;
    std::uint32_t packets_left = 0;
    std::uint32_t seq = 0;
    std::size_t ingress = 0;
  };

  void schedule_next_arrival(TimeNs deadline);
  void start_flow(TimeNs deadline);
  void send_packet(Flow flow);
  void inject(const Flow& flow);
  void schedule_data_packet(Flow flow);
  void arm_syn_retransmit(std::uint64_t flow_id, unsigned attempt);
  [[nodiscard]] std::size_t pick_ingress(std::uint64_t flow_id);
  [[nodiscard]] std::size_t pick_alive(std::size_t preferred);
  [[nodiscard]] bool ingress_alive(std::size_t i) const;

  shm::Fabric& fabric_;
  TrafficConfig config_;
  std::function<bool(std::size_t)> liveness_;
  Rng rng_;
  ZipfGenerator client_zipf_;
  Stats stats_;
  std::uint64_t next_flow_id_ = 1;
  std::uint16_t next_port_ = 20000;
  std::unordered_map<std::uint64_t, Flow> awaiting_syn_;  ///< gated mode
};

/// Delivery sink that decodes stamps and accumulates latency / delivery
/// counts. Install with fabric.set_delivery_sink(sink.callback()).
class MeasuringSink {
 public:
  explicit MeasuringSink(sim::Simulator& simulator) : sim_(simulator) {}

  [[nodiscard]] std::function<void(const pkt::Packet&)> callback() {
    return [this](const pkt::Packet& packet) { observe(packet); };
  }

  void observe(const pkt::Packet& packet);

  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] const Histogram& latency() const noexcept { return latency_; }

 private:
  sim::Simulator& sim_;
  std::uint64_t delivered_ = 0;
  Histogram latency_;
};

}  // namespace swish::workload
