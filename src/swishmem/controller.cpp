#include "swishmem/controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/log.hpp"
#include "net/routing.hpp"
#include "packet/swish_wire.hpp"
#include "swishmem/membership/heartbeat_membership.hpp"
#include "swishmem/membership/swim_membership.hpp"

namespace swish::shm {
namespace {

std::unique_ptr<MembershipService> make_membership(sim::Simulator& sim,
                                                   const Controller::Config& config) {
  switch (config.membership) {
    case MembershipProtocol::kSwim:
      return std::make_unique<SwimMembership>(sim);
    case MembershipProtocol::kHeartbeat:
      break;
  }
  return std::make_unique<HeartbeatMembership>(
      sim, HeartbeatMembership::Config{config.heartbeat_timeout, config.check_period});
}

}  // namespace

// A detector whose scan can never observe its own timeout is a configuration
// bug, not a runtime condition — reject it before anything is constructed.
void Controller::Config::validate() const {
  if (check_period <= 0) {
    throw std::invalid_argument("controller check_period must be positive");
  }
  if (heartbeat_timeout <= 0) {
    throw std::invalid_argument("controller heartbeat_timeout must be positive");
  }
  if (heartbeat_timeout <= check_period) {
    throw std::invalid_argument(
        "controller heartbeat_timeout must exceed check_period (the scan would "
        "fire a false positive on its first pass)");
  }
}

Controller::Controller(sim::ShardSet& shards, net::Network& network, NodeId id, Config config)
    : net::Node(id),
      shards_(shards),
      sim_(shards.sim_for(id)),
      network_(network),
      config_(config) {
  config_.validate();
  membership_ = make_membership(sim_, config_);
  membership_->on_membership_change = [this](SwitchId sw, MemberState state,
                                             TimeNs detection_ns) {
    if (state == MemberState::kFaulty) handle_failure(sw, detection_ns);
  };
  failures_detected_ = sim_.metrics().counter("membership.failures_detected");
  detection_ns_ = sim_.metrics().histogram("failover.detection_ns");
  repair_ns_ = sim_.metrics().histogram("failover.repair_ns");
}

void Controller::post_to_node(NodeId node, TimeNs delay, sim::EventFn fn) {
  if (sharded()) {
    // Cross-shard delays are widened to the lookahead by the shard set; the
    // management latency (hundreds of µs) dominates any realistic lookahead,
    // so the widening never actually changes a timestamp here.
    shards_.post_after_node(node, delay, std::move(fn));
  } else {
    sim_.post_after(delay, std::move(fn));
  }
}

std::function<void()> Controller::to_controller(std::function<void()> fn) {
  if (!sharded()) return fn;
  sim::ShardSet* shards = &shards_;
  const NodeId me = id();
  return [shards, me, f = std::move(fn)]() { shards->post_after_node(me, 0, f); };
}

void Controller::register_switch(pisa::Switch& sw, ShmRuntime& runtime) {
  members_[sw.id()] = Member{&sw, &runtime};
  membership_->add_member(sw.id());
}

void Controller::bootstrap() {
  chain_.epoch = next_epoch_++;
  chain_.chain.clear();
  group_.epoch = chain_.epoch;
  group_.members.clear();
  for (const auto& [id, m] : members_) {
    chain_.chain.push_back(id);
    group_.members.push_back(id);
  }
  push_configs(/*immediate=*/true);
  push_space_chains(/*immediate=*/true);
}

void Controller::register_space(const SpaceConfig& config, std::vector<SwitchId> replicas) {
  directory_[config.id] = SpaceEntry{config, std::move(replicas)};
}

const std::vector<SwitchId>* Controller::space_replicas(std::uint32_t space) const {
  auto it = directory_.find(space);
  return it == directory_.end() ? nullptr : &it->second.replicas;
}

void Controller::push_space_chains(bool immediate) {
  for (const auto& [space, entry] : directory_) {
    pkt::ChainConfig chain;
    chain.epoch = chain_.epoch;  // space chains ride the global epoch counter
    for (SwitchId id : entry.replicas) {
      if (members_.find(id) != members_.end() && usable(id)) chain.chain.push_back(id);
    }
    for (auto& [id, m] : members_) {
      if (!usable(id)) continue;
      ShmRuntime* rt = m.runtime;
      auto apply = [rt, space = space, chain]() { rt->set_space_chain(space, chain); };
      if (immediate) {
        apply();
      } else {
        post_to_node(id, config_.mgmt_latency, std::move(apply));
      }
    }
  }
}

void Controller::migrate_space(std::uint32_t space, std::vector<SwitchId> new_replicas,
                               std::function<void(TimeNs)> done) {
  auto it = directory_.find(space);
  if (it == directory_.end()) return;
  SpaceEntry& entry = it->second;
  sim_.tracer().record(telemetry::kTraceMigration, id(), "migrate_space_start", space,
                       new_replicas.size());

  // New members need storage before the stream arrives.
  auto joiners = std::make_shared<std::vector<SwitchId>>();
  for (SwitchId id : new_replicas) {
    if (std::find(entry.replicas.begin(), entry.replicas.end(), id) == entry.replicas.end()) {
      joiners->push_back(id);
      ShmRuntime* rt = members_.at(id).runtime;
      post_to_node(id, config_.mgmt_latency,
                   [rt, config = entry.config, new_replicas]() {
                     rt->add_space(config, new_replicas);
                   });
    }
  }

  // Donor: the space's current tail (must be alive; directory chains exclude
  // failed members).
  SwitchId donor_id = kInvalidNode;
  for (auto rit = entry.replicas.rbegin(); rit != entry.replicas.rend(); ++rit) {
    if (members_.find(*rit) != members_.end() && usable(*rit)) {
      donor_id = *rit;
      break;
    }
  }

  auto finish = [this, space, new_replicas, done]() {
    directory_.at(space).replicas = new_replicas;
    chain_.epoch = next_epoch_++;  // bump the epoch counter for the new chain
    sim_.tracer().record(telemetry::kTraceMigration, id(), "migrate_space_done", space,
                         chain_.epoch);
    push_space_chains(/*immediate=*/false);
    if (done) {
      sim_.post_after(config_.mgmt_latency,
                          [this, done]() { done(sim_.now()); });
    }
  };

  if (donor_id == kInvalidNode || joiners->empty()) {
    // Pure shrink (or nothing to copy from): just switch the chain over.
    sim_.post_after(config_.mgmt_latency, finish);
    return;
  }

  // Stream to each joiner sequentially (the donor runs one stream at a time).
  // stream_next always executes on the controller's shard; sharded fabrics
  // post the kickoff onto the donor's shard and route the stream-done
  // callback back here before advancing to the next joiner.
  ShmRuntime* donor = members_.at(donor_id).runtime;
  auto stream_next = std::make_shared<std::function<void()>>();
  auto index = std::make_shared<std::size_t>(0);
  // The lambda holds only a weak self-reference (a strong capture would form
  // an unreclaimable cycle); each stream's done-callback keeps it alive until
  // the last joiner finishes.
  std::weak_ptr<std::function<void()>> weak_next = stream_next;
  *stream_next = [this, donor_id, donor, joiners, index, weak_next, finish, space]() {
    if (*index >= joiners->size()) {
      finish();
      return;
    }
    const SwitchId target = (*joiners)[(*index)++];
    auto self = weak_next.lock();
    if (sharded()) {
      auto resume = to_controller([self]() { if (self && *self) (*self)(); });
      shards_.post_after_node(donor_id, 0,
                              [donor, target, resume = std::move(resume), space]() {
                                donor->start_recovery_stream(target, resume, space);
                              });
    } else {
      donor->start_recovery_stream(
          target, [self]() { if (self && *self) (*self)(); }, space);
    }
  };
  sim_.post_after(2 * config_.mgmt_latency, [stream_next]() { (*stream_next)(); });
}

void Controller::start() { membership_->start(); }

void Controller::handle_packet(pkt::Packet packet, net::PortId) {
  auto parsed = packet.parse();
  if (!parsed || !parsed->udp || parsed->udp->dst_port != pkt::kSwishPort) return;
  auto msg = pkt::decode_message(packet.l4_payload(*parsed));
  if (!msg) return;
  if (const auto* hb = std::get_if<pkt::Heartbeat>(&*msg)) {
    membership_->on_heartbeat(*hb);
  } else if (const auto* mu = std::get_if<pkt::MembershipUpdate>(&*msg)) {
    membership_->on_update(*mu);
  }
}

void Controller::declare_failed(SwitchId id) { membership_->force_fail(id); }

void Controller::handle_failure(SwitchId failed, TimeNs detection_ns) {
  SWISH_LOG_INFO("controller: switch ", failed, " declared failed at ", sim_.now());
  sim_.tracer().record(telemetry::kTraceFailover, id(), "switch_failed", failed);
  ++failures_detected_;
  detection_ns_.add(static_cast<std::uint64_t>(detection_ns));
  if (on_failure_detected) on_failure_detected(failed, sim_.now());

  std::erase(chain_.chain, failed);
  std::erase(group_.members, failed);
  const std::uint32_t epoch = next_epoch_++;
  chain_.epoch = epoch;
  group_.epoch = epoch;
  push_configs(/*immediate=*/false);
  push_space_chains(/*immediate=*/false);  // directory chains route around it too

  const TimeNs detected_at = sim_.now();
  sim_.post_after(config_.mgmt_latency, [this, failed, detected_at]() {
    sim_.tracer().record(telemetry::kTraceFailover, id(), "failover_complete", failed);
    repair_ns_.add(static_cast<std::uint64_t>(sim_.now() - detected_at));
    if (on_failover_complete) on_failover_complete(failed, sim_.now());
  });
}

void Controller::readmit_switch(SwitchId id) {
  const MemberStatus* status = membership_->view().find(id);
  if (status == nullptr || status->state != MemberState::kFaulty) return;
  sim_.tracer().record(telemetry::kTraceFailover, this->id(), "readmit_switch", id);
  membership_->readmit(id);

  // EWO: membership change only; periodic synchronization restores state.
  const bool had_chain = !chain_.chain.empty();
  group_.epoch = next_epoch_++;
  if (std::find(group_.members.begin(), group_.members.end(), id) == group_.members.end()) {
    group_.members.push_back(id);
  }
  chain_.epoch = group_.epoch;  // keep epochs in lockstep
  push_configs(/*immediate=*/false);

  if (!had_chain) {
    if (on_recovery_complete) {
      sim_.post_after(config_.mgmt_latency, [this, id]() {
        on_recovery_complete(id, sim_.now());
      });
    }
    return;
  }

  // SRO: the current tail streams its snapshot (plus tapped live commits) to
  // the newcomer; only then does the newcomer join the chain — as the new
  // tail (§6.3). The stream runs on the donor's shard; the chain switchover
  // below is controller state, so its callback hops back to this shard.
  const SwitchId donor_id = chain_.chain.back();
  ShmRuntime* donor = members_.at(donor_id).runtime;
  auto streamed = to_controller([this, id]() {
    const std::uint32_t epoch = next_epoch_++;
    chain_.epoch = epoch;
    group_.epoch = epoch;
    if (std::find(chain_.chain.begin(), chain_.chain.end(), id) == chain_.chain.end()) {
      chain_.chain.push_back(id);
    }
    push_configs(/*immediate=*/false);
    if (on_recovery_complete) {
      sim_.post_after(config_.mgmt_latency, [this, id]() {
        on_recovery_complete(id, sim_.now());
      });
    }
  });
  post_to_node(donor_id, config_.mgmt_latency,
               [donor, id, streamed = std::move(streamed)]() {
                 donor->start_recovery_stream(id, streamed);
               });
}

std::vector<NodeId> Controller::failed_nodes() const {
  std::vector<NodeId> failed;
  for (const auto& [id, status] : membership_->view().members) {
    if (status.state == MemberState::kFaulty) failed.push_back(id);
  }
  return failed;
}

void Controller::push_configs(bool immediate) {
  auto tables = net::compute_routes(network_, failed_nodes(), /*no_transit=*/{id()});
  for (auto& [id, m] : members_) {
    if (!usable(id)) continue;
    Member* member = &m;
    auto apply = [member, chain = chain_, group = group_,
                  routing = std::move(tables[id])]() mutable {
      member->runtime->set_chain(chain);
      member->runtime->set_group(group);
      member->sw->set_routing(std::move(routing));
    };
    if (immediate) {
      apply();
    } else {
      post_to_node(id, config_.mgmt_latency, std::move(apply));
    }
  }
}

}  // namespace swish::shm
