#include "swishmem/protocols/engine.hpp"

#include <stdexcept>

#include "swishmem/runtime.hpp"

namespace swish::shm {
namespace {

class VectorSnapshotSource final : public SnapshotSource {
 public:
  explicit VectorSnapshotSource(std::vector<SnapshotOp> ops) : ops_(std::move(ops)) {}

  bool next(std::size_t max_ops, std::vector<SnapshotOp>& out) override {
    while (pos_ < ops_.size() && max_ops-- > 0) out.push_back(ops_[pos_++]);
    return pos_ < ops_.size();
  }

 private:
  std::vector<SnapshotOp> ops_;
  std::size_t pos_ = 0;
};

class PinnedSnapshotSource final : public SnapshotSource {
 public:
  PinnedSnapshotSource(store::OrderedIndex::Snapshot snap,
                       std::function<bool(const store::Entry&, SnapshotOp&)> project)
      : snap_(std::move(snap)), project_(std::move(project)) {}

  bool next(std::size_t max_ops, std::vector<SnapshotOp>& out) override {
    if (done_) return false;
    std::size_t taken = 0;
    bool more = false;
    snap_.scan(cursor_, [&](const store::Entry& e) {
      if (taken == max_ops) {
        cursor_ = e.key;  // resume exactly here next call
        more = true;
        return false;
      }
      SnapshotOp op;
      if (project_(e, op)) {
        out.push_back(op);
        ++taken;
      }
      return true;
    });
    if (!more) {
      done_ = true;
      snap_.release();  // drained: drop the frozen pages now, not at dtor
    }
    return more;
  }

 private:
  store::OrderedIndex::Snapshot snap_;
  std::function<bool(const store::Entry&, SnapshotOp&)> project_;
  std::uint64_t cursor_ = 0;
  bool done_ = false;
};

class ChainedSnapshotSource final : public SnapshotSource {
 public:
  explicit ChainedSnapshotSource(std::vector<std::unique_ptr<SnapshotSource>> sources)
      : sources_(std::move(sources)) {}

  bool next(std::size_t max_ops, std::vector<SnapshotOp>& out) override {
    while (current_ < sources_.size()) {
      const std::size_t before = out.size();
      if (sources_[current_]->next(max_ops, out)) return true;
      const std::size_t got = out.size() - before;
      if (got == max_ops) {
        // Chunk filled exactly as this source drained; more may follow.
        ++current_;
        return current_ < sources_.size();
      }
      max_ops -= got;
      ++current_;
    }
    return false;
  }

 private:
  std::vector<std::unique_ptr<SnapshotSource>> sources_;
  std::size_t current_ = 0;
};

}  // namespace

std::unique_ptr<SnapshotSource> make_vector_source(std::vector<SnapshotOp> ops) {
  return std::make_unique<VectorSnapshotSource>(std::move(ops));
}

std::unique_ptr<SnapshotSource> make_pinned_source(
    store::OrderedIndex::Snapshot snap,
    std::function<bool(const store::Entry&, SnapshotOp&)> project) {
  return std::make_unique<PinnedSnapshotSource>(std::move(snap), std::move(project));
}

std::unique_ptr<SnapshotSource> make_chained_source(
    std::vector<std::unique_ptr<SnapshotSource>> sources) {
  return std::make_unique<ChainedSnapshotSource>(std::move(sources));
}

ActiveTraceScope::ActiveTraceScope(ShmRuntime& host, const telemetry::SpanContext& ctx) noexcept
    : host_(host), saved_(host.active_trace()) {
  host_.set_active_trace(ctx);
}

ActiveTraceScope::~ActiveTraceScope() { host_.set_active_trace(saved_); }

ProtocolEngine::ProtocolEngine(ShmRuntime& host)
    : host_(host),
      obs_(host.sw().simulator().observatory()),
      self_(host.self()),
      spans_(host.sw().spans()),
      active_ctx_(host.active_trace()) {}

telemetry::MetricsRegistry& ProtocolEngine::host_metrics() const {
  return host_.sw().simulator().metrics();
}

std::string ProtocolEngine::metric_prefix(const char* proto_name) const {
  return "shm.sw" + std::to_string(host_.self()) + "." + proto_name + ".";
}

void check_servable(const SpaceConfig& config) {
  const auto reject = [&config](const std::string& why) {
    throw std::invalid_argument("space '" + config.name + "' (" + to_string(config.cls) + ", " +
                                to_string(config.kind) + "): " + why);
  };
  const bool local_class =
      config.cls == ConsistencyClass::kEWO || config.cls == ConsistencyClass::kOWN;
  const bool counter =
      config.merge == MergePolicy::kGCounter || config.merge == MergePolicy::kPNCounter;
  if (config.key_bits < 64 && !config.sparse()) {
    reject("key_bits < 64 declares prefix matching, which dense storage cannot do; use "
           "kind sparse");
  }
  if (config.key_bits < 64 && config.cls == ConsistencyClass::kOWN) {
    reject("OWN has no prefix-match read; use SRO, ERO, EWO or CON");
  }
  if (counter && !local_class) {
    reject(std::string(to_string(config.merge)) + " merge needs update(); use EWO or OWN");
  }
  if (counter && config.cls == ConsistencyClass::kEWO && config.sparse()) {
    reject("counter merges need dense per-replica registers; use kind dense or OWN");
  }
  if (config.merge == MergePolicy::kGSet && config.cls != ConsistencyClass::kEWO) {
    reject("G-set merge needs a join; use EWO");
  }
  if (config.table_backed && !config.sparse() && local_class) {
    reject("registers indexed by key cannot hold a table of hashed keys; use SRO, ERO or "
           "CON, or kind sparse");
  }
}

void ProtocolEngine::add_remote_space(const SpaceConfig& config) {
  throw std::invalid_argument(std::string("add_remote_space: ") + to_string(config.cls) +
                              " spaces cannot be remote");
}

bool ProtocolEngine::update(std::uint32_t space, std::uint64_t key, std::int64_t delta,
                            UpdateDone done) {
  (void)space;
  (void)key;
  (void)delta;
  (void)done;
  return false;
}

void ProtocolEngine::apply_recovery_op(const pkt::WriteOp& op, SeqNum seq) {
  (void)op;
  (void)seq;
}

std::optional<std::uint64_t> ProtocolEngine::read_lpm(std::uint32_t space, std::uint64_t key) {
  (void)space;
  (void)key;
  return std::nullopt;
}

std::unique_ptr<SnapshotSource> ProtocolEngine::snapshot_source(
    std::optional<std::uint32_t> space_filter) {
  (void)space_filter;
  return make_vector_source({});
}

}  // namespace swish::shm
