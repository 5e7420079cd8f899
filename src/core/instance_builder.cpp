#include "core/instance_builder.h"

#include <optional>
#include <utility>

namespace faircache::core {

namespace {

// `chunk` is empty for a query-only sync(), which reads no demand row.
util::Status validate_build_inputs(const FairCachingProblem& problem,
                                   const metrics::CacheState& state,
                                   const InstanceOptions& options,
                                   std::optional<metrics::ChunkId> chunk) {
  if (problem.network == nullptr) {
    return util::Status::invalid_input("problem needs a network");
  }
  if (state.num_nodes() != problem.network->num_nodes()) {
    return util::Status::invalid_input("state / network size mismatch");
  }
  if (options.demand != nullptr && chunk.has_value() &&
      (*chunk < 0 ||
       static_cast<std::size_t>(*chunk) >= options.demand->size())) {
    return util::Status::invalid_input("demand matrix missing chunk row");
  }
  return util::Status();  // OK
}

// Everything of the instance except the contention buffers.
confl::ConflInstance instance_shell(const FairCachingProblem& problem,
                                    const metrics::CacheState& state,
                                    const InstanceOptions& options,
                                    metrics::ChunkId chunk) {
  confl::ConflInstance instance;
  instance.network = problem.network;
  instance.root = problem.producer;
  instance.edge_scale = options.edge_scale;
  instance.facility_cost = options.fairness.costs(state);
  if (options.demand != nullptr) {
    instance.client_weight =
        (*options.demand)[static_cast<std::size_t>(chunk)];
  }
  return instance;
}

}  // namespace

util::Result<confl::ConflInstance> try_build_chunk_instance(
    const FairCachingProblem& problem, const metrics::CacheState& state,
    const InstanceOptions& options, metrics::ChunkId chunk,
    metrics::PathPolicy policy) {
  if (util::Status status =
          validate_build_inputs(problem, state, options, chunk);
      !status.ok()) {
    return status;
  }
  // CSR rows pin hop-shortest trees.
  if (options.contention_mode == ContentionMode::kSparse &&
      policy != metrics::PathPolicy::kHopShortest) {
    return util::Status::invalid_input(
        "kSparse rows need hop-shortest paths");
  }
  confl::ConflInstance instance =
      instance_shell(problem, state, options, chunk);
  metrics::ContentionMatrix contention(*problem.network, state, policy);
  instance.assign_cost = contention.take_matrix();
  instance.edge_cost = contention.take_edge_costs();
  return instance;
}

ChunkInstanceEngine::ChunkInstanceEngine(const FairCachingProblem& problem,
                                         const InstanceOptions& options)
    : problem_(&problem), options_(options), guard_(options_.guard) {
  if (problem_->network != nullptr) {
    updater_ = make_updater(options_.guard.enabled);
  }
}

std::unique_ptr<metrics::ContentionUpdater> ChunkInstanceEngine::make_updater(
    bool checksums) const {
  metrics::ContentionUpdaterOptions updater_options;
  updater_options.radius = options_.contention_radius;
  updater_options.full_row = problem_->producer;
  updater_options.checksums = checksums;
  return std::make_unique<metrics::ContentionUpdater>(
      *problem_->network,
      options_.contention_mode == ContentionMode::kSparse
          ? metrics::ContentionLayout::kCsr
          : metrics::ContentionLayout::kDense,
      updater_options);
}

double ChunkInstanceEngine::update_updater(const metrics::CacheState& state) {
  const double tree_before = updater_->tree_build_seconds();
  const double delta_before = updater_->delta_apply_seconds();
  updater_->update(state);
  const double tree = updater_->tree_build_seconds() - tree_before;
  const double delta = updater_->delta_apply_seconds() - delta_before;
  stats_.tree_seconds += tree;
  stats_.delta_seconds += delta;
  return tree + delta;
}

util::Result<confl::ConflInstance> ChunkInstanceEngine::build(
    const metrics::CacheState& state, metrics::ChunkId chunk) {
  const int build_index = ++builds_;
  if (util::Status status =
          validate_build_inputs(*problem_, state, options_, chunk);
      !status.ok()) {
    return status;
  }
  if (options_.pre_build_hook) options_.pre_build_hook(*this, build_index);
  confl::ConflInstance instance =
      instance_shell(*problem_, state, options_, chunk);
  // Audit BEFORE update(): a corrupted pinned tree must be caught before
  // it can drive (or overrun) the delta sweep it indexes.
  guard_tick(build_index);
  const double spent = update_updater(state);
  if (recovering_) {
    guard_.add_recovery_seconds(spent);
    recovering_ = false;
  }
  metrics::ContentionBuffers lent = updater_->take();
  instance.assign_cost = std::move(lent.dense);
  instance.sparse_cost = std::move(lent.csr);
  instance.edge_cost = std::move(lent.edge_cost);
  return instance;
}

void ChunkInstanceEngine::reclaim(confl::ConflInstance&& instance) {
  FAIRCACHE_DCHECK(updater_ != nullptr, "reclaim without a built instance");
  updater_->restore({std::move(instance.assign_cost),
                     std::move(instance.sparse_cost),
                     std::move(instance.edge_cost)});
  guard_.set_stale_restores(stale_restore_base_ + updater_->stale_restores());
}

util::Status ChunkInstanceEngine::sync(const metrics::CacheState& state) {
  if (util::Status status =
          validate_build_inputs(*problem_, state, options_, std::nullopt);
      !status.ok()) {
    return status;
  }
  update_updater(state);
  return util::Status();  // OK
}

bool ChunkInstanceEngine::query_ready() const {
  return updater_ != nullptr && updater_->ready();
}

double ChunkInstanceEngine::query_cost(graph::NodeId i,
                                       graph::NodeId j) const {
  FAIRCACHE_DCHECK(query_ready());
  return updater_->cost(i, j);
}

void ChunkInstanceEngine::guard_tick(int build_index) {
  if (!options_.guard.enabled || !updater_->ready()) {
    return;
  }
  const double build_seconds = stats_.tree_seconds + stats_.delta_seconds;
  if (!guard_.audit_due(build_index, build_seconds)) return;
  if (guard_.audit(*updater_, build_index)) return;
  guard_.note_quarantine(build_index);
  recovering_ = true;
  stale_restore_base_ += updater_->stale_restores();
  updater_ = make_updater(/*checksums=*/true);
}

bool ChunkInstanceEngine::corrupt_for_testing(
    const util::StateCorruption& corruption) {
  return updater_->corrupt_for_testing(corruption);
}

}  // namespace faircache::core
