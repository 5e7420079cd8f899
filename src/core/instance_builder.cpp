#include "core/instance_builder.h"

#include <utility>
#include <vector>

#include "util/stopwatch.h"

namespace faircache::core {

namespace {

util::Status validate_build_inputs(const FairCachingProblem& problem,
                                   const metrics::CacheState& state,
                                   const InstanceOptions& options,
                                   metrics::ChunkId chunk) {
  if (problem.network == nullptr) {
    return util::Status::invalid_input("problem needs a network");
  }
  if (state.num_nodes() != problem.network->num_nodes()) {
    return util::Status::invalid_input("state / network size mismatch");
  }
  if (options.demand != nullptr &&
      (chunk < 0 ||
       static_cast<std::size_t>(chunk) >= options.demand->size())) {
    return util::Status::invalid_input("demand matrix missing chunk row");
  }
  if (options.contention_mode == ContentionMode::kSparse) {
    if (util::Status status =
            validate_sparse_node_limit(problem.network->num_nodes());
        !status.ok()) {
      return status;
    }
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

confl::ConflInstance build_chunk_instance(const FairCachingProblem& problem,
                                          const metrics::CacheState& state,
                                          const InstanceOptions& options,
                                          metrics::ChunkId chunk) {
  util::Result<confl::ConflInstance> result =
      try_build_chunk_instance(problem, state, options, chunk);
  if (!result.ok()) {
    util::check_failed("try_build_chunk_instance(...).ok()", __FILE__,
                       __LINE__, result.status().message());
  }
  return std::move(result).value();
}

util::Result<confl::ConflInstance> try_build_chunk_instance(
    const FairCachingProblem& problem, const metrics::CacheState& state,
    const InstanceOptions& options, metrics::ChunkId chunk) {
  if (util::Status status =
          validate_build_inputs(problem, state, options, chunk);
      !status.ok()) {
    return status;
  }
  confl::ConflInstance instance =
      instance_shell(problem, state, options, chunk);
  metrics::ContentionMatrix contention(*problem.network, state,
                                       options.path_policy, options.threads);
  instance.assign_cost = contention.take_matrix();
  instance.edge_cost = contention.take_edge_costs();
  return instance;
}

util::Status validate_sparse_node_limit(int num_nodes) {
  if (num_nodes >= metrics::SparseContention::kMaxNodes) {
    return util::Status::invalid_input(
        "sparse contention store packs columns into 24 bits; "
        "network must have fewer than 2^24 nodes");
  }
  return util::Status();  // OK
}

ChunkInstanceEngine::ChunkInstanceEngine(const FairCachingProblem& problem,
                                         const InstanceOptions& options)
    : problem_(&problem), options_(options) {
  mode_used_ = options_.contention_mode;
  // The updater pins hop-shortest BFS trees; kMinContention paths depend
  // on the weights themselves, so both stateful modes fall back to the
  // stateless rebuild (surfaced through mode_used()).
  if (options_.path_policy != metrics::PathPolicy::kHopShortest ||
      problem_->network == nullptr) {
    mode_used_ = ContentionMode::kRebuild;
  }
  guard_ = EngineGuard(options_.guard);
  if (mode_used_ == ContentionMode::kRebuild) return;
  if (mode_used_ == ContentionMode::kSparse) {
    // The 24-bit column limit surfaces as a typed error from build(),
    // never a CHECK abort inside the updater.
    init_status_ = validate_sparse_node_limit(problem_->network->num_nodes());
    if (!init_status_.ok()) return;
  }
  updater_ = make_updater(options_.guard.enabled);
}

std::unique_ptr<metrics::ContentionUpdater> ChunkInstanceEngine::make_updater(
    bool checksums) const {
  metrics::ContentionUpdaterOptions updater_options;
  updater_options.radius = options_.contention_radius;
  updater_options.full_row = problem_->producer;
  updater_options.threads = options_.threads;
  updater_options.checksums = checksums;
  return std::make_unique<metrics::ContentionUpdater>(
      *problem_->network,
      mode_used_ == ContentionMode::kSparse ? metrics::ContentionLayout::kCsr
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
  if (options_.pre_build_hook) options_.pre_build_hook(*this, build_index);
  if (!init_status_.ok()) return init_status_;
  if (util::Status status =
          validate_build_inputs(*problem_, state, options_, chunk);
      !status.ok()) {
    return status;
  }
  confl::ConflInstance instance =
      instance_shell(*problem_, state, options_, chunk);
  // Audit BEFORE update(): a corrupted pinned tree must be caught before
  // it can drive (or overrun) the delta sweep it indexes.
  guard_tick(build_index);
  if (updater_ != nullptr) {
    const double spent = update_updater(state);
    if (recovering_) {
      guard_.add_recovery_seconds(spent);
      recovering_ = false;
    }
    metrics::ContentionBuffers lent = updater_->take();
    instance.assign_cost = std::move(lent.dense);
    instance.sparse_cost = std::move(lent.csr);
    instance.edge_cost = std::move(lent.edge_cost);
  } else {
    util::Stopwatch timer;
    metrics::ContentionMatrix contention(*problem_->network, state,
                                         options_.path_policy,
                                         options_.threads);
    instance.assign_cost = contention.take_matrix();
    instance.edge_cost = contention.take_edge_costs();
    stats_.tree_seconds += timer.elapsed_seconds();
  }
  return instance;
}

void ChunkInstanceEngine::reclaim(confl::ConflInstance&& instance) {
  if (updater_ == nullptr) return;
  updater_->restore({std::move(instance.assign_cost),
                     std::move(instance.sparse_cost),
                     std::move(instance.edge_cost)});
  guard_.set_stale_restores(stale_restore_base_ + updater_->stale_restores());
}

util::Status ChunkInstanceEngine::sync(const metrics::CacheState& state) {
  if (!init_status_.ok()) return init_status_;
  if (problem_->network == nullptr) {
    return util::Status::invalid_input("problem needs a network");
  }
  if (state.num_nodes() != problem_->network->num_nodes()) {
    return util::Status::invalid_input("state / network size mismatch");
  }
  if (updater_ != nullptr) {
    update_updater(state);
    return util::Status();  // OK
  }
  std::vector<int> counts = state.stored_counts();
  if (query_matrix_ == nullptr || counts != query_counts_) {
    util::Stopwatch timer;
    query_matrix_ = std::make_unique<metrics::ContentionMatrix>(
        *problem_->network, state, options_.path_policy, options_.threads);
    query_counts_ = std::move(counts);
    stats_.tree_seconds += timer.elapsed_seconds();
  }
  return util::Status();  // OK
}

bool ChunkInstanceEngine::query_ready() const {
  return updater_ != nullptr ? updater_->ready() : query_matrix_ != nullptr;
}

double ChunkInstanceEngine::query_cost(graph::NodeId i,
                                       graph::NodeId j) const {
  FAIRCACHE_DCHECK(query_ready());
  return updater_ != nullptr ? updater_->cost(i, j)
                             : query_matrix_->cost(i, j);
}

void ChunkInstanceEngine::guard_tick(int build_index) {
  if (!options_.guard.enabled || updater_ == nullptr || !updater_->ready()) {
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
  return updater_ != nullptr && updater_->corrupt_for_testing(corruption);
}

}  // namespace faircache::core
