#pragma once

// Primal–dual Connected Facility Location (ConFL) approximation — the
// engine behind the paper's Algorithm 1. Each data chunk induces one ConFL
// instance: facility costs are the fairness degree costs f_i, assignment
// costs are the path contention costs c_ij, and the open facilities must be
// connected to the root (producer) by a Steiner tree over edges with
// dissemination costs c_e.
//
// The implementation follows the paper's transcription of the Jung et al.
// (2009) primal–dual scheme, with the ambiguities resolved as documented in
// DESIGN.md §2:
//
//   Phase 1 (dual growth): every client j raises a connection bid α_j in
//   steps of U_α. Once α_j reaches c_ij the client is *tight* with facility
//   i. Tight clients first pay toward the facility cost (β_ij, rate U_β,
//   Σ_j β_ij capped at f_i); once the facility is fully paid they raise
//   relay bids (γ_ij, rate U_γ). When γ_ij ≥ c_ij the client has issued a
//   SPAN request. A facility with at least `span_threshold` (the paper's M)
//   outstanding SPAN requests declares itself ADMIN (opens). Clients tight
//   with an open facility FREEZE and connect; the root is open from the
//   start, which guarantees termination.
//
//   Phase 2: the ADMIN set A is connected to the root by a Steiner tree
//   (steiner::try_steiner_mst_approx over `edge_scale`-scaled edge costs), and
//   every client is re-assigned to its cheapest facility in A ∪ {root}.

#include <vector>

#include "graph/graph.h"
#include "metrics/sparse_contention.h"
#include "steiner/steiner.h"
#include "util/deadline.h"
#include "util/matrix.h"
#include "util/status.h"

namespace faircache::confl {

struct ConflInstance {
  const graph::Graph* network = nullptr;
  graph::NodeId root = graph::kInvalidNode;
  // f_i; +inf marks a node that can never open (producer, full cache).
  std::vector<double> facility_cost;
  // c(i, j): cost for client j to connect to facility i (c(j, j) == 0).
  // Row i is the contiguous per-facility cost row. Exactly one of
  // assign_cost / sparse_cost is populated.
  util::Matrix<double> assign_cost;
  // Sparse alternative to assign_cost: per-facility candidate-client rows
  // (metrics::SparseContention); pairs absent from a row are implicitly
  // +inf. The solver iterates candidate lists instead of dense rows, so
  // memory and per-round work scale with the materialized pairs. With
  // every reachable pair materialized (radius ≥ diameter) the solve is
  // bit-identical to the dense engine on connected instances; the root's
  // row must always be untruncated (ContentionUpdaterOptions::full_row).
  metrics::SparseContention sparse_cost;
  // Dissemination cost per edge of `network`.
  std::vector<double> edge_cost;
  // Multiplier M applied to edge costs in the objective (Eq. 8).
  double edge_scale = 1.0;
  // Optional per-client demand weights (empty = uniform 1). A client with
  // weight w contributes w·c_ij to the assignment objective and pays
  // toward facility costs at w times the base rate — the weighted-clients
  // generalisation of the paper's "every node wants every chunk" model.
  std::vector<double> client_weight;

  bool sparse() const { return !sparse_cost.empty(); }
};

struct ConflOptions {
  // Dual growth step sizes (the paper's U_α, U_β, U_γ). alpha_step is the
  // amount α grows per round; beta/gamma are growth per round once active.
  double alpha_step = 1.0;
  double beta_step = 1.0;
  // Relay bids grow faster than connection bids by default: U_γ = 4 U_α
  // (the paper notes the three units "can be different" and that choosing
  // them wisely improves the solution; this default reproduces the
  // paper's fairness shape on the 6×6 grid — see EXPERIMENTS.md).
  double gamma_step = 4.0;
  // SPAN requests required before a facility opens (the paper's M).
  int span_threshold = 3;
  // Safety valve on growth rounds; 0 derives it from the root row's
  // largest finite cost. Negative values are rejected as kInvalidInput.
  int max_rounds = 0;
  // Inert: the solver reads neither. Phase 2 always builds Mehlhorn's tree
  // from one serial sweep (steiner::try_steiner_mst_approx). Both fields
  // stay only while the benchmark harness names them, and go when it
  // stops (ROADMAP item 5).
  int threads = 0;
  steiner::Engine steiner_engine = steiner::Engine::kVoronoi;
};

struct ConflSolution {
  std::vector<graph::NodeId> open_facilities;  // the ADMIN set A, sorted
  // assignment[j] = facility serving client j (root allowed).
  std::vector<graph::NodeId> assignment;
  steiner::SteinerTree tree;  // connects A ∪ {root}; empty if A is empty

  double facility_cost = 0.0;    // Σ_{i ∈ A} f_i
  double assignment_cost = 0.0;  // Σ_j c(assignment[j], j)
  double tree_cost = 0.0;        // edge_scale × Steiner cost
  int rounds = 0;                // dual growth rounds executed

  double total() const {
    return facility_cost + assignment_cost + tree_cost;
  }
};

// Non-throwing validation of an instance / options against the documented
// domain (sizes, root range, positive steps, non-negative round cap, ...).
// try_solve_confl returns these as kInvalidInput; solve_confl_reference
// enforces them with FAIRCACHE_CHECK.
util::Status validate_confl_instance(const ConflInstance& instance);
util::Status validate_confl_options(const ConflOptions& options);

// Runs the primal–dual approximation on one ConFL instance.
//
// The implementation is the active-set engine: it tracks the compacted
// lists of unfrozen clients and openable facilities plus per-facility
// tight-client lists. The per-round payment, relay-bid and opening steps
// walk only the `live` facilities, those with a non-empty tight list, in
// ascending id order, and the opening step skips a facility whose SPAN
// count from the payment step is already below span_threshold. A round
// thus costs O(active clients + live facilities + their tight entries)
// instead of O(n²) or O(openable facilities). Neither shortcut changes an
// operation or its order, so the output is bit-identical to
// solve_confl_reference below on every instance (see
// tests/perf_core_test.cpp, tests/sparse_test.cpp and the fuzz corpus).
//
// Malformed input comes back as kInvalidInput; an expired util::RunBudget
// as its own reason (kCancelled / kDeadlineExceeded / kResourceExhausted);
// a dual growth that fails to converge within max_rounds as
// kResourceExhausted. The budget is polled once per growth round (one work
// unit charged per round) and inside the Phase 2 Steiner construction. A
// run that completes under an unexpired budget is bit-identical to an
// unbudgeted one — budget checks never touch the solver arithmetic.
util::Result<ConflSolution> try_solve_confl(
    const ConflInstance& instance, const ConflOptions& options = {},
    const util::RunBudget& budget = {});

// Reference implementation: the original dense engine that rescans every
// (facility, client) pair each round. Kept for differential testing of the
// active-set solver; prefer try_solve_confl everywhere else.
ConflSolution solve_confl_reference(const ConflInstance& instance,
                                    const ConflOptions& options = {});

// Objective value of an arbitrary (facility set, tree) pair under the
// instance costs, assigning every client to its cheapest open facility.
// `scaled_tree_cost` must already include the edge_scale factor (as
// ConflSolution::tree_cost does). Used by tests and the exact solver.
double evaluate_confl_objective(const ConflInstance& instance,
                                const std::vector<graph::NodeId>& open,
                                double scaled_tree_cost);

}  // namespace faircache::confl
