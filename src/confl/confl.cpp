#include "confl/confl.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "graph/shortest_paths.h"

namespace faircache::confl {

using graph::kInfCost;
using graph::kInvalidNode;
using graph::NodeId;

util::Status validate_confl_instance(const ConflInstance& instance) {
  using util::Status;
  if (instance.network == nullptr) {
    return Status::invalid_input("instance needs a network");
  }
  const int n = instance.network->num_nodes();
  if (instance.root < 0 || instance.root >= n) {
    return Status::invalid_input("root out of range");
  }
  if (static_cast<int>(instance.facility_cost.size()) != n) {
    return Status::invalid_input("facility cost size mismatch");
  }
  if (instance.sparse()) {
    if (instance.assign_cost.rows() != 0) {
      return Status::invalid_input(
          "instance sets both dense and sparse assignment costs");
    }
    const metrics::SparseContention& s = instance.sparse_cost;
    if (s.num_nodes != n) {
      return Status::invalid_input("sparse cost node count mismatch");
    }
    if (static_cast<int>(s.row_offset.size()) != n + 1) {
      return Status::invalid_input("sparse cost row offsets mismatch");
    }
    if (s.row_offset.back() != static_cast<std::int64_t>(s.col.size()) ||
        s.col.size() != s.cost.size()) {
      return Status::invalid_input("sparse cost row data mismatch");
    }
    if (s.row_offset.front() != 0) {
      return Status::invalid_input("sparse cost rows must start at 0");
    }
    // One pass over the rows: offsets never fall and stay inside `col`,
    // and each row's columns are in range and strictly ascending — the
    // slot order the engine relies on.
    const auto entries = static_cast<std::int64_t>(s.col.size());
    for (NodeId i = 0; i < n; ++i) {
      const std::int64_t rb = s.row_begin(i);
      const std::int64_t re = s.row_end(i);
      if (re < rb || re > entries) {
        return Status::invalid_input(
            "sparse cost row offsets must ascend within the store");
      }
      NodeId prev = kInvalidNode;
      for (std::int64_t t = rb; t < re; ++t) {
        const NodeId j = s.col[static_cast<std::size_t>(t)];
        if (j < 0 || j >= n) {
          return Status::invalid_input("sparse cost column out of range");
        }
        if (j <= prev) {
          return Status::invalid_input(
              "sparse cost row columns must strictly ascend");
        }
        prev = j;
      }
    }
  } else {
    if (static_cast<int>(instance.assign_cost.rows()) != n) {
      return Status::invalid_input("assignment cost rows mismatch");
    }
    if (static_cast<int>(instance.assign_cost.cols()) != n) {
      return Status::invalid_input("assignment cost columns mismatch");
    }
  }
  if (static_cast<int>(instance.edge_cost.size()) !=
      instance.network->num_edges()) {
    return Status::invalid_input("edge cost size mismatch");
  }
  if (!(instance.edge_scale > 0)) {  // rejects NaN too
    return Status::invalid_input("edge scale must be positive");
  }
  if (!instance.client_weight.empty()) {
    if (static_cast<int>(instance.client_weight.size()) != n) {
      return Status::invalid_input("client weight size mismatch");
    }
    for (double w : instance.client_weight) {
      if (!(w >= 0)) {  // rejects NaN too
        return Status::invalid_input("client weights must be non-negative");
      }
    }
  }
  return Status();
}

util::Status validate_confl_options(const ConflOptions& options) {
  using util::Status;
  if (!(options.alpha_step > 0) || !(options.beta_step > 0) ||
      !(options.gamma_step > 0)) {
    return Status::invalid_input("step sizes must be positive");
  }
  if (options.span_threshold < 1) {
    return Status::invalid_input("span threshold must be ≥ 1");
  }
  if (options.max_rounds < 0) {
    return Status::invalid_input("max_rounds must be ≥ 0 (0 derives it)");
  }
  return Status();
}

namespace {

void check_status(const util::Status& status, const char* expr) {
  if (!status.ok()) {
    util::check_failed(expr, __FILE__, __LINE__, status.message());
  }
}

void validate(const ConflInstance& instance) {
  check_status(validate_confl_instance(instance),
               "validate_confl_instance(instance).ok()");
}

void check_options(const ConflOptions& options) {
  check_status(validate_confl_options(options),
               "validate_confl_options(options).ok()");
}

// A (facility, client) pair's position in its cost store: i*n + j for the
// dense matrix, the CSR entry index for the sparse store. The scheduler
// addresses pairs by slot (bucket entries by slot − row begin), so both
// representations share one engine.
using Slot = std::int64_t;

// One entry of a facility's tight list: the pair's cost, its relay bid γ
// and its client, so the per-round walks never go back to the cost store.
// γ is read or written only while the pair sits in the list, and a pair
// leaves it only for good (its client froze or its facility opened) and is
// never re-added, so γ lives in the entry and starts at 0 with it.
struct TightEntry {
  double cost;
  double gamma;
  NodeId client;
};
using TightList = std::vector<TightEntry>;

// The two cost-row views the growth engine is templated over. Contract:
// row slots [row_begin(i), row_end(i)) ascend with client id, so slot
// iteration preserves the reference engine's ascending-client
// floating-point accumulation order.
struct DenseRows {
  const double* c;  // n×n row-major
  Slot n;
  static constexpr bool kDense = true;
  Slot row_begin(NodeId i) const { return static_cast<Slot>(i) * n; }
  Slot row_end(NodeId i) const { return (static_cast<Slot>(i) + 1) * n; }
  double cost(Slot s) const { return c[s]; }
  NodeId col(Slot s, Slot rb) const { return static_cast<NodeId>(s - rb); }
};

struct SparseRows {
  const metrics::SparseContention* s;  // pairs absent from rows are +inf
  static constexpr bool kDense = false;
  Slot row_begin(NodeId i) const { return s->row_begin(i); }
  Slot row_end(NodeId i) const { return s->row_end(i); }
  double cost(Slot t) const { return s->cost[static_cast<std::size_t>(t)]; }
  NodeId col(Slot t, Slot /*rb*/) const {
    return s->col[static_cast<std::size_t>(t)];
  }
};

template <typename Rows>
int derive_max_rounds(const ConflInstance& instance,
                      const ConflOptions& options, const Rows& rows) {
  if (options.max_rounds != 0) return options.max_rounds;
  // α only needs to reach the cost of connecting straight to the root,
  // after which every client freezes.
  double worst = 0.0;
  const Slot rb = rows.row_begin(instance.root);
  const Slot re = rows.row_end(instance.root);
  for (Slot s = rb; s < re; ++s) {
    const double to_root = rows.cost(s);
    if (to_root != kInfCost) worst = std::max(worst, to_root);
  }
  // Clamped: a tiny step would overflow int.
  const double bound = std::ceil(worst / options.alpha_step) + 2.0;
  return bound > INT_MAX ? INT_MAX : static_cast<int>(bound);
}

// Runs Phase 2 (Steiner tree over the ADMIN set, cheapest-facility
// re-assignment) and fills the cost fields of `solution`. `admins` is
// consumed (sorted in place). Non-OK when the budget expires mid-phase or
// the ADMIN set cannot be connected to the root.
template <typename Rows>
util::Status finish_solution(const ConflInstance& instance,
                             const util::RunBudget& budget,
                             std::vector<NodeId>& admins, const Rows& rows,
                             ConflSolution& solution) {
  const int n = instance.network->num_nodes();
  const auto un = static_cast<std::size_t>(n);
  const NodeId root = instance.root;
  auto weight = [&](NodeId j) {
    return instance.client_weight.empty()
               ? 1.0
               : instance.client_weight[static_cast<std::size_t>(j)];
  };

  std::sort(admins.begin(), admins.end());
  solution.open_facilities = admins;

  for (NodeId i : admins) {
    solution.facility_cost +=
        instance.facility_cost[static_cast<std::size_t>(i)];
  }

  if (!admins.empty()) {
    std::vector<NodeId> terminals = admins;
    terminals.push_back(root);
    std::vector<double> scaled = instance.edge_cost;
    for (double& w : scaled) w *= instance.edge_scale;
    util::Result<steiner::SteinerTree> tree = steiner::try_steiner_mst_approx(
        *instance.network, scaled, std::move(terminals), 0, budget);
    if (!tree.ok()) return tree.status();
    solution.tree = std::move(tree).value();
    solution.tree_cost = solution.tree.cost;
  }
  if (budget.expired()) return budget.status("final client assignment");

  // Final assignment: cheapest facility in A ∪ {root} (never worse than the
  // dual-growth assignment). The min is folded facility-by-facility so the
  // scan walks whole cost rows (cache-linear) instead of columns; each
  // client sees the facilities in the same ascending order either way, so
  // every (best, best_i) update — and the weighted cost sum below — is the
  // per-client loop's, comparison for comparison. The sparse fold visits
  // only a row's materialized clients: absent pairs cost +inf, and an
  // all-+inf tie keeps the root — a client out of every open facility's
  // radius stays root-assigned.
  std::vector<double> best;
  std::vector<NodeId> best_i(un, root);
  if constexpr (Rows::kDense) {
    const double* root_row = rows.c + rows.row_begin(root);
    best.assign(root_row, root_row + n);
  } else {
    best.assign(un, kInfCost);
    const Slot rb = rows.row_begin(root);
    const Slot re = rows.row_end(root);
    for (Slot s = rb; s < re; ++s) {
      best[static_cast<std::size_t>(rows.col(s, rb))] = rows.cost(s);
    }
  }
  for (NodeId i : admins) {
    const Slot rb = rows.row_begin(i);
    const Slot re = rows.row_end(i);
    for (Slot s = rb; s < re; ++s) {
      const auto j = static_cast<std::size_t>(rows.col(s, rb));
      const double cij = rows.cost(s);
      if (cij < best[j] || (cij == best[j] && i < best_i[j])) {
        best[j] = cij;
        best_i[j] = i;
      }
    }
  }
  for (NodeId j = 0; j < n; ++j) {
    solution.assignment[static_cast<std::size_t>(j)] =
        best_i[static_cast<std::size_t>(j)];
    solution.assignment_cost += weight(j) * best[static_cast<std::size_t>(j)];
  }
  return util::Status();
}

// The active-set engine, templated over the cost-row view. Semantics (and
// bit-for-bit arithmetic) match solve_confl_reference; the data structures
// differ:
//
//   * Every unfrozen client has the same α (all grow by the same delta from
//     0), so one scalar A replaces the per-client vector, and "client j is
//     tight with facility i" is the monotone predicate A + 1e-12 ≥ c_ij.
//   * `active` / `openable` are compacted id lists, so finished clients and
//     opened facilities cost nothing in later rounds.
//   * Each openable facility keeps the ascending list of its tight unfrozen
//     pairs, each entry carrying the pair's cost, γ and client (so the
//     per-round walks never touch the cost store), extended by tight
//     *events* instead of per-round rescans: each pair is bucketed by the
//     round where it first becomes tight (the exact α sequence is
//     computed lazily up to a doubling horizon, and each extension
//     rescans the cost rows for the newly reached cost band, so far-away
//     pairs are never bucketed or stored).
//   * Freezing onto open facilities uses an incrementally-maintained
//     cheapest-open-facility (c, i) per client, updated on each opening.
//   * Payments, relay bids and openings walk `live`, the ascending ids of
//     the openable facilities with a non-empty tight list, instead of
//     every openable facility: on a local instance a client is tight with
//     only a few nearby facilities. The reference does nothing for a
//     facility with no tight client, and `live` keeps the ascending order,
//     so openings (and the freezes they trigger) happen in the reference
//     sequence.
//   * The payment walk counts each facility's SPANs; the opening walk
//     skips a facility whose count is below M. Between the two only
//     freezes happen, which can only lower the count, so the skip never
//     misses an opening.
//
// Payments still walk tight entries in ascending client order within each
// facility, and no sum crosses facilities, which keeps every
// floating-point accumulation in the reference order. Under SparseRows
// every loop that walked a dense row walks the row's candidate list
// instead, so a round costs O(materialized active pairs).
template <typename Rows>
util::Result<ConflSolution> try_solve_confl_impl(const ConflInstance& instance,
                                                 const ConflOptions& options,
                                                 const util::RunBudget& budget,
                                                 const Rows& rows) {
  const int n = instance.network->num_nodes();
  const auto un = static_cast<std::size_t>(n);
  const NodeId root = instance.root;
  auto weight = [&](NodeId j) {
    return instance.client_weight.empty()
               ? 1.0
               : instance.client_weight[static_cast<std::size_t>(j)];
  };

  // Client state. The root is not a client (it holds everything already).
  std::vector<char> frozen(un, 0);
  std::vector<NodeId> connect_to(un, kInvalidNode);
  frozen[static_cast<std::size_t>(root)] = 1;
  connect_to[static_cast<std::size_t>(root)] = root;

  // Facility state.
  std::vector<char> open(un, 0);
  open[static_cast<std::size_t>(root)] = 1;  // producer pre-opened
  std::vector<double> paid(un, 0.0);

  // Dual variables: the shared α of all unfrozen clients; γ lives in the
  // tight-list entries (TightEntry). β is kept only in aggregate
  // (`paid` holds Σ_j β_ij): no step ever reads an individual β_ij — the
  // reference's "contributed (β_ij > 0)" freeze clause is subsumed by
  // tightness, since β only grows for tight clients and tightness is
  // monotone.
  double alpha = 0.0;

  // Active client list (ascending, compacted after freezes).
  std::vector<NodeId> active;
  active.reserve(un);
  for (NodeId j = 0; j < n; ++j) {
    if (!frozen[static_cast<std::size_t>(j)]) active.push_back(j);
  }
  std::size_t num_active = active.size();

  // Openable facility list (ascending, compacted after openings).
  std::vector<NodeId> openable;
  for (NodeId i = 0; i < n; ++i) {
    if (!open[static_cast<std::size_t>(i)] &&
        instance.facility_cost[static_cast<std::size_t>(i)] != kInfCost) {
      openable.push_back(i);
    }
  }

  // Cheapest open facility per client, lex-min on (cost, id); seeded with
  // the pre-opened root (clients outside a sparse root row sit at +inf —
  // they can only freeze once some facility with them in radius opens).
  std::vector<double> best_open_c(un, kInfCost);
  std::vector<NodeId> best_open_i(un, root);
  {
    const Slot rb = rows.row_begin(root);
    const Slot re = rows.row_end(root);
    for (Slot s = rb; s < re; ++s) {
      best_open_c[static_cast<std::size_t>(rows.col(s, rb))] = rows.cost(s);
    }
  }

  // tight[i]: ascending-client entries of clients tight with openable
  // facility i. Frozen entries are skipped (and compacted away) lazily.
  std::vector<TightList> tight(un);

  // live: ascending ids of the openable facilities whose tight list may be
  // non-empty (in_live marks membership). Every facility with a non-empty
  // list is in it, so the per-round walks over live see exactly the
  // facilities a walk over `openable` would act on, in the same order.
  // Appends queue new ids in live_new; merge_live folds them in once per
  // round, and the end-of-round compaction drops opened or emptied ones.
  std::vector<NodeId> live;
  std::vector<NodeId> live_new;
  std::vector<NodeId> live_scratch;
  std::vector<char> in_live(un, 0);
  // span_count[i]: SPANs (γ + 1e-12 ≥ c) in i's tight list at its last
  // step-3 walk, or kUnknownSpans after an append. Until the next append it
  // is an upper bound: γ only rises in step 3, which recounts, and freezes
  // only remove entries. Step 4 skips a facility whose bound is below M.
  constexpr int kUnknownSpans = INT_MAX;
  std::vector<int> span_count(un, kUnknownSpans);
  auto note_append = [&](NodeId i) {
    span_count[static_cast<std::size_t>(i)] = kUnknownSpans;
    if (!in_live[static_cast<std::size_t>(i)]) {
      in_live[static_cast<std::size_t>(i)] = 1;
      live_new.push_back(i);
    }
  };
  auto merge_live = [&]() {
    if (live_new.empty()) return;
    std::sort(live_new.begin(), live_new.end());
    live_scratch.resize(live.size() + live_new.size());
    std::merge(live.begin(), live.end(), live_new.begin(), live_new.end(),
               live_scratch.begin());
    live.swap(live_scratch);
    live_new.clear();
  };

  const int max_rounds = derive_max_rounds(instance, options, rows);
  const double beta_rate = options.beta_step / options.alpha_step;
  const double gamma_rate = options.gamma_step / options.alpha_step;
  // α-time per round: β and γ grow by rate × delta, the reference's
  // expression (rate × U_α can differ from U_β or U_γ in the last bit).
  const double delta = options.alpha_step;

  // Appends entries [mid, end) of `tl` (sorted, disjoint from the prefix)
  // into sorted position. Almost always a plain append; merge otherwise.
  // Within a row client order is slot order, so the lists keep the
  // reference's accumulation order.
  const auto by_client = [](const TightEntry& a, const TightEntry& b) {
    return a.client < b.client;
  };
  TightList merge_scratch;
  auto merge_tight_tail = [&](TightList& tl, std::size_t mid) {
    if (mid == 0 || mid == tl.size() ||
        tl[mid - 1].client < tl[mid].client) {
      return;
    }
    merge_scratch.resize(tl.size());
    std::merge(tl.begin(), tl.begin() + static_cast<std::ptrdiff_t>(mid),
               tl.begin() + static_cast<std::ptrdiff_t>(mid), tl.end(),
               merge_scratch.begin(), by_client);
    std::copy(merge_scratch.begin(), merge_scratch.end(), tl.begin());
  };

  // ---- Tight-event scheduler ---------------------------------------------
  // a_seq[k] is α after k growth rounds, computed by the same repeated
  // addition the reference performs (so every comparison sees the exact
  // same value). bucket[k] holds the pairs that first satisfy
  // a_seq[k] + 1e-12 ≥ c_ij, in lex order, as (facility, slot − row begin).
  // Extending the horizon from `old` rescans the openable facilities' cost
  // rows for the band a_seq[old] + 1e-12 < c_ij ≤ a_seq[horizon] + 1e-12
  // (no lower end on the first pass): the bands are disjoint, so each pair
  // is bucketed at most once, and no per-pair state outlives an extension.
  // above[i] is the least cost among i's unfrozen pairs above the top of
  // its last rescanned band (+inf if none, −inf before the first scan).
  // Clients only ever freeze, so it bounds every pair a later band could
  // hold from below, and a row with above[i] > hi has nothing in the band.
  struct BucketEntry {
    NodeId facility;
    std::int32_t offset;
  };
  std::vector<double> a_seq;
  std::vector<std::vector<BucketEntry>> bucket;
  std::vector<double> above(un, -kInfCost);
  int horizon = -1;

  auto extend_horizon = [&](int target) {
    const int old = horizon;
    horizon = target;
    while (static_cast<int>(a_seq.size()) <= horizon) {
      a_seq.push_back(a_seq.empty() ? 0.0
                                    : a_seq.back() + options.alpha_step);
    }
    bucket.resize(static_cast<std::size_t>(horizon) + 1);
    const double lo =
        old < 0 ? -kInfCost : a_seq[static_cast<std::size_t>(old)] + 1e-12;
    const double hi = a_seq[static_cast<std::size_t>(horizon)] + 1e-12;
    // First k in (old, horizon] with a_seq[k] + 1e-12 ≥ c_ij; the predicate
    // is monotone because a_seq is non-decreasing, false at `old` and true
    // at `horizon` for a cost in the band. a_seq[k] ≈ k·step, so start at
    // ceil(c / step), clamped before the cast, and walk to the exact round.
    auto round_of = [&](double cij) {
      int k = static_cast<int>(std::clamp(std::ceil(cij / options.alpha_step),
                                          static_cast<double>(old + 1),
                                          static_cast<double>(horizon)));
      while (k > old + 1 &&
             a_seq[static_cast<std::size_t>(k - 1)] + 1e-12 >= cij) {
        --k;
      }
      while (!(a_seq[static_cast<std::size_t>(k)] + 1e-12 >= cij)) ++k;
      return k;
    };
    // NaN and +inf costs fail the band test and are never scheduled; NaN
    // fails `cij > hi` too, so it never lowers a bound.
    auto schedule = [&](NodeId i, Slot offset, double cij, double& least) {
      if (cij > hi) least = std::min(least, cij);
      if (!(cij <= hi) || cij == kInfCost || (old >= 0 && cij <= lo)) return;
      bucket[static_cast<std::size_t>(round_of(cij))].push_back(
          {i, static_cast<std::int32_t>(offset)});
    };
    // Ascending facilities, ascending slots: every bucket in the band fills
    // in lex order. Opened facilities have left `openable`; a dense row is
    // read at the unfrozen clients only (`active` is compacted, ascending),
    // so a later extension skips the columns of the clients already done.
    for (NodeId i : openable) {
      double& bound = above[static_cast<std::size_t>(i)];
      if (bound > hi) continue;
      double least = kInfCost;
      const Slot rb = rows.row_begin(i);
      if constexpr (Rows::kDense) {
        for (NodeId j : active) schedule(i, j, rows.cost(rb + j), least);
      } else {
        const Slot re = rows.row_end(i);
        for (Slot s = rb; s < re; ++s) {
          if (!frozen[static_cast<std::size_t>(rows.col(s, rb))]) {
            schedule(i, s - rb, rows.cost(s), least);
          }
        }
      }
      bound = least;
    }
  };

  auto process_bucket = [&](int k) {
    auto& b = bucket[static_cast<std::size_t>(k)];
    std::size_t p = 0;
    while (p < b.size()) {  // entries are grouped by facility, lex order
      const NodeId i = b[p].facility;
      std::size_t q = p;
      while (q < b.size() && b[q].facility == i) ++q;
      if (!open[static_cast<std::size_t>(i)]) {
        const Slot rb = rows.row_begin(i);
        auto& tl = tight[static_cast<std::size_t>(i)];
        const std::size_t mid = tl.size();
        for (std::size_t t = p; t < q; ++t) {
          const Slot s = rb + b[t].offset;
          const NodeId j = rows.col(s, rb);
          if (!frozen[static_cast<std::size_t>(j)]) {
            // Most lists stay this short; grown from one entry, over half
            // the appends on a 100k instance reallocated.
            if (tl.capacity() == 0) tl.reserve(4);
            tl.push_back({rows.cost(s), 0.0, j});
          }
        }
        if (tl.size() > mid) {
          merge_tight_tail(tl, mid);
          note_append(i);
        }
      }
      p = q;
    }
    std::vector<BucketEntry>().swap(b);  // release: never refilled
  };

  extend_horizon(std::max(0, std::min(16, max_rounds)));
  process_bucket(0);  // pairs tight at α = 0 (zero-cost pairs)
  merge_live();

  ConflSolution solution;
  solution.assignment.assign(un, kInvalidNode);
  solution.assignment[static_cast<std::size_t>(root)] = root;

  std::vector<NodeId> admins;

  int round = 0;
  for (; round < max_rounds && num_active > 0; ++round) {
    // Cooperative cancellation point: one check and one work unit per
    // growth round, before any dual is touched, so an aborted run leaves
    // no half-applied round behind.
    budget.charge();
    if (budget.expired()) return budget.status("confl dual growth");

    // 1. Grow connection bids by the fixed unit (paper line 18) and ingest
    // the pairs that become tight at the new α.
    const int k = round + 1;
    if (k > horizon) {
      extend_horizon(std::min(std::max(2 * horizon, k), max_rounds));
    }
    alpha = a_seq[static_cast<std::size_t>(k)];
    process_bucket(k);
    merge_live();

    // 2. Tight with an already-open facility → TIGHT request accepted,
    // client freezes (paper lines 21–26) onto its cheapest open facility.
    bool froze = false;
    for (NodeId j : active) {
      if (frozen[static_cast<std::size_t>(j)]) continue;
      if (alpha + 1e-12 >= best_open_c[static_cast<std::size_t>(j)]) {
        frozen[static_cast<std::size_t>(j)] = 1;
        connect_to[static_cast<std::size_t>(j)] =
            best_open_i[static_cast<std::size_t>(j)];
        --num_active;
        froze = true;
      }
    }

    // 3. Payments and relay bids toward unopened facilities (lines 19–20):
    // tight clients pay β until f_i is covered, then raise γ. Ascending
    // client order within each facility — the reference accumulation
    // order; no sum crosses facilities. The walk also counts the SPANs it
    // keeps, the bound step 4 reads.
    for (NodeId i : live) {
      auto& tl = tight[static_cast<std::size_t>(i)];
      const double fi = instance.facility_cost[static_cast<std::size_t>(i)];
      double& pi = paid[static_cast<std::size_t>(i)];
      int spans = 0;
      std::size_t out = 0;
      for (TightEntry e : tl) {
        const NodeId j = e.client;
        if (frozen[static_cast<std::size_t>(j)]) continue;
        if (pi + 1e-12 < fi) {
          const double pay = std::min(weight(j) * beta_rate * delta, fi - pi);
          pi += pay;
        } else {
          // Demand-weighted clients raise relay bids faster, pulling
          // facilities toward demand hot-spots.
          e.gamma += weight(j) * gamma_rate * delta;
        }
        if (e.gamma + 1e-12 >= e.cost) ++spans;
        tl[out++] = e;
      }
      tl.resize(out);
      span_count[static_cast<std::size_t>(i)] = spans;
    }

    // 4. Facilities with the facility cost covered and ≥ M SPAN requests
    // become ADMIN (lines 27–44). SPANs from frozen clients are retracted
    // (a FREEZE response stops their bidding), which prevents two adjacent
    // facilities from opening for the same client set. Every SPAN holder is
    // tight (γ only grows for tight clients; a zero-cost pair is tight from
    // round 0), so counting within the tight list matches the reference's
    // all-clients scan. Walking `live` in ascending order keeps the
    // reference's opening (and so freezing) sequence; a facility whose
    // SPAN bound is already below M cannot open and is not walked.
    bool opened = false;
    for (NodeId i : live) {
      const double fi = instance.facility_cost[static_cast<std::size_t>(i)];
      if (paid[static_cast<std::size_t>(i)] + 1e-12 < fi) continue;
      if (span_count[static_cast<std::size_t>(i)] < options.span_threshold) {
        continue;
      }
      auto& tl = tight[static_cast<std::size_t>(i)];
      int spans = 0;
      std::size_t out = 0;
      for (const TightEntry& e : tl) {
        if (frozen[static_cast<std::size_t>(e.client)]) continue;
        tl[out++] = e;
        if (e.gamma + 1e-12 >= e.cost) ++spans;
      }
      tl.resize(out);
      if (spans < options.span_threshold) continue;

      open[static_cast<std::size_t>(i)] = 1;
      opened = true;
      admins.push_back(i);
      // Fold the new facility into every remaining client's cheapest-open
      // tracking, then freeze everyone tight with the new ADMIN. (A client
      // with β_ij > 0 is necessarily tight, so the reference's
      // "tight or contributed" freeze set is exactly the tight list.)
      // Dense walks the active-client list against the facility's row; the
      // sparse fold walks the row's candidate list instead — out-of-row
      // pairs cost +inf and can never beat a finite best, and a client
      // only ever freezes at a finite best, so the folds agree on every
      // freeze decision.
      const Slot rb = rows.row_begin(i);
      if constexpr (Rows::kDense) {
        const double* row = rows.c + rb;
        for (NodeId j : active) {
          if (frozen[static_cast<std::size_t>(j)]) continue;
          const double cij = row[j];
          if (cij < best_open_c[static_cast<std::size_t>(j)] ||
              (cij == best_open_c[static_cast<std::size_t>(j)] &&
               i < best_open_i[static_cast<std::size_t>(j)])) {
            best_open_c[static_cast<std::size_t>(j)] = cij;
            best_open_i[static_cast<std::size_t>(j)] = i;
          }
        }
      } else {
        const Slot re = rows.row_end(i);
        for (Slot s = rb; s < re; ++s) {
          const auto j = static_cast<std::size_t>(rows.col(s, rb));
          if (frozen[j]) continue;
          const double cij = rows.cost(s);
          if (cij < best_open_c[j] ||
              (cij == best_open_c[j] && i < best_open_i[j])) {
            best_open_c[j] = cij;
            best_open_i[j] = i;
          }
        }
      }
      for (const TightEntry& e : tl) {
        if (frozen[static_cast<std::size_t>(e.client)]) continue;
        frozen[static_cast<std::size_t>(e.client)] = 1;
        connect_to[static_cast<std::size_t>(e.client)] = i;
        --num_active;
      }
      froze = true;
      tl.clear();
    }

    // Compact the active/openable/live lists so later rounds only touch
    // live entries.
    if (froze) {
      std::size_t out = 0;
      for (NodeId j : active) {
        if (!frozen[static_cast<std::size_t>(j)]) active[out++] = j;
      }
      active.resize(out);
    }
    if (opened) {
      std::size_t out = 0;
      for (NodeId i : openable) {
        if (!open[static_cast<std::size_t>(i)]) openable[out++] = i;
      }
      openable.resize(out);
    }
    {
      std::size_t out = 0;
      for (NodeId i : live) {
        if (!open[static_cast<std::size_t>(i)] &&
            !tight[static_cast<std::size_t>(i)].empty()) {
          live[out++] = i;
        } else {
          in_live[static_cast<std::size_t>(i)] = 0;
        }
      }
      live.resize(out);
    }
  }
  solution.rounds = round;
  if (num_active > 0) {
    return util::Status::resource_exhausted(
        "dual growth did not converge within the round budget");
  }

  if (util::Status s =
          finish_solution(instance, budget, admins, rows, solution);
      !s.ok()) {
    return s;
  }
  return solution;
}

}  // namespace

util::Result<ConflSolution> try_solve_confl(const ConflInstance& instance,
                                            const ConflOptions& options,
                                            const util::RunBudget& budget) {
  if (util::Status s = validate_confl_instance(instance); !s.ok()) return s;
  if (util::Status s = validate_confl_options(options); !s.ok()) return s;
  if (instance.sparse()) {
    return try_solve_confl_impl(instance, options, budget,
                                SparseRows{&instance.sparse_cost});
  }
  return try_solve_confl_impl(
      instance, options, budget,
      DenseRows{instance.assign_cost.data(),
                static_cast<Slot>(instance.network->num_nodes())});
}

// The original dense engine: per-client α vector, per-round rescans of
// every (facility, client) pair. Kept as the behavioural reference for
// try_solve_confl — both must produce bit-identical solutions. Dense-only by
// design: differential tests build the dense twin of a sparse instance.
ConflSolution solve_confl_reference(const ConflInstance& instance,
                                    const ConflOptions& options) {
  validate(instance);
  check_options(options);
  FAIRCACHE_CHECK(!instance.sparse(),
                  "solve_confl_reference requires dense assignment costs");

  const int n = instance.network->num_nodes();
  const NodeId root = instance.root;
  const auto& c = instance.assign_cost;
  const DenseRows rows{c.data(), static_cast<Slot>(n)};
  auto cost = [&](NodeId i, NodeId j) {
    return c(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
  };
  auto weight = [&](NodeId j) {
    return instance.client_weight.empty()
               ? 1.0
               : instance.client_weight[static_cast<std::size_t>(j)];
  };

  // Client state. The root is not a client (it holds everything already).
  std::vector<char> frozen(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> connect_to(static_cast<std::size_t>(n), kInvalidNode);
  frozen[static_cast<std::size_t>(root)] = 1;
  connect_to[static_cast<std::size_t>(root)] = root;

  // Facility state.
  std::vector<char> open(static_cast<std::size_t>(n), 0);
  open[static_cast<std::size_t>(root)] = 1;  // producer pre-opened
  std::vector<double> paid(static_cast<std::size_t>(n), 0.0);

  // Dual variables. α per client; β/γ per (facility, client).
  std::vector<double> alpha(static_cast<std::size_t>(n), 0.0);
  util::Matrix<double> beta(static_cast<std::size_t>(n),
                            static_cast<std::size_t>(n), 0.0);
  util::Matrix<double> gamma(static_cast<std::size_t>(n),
                             static_cast<std::size_t>(n), 0.0);

  auto openable = [&](NodeId i) {
    return !open[static_cast<std::size_t>(i)] &&
           instance.facility_cost[static_cast<std::size_t>(i)] != kInfCost;
  };

  const int max_rounds = derive_max_rounds(instance, options, rows);

  // Dual growth rates per unit of α-time, and the α-time of one round.
  const double beta_rate = options.beta_step / options.alpha_step;
  const double gamma_rate = options.gamma_step / options.alpha_step;
  const double delta = options.alpha_step;

  ConflSolution solution;
  solution.assignment.assign(static_cast<std::size_t>(n), kInvalidNode);
  solution.assignment[static_cast<std::size_t>(root)] = root;

  std::vector<NodeId> admins;

  auto all_frozen = [&] {
    return std::all_of(frozen.begin(), frozen.end(),
                       [](char f) { return f != 0; });
  };

  // Freeze client j onto the cheapest open facility it is tight with.
  auto try_freeze_on_open = [&](NodeId j) {
    double best = kInfCost;
    NodeId best_i = kInvalidNode;
    for (NodeId i = 0; i < n; ++i) {
      if (!open[static_cast<std::size_t>(i)]) continue;
      const double cij = cost(i, j);
      if (alpha[static_cast<std::size_t>(j)] + 1e-12 < cij) continue;
      if (cij < best || (cij == best && i < best_i)) {
        best = cij;
        best_i = i;
      }
    }
    if (best_i != kInvalidNode) {
      frozen[static_cast<std::size_t>(j)] = 1;
      connect_to[static_cast<std::size_t>(j)] = best_i;
    }
  };

  int round = 0;
  for (; round < max_rounds && !all_frozen(); ++round) {
    // 1. Grow connection bids by the fixed unit (paper line 18).
    for (NodeId j = 0; j < n; ++j) {
      if (!frozen[static_cast<std::size_t>(j)]) {
        alpha[static_cast<std::size_t>(j)] += delta;
      }
    }

    // 2. Tight with an already-open facility → TIGHT request accepted,
    // client freezes (paper lines 21–26).
    for (NodeId j = 0; j < n; ++j) {
      if (!frozen[static_cast<std::size_t>(j)]) try_freeze_on_open(j);
    }

    // 3. Payments and relay bids toward unopened facilities (lines 19–20):
    // tight clients pay β until f_i is covered, then raise γ.
    for (NodeId i = 0; i < n; ++i) {
      if (!openable(i)) continue;
      const double fi = instance.facility_cost[static_cast<std::size_t>(i)];
      for (NodeId j = 0; j < n; ++j) {
        if (frozen[static_cast<std::size_t>(j)]) continue;
        if (alpha[static_cast<std::size_t>(j)] + 1e-12 < cost(i, j)) {
          continue;  // not tight yet
        }
        if (paid[static_cast<std::size_t>(i)] + 1e-12 < fi) {
          const double pay = std::min(weight(j) * beta_rate * delta,
                                      fi - paid[static_cast<std::size_t>(i)]);
          beta(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) += pay;
          paid[static_cast<std::size_t>(i)] += pay;
        } else {
          // Demand-weighted clients raise relay bids faster, pulling
          // facilities toward demand hot-spots.
          gamma(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) +=
              weight(j) * gamma_rate * delta;
        }
      }
    }

    // 4. Facilities with the facility cost covered and ≥ M SPAN requests
    // become ADMIN (lines 27–44). SPANs from frozen clients are retracted
    // (a FREEZE response stops their bidding), which prevents two adjacent
    // facilities from opening for the same client set.
    for (NodeId i = 0; i < n; ++i) {
      if (!openable(i)) continue;
      const double fi = instance.facility_cost[static_cast<std::size_t>(i)];
      if (paid[static_cast<std::size_t>(i)] + 1e-12 < fi) continue;
      int spans = 0;
      for (NodeId j = 0; j < n; ++j) {
        if (frozen[static_cast<std::size_t>(j)]) continue;
        if (gamma(static_cast<std::size_t>(i),
                  static_cast<std::size_t>(j)) +
                1e-12 >=
            cost(i, j)) {
          ++spans;
        }
      }
      if (spans < options.span_threshold) continue;

      open[static_cast<std::size_t>(i)] = 1;
      admins.push_back(i);
      // Freeze every client tight with the new ADMIN, plus anyone who has
      // contributed to it (β > 0) — they received a NADMIN response.
      for (NodeId j = 0; j < n; ++j) {
        if (frozen[static_cast<std::size_t>(j)]) continue;
        const bool is_tight =
            alpha[static_cast<std::size_t>(j)] + 1e-12 >= cost(i, j);
        const bool contributed =
            beta(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) >
            0.0;
        if (is_tight || contributed) {
          frozen[static_cast<std::size_t>(j)] = 1;
          connect_to[static_cast<std::size_t>(j)] = i;
        }
      }
    }
  }
  solution.rounds = round;
  FAIRCACHE_CHECK(all_frozen(),
                  "dual growth did not converge within the round budget");

  check_status(finish_solution(instance, util::RunBudget(), admins, rows,
                               solution),
               "finish_solution(...).ok()");
  return solution;
}

namespace {

template <typename Rows>
double evaluate_confl_objective_impl(const ConflInstance& instance,
                                     const std::vector<NodeId>& open,
                                     double scaled_tree_cost,
                                     const Rows& rows) {
  const int n = instance.network->num_nodes();
  const auto un = static_cast<std::size_t>(n);
  double total = scaled_tree_cost;
  for (NodeId i : open) {
    total += instance.facility_cost[static_cast<std::size_t>(i)];
  }
  // Min-fold per facility row (min over doubles is order-insensitive, so
  // this matches the per-client scan of the historical dense evaluator).
  std::vector<double> best(un, kInfCost);
  {
    const Slot rb = rows.row_begin(instance.root);
    const Slot re = rows.row_end(instance.root);
    for (Slot s = rb; s < re; ++s) {
      best[static_cast<std::size_t>(rows.col(s, rb))] = rows.cost(s);
    }
  }
  for (NodeId i : open) {
    const Slot rb = rows.row_begin(i);
    const Slot re = rows.row_end(i);
    for (Slot s = rb; s < re; ++s) {
      const auto j = static_cast<std::size_t>(rows.col(s, rb));
      best[j] = std::min(best[j], rows.cost(s));
    }
  }
  for (NodeId j = 0; j < n; ++j) {
    const double w = instance.client_weight.empty()
                         ? 1.0
                         : instance.client_weight[static_cast<std::size_t>(j)];
    total += w * best[static_cast<std::size_t>(j)];
  }
  return total;
}

}  // namespace

double evaluate_confl_objective(const ConflInstance& instance,
                                const std::vector<NodeId>& open,
                                double scaled_tree_cost) {
  validate(instance);
  if (instance.sparse()) {
    return evaluate_confl_objective_impl(instance, open, scaled_tree_cost,
                                         SparseRows{&instance.sparse_cost});
  }
  return evaluate_confl_objective_impl(
      instance, open, scaled_tree_cost,
      DenseRows{instance.assign_cost.data(),
                static_cast<Slot>(instance.network->num_nodes())});
}

}  // namespace faircache::confl
