#include "metrics/contention_updater.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "graph/shortest_paths.h"
#include "metrics/contention.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace faircache::metrics {

using graph::NodeId;

// Per-worker scratch reused across all rows a worker builds/patches. The
// arrays indexed by node id are only ever read for nodes visited by the
// current row's BFS, so they need no per-row clearing — the visit stamp
// guards staleness.
struct ContentionUpdater::Workspace {
  struct NodeEntry {
    double weight;
    int stamp;
  };
  std::vector<NodeEntry> node;      // packed (weight, visit stamp)
  std::vector<NodeId> order;        // BFS visit order (frontier)
  std::vector<NodeId> parent;       // BFS parent of each visited node
  std::vector<int> depth;           // BFS depth of each visited node
  std::vector<int> child_begin;     // children of v = order[cb[v], ce[v])
  std::vector<int> child_end;
  std::vector<int> size;            // subtree size in the BFS tree
  std::vector<double> cost;         // CSR: row costs by node id
  std::vector<std::int32_t> local;  // CSR: node id -> slot
  std::vector<std::int32_t> slot;   // CSR: slot of the node at order[c]
  std::vector<NodeId> sorted;       // CSR: ascending-id copy of `order`
  std::vector<double> diff;         // difference array over preorder
  std::uint64_t chk = 0;            // cost-block digest partial
  std::uint64_t chk_tree = 0;       // tree-block digest partial (builds)
  int generation = 0;

  void init(const std::vector<double>& weight, bool dense) {
    const std::size_t n = weight.size();
    node.resize(n);
    for (std::size_t i = 0; i < n; ++i) node[i] = {weight[i], 0};
    parent.resize(n);
    depth.resize(n);
    child_begin.resize(n);
    child_end.resize(n);
    size.resize(n);
    order.reserve(n);
    if (!dense) {
      cost.resize(n);
      local.resize(n);
      slot.resize(n);
    }
    generation = 0;
  }

  // BFS of row `src` with the exact hop-shortest arithmetic of
  // ContentionMatrix (row[j] = row[parent] + w[j], parents before
  // children, ascending-id neighbour order), recording the tree: parents,
  // subtree sizes of 1 and each node's child range inside the visit order.
  // kHops (the CSR layout) also records hop depths and stops expanding at
  // `limit` hops; a dense row is always full. `row` is indexed by node id.
  // Returns the number of visited nodes.
  template <bool kHops>
  int bfs(const graph::CsrAdjacency& adj, NodeId src, int limit,
          double* row) {
    const int gen = ++generation;
    const auto ui = static_cast<std::size_t>(src);
    // Raw views: order.push_back may allocate, which would otherwise force
    // a reload of every vector's data pointer in the inner loop.
    NodeEntry* nd = node.data();
    int* dep = depth.data();
    NodeId* par = parent.data();
    int* sz = size.data();
    const int* offset = adj.offset.data();
    const NodeId* neighbor = adj.neighbor.data();
    order.clear();
    row[ui] = 0.0;
    dep[ui] = 0;
    nd[ui].stamp = gen;
    par[ui] = graph::kInvalidNode;
    sz[ui] = 1;
    order.push_back(src);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const NodeId v = order[head];
      const auto uv = static_cast<std::size_t>(v);
      child_begin[uv] = static_cast<int>(order.size());
      if (!kHops || dep[uv] < limit) {
        const double base = v == src ? nd[ui].weight : row[uv];
        const int next_depth = kHops ? dep[uv] + 1 : 0;
        const int end = offset[v + 1];
        for (int e = offset[v]; e < end; ++e) {  // ascending id
          const auto wi = static_cast<std::size_t>(neighbor[e]);
          if (nd[wi].stamp == gen) continue;
          nd[wi].stamp = gen;
          row[wi] = base + nd[wi].weight;
          if (kHops) dep[wi] = next_depth;
          par[wi] = v;
          sz[wi] = 1;
          order.push_back(neighbor[e]);
        }
      }
      child_end[uv] = static_cast<int>(order.size());
    }
    return static_cast<int>(order.size());
  }

  // Nodes within `limit` hops of `src`: the CSR build's first pass (no
  // costs, no tree bookkeeping).
  int ball_size(const graph::CsrAdjacency& adj, NodeId src, int limit) {
    const int gen = ++generation;
    NodeEntry* nd = node.data();
    int* dep = depth.data();
    const int* offset = adj.offset.data();
    const NodeId* neighbor = adj.neighbor.data();
    order.clear();
    nd[static_cast<std::size_t>(src)].stamp = gen;
    dep[static_cast<std::size_t>(src)] = 0;
    order.push_back(src);
    for (std::size_t head = 0; head < order.size(); ++head) {
      const NodeId v = order[head];
      const int dv = dep[static_cast<std::size_t>(v)];
      if (dv >= limit) continue;
      const int end = offset[v + 1];
      for (int e = offset[v]; e < end; ++e) {
        const auto wi = static_cast<std::size_t>(neighbor[e]);
        if (nd[wi].stamp == gen) continue;
        nd[wi].stamp = gen;
        dep[wi] = dv + 1;
        order.push_back(neighbor[e]);
      }
    }
    return static_cast<int>(order.size());
  }

  // Dense: every node the last bfs() did not visit costs +∞.
  void mark_unreached(double* row, std::size_t n) const {
    for (std::size_t j = 0; j < n; ++j) {
      if (node[j].stamp != generation) row[j] = graph::kInfCost;
    }
  }

  // CSR: lays the last bfs()'s nodes out in ascending-id slots — the
  // packed (col << 8) | hop keys, the slot costs, and the slot of each
  // visit-order position.
  void fill_csr_slots(std::uint32_t* packed, double* slot_cost) {
    sorted.assign(order.begin(), order.end());
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t s = 0; s < sorted.size(); ++s) {
      const NodeId j = sorted[s];
      const auto uj = static_cast<std::size_t>(j);
      local[uj] = static_cast<std::int32_t>(s);
      const auto hop = static_cast<std::uint32_t>(std::min(depth[uj], 255));
      packed[s] =
          (static_cast<std::uint32_t>(j) << SparseContention::kHopBits) | hop;
      slot_cost[s] = cost[uj];
    }
    for (std::size_t c = 0; c < order.size(); ++c) {
      slot[c] = local[static_cast<std::size_t>(order[c])];
    }
  }
};

namespace {

// Process-wide source of pinned-tree epochs: every build_full of every
// updater gets a distinct stamp, so a buffer can never be restored into a
// different pinning than the one it was taken from.
std::atomic<std::uint64_t> g_epoch_counter{0};

double finite_row_max(const double* row, std::size_t n) {
  double m = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double v = row[j];
    if (v != graph::kInfCost && v > m) m = v;
  }
  return m;
}

// Region shards for the parallel build: nodes grouped by the Voronoi
// region of ~64 evenly spaced seeds (one multi-source sweep over unit
// edge weights), ascending id within a region. Workers claim whole
// regions, so each walks a topologically clustered source block while
// writing its disjoint rows.
void build_region_shards(const graph::Graph& g,
                         const graph::CsrAdjacency& adj,
                         std::vector<NodeId>& region_order,
                         std::vector<std::size_t>& region_begin) {
  const int n = g.num_nodes();
  region_order.clear();
  region_begin.assign(1, 0);
  if (n == 0) return;

  const int k = std::min(n, 64);
  const int stride = std::max(1, n / k);
  std::vector<NodeId> seeds;
  for (NodeId v = 0; v < n && static_cast<int>(seeds.size()) < k;
       v += stride) {
    seeds.push_back(v);
  }
  std::vector<double> unit(static_cast<std::size_t>(g.num_edges()), 1.0);
  const graph::VoronoiPartition part =
      graph::voronoi_partition(g, seeds, unit, &adj, nullptr);

  // Region index per node: position of its owning seed in the (sorted)
  // seed list; nodes unreached from every seed share one trailing region.
  const int regions = static_cast<int>(seeds.size()) + 1;
  auto region_of = [&](NodeId v) {
    const NodeId s = part.nearest[static_cast<std::size_t>(v)];
    if (s == graph::kInvalidNode) return regions - 1;
    return static_cast<int>(
        std::lower_bound(seeds.begin(), seeds.end(), s) - seeds.begin());
  };
  std::vector<std::size_t> count(static_cast<std::size_t>(regions) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    ++count[static_cast<std::size_t>(region_of(v)) + 1];
  }
  for (std::size_t r = 1; r < count.size(); ++r) count[r] += count[r - 1];
  region_begin.assign(count.begin(), count.end());
  region_order.resize(static_cast<std::size_t>(n));
  std::vector<std::size_t> cursor(count.begin(), count.end() - 1);
  for (NodeId v = 0; v < n; ++v) {  // ascending id within each region
    region_order[cursor[static_cast<std::size_t>(region_of(v))]++] = v;
  }
}

}  // namespace

ContentionUpdater::ContentionUpdater(const graph::Graph& g,
                                     ContentionLayout layout,
                                     ContentionUpdaterOptions options)
    : graph_(&g),
      layout_(layout),
      options_(options),
      adj_(graph::build_csr(g)) {
  if (dense()) {  // dense rows are always full
    options_.radius = 0;
    options_.full_row = graph::kInvalidNode;
  } else {
    FAIRCACHE_CHECK(g.num_nodes() < SparseContention::kMaxNodes,
                    "sparse contention store supports < 2^24 nodes");
  }
}

ContentionUpdater::~ContentionUpdater() = default;

int ContentionUpdater::row_limit(NodeId i) const {
  if (options_.radius <= 0 || i == options_.full_row) {
    return graph_->num_nodes();  // effectively unbounded
  }
  return options_.radius;
}

std::int64_t ContentionUpdater::row_begin(std::size_t i) const {
  if (dense()) {
    return static_cast<std::int64_t>(i) * graph_->num_nodes();
  }
  return buf_.csr.row_offset[i];
}

double* ContentionUpdater::costs() {
  return dense() ? buf_.dense.data() : buf_.csr.cost.data();
}

const double* ContentionUpdater::costs() const {
  return dense() ? buf_.dense.data() : buf_.csr.cost.data();
}

std::size_t ContentionUpdater::cost_size() const {
  return dense() ? buf_.dense.size() : buf_.csr.cost.size();
}

bool ContentionUpdater::shape_ok(const ContentionBuffers& b) const {
  const auto n = static_cast<std::size_t>(graph_->num_nodes());
  const std::size_t slots = pre_.size();
  const bool costs_fit =
      dense() ? b.dense.rows() == n && b.dense.size() == slots
              : b.csr.row_offset.size() == n + 1 &&
                    b.csr.packed.size() == slots && b.csr.cost.size() == slots;
  return costs_fit &&
         b.edge_cost.size() == static_cast<std::size_t>(graph_->num_edges());
}

ContentionBuffers ContentionUpdater::take() {
  lent_ = true;
  return std::move(buf_);
}

void ContentionUpdater::restore(ContentionBuffers buffers) {
  // Epoch check first, before the shape CHECK: buffers taken against an
  // older pinning (an earlier rebuild, another updater or topology) must
  // degrade to a rebuild, not abort or — worse — patch stale trees.
  if (!built_ || !lent_ || buffers.csr.epoch != epoch_) {
    ++stale_restores_;
    return;  // drop them; the next update() rebuilds if nothing is home
  }
  FAIRCACHE_CHECK(shape_ok(buffers), "restored buffer shape mismatch");
  buf_ = std::move(buffers);
  lent_ = false;
}

void ContentionUpdater::update(const CacheState& state) {
  FAIRCACHE_CHECK(state.num_nodes() == graph_->num_nodes(),
                  "cache state / graph size mismatch");
  std::vector<double> next = contention_weights(*graph_, state);
  if (!built_ || lent_ || !shape_ok(buf_)) {
    // First use, or the lent buffers never came back. weight_ must be
    // current before the build: build_full seeds the maintained digest,
    // which covers the weight block.
    weight_ = std::move(next);
    build_full(weight_);
    built_ = true;
    return;
  }
  std::vector<std::pair<NodeId, double>> deltas;
  for (std::size_t k = 0; k < next.size(); ++k) {
    if (next[k] != weight_[k]) {
      deltas.emplace_back(static_cast<NodeId>(k), next[k] - weight_[k]);
    }
  }
  if (deltas.empty()) return;
  weight_ = std::move(next);
  if (options_.checksums) digest_.weight = weight_digest();
  apply_deltas(deltas);
}

void ContentionUpdater::build_full(const std::vector<double>& weight) {
  util::Stopwatch timer;
  const auto n = static_cast<std::size_t>(graph_->num_nodes());
  SparseContention& store = buf_.csr;
  store.num_nodes = graph_->num_nodes();
  store.radius = options_.radius;
  store.full_row = graph_->contains(options_.full_row) ? options_.full_row
                                                       : graph::kInvalidNode;
  if (region_order_.empty() && n > 0) {
    build_region_shards(*graph_, adj_, region_order_, region_begin_);
  }
  const std::size_t shards =
      region_begin_.empty() ? 0 : region_begin_.size() - 1;
  const int threads = util::resolve_parallel_threads(options_.threads, shards);
  std::vector<Workspace> ws(static_cast<std::size_t>(std::max(threads, 1)));
  for (Workspace& w : ws) w.init(weight, dense());
  auto for_each_source = [&](auto&& fn) {
    util::parallel_for(
        shards,
        [&](std::size_t shard, int worker) {
          Workspace& w = ws[static_cast<std::size_t>(worker)];
          for (std::size_t t = region_begin_[shard];
               t < region_begin_[shard + 1]; ++t) {
            fn(region_order_[t], w);
          }
        },
        threads);
  };

  // Slot counts: n per dense row; the CSR build's first pass sizes each
  // row's truncated ball.
  std::size_t slots = n * n;
  if (dense()) {
    buf_.dense.assign_no_init(n, n);
  } else {
    store.row_offset.assign(n + 1, 0);
    for_each_source([&](NodeId src, Workspace& w) {
      store.row_offset[static_cast<std::size_t>(src) + 1] =
          w.ball_size(adj_, src, row_limit(src));
    });
    for (std::size_t i = 0; i < n; ++i) {
      store.row_offset[i + 1] += store.row_offset[i];
    }
    slots = static_cast<std::size_t>(store.row_offset[n]);
    store.packed.resize(slots);
    store.cost.resize(slots);
  }
  for (auto* tree : {&pre_, &end_, &order_}) {
    tree->clear();
    tree->resize(slots);
  }
  row_max_.resize(n);

  for_each_source([&](NodeId src, Workspace& w) { pin_row(src, w); });

  buf_.edge_cost.resize(static_cast<std::size_t>(graph_->num_edges()));
  for (graph::EdgeId e = 0; e < graph_->num_edges(); ++e) {
    const graph::Edge& edge = graph_->edge(e);
    buf_.edge_cost[static_cast<std::size_t>(e)] =
        weight[static_cast<std::size_t>(edge.u)] +
        weight[static_cast<std::size_t>(edge.v)];
  }

  store.max_cost = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    store.max_cost = std::max(store.max_cost, row_max_[i]);
  }
  store.epoch = epoch_ = ++g_epoch_counter;
  lent_ = false;
  // Assemble the maintained digests from the per-worker partials gathered
  // while pinning; every later sweep keeps them current incrementally.
  if (options_.checksums) {
    util::StateDigest d;
    d.cost = util::length_term(slots);
    d.tree = util::length_term(store.row_offset.size() + store.packed.size() +
                               3 * slots);
    for (const Workspace& w : ws) {
      d.cost += w.chk;
      d.tree += w.chk_tree;
    }
    d.tree += util::digest_span(store.row_offset.data(),
                                store.row_offset.size());
    d.weight = weight_digest();
    d.edge = util::length_term(buf_.edge_cost.size()) +
             util::digest_span(buf_.edge_cost.data(), buf_.edge_cost.size());
    d.aux = aux_digest();
    digest_ = d;
  }
  tree_build_seconds_ += timer.elapsed_seconds();
}

void ContentionUpdater::pin_row(NodeId src, Workspace& w) {
  const auto n = static_cast<std::size_t>(graph_->num_nodes());
  const auto ui = static_cast<std::size_t>(src);
  const std::int64_t rb = row_begin(ui);
  const auto slots = static_cast<std::size_t>(row_begin(ui + 1) - rb);
  double* cost = costs() + rb;
  std::int32_t* pre = pre_.data() + rb;
  std::int32_t* end = end_.data() + rb;
  std::int32_t* ord = order_.data() + rb;

  // A dense row is indexed by node id, so the BFS writes it in place.
  const int reach =
      dense() ? w.bfs<false>(adj_, src, 0, cost)
              : w.bfs<true>(adj_, src, row_limit(src), w.cost.data());
  if (!dense()) {
    FAIRCACHE_CHECK(static_cast<std::size_t>(reach) == slots,
                    "row size drifted between build passes");
    w.fill_csr_slots(buf_.csr.packed.data() + rb, cost);
  } else if (static_cast<std::size_t>(reach) < n) {
    // Disconnected graph: unreached = ∞. The sweep never reads interval
    // bounds or preorder slots of unreachable nodes, but the integrity
    // digests cover the whole buffers — give the dead slots a defined
    // value.
    w.mark_unreached(cost, n);
    std::fill(pre, pre + n, -1);
    std::fill(end, end + n, 0);
    std::fill(ord + reach, ord + n, graph::kInvalidNode);
  }
  row_max_[ui] = finite_row_max(cost, slots);

  // Subtree sizes: fold children into parents in reverse BFS order.
  const NodeId* order = w.order.data();
  for (int idx = reach - 1; idx >= 1; --idx) {
    const auto v = static_cast<std::size_t>(order[idx]);
    w.size[static_cast<std::size_t>(w.parent[v])] += w.size[v];
  }
  // Preorder intervals over slots. Children of v occupy the consecutive
  // positions after pre(v), each shifted by the preceding siblings'
  // subtree sizes; processing in BFS order sees parents first. slot[c] is
  // the slot of the node at visit position c: its id in a dense row.
  const std::int32_t* slot = dense() ? order : w.slot.data();
  pre[slot[0]] = 0;
  end[slot[0]] = reach;
  ord[0] = slot[0];
  for (int idx = 0; idx < reach; ++idx) {
    const auto v = static_cast<std::size_t>(order[idx]);
    std::int32_t q = pre[slot[idx]] + 1;
    for (int c = w.child_begin[v]; c < w.child_end[v]; ++c) {
      const int size = w.size[static_cast<std::size_t>(order[c])];
      pre[slot[c]] = q;
      end[slot[c]] = q + size;
      ord[q] = slot[c];
      q += size;
    }
  }

  if (options_.checksums) {
    // Seed the maintained digests while the row is cache-hot; the partial
    // sums are associative, so this matches recompute_digest() bit for bit
    // at any thread count.
    const auto base = static_cast<std::uint64_t>(rb);
    const std::uint64_t total = pre_.size();
    const std::uint64_t tree0 = tree_base();
    w.chk += util::digest_span(cost, slots, base);
    if (!dense()) {
      w.chk_tree += util::digest_span(buf_.csr.packed.data() + rb, slots,
                                      n + 1 + base);
    }
    w.chk_tree += util::digest_span(pre, slots, tree0 + base);
    w.chk_tree += util::digest_span(end, slots, tree0 + total + base);
    w.chk_tree += util::digest_span(ord, slots, tree0 + 2 * total + base);
  }
}

void ContentionUpdater::apply_deltas(
    const std::vector<std::pair<NodeId, double>>& deltas) {
  util::Stopwatch timer;
  const auto n = static_cast<std::size_t>(graph_->num_nodes());
  std::vector<double>& edge_cost = buf_.edge_cost;
  const bool track = options_.checksums;

  bool any_negative = false;
  for (const auto& [k, d] : deltas) {
    if (d < 0.0) any_negative = true;
    // Dissemination edge costs touching k: recompute from the fresh
    // weights (both-endpoints-changed edges are recomputed twice,
    // idempotently).
    const auto node = static_cast<std::size_t>(k);
    for (int slot = adj_.offset[node]; slot < adj_.offset[node + 1]; ++slot) {
      const auto e = static_cast<std::size_t>(adj_.incident[slot]);
      const graph::Edge& edge = graph_->edge(adj_.incident[slot]);
      const double fresh = weight_[static_cast<std::size_t>(edge.u)] +
                           weight_[static_cast<std::size_t>(edge.v)];
      if (track) {
        digest_.edge += util::replace_term(e, util::to_bits(edge_cost[e]),
                                           util::to_bits(fresh));
      }
      edge_cost[e] = fresh;
    }
  }

  const int threads = util::resolve_parallel_threads(options_.threads, n);
  // Per-worker difference arrays over preorder positions, zeroed once here
  // and re-zeroed after every row by undoing exactly the scattered entries
  // (the swept span can be long; the touched positions are only 2|D|).
  std::vector<Workspace> ws(static_cast<std::size_t>(std::max(threads, 1)));
  for (Workspace& w : ws) w.diff.assign(n + 1, 0.0);

  // Dense delta lookup for the CSR row-scan path below: after a placement
  // the changed set can be tens of thousands of nodes, and binary-searching
  // each one in every row would dwarf the row sweep itself.
  std::vector<double> delta_of(n, 0.0);
  for (const auto& [k, d] : deltas) delta_of[static_cast<std::size_t>(k)] = d;

  util::parallel_for(
      n,
      [&](std::size_t i, int worker) {
        const std::int64_t rb = row_begin(i);
        const auto reach = static_cast<int>(row_begin(i + 1) - rb);
        if (reach <= 0) return;
        double* diff = ws[static_cast<std::size_t>(worker)].diff.data();
        const std::int32_t* pre = pre_.data() + rb;
        const std::int32_t* end = end_.data() + rb;
        const std::uint32_t* packed =
            dense() ? nullptr : buf_.csr.packed.data() + rb;
        // Slot of node k in this row: k itself in a dense row, a binary
        // search in a CSR row (-1 when the pair is not materialized — out
        // of radius, so the delta cannot touch this row).
        auto slot_of = [&](NodeId k) {
          if (packed == nullptr) return static_cast<int>(k);
          const auto key = static_cast<std::uint32_t>(k)
                           << SparseContention::kHopBits;
          const std::uint32_t* it =
              std::lower_bound(packed, packed + reach, key);
          if (it == packed + reach || SparseContention::col_of(*it) != k) {
            return -1;
          }
          return static_cast<int>(it - packed);
        };
        // A delta on the source itself shifts the (zero) diagonal too; it
        // gets reset below, so the running max needs a rescan to shed the
        // transient value.
        bool rescan = any_negative;
        int first = reach + 1;
        int last = 0;
        auto scatter = [&](int s, double d) {
          const int p = pre[s];
          if (p < 0) return;  // dense: k unreachable from i, no shared path
          if (p == 0) rescan = true;
          const int q = end[s];
          diff[p] += d;
          diff[q] -= d;
          if (p < first) first = p;
          if (q > last) last = q;
        };
        // Scatter the changed nodes' subtree range-adds. Two equivalent
        // walks over ascending client ids: look each changed node up in
        // the row when the changed set is small, otherwise scan a CSR row
        // once against the dense delta lookup (|D| log reach vs reach).
        const bool scan_row =
            packed != nullptr &&
            deltas.size() * 8 >= static_cast<std::size_t>(reach);
        if (scan_row) {
          for (int s = 0; s < reach; ++s) {
            const double d = delta_of[SparseContention::col_of(packed[s])];
            if (d != 0.0) scatter(s, d);
          }
        } else {
          for (const auto& [k, d] : deltas) {
            const int s = slot_of(k);
            if (s >= 0) scatter(s, d);
          }
        }
        if (last <= first) return;  // no changed node shares a path here

        double* cost = costs() + rb;
        const std::int32_t* ord = order_.data() + rb;
        double acc = 0.0;
        double row_max = row_max_[i];  // valid lower bound: deltas ≥ 0 here
        if (track) {
          // Same arithmetic as the untracked loop below, plus the O(1)
          // digest replace per touched entry (including the diagonal
          // reset, whose transient value the sweep may have shifted).
          const auto slot0 = static_cast<std::uint64_t>(rb);
          std::uint64_t chk = 0;
          for (int p = first; p < last; ++p) {
            acc += diff[p];
            if (acc != 0.0) {
              const double old = cost[ord[p]];
              const double v = old + acc;
              cost[ord[p]] = v;
              if (v > row_max) row_max = v;
              chk += util::replace_term(slot0 + ord[p], util::to_bits(old),
                                        util::to_bits(v));
            }
          }
          const double diag = cost[ord[0]];
          if (util::to_bits(diag) != util::to_bits(0.0)) {
            chk += util::replace_term(slot0 + ord[0], util::to_bits(diag),
                                      util::to_bits(0.0));
          }
          ws[static_cast<std::size_t>(worker)].chk += chk;
        } else {
          for (int p = first; p < last; ++p) {
            acc += diff[p];
            if (acc != 0.0) {
              const double v = (cost[ord[p]] += acc);
              if (v > row_max) row_max = v;
            }
          }
        }
        cost[ord[0]] = 0.0;  // c_ii stays 0 (self access transmits nothing)
        row_max_[i] =
            rescan ? finite_row_max(cost, static_cast<std::size_t>(reach))
                   : row_max;

        // Leave the worker's difference array all-zero for the next row.
        // A row scan touched only positions in [first, last], a range the
        // sweep above already walked.
        if (scan_row) {
          std::fill(diff + first, diff + last + 1, 0.0);
        } else {
          for (const auto& [k, d] : deltas) {
            const int s = slot_of(k);
            if (s < 0 || pre[s] < 0) continue;
            diff[pre[s]] = 0.0;
            diff[end[s]] = 0.0;
          }
        }
      },
      threads);

  SparseContention& store = buf_.csr;
  store.max_cost = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    store.max_cost = std::max(store.max_cost, row_max_[i]);
  }
  if (track) {
    for (const Workspace& w : ws) digest_.cost += w.chk;
    digest_.aux = aux_digest();
  }
  delta_apply_seconds_ += timer.elapsed_seconds();
}

std::uint64_t ContentionUpdater::tree_base() const {
  if (dense()) return 0;
  return static_cast<std::uint64_t>(row_max_.size()) + 1 + pre_.size();
}

std::uint64_t ContentionUpdater::aux_digest() const {
  const std::size_t n = row_max_.size();
  const SparseContention& store = buf_.csr;
  std::uint64_t d = util::length_term(n + 5) +
                    util::digest_span(row_max_.data(), n);
  d += util::contribution(n, util::to_bits(store.max_cost));
  d += util::contribution(n + 1, store.epoch);
  d += util::contribution(n + 2, util::to_bits(store.num_nodes));
  d += util::contribution(n + 3, util::to_bits(store.radius));
  d += util::contribution(n + 4, util::to_bits(store.full_row));
  return d;
}

std::uint64_t ContentionUpdater::weight_digest() const {
  return util::length_term(weight_.size()) +
         util::digest_span(weight_.data(), weight_.size());
}

util::StateDigest ContentionUpdater::recompute_digest() const {
  util::StateDigest d;
  const std::size_t n = row_max_.size();
  const SparseContention& store = buf_.csr;
  const std::uint64_t total = pre_.size();
  const std::uint64_t tree0 = tree_base();
  const double* cost = costs();
  const std::size_t cost_n = cost_size();
  struct Partial {
    std::uint64_t cost = 0;
    std::uint64_t tree = 0;
  };
  const int threads = util::resolve_parallel_threads(options_.threads, n);
  std::vector<Partial> part(static_cast<std::size_t>(std::max(threads, 1)));
  // Spans are clamped to the actual array sizes: a truncated buffer must
  // still be *audit-safe* — the length terms and the missing contributions
  // flag the mismatch, the recompute itself never reads out of bounds.
  auto clamped = [](auto* data, std::size_t size, std::int64_t lo,
                    std::int64_t hi, std::uint64_t slot0) -> std::uint64_t {
    const auto b = static_cast<std::size_t>(std::clamp<std::int64_t>(
        lo, 0, static_cast<std::int64_t>(size)));
    const auto e = static_cast<std::size_t>(std::clamp<std::int64_t>(
        hi, static_cast<std::int64_t>(b), static_cast<std::int64_t>(size)));
    return util::digest_span(data + b, e - b, slot0 + b);
  };
  util::parallel_for(
      n,
      [&](std::size_t i, int worker) {
        Partial& p = part[static_cast<std::size_t>(worker)];
        const std::int64_t rb = row_begin(i);
        const std::int64_t re = row_begin(i + 1);
        p.cost += clamped(cost, cost_n, rb, re, 0);
        p.tree += clamped(store.packed.data(), store.packed.size(), rb, re,
                          n + 1);
        p.tree += clamped(pre_.data(), pre_.size(), rb, re, tree0);
        p.tree += clamped(end_.data(), end_.size(), rb, re, tree0 + total);
        p.tree += clamped(order_.data(), order_.size(), rb, re,
                          tree0 + 2 * total);
      },
      threads);
  d.cost = util::length_term(cost_n);
  d.tree = util::length_term(store.row_offset.size() + store.packed.size() +
                             pre_.size() + end_.size() + order_.size());
  for (const Partial& p : part) {  // associative: any worker order agrees
    d.cost += p.cost;
    d.tree += p.tree;
  }
  d.tree += util::digest_span(store.row_offset.data(),
                              store.row_offset.size());
  d.weight = weight_digest();
  d.edge = util::length_term(buf_.edge_cost.size()) +
           util::digest_span(buf_.edge_cost.data(), buf_.edge_cost.size());
  d.aux = aux_digest();
  return d;
}

bool ContentionUpdater::verify_row(NodeId i) const {
  const auto n = static_cast<std::size_t>(graph_->num_nodes());
  if (!ready() || i < 0 || static_cast<std::size_t>(i) >= n) return true;
  const auto ui = static_cast<std::size_t>(i);
  const std::int64_t rb = row_begin(ui);
  const std::int64_t re = row_begin(ui + 1);
  if (rb < 0 || re < rb || re > static_cast<std::int64_t>(cost_size()) ||
      (!dense() &&
       re > static_cast<std::int64_t>(buf_.csr.packed.size()))) {
    return false;  // offsets promise entries the value arrays lack
  }
  const auto slots = static_cast<std::size_t>(re - rb);

  // Stateless recompute: the exact BFS of the build.
  Workspace w;
  w.init(weight_, dense());
  std::vector<double> fresh(n);
  const int reach =
      dense() ? w.bfs<false>(adj_, i, 0, fresh.data())
              : w.bfs<true>(adj_, i, row_limit(i), w.cost.data());
  if (dense()) {
    w.mark_unreached(fresh.data(), n);
  } else {
    if (static_cast<std::size_t>(reach) != slots) return false;
    std::vector<std::uint32_t> packed(slots);
    w.fill_csr_slots(packed.data(), fresh.data());
    if (std::memcmp(packed.data(), buf_.csr.packed.data() + rb,
                    slots * sizeof(std::uint32_t)) != 0) {
      return false;
    }
  }
  return std::memcmp(fresh.data(), costs() + rb, slots * sizeof(double)) == 0;
}

bool ContentionUpdater::corrupt_for_testing(
    const util::StateCorruption& corruption) {
  using Block = util::StateCorruption::Block;
  if (!ready() || pre_.empty()) return false;
  auto flip_double = [&](double* data, std::size_t count) {
    double& slot = data[corruption.index % count];
    slot = util::double_from_bits(util::to_bits(slot) ^ corruption.bits);
  };
  std::vector<double>& edge_cost = buf_.edge_cost;
  switch (corruption.block) {
    case Block::kCost:
      flip_double(costs(), cost_size());
      return true;
    case Block::kTree: {
      const std::size_t k = corruption.index % (pre_.size() + end_.size());
      std::int32_t& slot = k < pre_.size() ? pre_[k] : end_[k - pre_.size()];
      slot ^= static_cast<std::int32_t>(corruption.bits);
      return true;
    }
    case Block::kOrder:
      order_[corruption.index % order_.size()] ^=
          static_cast<std::int32_t>(corruption.bits);
      return true;
    case Block::kWeight:
      flip_double(weight_.data(), weight_.size());
      return true;
    case Block::kEdgeCost:
      if (edge_cost.empty()) return false;
      flip_double(edge_cost.data(), edge_cost.size());
      return true;
    case Block::kTruncate: {
      // CSR: the value arrays lose a tail while row_offset still promises
      // the full length. The dense matrix has a fixed shape, so it is the
      // edge costs that lose their tail.
      const std::uint64_t want = corruption.bits == 0 ? 1 : corruption.bits;
      std::vector<double>& victim = dense() ? edge_cost : buf_.csr.cost;
      const auto drop = static_cast<std::size_t>(
          std::min<std::uint64_t>(want, victim.size()));
      if (drop == 0) return false;
      victim.resize(victim.size() - drop);
      if (!dense()) buf_.csr.packed.resize(buf_.csr.packed.size() - drop);
      return true;
    }
    case Block::kEpoch:
      buf_.csr.epoch ^= corruption.bits == 0 ? 1 : corruption.bits;
      return true;
  }
  return false;
}

}  // namespace faircache::metrics
