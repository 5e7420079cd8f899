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

// Per-worker scratch reused across all rows a worker builds/patches. Only
// the (weight, visit stamp) entry is indexed by node id; everything else a
// row's BFS records is indexed by visit position, a short contiguous prefix
// of each array for a truncated row. Nothing needs per-row clearing: the
// visit stamp guards the node entries.
struct ContentionUpdater::Workspace {
  // Resizing leaves the entries uninitialized: a row writes each position
  // before reading it, and a truncated row never touches most pages.
  template <typename T>
  using Uninit = std::vector<T, util::DefaultInitAllocator<T>>;
  struct NodeEntry {
    double weight;
    int stamp;
  };
  std::vector<NodeEntry> node;   // by node id: (weight, visit stamp)
  Uninit<NodeId> order;          // by visit position p: the node id
  Uninit<int> parent;            // position of the BFS parent
  Uninit<int> depth;             // hop depth
  Uninit<int> child_begin;       // children of p = positions [cb, ce)
  Uninit<int> child_end;
  Uninit<int> size;              // subtree size in the BFS tree
  Uninit<double> cost;           // row cost
  Uninit<std::int32_t> slot;     // CSR: slot of the node at p
  Uninit<std::uint64_t> sorted;  // CSR: (id << 32) | p keys
  std::vector<double> diff;      // difference array over preorder
  std::uint64_t chk = 0;         // cost-block digest partial
  std::uint64_t chk_tree = 0;    // tree-block digest partial (builds)
  int generation = 0;
  int reach = 0;  // nodes the last bfs() visited

  void init(const std::vector<double>& weight, bool dense) {
    const std::size_t n = weight.size();
    node.resize(n);
    for (std::size_t i = 0; i < n; ++i) node[i] = {weight[i], 0};
    for (auto* v : {&parent, &depth, &child_begin, &child_end, &size}) {
      v->resize(n);
    }
    order.resize(n);
    cost.resize(n);
    if (!dense) {
      slot.resize(n);
      sorted.resize(n);
    }
    generation = 0;
  }

  // BFS of row `src` with the exact hop-shortest arithmetic of
  // ContentionMatrix (row[j] = row[parent] + w[j], parents before
  // children, ascending-id neighbour order), recording the tree by visit
  // position: costs, parents, hop depths, subtree sizes of 1 and each
  // position's child range. kHops (the CSR layout) stops expanding at
  // `limit` hops; a dense row is always full and is also written into
  // `row`, indexed by node id. Returns the number of visited nodes.
  template <bool kHops>
  int bfs(const graph::CsrAdjacency& adj, NodeId src, int limit,
          double* row) {
    const int gen = ++generation;
    NodeEntry* nd = node.data();
    NodeId* ord = order.data();
    double* cst = cost.data();
    int* dep = depth.data();
    int* par = parent.data();
    int* sz = size.data();
    const int* offset = adj.offset.data();
    const NodeId* neighbor = adj.neighbor.data();
    nd[src].stamp = gen;
    ord[0] = src;
    cst[0] = 0.0;
    dep[0] = 0;
    par[0] = -1;
    sz[0] = 1;
    if (!kHops) row[src] = 0.0;
    int tail = 1;
    for (int head = 0; head < tail; ++head) {
      const NodeId v = ord[head];
      child_begin[head] = tail;
      if (!kHops || dep[head] < limit) {
        const double base = head == 0 ? nd[src].weight : cst[head];
        const int next_depth = dep[head] + 1;
        const int end = offset[v + 1];
        for (int e = offset[v]; e < end; ++e) {  // ascending id
          const NodeId w = neighbor[e];
          if (nd[w].stamp == gen) continue;
          nd[w].stamp = gen;
          const double c = base + nd[w].weight;
          if (!kHops) row[w] = c;
          ord[tail] = w;
          cst[tail] = c;
          dep[tail] = next_depth;
          par[tail] = head;
          sz[tail] = 1;
          ++tail;
        }
      }
      child_end[head] = tail;
    }
    return reach = tail;
  }

  // Nodes within `limit` hops of `src`: the CSR build's first pass (no
  // costs, no tree bookkeeping).
  int ball_size(const graph::CsrAdjacency& adj, NodeId src, int limit) {
    const int gen = ++generation;
    NodeEntry* nd = node.data();
    NodeId* ord = order.data();
    int* dep = depth.data();
    const int* offset = adj.offset.data();
    const NodeId* neighbor = adj.neighbor.data();
    nd[src].stamp = gen;
    ord[0] = src;
    dep[0] = 0;
    int tail = 1;
    for (int head = 0; head < tail; ++head) {
      const int dv = dep[head];
      if (dv >= limit) continue;
      const NodeId v = ord[head];
      const int end = offset[v + 1];
      for (int e = offset[v]; e < end; ++e) {
        const NodeId w = neighbor[e];
        if (nd[w].stamp == gen) continue;
        nd[w].stamp = gen;
        ord[tail] = w;
        dep[tail++] = dv + 1;
      }
    }
    return tail;
  }

  // Dense: every node the last bfs() did not visit costs +∞.
  void mark_unreached(double* row, std::size_t n) const {
    for (std::size_t j = 0; j < n; ++j) {
      if (node[j].stamp != generation) row[j] = graph::kInfCost;
    }
  }

  // CSR: lays the last bfs()'s nodes out in ascending-id slots — the
  // client ids, the slot costs, and the slot of each visit position.
  void fill_csr_slots(NodeId* col, double* slot_cost) {
    const auto count = static_cast<std::size_t>(reach);
    for (std::size_t p = 0; p < count; ++p) {
      sorted[p] = (static_cast<std::uint64_t>(order[p]) << 32) | p;
    }
    std::sort(sorted.begin(), sorted.begin() + reach);
    for (std::size_t s = 0; s < count; ++s) {
      const auto p = static_cast<std::size_t>(sorted[s] & 0xffffffffu);
      slot[p] = static_cast<std::int32_t>(s);
      col[s] = static_cast<NodeId>(sorted[s] >> 32);
      slot_cost[s] = cost[p];
    }
  }
};

namespace {

// Process-wide source of pinned-tree epochs: every build_full of every
// updater gets a distinct stamp, so a buffer can never be restored into a
// different pinning than the one it was taken from.
std::atomic<std::uint64_t> g_epoch_counter{0};

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
                    b.csr.col.size() == slots && b.csr.cost.size() == slots;
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
  // Shards are blocks of consecutive sources, so each worker writes its
  // rows into one contiguous stretch of the slot arrays.
  const std::size_t shards = std::min<std::size_t>(n, 64);
  const int threads = util::resolve_parallel_threads(0, shards);
  std::vector<Workspace> ws(static_cast<std::size_t>(std::max(threads, 1)));
  for (Workspace& w : ws) w.init(weight, dense());
  auto for_each_source = [&](auto&& fn) {
    util::parallel_for(
        shards,
        [&](std::size_t shard, int worker) {
          Workspace& w = ws[static_cast<std::size_t>(worker)];
          for (std::size_t i = shard * n / shards;
               i < (shard + 1) * n / shards; ++i) {
            fn(static_cast<NodeId>(i), w);
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
    store.col.resize(slots);
    store.cost.resize(slots);
  }
  for (auto* tree : {&pre_, &end_, &order_}) {
    tree->clear();
    tree->resize(slots);
  }

  for_each_source([&](NodeId src, Workspace& w) { pin_row(src, w); });

  buf_.edge_cost = contention_edge_costs(*graph_, weight);

  store.epoch = epoch_ = ++g_epoch_counter;
  lent_ = false;
  // Assemble the maintained digests from the per-worker partials gathered
  // while pinning; every later sweep keeps them current incrementally.
  if (options_.checksums) {
    util::StateDigest d;
    d.cost = util::length_term(slots);
    d.tree = util::length_term(store.row_offset.size() + store.col.size() +
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
              : w.bfs<true>(adj_, src, row_limit(src), nullptr);
  if (!dense()) {
    FAIRCACHE_CHECK(static_cast<std::size_t>(reach) == slots,
                    "row size drifted between build passes");
    w.fill_csr_slots(buf_.csr.col.data() + rb, cost);
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

  // Subtree sizes: fold children into parents in reverse visit order.
  int* size = w.size.data();
  for (int p = reach - 1; p >= 1; --p) size[w.parent[p]] += size[p];
  // Preorder intervals over slots. Children of position p occupy the
  // consecutive preorder positions after pre(p), each shifted by the
  // preceding siblings' subtree sizes; visit order sees parents first.
  // slot[p] is the slot of the node at visit position p: its id in a
  // dense row.
  const std::int32_t* slot = dense() ? w.order.data() : w.slot.data();
  pre[slot[0]] = 0;
  end[slot[0]] = reach;
  ord[0] = slot[0];
  for (int p = 0; p < reach; ++p) {
    std::int32_t q = pre[slot[p]] + 1;
    for (int c = w.child_begin[p]; c < w.child_end[p]; ++c) {
      pre[slot[c]] = q;
      end[slot[c]] = q + size[c];
      ord[q] = slot[c];
      q += size[c];
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
      w.chk_tree += util::digest_span(buf_.csr.col.data() + rb, slots,
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

  for (const auto& [k, d] : deltas) {
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

  const int threads = util::resolve_parallel_threads(0, n);
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
        const NodeId* col = dense() ? nullptr : buf_.csr.col.data() + rb;
        // Slot of node k in this row: k itself in a dense row, a binary
        // search in a CSR row (-1 when the pair is not materialized — out
        // of radius, so the delta cannot touch this row).
        auto slot_of = [&](NodeId k) {
          if (col == nullptr) return static_cast<int>(k);
          const NodeId* it = std::lower_bound(col, col + reach, k);
          if (it == col + reach || *it != k) return -1;
          return static_cast<int>(it - col);
        };
        int first = reach + 1;
        int last = 0;
        auto scatter = [&](int s, double d) {
          const int p = pre[s];
          if (p < 0) return;  // dense: k unreachable from i, no shared path
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
            col != nullptr &&
            deltas.size() * 8 >= static_cast<std::size_t>(reach);
        if (scan_row) {
          for (int s = 0; s < reach; ++s) {
            const double d = delta_of[static_cast<std::size_t>(col[s])];
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
            if (acc != 0.0) cost[ord[p]] += acc;
          }
        }
        cost[ord[0]] = 0.0;  // c_ii stays 0 (self access transmits nothing)

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

  if (track) {
    for (const Workspace& w : ws) digest_.cost += w.chk;
  }
  delta_apply_seconds_ += timer.elapsed_seconds();
}

std::uint64_t ContentionUpdater::tree_base() const {
  if (dense()) return 0;
  return static_cast<std::uint64_t>(graph_->num_nodes()) + 1 + pre_.size();
}

std::uint64_t ContentionUpdater::aux_digest() const {
  const SparseContention& store = buf_.csr;
  return util::length_term(4) + util::contribution(0, store.epoch) +
         util::contribution(1, util::to_bits(store.num_nodes)) +
         util::contribution(2, util::to_bits(store.radius)) +
         util::contribution(3, util::to_bits(store.full_row));
}

std::uint64_t ContentionUpdater::weight_digest() const {
  return util::length_term(weight_.size()) +
         util::digest_span(weight_.data(), weight_.size());
}

util::StateDigest ContentionUpdater::recompute_digest() const {
  util::StateDigest d;
  const auto n = static_cast<std::size_t>(graph_->num_nodes());
  const SparseContention& store = buf_.csr;
  const std::uint64_t total = pre_.size();
  const std::uint64_t tree0 = tree_base();
  const double* cost = costs();
  const std::size_t cost_n = cost_size();
  struct Partial {
    std::uint64_t cost = 0;
    std::uint64_t tree = 0;
  };
  const int threads = util::resolve_parallel_threads(0, n);
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
        p.tree += clamped(store.col.data(), store.col.size(), rb, re, n + 1);
        p.tree += clamped(pre_.data(), pre_.size(), rb, re, tree0);
        p.tree += clamped(end_.data(), end_.size(), rb, re, tree0 + total);
        p.tree += clamped(order_.data(), order_.size(), rb, re,
                          tree0 + 2 * total);
      },
      threads);
  d.cost = util::length_term(cost_n);
  d.tree = util::length_term(store.row_offset.size() + store.col.size() +
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
       re > static_cast<std::int64_t>(buf_.csr.col.size()))) {
    return false;  // offsets promise entries the value arrays lack
  }
  const auto slots = static_cast<std::size_t>(re - rb);

  // Stateless recompute: the exact BFS of the build.
  Workspace w;
  w.init(weight_, dense());
  std::vector<double> fresh(n);
  const int reach =
      dense() ? w.bfs<false>(adj_, i, 0, fresh.data())
              : w.bfs<true>(adj_, i, row_limit(i), nullptr);
  if (dense()) {
    w.mark_unreached(fresh.data(), n);
  } else {
    if (static_cast<std::size_t>(reach) != slots) return false;
    std::vector<NodeId> col(slots);
    w.fill_csr_slots(col.data(), fresh.data());
    if (!std::equal(col.begin(), col.end(), buf_.csr.col.begin() + rb)) {
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
      if (!dense()) buf_.csr.col.resize(buf_.csr.col.size() - drop);
      return true;
    }
    case Block::kEpoch:
      buf_.csr.epoch ^= corruption.bits == 0 ? 1 : corruption.bits;
      return true;
  }
  return false;
}

}  // namespace faircache::metrics
