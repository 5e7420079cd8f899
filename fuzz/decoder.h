#pragma once

// Compact byte decoder shared by the libFuzzer harnesses and the corpus
// replay test. An arbitrary byte string maps to a small fair-caching
// problem plus solver options; every construction step goes through the
// validated non-throwing entry points (graph::Graph::try_add_edge,
// core::validate_problem, ...), so the harnesses exercise exactly the
// hardened input boundary a hostile caller would hit. The decoder never
// rejects input — malformed bytes produce malformed problems on purpose
// (disconnected graphs, mis-sized capacity vectors, out-of-range
// producers), which the validators must classify, not crash on.

#include <cstddef>
#include <cstdint>

#include "core/approx.h"
#include "core/problem.h"
#include "graph/graph.h"
#include "metrics/contention.h"
#include "sim/serving.h"
#include "util/parallel.h"

namespace faircache::fuzz {

// Pins the process-wide thread count to 1 for one target body, so fuzz
// iterations stay serial and cheap; the destructor restores the default.
class SerialScope {
 public:
  SerialScope() { util::set_parallel_threads(1); }
  ~SerialScope() { util::set_parallel_threads(0); }
  SerialScope(const SerialScope&) = delete;
  SerialScope& operator=(const SerialScope&) = delete;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool exhausted() const { return pos_ >= size_; }

  // Next byte; 0 once the input is exhausted (keeps decoding total).
  std::uint8_t u8() { return exhausted() ? 0 : data_[pos_++]; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

// The decoded problem owns its network; `problem.network` points at it, so
// a DecodedProblem must stay put while the problem is in use (the harness
// keeps it on the stack — never copy or move it afterwards).
struct DecodedProblem {
  graph::Graph network;
  core::FairCachingProblem problem;
  core::ApproxConfig config;
  // Path policy of fuzz_instance's stateless builder; the stateful engines
  // always run hop-shortest paths.
  metrics::PathPolicy stateless_policy = metrics::PathPolicy::kHopShortest;
  sim::ServingConfig serving;  // solver options mirrored into .online.approx
  bool serving_adaptive = false;  // drive the adaptive-gradient policy
};

inline void decode_problem(const std::uint8_t* data, std::size_t size,
                           DecodedProblem& out) {
  ByteReader in(data, size);

  const int n = 2 + in.u8() % 31;  // 2..32 nodes
  out.network = graph::Graph(n);

  // Deliberately allow an out-of-range producer one time in eight so the
  // validator's range check stays covered.
  const std::uint8_t producer_byte = in.u8();
  out.problem.producer = (producer_byte & 0x7) == 0
                             ? static_cast<graph::NodeId>(n + producer_byte)
                             : static_cast<graph::NodeId>(producer_byte % n);
  out.problem.num_chunks = in.u8() % 9;
  out.problem.uniform_capacity = in.u8() % 6;

  // Occasionally use an explicit capacity vector, sometimes mis-sized.
  const std::uint8_t cap_mode = in.u8();
  if ((cap_mode & 0x3) == 0) {
    const int len = (cap_mode & 0x4) != 0 ? n : n - 1;
    for (int i = 0; i < len; ++i) {
      out.problem.capacities.push_back(in.u8() % 6);
    }
  }

  // Solver options: positive steps, small span thresholds, both row
  // layouts and both path policies of the stateless builder.
  // Single-threaded — fuzz iterations must stay cheap. Bits 0 and 7 of the
  // options byte are unused; the other fields keep their bits so the
  // committed corpus decodes to the same options.
  const std::uint8_t opt = in.u8();
  out.config.confl.gamma_step = 0.5 * (1 + ((opt >> 4) & 0x7));
  // The span byte's low bits pick the threshold; its high bit selects
  // min-contention paths for the stateless builder, so fuzz_instance drives
  // min-contention rows next to the delta-update paths of hop-shortest
  // trees.
  const std::uint8_t span_byte = in.u8();
  out.config.confl.span_threshold = 1 + span_byte % 4;
  // α step: k/4 or k/10, k = 1..8 from the options byte. Bits 2–3 of the
  // span byte pick quarters when both are clear, else tenths, so most
  // decoded steps are non-dyadic: α after r growth rounds is then not
  // exactly r·step, and the scheduler's round lookup must correct its
  // ceil(c / step) guess.
  const double alpha_parts = (span_byte & 0xC) == 0 ? 4.0 : 10.0;
  out.config.confl.alpha_step = (1 + ((opt >> 1) & 0x7)) / alpha_parts;
  out.stateless_policy = (span_byte & 0x80) != 0
                              ? metrics::PathPolicy::kMinContention
                              : metrics::PathPolicy::kHopShortest;
  // The sparse byte drives the row layout: low two bits equal to 1 pick
  // kSparse (which makes min-contention stateless rows an expected
  // kInvalidInput), any other value kIncremental; the remaining six are the
  // truncation radius — 0 (unbounded) through 63, far past any 32-node
  // diameter.
  const std::uint8_t sparse_byte = in.u8();
  out.config.instance.contention_mode =
      (sparse_byte & 0x3) == 1 ? core::ContentionMode::kSparse
                               : core::ContentionMode::kIncremental;
  out.config.instance.contention_radius = sparse_byte >> 2;
  // The guard byte sweeps the integrity-guard configuration: low two bits
  // are the audit cadence (0 = maintenance without audits, which also
  // disables the guard one time in four), the next two the sampled-row
  // count. budget_share stays 1 so every due audit actually runs — the
  // fuzzer should exercise the audit arithmetic, not the throttle.
  const std::uint8_t guard_byte = in.u8();
  out.config.instance.guard.enabled = (guard_byte & 0x3) != 0;
  out.config.instance.guard.cadence = guard_byte & 0x3;
  out.config.instance.guard.sampled_rows = (guard_byte >> 2) & 0x3;
  out.config.instance.guard.budget_share = 1.0;

  // The serving byte drives the trace-replay harness (fuzz_serving): bit 0
  // picks the replacement policy, bit 1 enables demand drift, bits 2–3 the
  // re-optimization cadence, bits 4–6 the replay length (32..256
  // requests), and the high bit swaps in the adaptive-gradient external
  // policy. The byte doubles as the trace seed so distinct inputs replay
  // distinct request streams.
  const std::uint8_t serving_byte = in.u8();
  out.serving.online.replacement =
      (serving_byte & 0x1) != 0 ? core::ReplacementPolicy::kEvictOldest
                                : core::ReplacementPolicy::kNone;
  out.serving.requests = 32 + 32 * ((serving_byte >> 4) & 0x7);
  out.serving.drift_every = (serving_byte & 0x2) != 0 ? 17 : 0;
  out.serving.reopt_every =
      ((serving_byte >> 2) & 0x3) == 0 ? 0 : 40 * ((serving_byte >> 2) & 0x3);
  out.serving.reopt_work_cap = 64;  // constantly expires mid-solve
  out.serving.adapt_every = 16;
  out.serving.samples = 4;
  out.serving.seed = serving_byte;
  out.serving_adaptive = (serving_byte & 0x80) != 0;
  out.serving.online.approx = out.config;

  // Edge list: consume the rest of the input as endpoint pairs. Self
  // loops and duplicates are rejected by try_add_edge (statuses ignored
  // — that IS the path under test); sparse inputs yield disconnected
  // graphs, which the problem validator must flag as infeasible.
  const int edge_budget = 6 * n;
  for (int e = 0; e < edge_budget && !in.exhausted(); ++e) {
    const auto u = static_cast<graph::NodeId>(in.u8() % n);
    const auto v = static_cast<graph::NodeId>(in.u8() % n);
    (void)out.network.try_add_edge(u, v);
  }

  out.problem.network = &out.network;
}

}  // namespace faircache::fuzz
