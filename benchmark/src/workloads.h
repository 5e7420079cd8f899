#pragma once

// The four benchmark workloads. Each builds its inputs from the seed, sets
// up several times (setup_s is the median), then runs its operation in a
// closed loop with one client until the measuring window is spent:
//
//   grid-solve    one ApproxFairCaching::solve of a 40×40 grid (dense)
//   sparse-100k   one solve of a 100k-node ER network (kSparse, radius 2)
//   serve-drift   one request of a drifting Zipf stream (online policy)
//   churn-repair  one replay of a 10-wave departure plan: every tick's
//                 repair pass and the scoring of the repaired placement
//
// Every run checks its outputs (see README.md, "Correctness checks") and
// counts failed operations against attempted ones.

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace fcbench {

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 20.0;  // measuring window
  bool trace = false;     // per-layer timers on
  bool toy = false;       // toy sizes (--smoke)
  int threads = 1;        // library thread count, recorded in the output
};

struct RunOutput {
  std::vector<Metric> end_to_end;  // the --trace 0 result metrics
  std::vector<Metric> per_layer;   // the --trace 1 result metrics
  // Outputs fixed by the inputs: equal bit for bit on any commit that
  // keeps the algorithms' results (compare.py checks them).
  std::vector<Metric> exact;
  // Workload-specific layer figures, printed and recorded only.
  std::vector<Metric> detail;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  // Hash of every deterministic output (placements, serving hash, churn
  // states); equal across thread counts.
  std::uint64_t fingerprint = 0;
};

struct Workload {
  const char* name;
  std::uint64_t default_seed;
  RunOutput (*run)(const RunOptions&);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// Names and units of the result metrics, in output order.
const std::vector<std::pair<const char*, const char*>>& end_to_end_names();
const std::vector<std::pair<const char*, const char*>>& per_layer_names();

// Cross-checks that only the toy sizes can afford: the final churn state
// against sim::run_churn on the same plan. Appends to `errors`.
void check_churn_against_runtime(std::uint64_t seed,
                                 std::vector<std::string>& errors);

}  // namespace fcbench
