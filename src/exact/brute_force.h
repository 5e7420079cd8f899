#pragma once

// "Brtf": the brute-force reference of the paper's evaluation — the optimal
// solution of transform (8), i.e. each chunk's ConFL instance solved
// *exactly* (MILP) with fairness/contention state updated between chunks.
// This is the quantity Theorem 1's 6.55 ratio is stated against (for the
// 1.55-approximate Robins–Zelikovsky tree; core/approx.h says what that
// means for this library's 2-approximate tree).
//
// A joint all-chunks MILP (tiny instances only) is provided separately in
// exact/joint_milp.h.

#include "core/problem.h"
#include "mip/branch_and_bound.h"

namespace faircache::exact {

// Each chunk's instance is built with the default core::InstanceOptions;
// `mip` holds the limits every chunk's MILP runs under.
class BruteForceCaching : public core::CachingAlgorithm {
 public:
  explicit BruteForceCaching(mip::MipOptions mip = {}) : mip_(std::move(mip)) {}

  std::string name() const override { return "Brtf"; }

  core::FairCachingResult run(const core::FairCachingProblem& problem) override;

  // True when every chunk's MILP closed its gap in the last run.
  bool all_proven_optimal() const { return all_proven_optimal_; }

 private:
  mip::MipOptions mip_;
  bool all_proven_optimal_ = false;
};

}  // namespace faircache::exact
