#pragma once

// Local-search reference ("LocalOpt"): a strong per-chunk hill climber used
// where the exact MILP is out of reach (the paper ran CBC for days on such
// sizes; see DESIGN.md §2.6). Each chunk's facility set starts from the
// primal–dual solution and is improved with add / drop / swap moves under
// the exact per-chunk ConFL objective (cheapest assignment + approximate
// Steiner tree), iterating to a local optimum. On instances where the MILP
// does close, LocalOpt matches it closely (tested), which justifies its
// use as the Fig. 1 reference on the 6×6 grid.

#include "core/problem.h"

namespace faircache::exact {

// Each chunk's instance is built with the default core::InstanceOptions.
class LocalSearchCaching : public core::CachingAlgorithm {
 public:
  std::string name() const override { return "LocalOpt"; }

  core::FairCachingResult run(const core::FairCachingProblem& problem) override;
};

}  // namespace faircache::exact
