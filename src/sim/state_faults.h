#pragma once

// Seeded state-corruption fault injection for the integrity-guard runtime
// (docs/ROBUSTNESS.md, "Integrity guard").
//
// sim/faults.h attacks the *network* (lost messages, crashed nodes); this
// file attacks the *engine state itself* — the silent data corruption a
// long-lived stateful solver accumulates from bit flips, dropped deltas,
// stale buffer restores and truncation bugs. A StateFaultPlan is a
// deterministic, seeded schedule of such corruptions; a StateFaultInjector
// binds it to a core::ChunkInstanceEngine through the test-only
// InstanceOptions::pre_build_hook, mutating guarded state right before the
// chosen build() so chaos tests can measure detection latency (audits
// until the guard notices) and recovery (quarantine-to-rebuild) end to
// end. Production code never constructs these; the hook is empty by
// default and the injector lives only in tests/bench.

#include <cstdint>
#include <vector>

#include "core/instance_builder.h"
#include "util/integrity.h"
#include "util/status.h"

namespace faircache::sim {

// The corruption classes the chaos matrix exercises, one per way the
// incremental engines' state can silently rot. Each maps to one
// util::StateCorruption applied through the engine's test hook.
enum class StateFaultClass {
  kCostBitFlip,      // flip mantissa bits of one contention cost entry
  kTreeBitFlip,      // flip bits of one pinned pre_/end_ interval bound
  kOrderBitFlip,     // flip bits of one preorder→slot map entry
  kDroppedDelta,     // perturb one tracked weight (a lost update)
  kEdgeCostBitFlip,  // flip bits of one dissemination edge cost
  kTruncatedBuffer,  // drop trailing entries from a guarded buffer
  kStaleEpochRestore,  // tamper the lent buffers' epoch stamp
};

// One scheduled corruption: apply `cls` right before the engine's
// `build`-th build() call (1-based, via the pre-build hook).
struct StateFault {
  StateFaultClass cls = StateFaultClass::kCostBitFlip;
  int build = 1;
};

// Deterministic corruption campaign; `seed` drives the per-fault target
// slot and bit mask, so a logged seed reproduces the exact campaign.
struct StateFaultPlan {
  std::uint64_t seed = 1;
  std::vector<StateFault> faults;
};

// kInvalidInput for a fault scheduled before build 1; OK otherwise.
util::Status validate_state_fault_plan(const StateFaultPlan& plan);

// Executes a StateFaultPlan against one engine. Bind with attach() before
// the first build(); the injector must outlive the engine's option copy's
// last build() call. Faults whose class does not apply to the engine's
// resolved mode (any fault in stateless kRebuild mode) are counted as
// skipped, not errors.
class StateFaultInjector {
 public:
  explicit StateFaultInjector(StateFaultPlan plan);

  // Installs this injector as `options.pre_build_hook` (overwriting any
  // previous hook). The injector must outlive every engine constructed
  // from `options`.
  void attach(core::InstanceOptions& options);

  // The hook body: applies every fault scheduled for `build`. Public so
  // tests can drive an engine manually.
  void inject(core::ChunkInstanceEngine& engine, int build);

  int injected() const { return injected_; }
  int skipped() const { return skipped_; }

 private:
  StateFaultPlan plan_;
  int injected_ = 0;
  int skipped_ = 0;
};

}  // namespace faircache::sim
