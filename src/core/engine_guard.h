#pragma once

// Audit half of the integrity-guard runtime (docs/ROBUSTNESS.md,
// "Integrity guard"). The stateful contention updater maintains
// incremental checksums over its guarded blocks (util/integrity.h); an
// EngineGuard owned by core::ChunkInstanceEngine periodically (a)
// recomputes those checksums from the actual buffers and (b)
// cross-validates a few sampled rows against the stateless kRebuild
// arithmetic. Any mismatch quarantines the updater: the engine drops the
// poisoned state and the next update re-pins fresh trees — the exact
// stateless rebuild — so every intermediate result remains a valid
// placement.
//
// Audits are budget-charged: cadence picks which builds audit, and
// budget_share caps cumulative audit time as a fraction of the engine's
// own build time, so the guard can never dominate the work it protects.
// Skipping an audit for budget never changes placements — audits only
// read solver state, they never feed it.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "metrics/contention_updater.h"
#include "util/integrity.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace faircache::core {

// Fixed at engine construction (`InstanceOptions::guard`).
struct GuardOptions {
  // Master switch. Disabled ⇒ the updaters skip checksum maintenance
  // entirely and no audit ever runs (the pre-guard fast path).
  bool enabled = true;
  // Audit every cadence-th build() (1 = every build; ≤ 0 disables audits
  // while keeping checksum maintenance on). Default 16 keeps the guard
  // within a few percent of the unguarded solve (docs/PERF.md).
  int cadence = 16;
  // Rows cross-validated per audit against the stateless recompute.
  int sampled_rows = 2;
  // Cumulative audit seconds allowed per second of engine build time;
  // ≥ 1 never throttles, ≤ 0 skips every audit (maintenance only).
  double budget_share = 0.25;
};

// One detected corruption, stamped with the 1-based build() index whose
// audit caught it.
struct CorruptionEvent {
  int build = 0;
  std::string what;
};

// Guard activity over an engine's (or solve's) lifetime; surfaced through
// core::SolveReport / RepairReport and merged across engines.
struct CorruptionReport {
  int audits = 0;             // audits actually executed
  int audits_skipped = 0;     // due audits skipped for budget
  long rows_checked = 0;      // sampled-row cross-validations run
  int checksum_mismatches = 0;
  int row_mismatches = 0;
  int stale_restores = 0;     // epoch-mismatched restores dropped
  int quarantines = 0;        // updaters torn down and rebuilt
  double audit_seconds = 0.0;
  double recovery_seconds = 0.0;  // full rebuilds forced by quarantine
  std::vector<CorruptionEvent> events;

  // No corruption observed (budget skips and audit effort are fine).
  bool clean() const {
    return checksum_mismatches == 0 && row_mismatches == 0 &&
           stale_restores == 0 && quarantines == 0 && events.empty();
  }

  void merge(const CorruptionReport& other) {
    audits += other.audits;
    audits_skipped += other.audits_skipped;
    rows_checked += other.rows_checked;
    checksum_mismatches += other.checksum_mismatches;
    row_mismatches += other.row_mismatches;
    stale_restores += other.stale_restores;
    quarantines += other.quarantines;
    audit_seconds += other.audit_seconds;
    recovery_seconds += other.recovery_seconds;
    events.insert(events.end(), other.events.begin(), other.events.end());
  }
};

// Per-engine audit scheduler + verdict bookkeeping over the integrity
// surface of metrics::ContentionUpdater.
class EngineGuard {
 public:
  EngineGuard() = default;
  explicit EngineGuard(const GuardOptions& options) : options_(options) {}

  const GuardOptions& options() const { return options_; }

  // Whether build `build_index` (1-based) should audit, charging the
  // budget against `build_seconds` of cumulative engine build time. Due
  // audits skipped for budget are counted in the report.
  bool audit_due(int build_index, double build_seconds) {
    if (!options_.enabled || options_.cadence <= 0) return false;
    if (build_index <= 0 || build_index % options_.cadence != 0) {
      return false;
    }
    if (options_.budget_share <= 0.0 ||
        (options_.budget_share < 1.0 &&
         report_.audit_seconds > options_.budget_share * build_seconds)) {
      ++report_.audits_skipped;
      return false;
    }
    return true;
  }

  // Runs one audit; false means corruption was found and the caller must
  // quarantine. Row sampling is deterministic in build_index, so a given
  // corruption is caught at the same build at any thread count.
  bool audit(const metrics::ContentionUpdater& updater, int build_index) {
    util::Stopwatch timer;
    ++report_.audits;
    bool ok = true;
    if (updater.checksums_enabled()) {
      const util::StateDigest want = updater.recompute_digest();
      if (const char* block = util::first_digest_mismatch(
              updater.maintained_digest(), want)) {
        ++report_.checksum_mismatches;
        report_.events.push_back(
            {build_index, std::string("checksum mismatch in block '") +
                              block + "'"});
        ok = false;
      }
    }
    if (ok) {  // digest failure short-circuits: the buffers may be unsafe
      const int n = updater.graph().num_nodes();
      std::uint64_t rng =
          util::kIntegrityPhi ^ static_cast<std::uint64_t>(build_index);
      for (int s = 0; s < options_.sampled_rows && n > 0; ++s) {
        const auto row = static_cast<graph::NodeId>(
            util::splitmix64(rng) % static_cast<std::uint64_t>(n));
        ++report_.rows_checked;
        if (!updater.verify_row(row)) {
          ++report_.row_mismatches;
          report_.events.push_back(
              {build_index, "row " + std::to_string(row) +
                                " diverges from stateless recompute"});
          ok = false;
          break;
        }
      }
    }
    report_.audit_seconds += timer.elapsed_seconds();
    return ok;
  }

  void note_quarantine(int build_index) {
    ++report_.quarantines;
    report_.events.push_back({build_index, "updater quarantined"});
  }

  void add_recovery_seconds(double seconds) {
    report_.recovery_seconds += seconds;
  }

  // Absolute count of epoch-mismatched restores seen so far (the engine
  // resyncs this after every reclaim; monotone by construction).
  void set_stale_restores(int count) { report_.stale_restores = count; }

  const CorruptionReport& report() const { return report_; }

 private:
  GuardOptions options_;
  CorruptionReport report_;
};

}  // namespace faircache::core
