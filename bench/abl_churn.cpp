// Ablation — self-healing under peer churn (docs/CHURN.md). Replays three
// seeded churn timelines against a placement computed on the full network
// and compares graceful degradation with repair disabled (evict only)
// against the budgeted PlacementRepairEngine: reachable-fraction and
// component contention cost after every event and every repair pass, the
// repair work spent, and — the headline — how close the repaired placement
// stays to the pre-fault quality at a small fraction of a full re-solve.
// The third timeline escalates chunks to ConFL re-solves with the
// integrity guard auditing every escalation build, so its guard line
// counts real audits.

#include <iostream>

#include "bench_common.h"
#include "core/repair.h"
#include "sim/churn.h"
#include "util/stopwatch.h"

using namespace faircache;

namespace {

const char* phase_name(sim::ChurnPhase phase) {
  switch (phase) {
    case sim::ChurnPhase::kInitial:
      return "initial";
    case sim::ChurnPhase::kPostEvent:
      return "event";
    case sim::ChurnPhase::kPostRepair:
      return "repair";
  }
  return "?";
}

struct ScenarioOutcome {
  sim::ChurnRunResult with_repair;
  sim::ChurnRunResult no_repair;
  double initial_cost = 0.0;
  double repair_seconds = 0.0;   // wall time inside repair passes
  std::uint64_t repair_work = 0;  // deterministic work units
  // Integrity-guard activity merged across every repair pass, plus the
  // guarded/unguarded identity probe (docs/ROBUSTNESS.md).
  core::CorruptionReport guard;
  std::uint64_t guarded_hash = 0;
  std::uint64_t unguarded_hash = 0;
};

// `guard` configures the integrity guard of the repair-enabled run.
ScenarioOutcome run_scenario(const core::FairCachingProblem& problem,
                             const metrics::CacheState& initial,
                             const sim::ChurnPlan& plan,
                             const core::GuardOptions& guard = {}) {
  ScenarioOutcome outcome;
  sim::ChurnRunConfig repair_on;
  repair_on.repair.approx.instance.guard = guard;
  const auto on = sim::run_churn(problem, initial, plan, repair_on);
  FAIRCACHE_CHECK(on.ok(), "repair-enabled churn run failed");
  outcome.with_repair = on.value();

  sim::ChurnRunConfig repair_off;
  repair_off.repair.level = core::RepairLevel::kEvictOnly;
  const auto off = sim::run_churn(problem, initial, plan, repair_off);
  FAIRCACHE_CHECK(off.ok(), "evict-only churn run failed");
  outcome.no_repair = off.value();

  // Same timeline with the integrity guard disabled: the pre-guard fast
  // path, for the overhead and identity stanza below.
  sim::ChurnRunConfig unguarded = repair_on;
  unguarded.repair.approx.instance.guard.enabled = false;
  const auto raw = sim::run_churn(problem, initial, plan, unguarded);
  FAIRCACHE_CHECK(raw.ok(), "unguarded churn run failed");
  outcome.guarded_hash = sim::churn_result_hash(outcome.with_repair);
  outcome.unguarded_hash = sim::churn_result_hash(raw.value());

  outcome.initial_cost =
      outcome.with_repair.timeline.samples().front().component_cost;
  for (const core::RepairReport& report : outcome.with_repair.reports) {
    outcome.repair_seconds += report.total_seconds;
    outcome.repair_work += report.work_units;
    outcome.guard.merge(report.guard);
  }
  return outcome;
}

void print_timeline(const ScenarioOutcome& outcome) {
  util::Table table({"t", "phase", "alive", "stored", "reach", "hops",
                     "comp_cost", "jain", "gini"});
  table.set_precision(3);
  for (const sim::ChurnSample& s : outcome.with_repair.timeline.samples()) {
    table.add_row() << s.time << phase_name(s.phase) << s.alive_nodes
                    << s.total_stored << s.reachable_fraction << s.mean_hops
                    << s.component_cost << s.jain << s.gini;
  }
  table.print(std::cout);

  util::Table repairs({"t", "lost", "restored", "local", "resolved",
                       "unrepaired", "stranded", "work", "cost_before",
                       "cost_after"});
  repairs.set_precision(3);
  const auto& samples = outcome.with_repair.timeline.samples();
  for (std::size_t i = 0; i < outcome.with_repair.reports.size(); ++i) {
    const core::RepairReport& r = outcome.with_repair.reports[i];
    repairs.add_row() << samples[1 + 2 * i].time << r.replicas_lost
                      << r.replicas_restored << r.chunks_local
                      << r.chunks_resolved << r.chunks_unrepaired
                      << r.unservable_pairs << static_cast<long>(r.work_units)
                      << r.cost_before << r.cost_after;
  }
  std::cout << "\nRepair passes:\n";
  repairs.print(std::cout);
}

// Quality of the final placement, repair on vs off, on the same final
// topology. Within the producer's component every chunk is always
// *reachable* (the producer serves it), so the quality axis is hop
// distance and contention cost, not raw coverage. Returns false when a
// deterministic check fails (reachability, guarded vs unguarded hash, and
// with `expect_audits` at least one escalated chunk and one audited build);
// the timing line is informational.
bool print_final_comparison(const core::FairCachingProblem& problem,
                            const ScenarioOutcome& outcome,
                            bool expect_audits = false) {
  const sim::ChurnSample& on = outcome.with_repair.timeline.samples().back();
  const sim::ChurnSample& off = outcome.no_repair.timeline.samples().back();
  std::cout << "\nFinal state (repair on vs evict-only):\n"
            << "  reachable fraction  " << on.reachable_fraction << " vs "
            << off.reachable_fraction << "\n"
            << "  mean fetch hops     " << on.mean_hops << " vs "
            << off.mean_hops << "\n"
            << "  component cost      " << on.component_cost << " vs "
            << off.component_cost << "\n"
            << "  replicas stored     " << on.total_stored << " vs "
            << off.total_stored << "\n";

  // Repair effort vs a from-scratch re-solve on the final topology.
  FAIRCACHE_CHECK(problem.network != nullptr, "scenario needs a network");
  const core::AliveComponent component = core::induce_alive_component(
      *problem.network, outcome.with_repair.alive, outcome.with_repair.state);
  core::FairCachingProblem final_problem;
  final_problem.network = &component.sub.graph;
  final_problem.producer = component.state.producer();
  final_problem.num_chunks = problem.num_chunks;
  for (graph::NodeId v = 0; v < component.state.num_nodes(); ++v) {
    final_problem.capacities.push_back(component.state.capacity(v));
  }
  util::Stopwatch clock;
  core::ApproxFairCaching appx;
  const core::FairCachingResult resolve = appx.run(final_problem);
  const double resolve_seconds = clock.elapsed_seconds();
  const auto resolve_eval = resolve.evaluate(final_problem);

  std::cout << "\nRepair effort across the whole timeline: "
            << static_cast<long>(outcome.repair_work) << " work units, "
            << outcome.repair_seconds << " s\n"
            << "One full re-solve of the final component:  "
            << resolve_seconds << " s (cost " << resolve_eval.total()
            << ")\n";

  // Integrity-guard overhead on the escalation engines: audit effort,
  // verdicts, and the bit-identity of the whole guarded run against the
  // pre-guard fast path (the guard observes, it never steers).
  std::cout << "\nIntegrity guard across the escalation re-solves: "
            << outcome.guard.audits << " audits ("
            << outcome.guard.audits_skipped << " skipped for budget), "
            << outcome.guard.rows_checked << " rows cross-validated, "
            << outcome.guard.audit_seconds << " s audit time, "
            << outcome.guard.quarantines << " quarantines\n";

  const bool reach_ok =
      on.reachable_fraction + 1e-12 >= 0.99 * off.reachable_fraction &&
      on.reachable_fraction + 1e-12 >= off.reachable_fraction;
  const bool guard_ok = outcome.guard.clean() &&
                        outcome.guarded_hash == outcome.unguarded_hash;
  // Timing only, so no verdict: ~1 ms against a few sub-ms re-solves
  // lands on either side of 1 from run to run.
  const std::size_t events = outcome.with_repair.reports.size();
  std::cout << (reach_ok ? "PASS" : "FAIL")
            << ": repaired reachability never below the no-repair run\n"
            << "info: total repair time / (one re-solve x " << events
            << " events) = "
            << outcome.repair_seconds /
                   (resolve_seconds * static_cast<double>(events))
            << "\n"
            << (guard_ok ? "PASS" : "FAIL")
            << ": guarded churn_result_hash bit-identical to unguarded\n";
  bool audits_ok = true;
  if (expect_audits) {
    int resolved = 0;
    for (const core::RepairReport& r : outcome.with_repair.reports) {
      resolved += r.chunks_resolved;
    }
    audits_ok = resolved >= 1 && outcome.guard.audits >= 1;
    std::cout << (audits_ok ? "PASS" : "FAIL") << ": " << resolved
              << " chunks escalated, " << outcome.guard.audits
              << " escalation builds audited\n";
  }
  return reach_ok && guard_ok && audits_ok;
}

}  // namespace

int main() {
  bool ok = true;
  std::cout << "Ablation — self-healing churn runtime (docs/CHURN.md)\n\n";

  // --- Scenario 1: departure waves on a random geometric network. ---
  {
    util::Rng rng(0xabc);
    graph::RandomGeometricConfig geo;
    geo.num_nodes = 60;
    geo.radius = 0.26;
    const graph::GeometricNetwork net = graph::make_random_geometric(geo, rng);
    const auto problem = bench::grid_problem(net.graph, /*producer=*/0,
                                             /*chunks=*/4, /*capacity=*/3);
    core::ApproxFairCaching appx;
    const metrics::CacheState initial = appx.run(problem).state;
    const sim::ChurnPlan plan = sim::make_departure_waves(
        geo.num_nodes, /*producer=*/0, /*waves=*/4, /*per_wave=*/5,
        /*period=*/2, /*seed=*/17);

    std::cout << "Scenario 1 — 4 waves x 5 permanent departures, random "
                 "geometric n = 60, Q = 4, capacity = 3\n\n";
    const ScenarioOutcome outcome = run_scenario(problem, initial, plan);
    print_timeline(outcome);
    ok = print_final_comparison(problem, outcome) && ok;
  }

  // --- Scenario 2: crash windows + link outages on a grid. ---
  {
    const graph::Graph g = graph::make_grid(7, 7);
    const auto problem =
        bench::grid_problem(g, /*producer=*/24, /*chunks=*/5, /*capacity=*/4);
    core::ApproxFairCaching appx;
    const metrics::CacheState initial = appx.run(problem).state;

    sim::ChurnPlan plan;
    plan.events.push_back({sim::ChurnEventType::kCrash, 1, 10});
    plan.events.push_back({sim::ChurnEventType::kCrash, 1, 38});
    plan.events.push_back({sim::ChurnEventType::kLinkDown, 2, 24, 25});
    plan.events.push_back({sim::ChurnEventType::kLinkDown, 2, 24, 31});
    plan.events.push_back({sim::ChurnEventType::kDepart, 3, 16});
    plan.events.push_back({sim::ChurnEventType::kRecover, 4, 10});
    plan.events.push_back({sim::ChurnEventType::kRecover, 4, 38});
    plan.events.push_back({sim::ChurnEventType::kLinkUp, 5, 24, 25});
    plan.events.push_back({sim::ChurnEventType::kLinkUp, 5, 24, 31});

    std::cout << "\nScenario 2 — crash windows + producer link outages + one "
                 "departure, 7x7 grid, Q = 5, capacity = 4\n\n";
    const ScenarioOutcome outcome = run_scenario(problem, initial, plan);
    print_timeline(outcome);
    ok = print_final_comparison(problem, outcome) && ok;
  }

  // --- Scenario 3: departure waves that escalate, guard auditing every
  // build. ---
  {
    util::Rng rng(1);
    const graph::Graph g = graph::make_erdos_renyi(40, 0.10, rng);
    const auto problem =
        bench::grid_problem(g, /*producer=*/0, /*chunks=*/8, /*capacity=*/2);
    core::ApproxFairCaching appx;
    const metrics::CacheState initial = appx.run(problem).state;
    const sim::ChurnPlan plan = sim::make_departure_waves(
        40, /*producer=*/0, /*waves=*/2, /*per_wave=*/10, /*period=*/1,
        /*seed=*/1);
    core::GuardOptions guard;
    guard.cadence = 1;
    guard.budget_share = 1.0;  // never throttled

    std::cout << "\nScenario 3 — 2 waves x 10 permanent departures, "
                 "Erdos-Renyi n = 40, p = 0.10, Q = 8, capacity = 2; guard "
                 "audits every escalation build\n\n";
    const ScenarioOutcome outcome =
        run_scenario(problem, initial, plan, guard);
    print_timeline(outcome);
    ok = print_final_comparison(problem, outcome, /*expect_audits=*/true) &&
         ok;
  }

  std::cout << "\nEvict-only keeps the placement *valid* but increasingly "
               "producer-bound;\nthe repair engine restores nearby replicas "
               "for a small, budgeted fraction\nof the work a full re-solve "
               "would spend after every event.\n";
  return ok ? 0 : 1;
}
