#pragma once

// Cooperative run budgets for the solver stack (docs/ROBUSTNESS.md).
//
// A RunBudget bounds a solve by wall-clock time (monotonic clock), by an
// optional work-unit cap, and/or by an external CancelToken. It is a cheap
// value type: copies share one state block, so the budget handed to
// core::ApproxFairCaching::solve is the same object the confl dual-growth
// loop, the Steiner sweeps and the parallel_for workers poll.
//
// The contract is *cooperative and side-effect free*: checking a budget
// never changes any solver arithmetic, so a run that completes without an
// expired check is bit-identical to the same run under an unlimited budget.
// When a check does report expiry, the caller abandons the phase (workers
// drain deterministically — they stop claiming new work but finish the
// chunk in hand) and surfaces a typed Status instead of a partial answer.
//
// Work units are deterministic progress markers (dual-growth rounds,
// Steiner sweeps, matrix rows), charged at the same program points
// on every run. A work-unit budget therefore expires at a deterministic
// point in the computation regardless of thread count or machine load —
// the property the anytime-monotonicity tests pin.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

#include "util/status.h"

namespace faircache::util {

// Shared cancellation flag. A default-constructed token is inert (never
// cancelled, requests ignored); CancelToken::make() creates a live one.
// Copies share the flag; thread-safe.
class CancelToken {
 public:
  CancelToken() = default;

  static CancelToken make();

  bool valid() const { return flag_ != nullptr; }
  void request_cancel() const {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }
  bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

inline constexpr std::uint64_t kNoWorkCap =
    std::numeric_limits<std::uint64_t>::max();

class RunBudget {
 public:
  // Unlimited: every check is kOk and costs one pointer test.
  RunBudget() = default;

  static RunBudget unlimited() { return RunBudget(); }
  // Wall-clock deadline `seconds` from now (monotonic clock). 0 or a
  // negative value is already expired.
  static RunBudget wall_clock(double seconds, CancelToken token = {});
  // Deterministic cap on charged work units. 0 expires at the first check
  // after any charge.
  static RunBudget work_units(std::uint64_t cap, CancelToken token = {});
  // Only cancellable: no time/work limit.
  static RunBudget cancellable(CancelToken token);
  // Fully general combination.
  static RunBudget limited(double seconds, std::uint64_t work_cap,
                           CancelToken token = {});

  bool is_unlimited() const { return state_ == nullptr; }

  // Records `units` of completed work. Atomic; callable from workers.
  void charge(std::uint64_t units = 1) const {
    if (state_) state_->work.fetch_add(units, std::memory_order_relaxed);
  }

  // kOk, or the reason the budget is exhausted. Precedence when several
  // limits tripped: kCancelled > kDeadlineExceeded > kResourceExhausted
  // (an explicit cancel is the strongest signal of caller intent).
  StatusCode check() const;
  bool expired() const { return check() != StatusCode::kOk; }

  // An OK Status, or a non-OK status naming the exhausted limit and
  // `where` (the phase that observed it).
  Status status(const char* where) const;

  double elapsed_seconds() const;
  std::uint64_t work_charged() const {
    return state_ ? state_->work.load(std::memory_order_relaxed) : 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct State {
    Clock::time_point start = Clock::now();
    Clock::time_point deadline = Clock::time_point::max();
    std::uint64_t work_cap = kNoWorkCap;
    std::atomic<std::uint64_t> work{0};
    CancelToken token;
  };

  std::shared_ptr<State> state_;
};

}  // namespace faircache::util
