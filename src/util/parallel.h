#pragma once

// Deterministic fork-join parallelism for the solver hot paths.
//
// parallel_for(n, fn) runs fn(index, worker) for every index in [0, n) on a
// shared lazily-grown thread pool. The contract that keeps every caller
// bit-deterministic regardless of thread count:
//
//   * per-index work must be independent: fn(i, w) may read shared inputs
//     but must write only to slots owned by index i (e.g. row i of a
//     Matrix) or to worker-private scratch selected by `w`;
//   * reductions over the results are performed by the caller afterwards,
//     sequentially and in index order.
//
// Under those rules the schedule (which worker runs which index, and in
// what order) cannot influence any output bit, so results are identical at
// 1, 2, or 64 threads. With an effective thread count of 1 no pool is
// touched at all — the loop runs inline on the caller, exactly the
// pre-parallel code path.
//
// Thread count resolution (first match wins):
//   1. the explicit `threads` argument when > 0. No library setting routes
//      here: every region passes 0 and hands the count
//      resolve_parallel_threads returned back to parallel_for, so its
//      per-worker scratch matches the loop;
//   2. set_parallel_threads(k) with k > 0 — the process-wide setting;
//   3. the FAIRCACHE_THREADS environment variable;
//   4. std::thread::hardware_concurrency().
//
// Exceptions thrown by fn are caught, the first one is rethrown on the
// calling thread once the loop has drained (the claim is a single atomic
// flag, so concurrent throwers never race on the stored exception). Nested
// parallel_for calls from inside a worker degrade to the inline serial loop
// (no pool re-entry, no deadlock).
//
// Cancellation: an optional util::RunBudget is polled between work chunks.
// When it expires, workers drain — each finishes the chunk it already
// claimed, claims nothing further, and the loop returns early with indices
// unrun. The caller must re-check the budget after the loop and discard the
// partial output; a loop that returns with the budget unexpired has run
// every index, bit-identically to the budget-free call.

#include <cstddef>
#include <functional>
#include <type_traits>

#include "util/deadline.h"

namespace faircache::util {

// Effective default thread count (>= 1): override, env, or hardware.
int parallel_threads();

// Programmatic override of the default; 0 restores env/hardware detection.
void set_parallel_threads(int threads);

// The worker count a parallel_for(n, fn, threads) call will actually use:
// `threads` resolved through the default chain and clamped to [1, n].
// Useful for sizing per-worker scratch before the loop.
inline int resolve_parallel_threads(int threads, std::size_t n);

namespace internal {
// Type-erased core; `threads` is the resolved count (>= 2, <= n). `budget`
// may be null (no cancellation).
void parallel_for_impl(std::size_t n, int threads,
                       const std::function<void(std::size_t, int)>& fn,
                       const RunBudget* budget);
// True when the current thread is a pool worker (nested call).
bool on_pool_worker();
}  // namespace internal

// Runs fn(i, worker) for i in [0, n). `fn` may take (std::size_t) or
// (std::size_t, int); the int is a dense worker id in [0, threads) usable
// to index per-worker scratch. threads == 0 means parallel_threads().
// `budget`: see the cancellation contract above.
inline int resolve_parallel_threads(int threads, std::size_t n) {
  if (threads <= 0) threads = parallel_threads();
  if (static_cast<std::size_t>(threads) > n) threads = static_cast<int>(n);
  if (threads < 1 || internal::on_pool_worker()) threads = 1;
  return threads;
}

template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, int threads = 0,
                  const RunBudget& budget = {}) {
  constexpr bool kTakesWorker = std::is_invocable_v<Fn&, std::size_t, int>;
  auto invoke = [&fn](std::size_t i, int worker) {
    if constexpr (kTakesWorker) {
      fn(i, worker);
    } else {
      (void)worker;
      fn(i);
    }
  };
  threads = resolve_parallel_threads(threads, n);
  if (threads <= 1) {
    if (budget.is_unlimited()) {
      for (std::size_t i = 0; i < n; ++i) invoke(i, 0);
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (budget.expired()) return;  // caller re-checks and discards
      invoke(i, 0);
    }
    return;
  }
  internal::parallel_for_impl(n, threads, invoke,
                              budget.is_unlimited() ? nullptr : &budget);
}

}  // namespace faircache::util
