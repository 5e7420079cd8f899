#pragma once

// Monotonic wall-clock stopwatch used by the running-time experiments
// (Fig. 5) and by examples to report algorithm latency.

#include <chrono>

namespace faircache::util {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace faircache::util
