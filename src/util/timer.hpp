#pragma once
// Wall-clock stopwatch for run_deck, benches and I/O accounting.  Component
// timing (the paper's per-component fraction table) lives in
// perf::TraceRecorder.

#include <chrono>

namespace enzo::util {

/// Simple stopwatch for benches.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_).count();
  }
  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace enzo::util
