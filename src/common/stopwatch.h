// Copyright (c) the XKeyword authors.
//
// Wall-clock stopwatch for benchmark harnesses and the EXPERIMENTS.md tables.

#ifndef XK_COMMON_STOPWATCH_H_
#define XK_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace xk {

/// Measures elapsed wall time from construction or the last Restart().
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_)
        .count();
  }

  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start_)
        .count();
  }

  double ElapsedMillis() const { return static_cast<double>(ElapsedMicros()) / 1000.0; }
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedMicros()) / 1e6;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace xk

#endif  // XK_COMMON_STOPWATCH_H_
