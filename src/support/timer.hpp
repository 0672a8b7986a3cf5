// Wall-clock timing used by the benchmark harnesses and the telemetry
// layer.  Everything is derived from one steady_clock-based now_ns() so a
// single report never mixes clock sources (bench seconds and trace span
// timestamps are directly comparable).
#pragma once

#include <chrono>
#include <cstdint>

namespace pochoir {

/// Monotonic nanoseconds since an arbitrary (per-process) epoch.  The one
/// time source shared by Timer and the trace/telemetry spans.
[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_ns_(now_ns()) {}

  /// Restart the stopwatch.
  void reset() { start_ns_ = now_ns(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return static_cast<double>(now_ns() - start_ns_) * 1e-9;
  }

  /// Milliseconds elapsed.
  [[nodiscard]] double millis() const { return seconds() * 1e3; }

 private:
  std::uint64_t start_ns_;
};

}  // namespace pochoir
