// Deterministic fault injection for the supervised execution layer.
//
// A FaultPlan describes, up front and reproducibly, every failure a test
// wants the supervisor to survive: checkpoint-write IO errors, a NaN
// planted at a chosen (t, x) site, a simulated task failure inside the
// parallel walk, a cooperative cancellation fired mid-slab, and a
// simulated process kill after a chosen slab.  The supervisor arms the
// plan at each slab boundary (begin_slab); the base-case hook and the IO
// seam consume armed faults exactly once, so a degraded retry of the same
// slab does not re-fail.  Every knob is an explicit site, so every recovery
// path can be pinned.
#pragma once

#include <atomic>
#include <cstdint>

#include "support/cancellation.hpp"
#include "support/error.hpp"

namespace pochoir::resilience {

struct FaultPlan {
  // --- configuration (set once, before the run) ---------------------------

  /// Fail the first N checkpoint write *attempts* (each retry consumes one).
  int checkpoint_io_failures = 0;

  /// After the slab with this index completes, overwrite one element of the
  /// first registered array (flat storage index `poison_flat_index`) with a
  /// quiet NaN — silent corruption for the health monitor to catch.
  std::int64_t poison_after_slab = -1;
  std::int64_t poison_flat_index = 0;

  /// Throw a pochoir::Error from the base-case hook during this slab's
  /// first attempt (exercises abort propagation through the scheduler and
  /// the serial-degradation retry).
  std::int64_t fail_task_at_slab = -1;

  /// Fire CancelToken::cancel() from the base-case hook during this slab,
  /// once `cancel_after_calls` kernel invocations have been handed out
  /// (mid-slab unwind).  The hook runs once per base case (a TRAP/STRAP
  /// base zoid, or a loops chunk: a run of dim-0 planes of one time step,
  /// the whole step when serial) and counts that base case's points, so
  /// the cancellation fires at the start of the base case that would make
  /// kernel call number cancel_after_calls + 1.
  std::int64_t cancel_at_slab = -1;
  std::int64_t cancel_after_calls = 0;

  /// Stop supervising after this slab's checkpoint is written, as if the
  /// process had died (the round-trip tests resume() from here).
  std::int64_t kill_after_slab = -1;

  // --- runtime interface (supervisor / IO seam) ---------------------------

  [[nodiscard]] bool wants_base_case_hook() const {
    return fail_task_at_slab >= 0 || cancel_at_slab >= 0;
  }

  /// Arms per-slab faults; called by the supervisor before each attempt.
  /// `retry` suppresses single-shot faults so a degraded retry can succeed.
  void begin_slab(std::int64_t slab, CancelToken* token, bool retry) {
    token_ = token;
    kernel_calls_.store(0, std::memory_order_relaxed);
    task_failure_armed_.store(!retry && slab == fail_task_at_slab,
                              std::memory_order_relaxed);
    cancel_armed_.store(!retry && slab == cancel_at_slab && token != nullptr,
                        std::memory_order_relaxed);
  }

  /// Invoked before each base case, with its point count (= kernel calls),
  /// when the plan wants a hook; throws the armed task failure, fires the
  /// armed cancellation.
  void on_base_case(std::int64_t points) {
    if (task_failure_armed_.load(std::memory_order_relaxed) &&
        task_failure_armed_.exchange(false, std::memory_order_relaxed)) {
      throw Error("fault injection: simulated task failure");
    }
    if (cancel_armed_.load(std::memory_order_relaxed)) {
      const std::int64_t n =
          kernel_calls_.fetch_add(points, std::memory_order_relaxed);
      if (n + points > cancel_after_calls &&
          cancel_armed_.exchange(false, std::memory_order_relaxed)) {
        token_->cancel();
      }
    }
  }

  /// IO seam: true fails the current checkpoint write attempt.
  bool take_io_failure() {
    int budget = io_budget_.load(std::memory_order_relaxed);
    while (budget < checkpoint_io_failures) {
      if (io_budget_.compare_exchange_weak(budget, budget + 1,
                                           std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

 private:
  CancelToken* token_ = nullptr;
  std::atomic<std::int64_t> kernel_calls_{0};
  std::atomic<bool> task_failure_armed_{false};
  std::atomic<bool> cancel_armed_{false};
  std::atomic<int> io_budget_{0};
};

}  // namespace pochoir::resilience
