// Supervised, slab-based execution: the control loop behind
// Stencil::run_supervised / Stencil::resume.
//
// The requested T steps are split into time slabs.  After each slab the
// supervisor optionally (a) applies planted faults, (b) scans numerical
// health, (c) captures the arrays into the Stencil's Snapshot, the
// rollback point, and (d) seals that Snapshot and writes it as a
// checksummed on-disk checkpoint generation.  Failures never abort the
// process:
//
//   - a slab that throws under the parallel scheduler is rolled back and
//     retried on the serial loops engine (graceful degradation) before the
//     run gives up with RunStatus::kTaskFailure;
//   - cancellation or a deadline observed mid-slab rolls back to the slab
//     boundary, so arrays are always left in a consistent state;
//   - a failed health scan rolls back to the last healthy boundary and
//     reports kNumericalError instead of streaming corrupt data;
//   - checkpoint IO errors are retried with backoff and, if persistent,
//     recorded in the report while the computation continues.
//
// The loop captures, rolls back and writes itself, over type-erased views
// of the arrays; three callbacks (run a slab, scan health, plant faults)
// keep it independent of the Stencil template.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "resilience/checkpoint.hpp"
#include "resilience/fault_injection.hpp"
#include "support/cancellation.hpp"
#include "support/timer.hpp"
#include "telemetry/trace.hpp"

namespace pochoir::resilience {

enum class RunStatus {
  kOk,                ///< all requested steps completed
  kCancelled,         ///< CancelToken fired; stopped at a slab boundary
  kDeadlineExceeded,  ///< deadline passed; stopped at a slab boundary
  kNumericalError,    ///< health scan found NaN/Inf/divergence
  kTaskFailure,       ///< a slab threw, and the serial retry did not save it
  kCheckpointError,   ///< resume() found no usable checkpoint
  kSimulatedCrash,    ///< FaultPlan::kill_after_slab stopped the run
};

inline const char* to_string(RunStatus s) {
  switch (s) {
    case RunStatus::kOk: return "ok";
    case RunStatus::kCancelled: return "cancelled";
    case RunStatus::kDeadlineExceeded: return "deadline-exceeded";
    case RunStatus::kNumericalError: return "numerical-error";
    case RunStatus::kTaskFailure: return "task-failure";
    case RunStatus::kCheckpointError: return "checkpoint-error";
    case RunStatus::kSimulatedCrash: return "simulated-crash";
  }
  return "unknown";
}

/// Structured outcome of a supervised run.  steps_completed counts whole
/// slabs: on any non-Ok status the arrays hold exactly the state after
/// steps_completed steps (of this call), never a mid-step mixture.
struct RunReport {
  RunStatus status = RunStatus::kOk;
  std::int64_t steps_requested = 0;
  std::int64_t steps_completed = 0;
  std::int64_t slabs_completed = 0;
  std::int64_t checkpoints_written = 0;
  std::int64_t checkpoint_io_failures = 0;  ///< failed write attempts (retried)
  std::int64_t serial_retries = 0;
  double slab_seconds = 0.0;        ///< wall time inside run_slab (incl. retries)
  double checkpoint_seconds = 0.0;  ///< wall time writing on-disk checkpoints
  std::int64_t checkpoint_bytes = 0;  ///< payload bytes of successful checkpoints
  bool degraded = false;  ///< at least one slab ran on the serial fallback
  bool resumed = false;   ///< this run started from an on-disk checkpoint
  std::string message;

  [[nodiscard]] bool ok() const { return status == RunStatus::kOk; }
};

struct SupervisorOptions {
  /// Steps per slab; 0 runs the whole request as one slab (no mid-run
  /// checkpoints, near-zero overhead).
  std::int64_t slab_steps = 0;

  /// Base path for on-disk checkpoints (`<path>.<gen>.ckpt`); empty
  /// disables disk snapshots.
  std::string checkpoint_path;
  int keep_generations = 2;
  int io_retries = 3;
  int io_retry_backoff_ms = 10;

  /// Post-slab NaN/Inf scan; |value| > divergence_limit also fails.
  bool health_check = false;
  double divergence_limit = std::numeric_limits<double>::infinity();

  /// Retry a failed slab on the serial loops engine before giving up.
  bool degrade_to_serial = true;

  /// External cancellation; may be null.  A deadline (>= 0, milliseconds
  /// from run start) is armed on this token, or on an internal one.
  CancelToken* cancel = nullptr;
  std::int64_t deadline_ms = -1;

  FaultPlan* faults = nullptr;
};

/// Whether a run needs rollback points.  A plain supervised run (no slabs,
/// no cancellation, no faults, no health scan) captures nothing and must
/// stay within noise of Stencil::run.
inline bool protects(const SupervisorOptions& opts, const CancelToken* token) {
  return opts.slab_steps > 0 || token != nullptr || opts.faults != nullptr ||
         opts.health_check;
}

/// Runs `steps` in slabs over the arrays that `live` views, with `snap` as
/// the rollback point and the checkpoint image, and `steps_done` the
/// caller's step counter (rolled back with the arrays).  `live` may be
/// empty when neither protects() nor a checkpoint path asks for a capture.
/// `restored` says the caller has just restored `live` from `snap` (a
/// resume), so `snap` already holds the opening rollback point.
/// Callbacks:
///   run_slab(n, serial)   execute n steps (serial=true forces the loops
///                         engine on the calling thread); throws on failure
///   health()              "" when healthy, else a description
///   apply_faults(slab)    plant post-slab faults from the FaultPlan
template <typename RunSlab, typename Health, typename ApplyFaults>
RunReport supervise(const SupervisorOptions& opts, std::int64_t steps,
                    CancelToken* token, Snapshot& snap,
                    const std::vector<ArraySnapshot>& live, bool restored,
                    std::int64_t& steps_done, RunSlab&& run_slab,
                    Health&& health, ApplyFaults&& apply_faults) {
  RunReport rep;
  rep.steps_requested = steps;
  const std::int64_t slab =
      opts.slab_steps > 0 && opts.slab_steps < steps ? opts.slab_steps : steps;
  const bool protect = protects(opts, token);
  const bool write = !opts.checkpoint_path.empty();
  CheckpointMeta meta{write ? next_generation(opts.checkpoint_path) : 0, 0,
                      steps_done + steps};
  auto capture = [&] {
    trace::Span span("restore_point");
    meta.steps_done = steps_done;
    snap.capture(meta, live);
  };
  auto rollback = [&] {
    (void)snap.restore(live);  // captured from `live`: the layouts match
    steps_done = snap.meta.steps_done;
  };
  auto write_ckpt = [&] {
    trace::Span ckpt_span("checkpoint_io");
    Timer ckpt_timer;
    std::function<bool()> io_fault;
    if (opts.faults != nullptr) {
      io_fault = [plan = opts.faults] { return plan->take_io_failure(); };
    }
    const WriteCheckpointResult w =
        write_checkpoint(opts.checkpoint_path, snap, opts.keep_generations,
                         opts.io_retries, opts.io_retry_backoff_ms, io_fault);
    ++meta.generation;
    rep.checkpoint_seconds += ckpt_timer.seconds();
    rep.checkpoint_io_failures += w.attempts - (w.ok ? 1 : 0);
    if (w.ok) {
      ++rep.checkpoints_written;
      for (const ArraySnapshot& a : snap.arrays) {
        rep.checkpoint_bytes += static_cast<std::int64_t>(a.bytes);
      }
    } else {
      // Persistent IO failure degrades durability, not the computation.
      rep.message = "checkpoint write failed after " +
                    std::to_string(w.attempts) + " attempts: " + w.error;
    }
  };
  if (protect && !restored) capture();

  std::int64_t done = 0;
  std::int64_t slab_index = 0;
  while (done < steps) {
    if (token != nullptr && token->cancelled_now()) {
      rep.status = token->deadline_expired() ? RunStatus::kDeadlineExceeded
                                             : RunStatus::kCancelled;
      rep.message = "stopped at slab boundary";
      break;
    }
    const std::int64_t this_slab = slab < steps - done ? slab : steps - done;
    if (opts.faults != nullptr) {
      opts.faults->begin_slab(slab_index, token, /*retry=*/false);
    }
    bool slab_ok = false;
    Timer slab_timer;
    try {
      trace::Span slab_span("slab", slab_index);
      run_slab(this_slab, /*serial=*/false);
      slab_ok = true;
    } catch (const std::exception& e) {
      if (protect && opts.degrade_to_serial) {
        rollback();
        rep.degraded = true;
        ++rep.serial_retries;
        if (opts.faults != nullptr) {
          opts.faults->begin_slab(slab_index, token, /*retry=*/true);
        }
        try {
          trace::Span retry_span("degraded_retry", slab_index);
          run_slab(this_slab, /*serial=*/true);
          slab_ok = true;
        } catch (const std::exception& e2) {
          rollback();
          rep.status = RunStatus::kTaskFailure;
          rep.message = std::string("slab failed after serial retry: ") +
                        e2.what();
        }
      } else {
        if (protect) rollback();
        rep.status = RunStatus::kTaskFailure;
        rep.message = protect
                          ? std::string(e.what())
                          : std::string(e.what()) +
                                " (no restore point; arrays may be mid-step)";
      }
    }
    rep.slab_seconds += slab_timer.seconds();
    if (!slab_ok) break;
    if (token != nullptr && token->cancelled_now()) {
      // The walkers unwound mid-slab; the boundary snapshot is the last
      // consistent state.
      rollback();
      rep.status = token->deadline_expired() ? RunStatus::kDeadlineExceeded
                                             : RunStatus::kCancelled;
      rep.message = "cancelled mid-slab; rolled back to slab boundary";
      break;
    }
    if (opts.faults != nullptr) apply_faults(slab_index);
    if (opts.health_check) {
      trace::Span health_span("health_scan", slab_index);
      const std::string issue = health();
      if (!issue.empty()) {
        rollback();
        rep.status = RunStatus::kNumericalError;
        rep.message = issue;
        break;
      }
    }
    done += this_slab;
    ++slab_index;
    rep.slabs_completed = slab_index;
    rep.steps_completed = done;
    // The last boundary needs a capture only to be written.
    if ((protect && done < steps) || write) capture();
    if (write) write_ckpt();
    if (opts.faults != nullptr && opts.faults->kill_after_slab >= 0 &&
        slab_index - 1 == opts.faults->kill_after_slab && done < steps) {
      rep.status = RunStatus::kSimulatedCrash;
      rep.message = "fault injection: simulated crash after slab " +
                    std::to_string(slab_index - 1);
      break;
    }
  }
  return rep;
}

}  // namespace pochoir::resilience
