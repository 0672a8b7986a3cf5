// Shared infrastructure for the paper-reproduction benches.
//
// Every bench prints the corresponding paper table/figure in plain text.
// Grid sizes are scaled down from the paper's 12-core Nehalem testbed to
// run in about a minute; set POCHOIR_BENCH_SCALE=<f> to scale the
// space-time volume up (f > 1) or down.  EXPERIMENTS.md records the
// paper-vs-measured comparison for each experiment.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "support/atomic_file.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "telemetry/export.hpp"

// The top-level build writes this header on every build (see
// cmake/git_revision.cmake); builds without it pass POCHOIR_GIT_SHA.
#if __has_include("pochoir_git_revision.hpp")
#include "pochoir_git_revision.hpp"
#endif

namespace pochoir::bench {

/// Compiler identity baked into every BENCH_*.json so perf numbers are
/// attributable to a toolchain.
inline std::string compiler_id() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

/// Optimization flags the bench was built with (injected by CMake).
inline const char* build_flags() {
#ifdef POCHOIR_BUILD_FLAGS
  return POCHOIR_BUILD_FLAGS;
#else
  return "unknown";
#endif
}

/// Git revision of the build tree: `git describe --always --dirty` at build
/// time, else the POCHOIR_GIT_SHA definition of the build.
inline const char* git_sha() {
#if defined(POCHOIR_GIT_REVISION)
  return POCHOIR_GIT_REVISION;
#elif defined(POCHOIR_GIT_SHA)
  return POCHOIR_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Space-time scale factor from POCHOIR_BENCH_SCALE (default 1.0).
inline double scale() {
  if (const char* env = std::getenv("POCHOIR_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return 1.0;
}

/// Scales a linear dimension by the cube/sqrt/... root of the volume scale.
inline std::int64_t scaled(std::int64_t base, double exponent) {
  const double v = static_cast<double>(base) *
                   std::pow(scale(), exponent);
  return v < 1 ? 1 : static_cast<std::int64_t>(v);
}

/// Times one run of `fn` in seconds.
template <typename F>
double timed(F&& fn) {
  Timer timer;
  fn();
  return timer.seconds();
}

/// Timed reps per configuration, after one warm-up.
constexpr int kReps = 5;

/// The reps of one configuration: their median and spread (interquartile
/// range over the median; quartiles interpolated between order statistics).
struct Timing {
  double median = 0;
  double spread = 0;
};

inline Timing summarize(std::vector<double> secs) {
  std::sort(secs.begin(), secs.end());
  auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(secs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, secs.size() - 1);
    return secs[lo] + (pos - static_cast<double>(lo)) * (secs[hi] - secs[lo]);
  };
  const double median = quantile(0.5);
  return {median, (quantile(0.75) - quantile(0.25)) / median};
}

/// What measure_reps finds for one configuration.
struct Reps {
  double cold = 0;              ///< the warm-up rep: the first, cold run
  Timing timing;                ///< median and spread of the kReps timed reps
  telemetry::RunTelemetry tel;  ///< counters of the first timed rep
};

/// Times one configuration the way every bench does: fresh() builds and
/// fills a grid outside the timer and returns the run to time.  One
/// warm-up rep (its time is the cold rep), then kReps timed reps, each on
/// a fresh grid.  A trace::Session named `label` wraps the first timed
/// rep: a pair of counter snapshots when telemetry is off, and
/// `force_telemetry` turns the counters on for it.
template <typename Fresh>
Reps measure_reps(const std::string& label, Fresh&& fresh,
                  bool force_telemetry = false) {
  Reps r;
  r.cold = timed(fresh());  // its grid is freed before the timed reps
  std::vector<double> secs;
  for (int rep = 0; rep < kReps; ++rep) {
    auto run = fresh();
    if (rep == 0) {
      trace::Session session(label, force_telemetry);
      secs.push_back(timed(run));
      r.tel = session.finish();
    } else {
      secs.push_back(timed(run));
    }
  }
  r.timing = summarize(std::move(secs));
  return r;
}

inline void print_header(const char* what, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("workers: %d   scale: %.2f\n",
              rt::Scheduler::instance().num_threads(), scale());
  std::printf("==============================================================\n");
}

/// Machine-readable benchmark results, written as a JSON array so the perf
/// trajectory can be tracked as BENCH_<name>.json across PRs.  The output
/// path defaults to BENCH_<name>.json in the working directory; set
/// POCHOIR_BENCH_JSON=<path> to redirect it, or POCHOIR_BENCH_JSON=off to
/// suppress the file.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : bench_(std::move(bench_name)) {}

  /// One measured configuration.  `mpoints` is millions of space-time grid
  /// point updates per wall-clock second.  Pass the session's RunTelemetry
  /// to attach a "telemetry" block to the row, and a `spread` >= 0 (the
  /// reps' interquartile range over their median, when `seconds` is a
  /// median) to add a "spread" field.
  void add(const std::string& kernel, const std::string& grid,
           std::int64_t steps, const std::string& config, double seconds,
           double mpoints, const telemetry::RunTelemetry* tel = nullptr,
           double spread = -1) {
    Record r{kernel, grid, steps, config, seconds, mpoints, spread, {}, false};
    if (tel != nullptr) {
      r.tel = *tel;
      r.has_tel = true;
    }
    records_.push_back(std::move(r));
  }

  ~JsonReport() { write(); }

  void write() const {
    std::string path = "BENCH_" + bench_ + ".json";
    if (const char* env = std::getenv("POCHOIR_BENCH_JSON")) {
      if (std::string(env) == "off") return;
      path = env;
    }
    // Temp-then-rename so a crash (or a kill) mid-report never truncates a
    // previously good BENCH_*.json tracked across PRs.
    const auto result = io::atomic_write_file(path, [&](std::FILE* f) {
      if (std::fprintf(f, "[\n") < 0) return false;
      // Row 0 is a metadata stamp so the perf trajectory is attributable
      // to a toolchain + revision; measurement rows follow.
      if (std::fprintf(
              f,
              "  {\"bench\": \"%s\", \"meta\": {\"compiler\": \"%s\", "
              "\"flags\": \"%s\", \"git_sha\": \"%s\", \"threads\": %d, "
              "\"scale\": %.3f}}%s\n",
              bench_.c_str(), compiler_id().c_str(), build_flags(), git_sha(),
              rt::Scheduler::instance().num_threads(), scale(),
              records_.empty() ? "" : ",") < 0) {
        return false;
      }
      for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        int n = std::fprintf(
            f,
            "  {\"bench\": \"%s\", \"kernel\": \"%s\", \"grid\": "
            "\"%s\", \"steps\": %lld, \"config\": \"%s\", "
            "\"threads\": %d, \"scale\": %.3f, \"seconds\": %.6f, "
            "\"mpoints_per_s\": %.3f",
            bench_.c_str(), r.kernel.c_str(), r.grid.c_str(),
            static_cast<long long>(r.steps), r.config.c_str(),
            rt::Scheduler::instance().num_threads(), scale(), r.seconds,
            r.mpoints);
        if (n < 0) return false;
        if (r.spread >= 0 &&
            std::fprintf(f, ", \"spread\": %.4f", r.spread) < 0) {
          return false;
        }
        if (r.has_tel) {
          const std::string tel =
              telemetry::to_json(r.tel, /*include_label=*/false);
          if (std::fprintf(f, ", \"telemetry\": %s", tel.c_str()) < 0) {
            return false;
          }
        }
        n = std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
        if (n < 0) return false;
      }
      return std::fprintf(f, "]\n") >= 0;
    });
    if (result.ok) {
      std::fprintf(stderr, "bench: wrote %zu records to %s\n", records_.size(),
                   path.c_str());
    } else {
      std::fprintf(stderr, "bench: FAILED to write %s: %s\n", path.c_str(),
                   result.error.c_str());
    }
  }

 private:
  struct Record {
    std::string kernel;
    std::string grid;
    std::int64_t steps;
    std::string config;
    double seconds;
    double mpoints;
    double spread;
    telemetry::RunTelemetry tel;
    bool has_tel;
  };

  std::string bench_;
  std::vector<Record> records_;
};

}  // namespace pochoir::bench
