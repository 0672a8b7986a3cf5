// The workload-independent part of the repository benchmark: set-up,
// warm-up, closed-loop timed rounds, the reference check, the layer probes
// and the traced run.  A workload (heat2d.cpp, wave3d.cpp) supplies the
// arrays, the kernel and its correctness check; Runner<W> drives it through
// the public Stencil API only.
//
// Every timed rep starts from freshly re-filled arrays and a reset step
// counter, so each rep does the same work; re-filling and checking happen
// outside the timer.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "core/stencil.hpp"
#include "core/trap.hpp"
#include "resilience/health.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scheduler.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "telemetry/export.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string ckpt_dir;  ///< per-run checkpoint directory, owned by main()
  int threads = 1;
};

/// The configurations timed in every round, in round order.  kRestore
/// resumes from the checkpoint the kSupervised rep of the same round left.
enum class Config {
  kTrapSerial,
  kTrapParallel,
  kLoopsSerial,
  kLoopsParallel,
  kSupervised,
  kRestore,
};

inline constexpr std::array<Config, 4> kPlainConfigs = {
    Config::kTrapSerial, Config::kTrapParallel, Config::kLoopsSerial,
    Config::kLoopsParallel};
inline constexpr std::array<Config, 6> kAllConfigs = {
    Config::kTrapSerial,    Config::kTrapParallel, Config::kLoopsSerial,
    Config::kLoopsParallel, Config::kSupervised,   Config::kRestore};

inline const char* config_name(Config c) {
  switch (c) {
    case Config::kTrapSerial: return "trap_serial";
    case Config::kTrapParallel: return "trap_parallel";
    case Config::kLoopsSerial: return "loops_serial";
    case Config::kLoopsParallel: return "loops_parallel";
    case Config::kSupervised: return "supervised";
    case Config::kRestore: return "restore";
  }
  return "unknown";
}

/// Span names must be string literals (trace::Event stores the pointer).
inline const char* span_name(Config c) {
  switch (c) {
    case Config::kTrapSerial: return "bench.trap_serial";
    case Config::kTrapParallel: return "bench.trap_parallel";
    case Config::kLoopsSerial: return "bench.loops_serial";
    case Config::kLoopsParallel: return "bench.loops_parallel";
    case Config::kSupervised: return "bench.supervised";
    case Config::kRestore: return "bench.restore";
  }
  return "bench.unknown";
}

/// Everything one run measured; main.cpp writes it out as JSON.
struct Measurement {
  std::string workload;
  std::string grid;
  int dims = 0;
  std::int64_t steps = 0;
  std::int64_t space_points = 0;
  std::int64_t state_bytes = 0;  ///< registered arrays, all time levels
  std::string supervisor;        ///< slab/health settings, for the record
  int rounds = 0;
  /// End-to-end metric -> one value per timed rep (or per set-up).
  std::map<std::string, std::vector<double>> samples;
  /// Per-layer metric -> value (traced runs only).
  std::map<std::string, double> layers;
  /// Printed extras that are not benchmark metrics.
  std::map<std::string, double> info;
  /// label -> telemetry::to_json of each traced session.
  std::map<std::string, std::string> sessions;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool reference_ok = false;
  std::string reference_note;
  std::vector<std::string> failures;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Uniform double in [lo, hi) derived from (seed, i) alone, so a fill is
/// reproducible element by element.
inline double seeded_uniform(std::uint64_t seed, std::uint64_t i, double lo,
                             double hi) {
  std::uint64_t s = seed ^ (i * 0xD1B54A32D192ED03ULL);
  const double u =
      static_cast<double>(pochoir::splitmix64(s) >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

/// 64-bit digest of raw bytes: four independent multiply-xor lanes over
/// 8-byte words, then the tail.  Used to compare a rep's final time level
/// bit for bit with the reference result without keeping a second copy.
inline std::uint64_t digest_bytes(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ULL;
  std::uint64_t h[4] = {1, 2, 3, 4};
  std::size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    for (int l = 0; l < 4; ++l) {
      std::uint64_t w;
      std::memcpy(&w, p + i + 8 * static_cast<std::size_t>(l), 8);
      h[l] = (h[l] ^ w) * kMul;
      h[l] ^= h[l] >> 29;
    }
  }
  std::uint64_t out = bytes;
  for (int l = 0; l < 4; ++l) out = (out ^ h[l]) * kMul;
  for (; i < bytes; ++i) out = (out ^ p[i]) * kMul;
  return out ^ (out >> 31);
}

/// Pointer to the first element of the time level holding time `t`.
template <typename T, int D>
T* level_ptr(pochoir::Array<T, D>& a, std::int64_t t) {
  return &a.at(t, std::array<std::int64_t, D>{});
}

/// Peak resident set of this process in MB (getrusage reports KiB).
double peak_rss_mb();

/// Drives workload W through set-up, warm-up, timed rounds and, with
/// tracing, the probes and the traced run.  W provides:
///   kDims, setup(), teardown(), reinit(), stencil(), kernel(), steps(),
///   space_points(), state_bytes(), supervisor_options(dir),
///   check_reference(note) (after a loops_serial run; records the expected
///   result), verify() (current result equals the expected one) and
///   health_scan() (scan_array over the registered arrays).
template <typename W>
class Runner {
 public:
  Runner(W& w, const Args& args, Measurement& m)
      : w_(w), args_(args), m_(m) {
    sup_opts_ = w_.supervisor_options(args_.ckpt_dir + "/" + args_.workload);
  }

  void run() {
    measure_setup();
    progress("set-up");
    warm_up();
    progress("warm-up and reference check");
    timed_rounds();
    progress("timed reps");
    if (args_.trace) {
      probes();
      traced_run();
      derive_layers();
      progress("probes and traced run");
    }
    m_.samples["peak_rss_mb"] = {peak_rss_mb()};
  }

 private:
  static constexpr int kRounds = 8;
  static constexpr int kMaxReps = 50;

  void progress(const char* phase) const {
    std::fprintf(stderr, "perfbench %s: %s done at %.1f s (%lld reps, %lld failed)\n",
                 args_.workload.c_str(), phase, clock_.seconds(),
                 static_cast<long long>(m_.attempted),
                 static_cast<long long>(m_.failed));
  }

  double points() const {
    return static_cast<double>(w_.space_points()) *
           static_cast<double>(w_.steps());
  }

  /// Allocation, initial fill and register_arrays, repeated (at least 3
  /// times, then until 1 s is spent, at most 1000); the last set-up is kept
  /// for the rest of the run.
  void measure_setup() {
    pochoir::Timer total;
    auto& v = m_.samples["setup_s"];
    while (v.size() < 3 || (v.size() < 1000 && total.seconds() < 1.0)) {
      w_.teardown();
      pochoir::Timer timer;
      w_.setup();
      v.push_back(timer.seconds());
    }
  }

  /// Runs one configuration from the initial state and returns the wall
  /// seconds of the Stencil call alone.  Failures (a throw or a non-ok
  /// report) are recorded; the result check is separate (check()).
  double execute(Config c, pochoir::resilience::RunReport* report) {
    auto& st = w_.stencil();
    auto& k = w_.kernel();
    const std::int64_t steps = w_.steps();
    pochoir::resilience::RunReport rep;
    std::string error;
    pochoir::Timer timer;
    try {
      switch (c) {
        case Config::kTrapSerial:
          st.run_serial(pochoir::Algorithm::kTrap, steps, k);
          break;
        case Config::kTrapParallel:
          st.run(pochoir::Algorithm::kTrap, steps, k);
          break;
        case Config::kLoopsSerial:
          st.run_serial(pochoir::Algorithm::kLoopsSerial, steps, k);
          break;
        case Config::kLoopsParallel:
          st.run(pochoir::Algorithm::kLoopsParallel, steps, k);
          break;
        case Config::kSupervised:
          rep = st.run_supervised(steps, k, sup_opts_);
          break;
        case Config::kRestore:
          rep = st.resume(k, sup_opts_);
          break;
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double seconds = timer.seconds();
    if (error.empty() && !rep.ok()) {
      error = std::string(pochoir::resilience::to_string(rep.status)) + ": " +
              rep.message;
    }
    pending_error_ = error;
    if (report != nullptr) *report = rep;
    return seconds;
  }

  /// Counts one attempted rep and checks its result against the reference.
  bool check(Config c) {
    ++m_.attempted;
    std::string why = pending_error_;
    if (why.empty() && !w_.verify()) why = "result differs from the reference";
    if (why.empty()) return true;
    ++m_.failed;
    if (m_.failures.size() < 16) {
      m_.failures.push_back(std::string(config_name(c)) + ": " + why);
    }
    return false;
  }

  /// One untimed run of every configuration.  loops_serial goes first: its
  /// result is checked against the workload's plain reference and becomes
  /// the expected result of every later rep.
  void warm_up() {
    w_.reinit();
    execute(Config::kLoopsSerial, nullptr);
    ++m_.attempted;
    m_.reference_ok = pending_error_.empty() &&
                      w_.check_reference(m_.reference_note);
    if (!m_.reference_ok) {
      ++m_.failed;
      m_.failures.push_back("loops_serial: reference check failed: " +
                            m_.reference_note + pending_error_);
    }
    for (Config c : kAllConfigs) {
      if (c == Config::kLoopsSerial) continue;
      w_.reinit();
      execute(c, nullptr);
      check(c);
    }
  }

  /// Closed-loop timed reps: kRounds rounds over all configurations, each
  /// configuration repeating within its equal slice of the time budget
  /// (at least one rep per slice).
  void timed_rounds() {
    const double slice =
        args_.seconds / (kRounds * static_cast<double>(kAllConfigs.size()));
    for (int round = 0; round < kRounds; ++round) {
      for (Config c : kAllConfigs) {
        pochoir::Timer used;
        int reps = 0;
        do {
          timed_rep(c);
          ++reps;
        } while (used.seconds() < slice && reps < kMaxReps);
      }
      ++m_.rounds;
    }
    const double trap = median(seconds_[Config::kTrapParallel]);
    const double loops = median(seconds_[Config::kLoopsParallel]);
    if (trap > 0) {
      m_.info["paper_ratio_loops_parallel_over_trap_parallel"] = loops / trap;
    }
  }

  void timed_rep(Config c) {
    w_.reinit();
    pochoir::resilience::RunReport rep;
    const double s = execute(c, &rep);
    if (!check(c)) return;
    seconds_[c].push_back(s);
    if (c == Config::kRestore) {
      m_.samples["restore_s"].push_back(s);
      return;
    }
    const char* metric = c == Config::kTrapSerial      ? "trap_serial_mpts"
                         : c == Config::kTrapParallel  ? "trap_parallel_mpts"
                         : c == Config::kLoopsSerial   ? "loops_serial_mpts"
                         : c == Config::kLoopsParallel ? "loops_parallel_mpts"
                                                       : "supervised_mpts";
    m_.samples[metric].push_back(points() / 1e6 / s);
    if (c == Config::kSupervised) supervised_.push_back({rep, s});
  }

  /// Times `fn` repeatedly (at least 3 times, until ~0.2 s are spent or 50
  /// reps are done) and returns the median seconds.
  template <typename F>
  static double median_time(F&& fn) {
    std::vector<double> v;
    pochoir::Timer total;
    while (v.size() < 3 || (total.seconds() < 0.2 && v.size() < 50)) {
      pochoir::Timer t;
      fn();
      v.push_back(t.seconds());
    }
    return median(v);
  }

  void walk_probe() {
    constexpr int D = W::kDims;
    const auto ctx = w_.stencil().context();
    const auto [t0, t1] = w_.stencil().time_range(w_.steps());
    auto noop = [](const pochoir::Zoid<D>&) {};
    pochoir::run_trap(ctx, pochoir::rt::SerialPolicy{}, t0, t1, noop, noop);
  }

  void fork_join_probe() {
    pochoir::rt::parallel_for(0, args_.threads, 1, [](std::int64_t) {});
  }

  /// Layer probes, timed alone with telemetry off.
  void probes() {
    w_.reinit();
    walk_s_ = median_time([&] { walk_probe(); });
    health_s_ = median_time([&] { w_.health_scan(); });
    std::vector<double> fj;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t t0 = pochoir::now_ns();
      fork_join_probe();
      fj.push_back(static_cast<double>(pochoir::now_ns() - t0) * 1e-3);
    }
    fork_join_us_ = median(fj);
  }

  /// One rep of every configuration and probe with counters and spans on,
  /// each inside its own trace::Session.  Writes trace.json.
  void traced_run() {
    namespace tel = pochoir::telemetry;
    namespace tr = pochoir::trace;
    tel::set_enabled(true);
    tr::Tracer::instance().reset();
    tr::Tracer::instance().set_active(true);
    auto record = [&](const std::string& label, tr::Session& session) {
      const tel::RunTelemetry t = session.finish();
      m_.sessions[label] = tel::to_json(t, /*include_label=*/false);
      return t;
    };
    {
      tr::Session session("setup");
      tr::Span span("bench.setup");
      w_.teardown();
      w_.setup();
    }
    for (Config c : kAllConfigs) {
      w_.reinit();
      tr::Session session(config_name(c));
      double s = 0;
      {
        tr::Span span(span_name(c));
        s = execute(c, nullptr);
      }
      traced_[c] = record(config_name(c), session);
      traced_seconds_[c] = s;
      check(c);
    }
    {
      w_.reinit();
      tr::Session session("walk_probe");
      {
        tr::Span span("bench.walk_probe");
        walk_probe();
      }
      walk_counts_ = record("walk_probe", session).walk;
    }
    {
      tr::Session session("fork_join_probe");
      tr::Span span("bench.fork_join_probe");
      for (int i = 0; i < 100; ++i) fork_join_probe();
    }
    {
      tr::Session session("health_scan");
      tr::Span span("bench.health_scan");
      w_.health_scan();
    }
    tr::Tracer::instance().set_active(false);
    tel::set_enabled(false);
    for (const tr::ThreadLog& log : tr::Tracer::instance().drain_copy()) {
      dropped_ += log.dropped;
    }
    if (!tr::write_chrome_trace(args_.out_dir + "/trace.json")) {
      ++m_.failed;
      m_.failures.push_back("cannot write trace.json");
    }
  }

  void derive_layers() {
    auto& L = m_.layers;
    const double pts = points();
    const double trap_s = median(seconds_[Config::kTrapSerial]);
    const double trap_p = median(seconds_[Config::kTrapParallel]);
    const double loops_s = median(seconds_[Config::kLoopsSerial]);
    const double loops_p = median(seconds_[Config::kLoopsParallel]);
    const double threads = args_.threads;

    L["core.walk_s"] = walk_s_;
    L["core.walk_share"] = trap_s > 0 ? walk_s_ / trap_s : 0.0;
    L["core.leaf_mpts"] =
        trap_s > walk_s_ ? pts / 1e6 / (trap_s - walk_s_) : 0.0;
    const auto zoids = walk_counts_.base_cases();
    L["core.base_zoids"] = static_cast<double>(zoids);
    L["core.mean_zoid_points"] =
        zoids > 0 ? static_cast<double>(walk_counts_.points_total()) /
                        static_cast<double>(zoids)
                  : 0.0;
    const auto& tw = traced_[Config::kTrapSerial].walk;
    L["core.interior_points_frac"] =
        tw.points_total() > 0 ? static_cast<double>(tw.points_interior) /
                                    static_cast<double>(tw.points_total())
                              : 0.0;
    L["geometry.space_cuts"] = static_cast<double>(tw.space_cuts);
    L["geometry.time_cuts"] = static_cast<double>(tw.time_cuts);

    const std::pair<Config, const char*> parallel[] = {
        {Config::kTrapParallel, "trap"}, {Config::kLoopsParallel, "loops"}};
    for (const auto& [c, tag] : parallel) {
      const auto& s = traced_[c].sched;
      const std::string sfx = std::string("_") + tag;
      L["runtime.spawns" + sfx] = static_cast<double>(s.spawns);
      L["runtime.steals" + sfx] = static_cast<double>(s.steals);
      L["runtime.steal_ratio" + sfx] = s.steal_ratio();
      L["runtime.parks" + sfx] = static_cast<double>(s.parks);
      L["runtime.idle_spins" + sfx] = static_cast<double>(s.idle_spins);
    }
    L["runtime.fork_join_us"] = fork_join_us_;
    L["runtime.parallel_eff_trap"] =
        trap_p > 0 ? trap_s / (threads * trap_p) : 0.0;
    L["runtime.parallel_eff_loops"] =
        loops_p > 0 ? loops_s / (threads * loops_p) : 0.0;

    std::vector<double> write_s, write_mbps, overhead;
    for (const auto& [rep, wall] : supervised_) {
      if (rep.checkpoints_written > 0 && rep.checkpoint_seconds > 0) {
        write_s.push_back(rep.checkpoint_seconds /
                          static_cast<double>(rep.checkpoints_written));
        write_mbps.push_back(static_cast<double>(rep.checkpoint_bytes) / 1e6 /
                             rep.checkpoint_seconds);
      }
      overhead.push_back(1.0 - rep.slab_seconds / wall);
    }
    L["resilience.ckpt_write_s"] = median(write_s);
    L["resilience.ckpt_mb_per_s"] = median(write_mbps);
    L["resilience.health_scan_s"] = health_s_;
    const double restore_s = median(seconds_[Config::kRestore]);
    L["resilience.restore_mb_per_s"] =
        restore_s > 0 ? static_cast<double>(w_.state_bytes()) / 1e6 / restore_s
                      : 0.0;
    L["resilience.overhead_frac"] = median(overhead);

    double traced = 0, untraced = 0;
    for (Config c : kPlainConfigs) {
      const double base = median(seconds_[c]);
      traced += traced_seconds_[c];
      untraced += base;
      if (base > 0) {
        m_.info[std::string("telemetry.overhead_frac.") + config_name(c)] =
            traced_seconds_[c] / base - 1.0;
      }
    }
    L["telemetry.overhead_frac"] = untraced > 0 ? traced / untraced - 1.0 : 0.0;
    L["telemetry.dropped_events"] = static_cast<double>(dropped_);
  }

  W& w_;
  const Args& args_;
  Measurement& m_;
  pochoir::resilience::SupervisorOptions sup_opts_;
  std::string pending_error_;
  std::map<Config, std::vector<double>> seconds_;
  std::vector<std::pair<pochoir::resilience::RunReport, double>> supervised_;
  std::map<Config, pochoir::telemetry::RunTelemetry> traced_;
  std::map<Config, double> traced_seconds_;
  pochoir::telemetry::WalkCounters walk_counts_;
  double walk_s_ = 0, health_s_ = 0, fork_join_us_ = 0;
  std::uint64_t dropped_ = 0;
  pochoir::Timer clock_;
};

/// Fills in the workload description and runs it.
template <typename W>
void run_workload(W& w, const Args& args, Measurement& m) {
  m.dims = W::kDims;
  m.grid = w.grid();
  m.steps = w.steps();
  m.space_points = w.space_points();
  m.supervisor = w.supervisor_note();
  Runner<W> runner(w, args, m);
  runner.run();
  m.state_bytes = w.state_bytes();
}

// One entry point per workload translation unit.
void run_heat2d(const Args& args, Measurement& m);
void run_wave3d(const Args& args, Measurement& m);

}  // namespace perfbench
