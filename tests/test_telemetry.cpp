// Telemetry-layer tests: counter consistency (points updated == grid x
// steps; TRAP vs loops agree; scheduler spawns == tasks run), trace-JSON
// well-formedness and span nesting, one stencil_run span per run entry
// point, registry/export round trips through the JSON linter, the
// off-by-default allocation-free guarantee, a Registry that keeps only
// counted or exported sessions, and the RunReport timing fields,
// restore_point spans and once-allocated snapshot buffer of supervised
// runs, and a resume that rolls back to the generation it restored
// without capturing it again.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/boundary.hpp"
#include "core/stencil.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scheduler.hpp"
#include "stencils/common.hpp"
#include "stencils/heat.hpp"
#include "stencils/wave.hpp"
#include "support/json_lint.hpp"
#include "telemetry/export.hpp"
#include "telemetry/stats.hpp"
#include "telemetry/trace.hpp"

namespace {

// These tests control telemetry state explicitly; stray environment from
// the invoking shell must not leak in.  Runs during static init, before
// the lazily-initialized enabled() flag is first read.
const bool g_env_cleared = [] {
  unsetenv("POCHOIR_TELEMETRY");
  unsetenv("POCHOIR_TRACE");
  unsetenv("POCHOIR_TELEMETRY_JSON");
  unsetenv("POCHOIR_TRACE_ZOID_DEPTH");
  return true;
}();

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_allocs{0};
// Allocations of at least g_big_bytes, counted alongside g_allocs.
std::atomic<std::size_t> g_big_bytes{0};
std::atomic<std::int64_t> g_big_allocs{0};

}  // namespace

// Counting global allocator hooks (same pattern as test_walk_equivalence):
// active only while g_counting is set, so gtest/harness allocations outside
// the measured region are ignored.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (size >= g_big_bytes.load(std::memory_order_relaxed)) {
      g_big_allocs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Out of line: inlined next to operator new, gcc 12 reports these malloc /
// free pairs as mismatched new/delete (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace pochoir {
namespace {

namespace tel = telemetry;

/// RAII guard: forces the counter flag for one scope, restoring the
/// previous state afterwards (tests must not leak state into each other).
class EnabledScope {
 public:
  explicit EnabledScope(bool on) : prev_(tel::enabled()) {
    tel::set_enabled(on);
  }
  ~EnabledScope() { tel::set_enabled(prev_); }

 private:
  bool prev_;
};

std::uint64_t hist_sum(const std::array<std::uint64_t, tel::kHistogramBuckets>& h) {
  return std::accumulate(h.begin(), h.end(), std::uint64_t{0});
}

/// Runs the 2D heat kernel for `steps` on an n x n grid with the given
/// algorithm and returns the walk-counter delta.
tel::WalkCounters run_heat2(std::int64_t n, std::int64_t steps, Algorithm alg,
                            bool periodic) {
  Array<double, 2> a({n, n}, stencils::heat_shape<2>().depth());
  if (periodic) {
    a.register_boundary(periodic_boundary<double, 2>());
  } else {
    a.register_boundary(dirichlet_boundary<double, 2>(0.0));
  }
  stencils::fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> heat(stencils::heat_shape<2>());
  heat.register_arrays(a);
  auto kern = stencils::heat_kernel_2d({0.125, 0.125});
  const tel::WalkCounters before = tel::walk_stats().snapshot();
  heat.run_serial(alg, steps, kern);
  return tel::walk_stats().snapshot() - before;
}

TEST(TelemetryCounters, DisabledByDefault) {
  ASSERT_TRUE(g_env_cleared);
  EXPECT_FALSE(tel::enabled());
  // With the flag off, context() must not attach the stats sink, so a run
  // leaves the global counters untouched.
  const tel::WalkCounters delta =
      run_heat2(16, 4, Algorithm::kTrap, /*periodic=*/false);
  EXPECT_EQ(delta.points_total(), 0u);
  EXPECT_EQ(delta.base_cases(), 0u);
}

TEST(TelemetryCounters, TrapPointsMatchGridTimesSteps) {
  EnabledScope on(true);
  const std::int64_t n = 24, steps = 10;
  const tel::WalkCounters d =
      run_heat2(n, steps, Algorithm::kTrap, /*periodic=*/false);
  const std::uint64_t expected =
      static_cast<std::uint64_t>(n * n * steps);
  EXPECT_EQ(d.points_interior + d.points_boundary, expected);
  EXPECT_EQ(d.points_loops, 0u);
  EXPECT_GT(d.base_cases(), 0u);
  EXPECT_GT(d.base_boundary, 0u);  // grid edges always need the checked clone
  // Each base case lands in exactly one bucket of each histogram.
  EXPECT_EQ(hist_sum(d.zoid_points_hist), d.base_cases());
  EXPECT_EQ(hist_sum(d.zoid_height_hist), d.base_cases());
  // A 24^2 x 10 box cannot be a single base case with default coarsening.
  EXPECT_GT(d.space_cuts + d.time_cuts, 0u);
}

TEST(TelemetryCounters, TrapAndLoopsAgreeOnPoints) {
  EnabledScope on(true);
  const std::int64_t n = 20, steps = 8;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(n * n * steps);
  const tel::WalkCounters trap =
      run_heat2(n, steps, Algorithm::kTrap, /*periodic=*/true);
  const tel::WalkCounters loops =
      run_heat2(n, steps, Algorithm::kLoopsSerial, /*periodic=*/true);
  EXPECT_EQ(trap.points_total(), expected);
  EXPECT_EQ(loops.points_total(), expected);
  EXPECT_EQ(loops.points_loops, expected);
  EXPECT_EQ(loops.loops_steps, static_cast<std::uint64_t>(steps));
  EXPECT_EQ(loops.base_cases(), 0u);
}

TEST(TelemetryCounters, Wave3DPointsConsistent) {
  EnabledScope on(true);
  const std::int64_t n = 10, steps = 4;
  Array<double, 3> a({n, n, n}, stencils::wave_shape().depth());
  a.register_boundary(periodic_boundary<double, 3>());
  a.fill_time(0, [](const auto&) { return 2.5; });
  a.fill_time(1, [](const auto&) { return 2.5; });
  Stencil<3, double> wave(stencils::wave_shape());
  wave.register_arrays(a);
  auto kern = stencils::wave_kernel(0.1);
  const tel::WalkCounters before = tel::walk_stats().snapshot();
  wave.run_serial(Algorithm::kTrap, steps, kern);
  const tel::WalkCounters d = tel::walk_stats().snapshot() - before;
  EXPECT_EQ(d.points_total(), static_cast<std::uint64_t>(n * n * n * steps));
  EXPECT_EQ(hist_sum(d.zoid_points_hist), d.base_cases());
}

/// STRAP's decomposition, pinned by its walk counters on fresh Stencils
/// with the heuristic options: one periodic 2D and one Dirichlet 3D case.
TEST(TelemetryCounters, StrapWalkCountersPinned) {
  EnabledScope on(true);
  const tel::WalkCounters heat =
      run_heat2(512, 40, Algorithm::kStrap, /*periodic=*/true);
  EXPECT_EQ(heat.space_cuts, 132u);
  EXPECT_EQ(heat.time_cuts, 1024u);
  EXPECT_EQ(heat.base_interior, 1040u);
  EXPECT_EQ(heat.base_boundary, 240u);

  const std::int64_t n = 64;
  Array<double, 3> a({n, n, n}, stencils::wave_shape().depth());
  a.register_boundary(dirichlet_boundary<double, 3>(0.0));
  a.fill_time(0, [](const auto&) { return 1.0; });
  a.fill_time(1, [](const auto&) { return 1.0; });
  Stencil<3, double> wave(stencils::wave_shape());
  wave.register_arrays(a);
  auto kern = stencils::wave_kernel(0.1);
  const tel::WalkCounters before = tel::walk_stats().snapshot();
  wave.run_serial(Algorithm::kStrap, 20, kern);
  const tel::WalkCounters d = tel::walk_stats().snapshot() - before;
  EXPECT_EQ(d.space_cuts, 1445u);
  EXPECT_EQ(d.time_cuts, 552u);
  EXPECT_EQ(d.base_interior, 0u);
  EXPECT_EQ(d.base_boundary, 3440u);
}

TEST(TelemetryCounters, SchedulerSpawnsEqualTasksRun) {
  EnabledScope on(true);
  rt::Scheduler& sched = rt::Scheduler::instance();
  const tel::SchedulerCounters before = rt::Scheduler::counters_now();
  constexpr int kTasks = 64;
  std::atomic<int> ran{0};
  rt::parallel_for(0, kTasks, 1, [&ran](std::int64_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  const tel::SchedulerCounters d = rt::Scheduler::counters_now() - before;
  EXPECT_EQ(ran.load(), kTasks);
  // Chunk 0 runs inline; with one thread the whole loop does.
  const std::uint64_t spawns =
      sched.num_threads() > 1 ? rt::kMaxChunks - 1 : 0;
  EXPECT_EQ(d.spawns, spawns);
  EXPECT_EQ(d.tasks_run, d.spawns);  // every spawned task ran exactly once
  EXPECT_LE(d.steals, d.tasks_run);
}

TEST(TelemetryTrace, SpansNestAndExportIsValidJson) {
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.reset();
  tracer.set_active(true);
  {
    trace::Span outer("outer", 1);
    {
      trace::Span middle("middle", 2);
      trace::Span inner("inner", 3);
    }
    trace::Span sibling("sibling", 4);
  }
  tracer.set_active(false);

  const auto logs = tracer.drain_copy();
  std::size_t total = 0;
  for (const auto& log : logs) {
    total += log.events.size();
    // Events sorted by begin; RAII spans must nest properly per thread:
    // a span beginning inside another must also end inside it.
    std::vector<trace::Event> evs = log.events;
    std::sort(evs.begin(), evs.end(),
              [](const trace::Event& a, const trace::Event& b) {
                return a.begin_ns < b.begin_ns;
              });
    std::vector<std::uint64_t> stack;
    for (const auto& ev : evs) {
      EXPECT_LE(ev.begin_ns, ev.end_ns);
      while (!stack.empty() && stack.back() <= ev.begin_ns) stack.pop_back();
      if (!stack.empty()) {
        EXPECT_LE(ev.end_ns, stack.back());
      }
      stack.push_back(ev.end_ns);
    }
  }
  EXPECT_EQ(total, 4u);

  const std::string path = "telemetry_test_trace.json";
  ASSERT_TRUE(trace::write_chrome_trace(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const auto lint = json::lint(text);
  EXPECT_TRUE(lint.ok) << lint.error << " at byte " << lint.pos;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"outer\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  std::filesystem::remove(path);
  tracer.reset();
}

TEST(TelemetryTrace, TracedWalkEmitsZoidSpans) {
  EnabledScope on(true);
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.reset();
  tracer.set_active(true);
  run_heat2(24, 8, Algorithm::kTrap, /*periodic=*/false);
  tracer.set_active(false);
  const auto logs = tracer.drain_copy();
  std::size_t zoids = 0, runs = 0;
  int max_depth = -1;
  for (const auto& log : logs) {
    for (const auto& ev : log.events) {
      const std::string name = ev.name;
      if (name == "zoid") {
        ++zoids;
        max_depth = ev.arg > max_depth ? static_cast<int>(ev.arg) : max_depth;
      }
      if (name == "stencil_run") ++runs;
    }
  }
  EXPECT_EQ(runs, 1u);
  EXPECT_GT(zoids, 0u);
  // The depth threshold bounds what gets recorded.
  EXPECT_LE(max_depth, trace::zoid_depth_limit());
  tracer.reset();
}

/// Number of spans called `name` recorded while `fn` runs.
template <typename F>
std::size_t count_spans(const std::string& name, F&& fn) {
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.reset();
  tracer.set_active(true);
  fn();
  tracer.set_active(false);
  std::size_t count = 0;
  for (const auto& log : tracer.drain_copy()) {
    for (const auto& ev : log.events) {
      if (ev.name == name) ++count;
    }
  }
  tracer.reset();
  return count;
}

/// Access sink for run_traced that only counts touches.
struct TouchCounter {
  std::int64_t touches = 0;
  void touch(const void*, std::size_t) { ++touches; }
};

TEST(TelemetryTrace, EveryRunEntryOpensOneStencilRunSpan) {
  namespace fs = std::filesystem;
  const std::int64_t n = 16, steps = 4;
  Array<double, 2> a({n, n}, stencils::heat_shape<2>().depth());
  a.register_boundary(periodic_boundary<double, 2>());
  stencils::fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> heat(stencils::heat_shape<2>());
  heat.register_arrays(a);
  const stencils::HeatCoeffs<2> c = {0.125, 0.125};
  auto kern = stencils::heat_kernel_2d(c);
  // Phase-1 style clone (closes over the array), as pochoirc emits it.
  auto phase1 = [&a](std::int64_t t, std::int64_t x, std::int64_t y) {
    a(t + 1, x, y) = 0.5 * a(t, x, y) +
                     0.125 * (a(t, x - 1, y) + a(t, x + 1, y) +
                              a(t, x, y - 1) + a(t, x, y + 1));
  };
  // A row clone over it, the unit of pochoirc's -split-pointer output.
  auto split_row = [&phase1](std::int64_t t,
                             const std::array<std::int64_t, 2>& i,
                             std::int64_t row_end) {
    for (std::int64_t y = i[1]; y < row_end; ++y) phase1(t, i[0], y);
  };
  TouchCounter sink;

  // A supervised run that "dies" after its first slab leaves a checkpoint
  // for resume() to finish in one slab.
  const fs::path dir = fs::path("telemetry_test_spans");
  fs::create_directories(dir);
  resilience::FaultPlan kill;
  kill.kill_after_slab = 0;
  resilience::SupervisorOptions crash;
  crash.slab_steps = steps;
  crash.checkpoint_path = (dir / "ck").string();
  crash.faults = &kill;
  ASSERT_EQ(heat.run_supervised(2 * steps, kern, crash).status,
            resilience::RunStatus::kSimulatedCrash);
  resilience::SupervisorOptions finish;
  finish.checkpoint_path = crash.checkpoint_path;

  const std::vector<std::pair<const char*, std::function<void()>>> entries = {
      {"run", [&] { heat.run(steps, kern); }},
      {"Run", [&] { heat.Run(steps, kern); }},
      {"run(alg)", [&] { heat.run(Algorithm::kStrap, steps, kern); }},
      {"run_serial",
       [&] { heat.run_serial(Algorithm::kLoopsParallel, steps, kern); }},
      {"run_supervised",
       [&] { EXPECT_TRUE(heat.run_supervised(steps, kern).ok()); }},
      {"resume", [&] { EXPECT_TRUE(heat.resume(kern, finish).ok()); }},
      {"run_loops_checked_everywhere",
       [&] { heat.run_loops_checked_everywhere(steps, kern); }},
      {"run_traced",
       [&] { heat.run_traced(Algorithm::kTrap, steps, kern, sink); }},
      {"run_debug", [&] { heat.run_debug(steps, kern); }},
      {"run_cloned", [&] { heat.run_cloned(steps, phase1, phase1); }},
      {"run_split", [&] { heat.run_split(steps, split_row, phase1); }},
      {"run_linear",
       [&] { heat.run_linear(steps, stencils::heat_linear<2>(c)); }},
  };
  for (const auto& [name, call] : entries) {
    EXPECT_EQ(count_spans("stencil_run", call), 1u) << name;
  }
  EXPECT_GT(sink.touches, 0);
  fs::remove_all(dir);
}

TEST(TelemetryExport, SessionAndRegistrySnapshotAreValidJson) {
  {
    trace::Session session("test/heat2", /*force_enable=*/true);
    run_heat2(16, 4, Algorithm::kTrap, /*periodic=*/false);
    const tel::RunTelemetry t = session.finish();
    EXPECT_EQ(t.label, "test/heat2");
    EXPECT_GT(t.seconds, 0.0);
    EXPECT_EQ(t.points(), static_cast<std::uint64_t>(16 * 16 * 4));
    EXPECT_GT(t.points_per_s(), 0.0);
    const auto lint = json::lint(tel::to_json(t));
    EXPECT_TRUE(lint.ok) << lint.error;
  }
  // Session restored the flag (it was off at construction).
  EXPECT_FALSE(tel::enabled());

  const std::string path = "telemetry_test_snapshot.json";
  ASSERT_TRUE(tel::Registry::instance().export_json(path));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto lint = json::lint(buf.str());
  EXPECT_TRUE(lint.ok) << lint.error << " at byte " << lint.pos;
  EXPECT_NE(buf.str().find("pochoir-telemetry-v1"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(TelemetryExport, RegistryKeepsOnlyCountedOrExportedSessions) {
  ASSERT_FALSE(tel::enabled());
  const std::size_t before = tel::Registry::instance().sessions().size();
  // Counters off and no export asked for: nothing is kept.
  for (int i = 0; i < 1000; ++i) {
    trace::Session session("test/off");
  }
  EXPECT_EQ(tel::Registry::instance().sessions().size(), before);
  {
    trace::Session session("test/counted", /*force_enable=*/true);
  }
  EXPECT_EQ(tel::Registry::instance().sessions().size(), before + 1);
}

TEST(TelemetryOverhead, DisabledAndCounterOnlyPathsAreAllocationFree) {
  const std::int64_t n = 32, steps = 8;
  Array<double, 2> a({n, n}, stencils::heat_shape<2>().depth());
  a.register_boundary(dirichlet_boundary<double, 2>(0.0));
  stencils::fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> heat(stencils::heat_shape<2>());
  heat.register_arrays(a);
  auto kern = stencils::heat_kernel_2d({0.125, 0.125});
  // Warm up lazily-created singletons (walk stats, tracer) outside the
  // measured region.
  (void)tel::walk_stats().snapshot();
  (void)trace::Tracer::instance().active();

  // Every engine on the calling thread, the parallel loops, and a
  // default-options supervised run (parallel TRAP behind the supervisor).
  auto run_all = [&] {
    for (Algorithm alg : {Algorithm::kTrap, Algorithm::kStrap,
                          Algorithm::kLoopsParallel, Algorithm::kLoopsSerial}) {
      heat.run_serial(alg, steps, kern);
    }
    heat.run(Algorithm::kLoopsParallel, steps, kern);
    (void)heat.run_supervised(steps, kern);
  };
  run_all();  // creates the scheduler pool outside the measured region

  // Telemetry off (the default): the runs stay allocation-free.
  {
    ASSERT_FALSE(tel::enabled());
    g_allocs.store(0);
    g_counting.store(true);
    run_all();
    g_counting.store(false);
    EXPECT_EQ(g_allocs.load(), 0);
  }
  // Counters on, tracing off: relaxed atomics only — still no allocation.
  {
    EnabledScope on(true);
    g_allocs.store(0);
    g_counting.store(true);
    run_all();
    g_counting.store(false);
    EXPECT_EQ(g_allocs.load(), 0);
  }
}

TEST(TelemetrySupervised, RunReportCarriesSlabAndCheckpointTelemetry) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path("telemetry_test_ckpt");
  fs::create_directories(dir);
  const std::int64_t n = 16, steps = 8;
  Array<double, 2> a({n, n}, stencils::heat_shape<2>().depth());
  a.register_boundary(dirichlet_boundary<double, 2>(0.0));
  stencils::fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> heat(stencils::heat_shape<2>());
  heat.register_arrays(a);
  auto kern = stencils::heat_kernel_2d({0.125, 0.125});

  resilience::SupervisorOptions opts;
  opts.slab_steps = 2;
  opts.checkpoint_path = (dir / "ck").string();
  const resilience::RunReport rep = heat.run_supervised(steps, kern, opts);
  ASSERT_TRUE(rep.ok()) << rep.message;
  EXPECT_EQ(rep.steps_completed, steps);
  EXPECT_EQ(rep.slabs_completed, 4);
  EXPECT_EQ(rep.checkpoints_written, 4);
  EXPECT_GT(rep.slab_seconds, 0.0);
  EXPECT_GE(rep.checkpoint_seconds, 0.0);
  // Each checkpoint snapshots the full array (all time levels).
  const std::int64_t bytes_per_ckpt =
      static_cast<std::int64_t>(a.total_size()) *
      static_cast<std::int64_t>(sizeof(double));
  EXPECT_EQ(rep.checkpoint_bytes, rep.checkpoints_written * bytes_per_ckpt);
  fs::remove_all(dir);
}

TEST(TelemetrySupervised, EveryRestorePointCaptureOpensOneSpan) {
  const std::int64_t n = 16, steps = 8;
  Array<double, 2> a({n, n}, stencils::heat_shape<2>().depth());
  a.register_boundary(dirichlet_boundary<double, 2>(0.0));
  stencils::fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> heat(stencils::heat_shape<2>());
  heat.register_arrays(a);
  auto kern = stencils::heat_kernel_2d({0.125, 0.125});

  resilience::SupervisorOptions slabs;
  slabs.slab_steps = 2;
  auto sliced = [&] {
    EXPECT_TRUE(heat.run_supervised(steps, kern, slabs).ok());
  };
  auto plain = [&] { EXPECT_TRUE(heat.run_supervised(steps, kern).ok()); };
  // Four slabs: one capture before slab 0 and one after each slab but the
  // last.
  EXPECT_EQ(count_spans("restore_point", sliced), 4u);
  // The default options protect nothing, so nothing is captured.
  EXPECT_EQ(count_spans("restore_point", plain), 0u);
}

/// A 2D heat Stencil whose supervised run of 8 steps in 2-step slabs
/// (checkpoints under `dir`) was killed after its second slab: generation 2
/// on disk holds 4 steps, and so do the arrays.
struct KilledRun {
  static constexpr std::int64_t kN = 24;
  Array<double, 2> a{{kN, kN}, stencils::heat_shape<2>().depth()};
  Stencil<2, double> heat{stencils::heat_shape<2>()};
  decltype(stencils::heat_kernel_2d({})) kern =
      stencils::heat_kernel_2d({0.125, 0.125});
  resilience::SupervisorOptions opts;

  explicit KilledRun(const std::filesystem::path& dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    a.register_boundary(dirichlet_boundary<double, 2>(0.0));
    stencils::fill_random(a, 0, 0.0, 1.0);
    heat.register_arrays(a);
    opts.slab_steps = 2;
    opts.checkpoint_path = (dir / "ck").string();
    resilience::FaultPlan kill;
    kill.kill_after_slab = 1;
    resilience::SupervisorOptions killed = opts;
    killed.faults = &kill;
    EXPECT_EQ(heat.run_supervised(8, kern, killed).status,
              resilience::RunStatus::kSimulatedCrash);
  }
};

TEST(TelemetrySupervised, ResumeDoesNotRecaptureTheRestoredState) {
  const std::filesystem::path dir = "telemetry_test_resume_spans";
  KilledRun run(dir);
  ASSERT_EQ(run.heat.steps_done(), 4);
  // Two 2-step slabs left: the restored generation is the opening rollback
  // point, so only the two slab boundaries capture (the second to write
  // its checkpoint).
  const std::size_t spans = count_spans("restore_point", [&] {
    const resilience::RunReport rep = run.heat.resume(run.kern, run.opts);
    EXPECT_TRUE(rep.ok()) << rep.message;
    EXPECT_EQ(rep.slabs_completed, 2);
  });
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(run.heat.steps_done(), 8);
  std::filesystem::remove_all(dir);
}

TEST(TelemetrySupervised, CancelledResumeRollsBackToTheLoadedGeneration) {
  const std::filesystem::path dir = "telemetry_test_resume_cancel";
  KilledRun run(dir);
  // The arrays hold what generation 2 holds; scribble over them so only
  // the resume's restore can bring it back.
  const std::vector<double> loaded(run.a.data(),
                                   run.a.data() + run.a.total_size());
  std::fill(run.a.data(), run.a.data() + run.a.total_size(), -1.0);
  run.heat.reset();
  resilience::FaultPlan cancel;
  cancel.cancel_at_slab = 0;
  resilience::SupervisorOptions opts = run.opts;
  opts.faults = &cancel;
  const resilience::RunReport rep = run.heat.resume(run.kern, opts);
  EXPECT_EQ(rep.status, resilience::RunStatus::kCancelled) << rep.message;
  EXPECT_EQ(rep.steps_completed, 0);
  EXPECT_EQ(run.heat.steps_done(), 4);
  EXPECT_TRUE(std::equal(loaded.begin(), loaded.end(), run.a.data()));
  std::filesystem::remove_all(dir);
}

TEST(TelemetrySupervised, SnapshotBufferIsAllocatedOnce) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path("telemetry_test_snapshot_once");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::int64_t n = 256, steps = 8;
  Array<double, 2> a({n, n}, stencils::heat_shape<2>().depth());
  a.register_boundary(dirichlet_boundary<double, 2>(0.0));
  stencils::fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> heat(stencils::heat_shape<2>());
  heat.register_arrays(a);
  auto kern = stencils::heat_kernel_2d({0.125, 0.125});
  heat.run(steps, kern);  // creates the scheduler pool outside the count

  resilience::SupervisorOptions opts;
  opts.slab_steps = 2;
  opts.checkpoint_path = (dir / "ck").string();
  opts.health_check = true;
  // Allocations of at least the state's size (every time level) in `fn`.
  auto state_sized_allocs = [&](const std::function<void()>& fn) {
    g_big_bytes.store(static_cast<std::size_t>(a.total_size()) *
                      sizeof(double));
    g_big_allocs.store(0);
    g_counting.store(true);
    fn();
    g_counting.store(false);
    return g_big_allocs.load();
  };
  const std::int64_t first = state_sized_allocs([&] {
    EXPECT_TRUE(heat.run_supervised(steps, kern, opts).ok());
  });
  // A second run, killed after its second slab, and a resume that loads
  // its checkpoint and finishes it reuse the first run's buffer.
  resilience::FaultPlan kill;
  kill.kill_after_slab = 1;
  resilience::SupervisorOptions killed = opts;
  killed.faults = &kill;
  const std::int64_t second = state_sized_allocs([&] {
    EXPECT_EQ(heat.run_supervised(steps, kern, killed).status,
              resilience::RunStatus::kSimulatedCrash);
  });
  const std::int64_t resumed = state_sized_allocs([&] {
    const resilience::RunReport rep = heat.resume(kern, opts);
    EXPECT_TRUE(rep.ok()) << rep.message;
    EXPECT_EQ(rep.steps_requested, steps / 2);
  });
  EXPECT_EQ(first, 1) << "first supervised run";
  EXPECT_EQ(second, 0) << "second supervised run";
  EXPECT_EQ(resumed, 0) << "resume";
  EXPECT_EQ(heat.steps_done(), 3 * steps);
  fs::remove_all(dir);
}

TEST(JsonLint, AcceptsValidDocuments) {
  const char* good[] = {
      "{}",
      "[]",
      "null",
      "true",
      "-12.5e3",
      "\"str with \\\"escape\\\" and \\u00e9\"",
      "{\"a\": [1, 2, {\"b\": null}], \"c\": -0.5}",
      "  [1, 2, 3]\n",
  };
  for (const char* doc : good) {
    const auto r = json::lint(doc);
    EXPECT_TRUE(r.ok) << doc << " -> " << r.error;
  }
}

TEST(JsonLint, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",
      "{",
      "[1, 2,]",
      "{\"a\" 1}",
      "{\"a\": 1,}",
      "nul",
      "01",
      "1.",
      "\"unterminated",
      "\"bad \\x escape\"",
      "[1] trailing",
      "{'single': 1}",
  };
  for (const char* doc : bad) {
    const auto r = json::lint(doc);
    EXPECT_FALSE(r.ok) << doc << " unexpectedly accepted";
  }
}

}  // namespace
}  // namespace pochoir
