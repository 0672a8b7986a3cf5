// Tests for the resilient execution layer: slab checkpoint/restore
// round-trips across the Figure 3 kernels, corruption fallback, the last
// generation of a finished run, cooperative cancellation and deadlines,
// numerical health scans, fault injection, graceful degradation,
// supervised runs over two arrays of different cell types, and the
// crash-safe file writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/boundary.hpp"
#include "core/stencil.hpp"
#include "resilience/checkpoint.hpp"
#include "runtime/parallel.hpp"
#include "stencils/apop.hpp"
#include "stencils/common.hpp"
#include "stencils/heat.hpp"
#include "stencils/lbm.hpp"
#include "stencils/lcs.hpp"
#include "stencils/life.hpp"
#include "stencils/psa.hpp"
#include "stencils/rna.hpp"
#include "stencils/wave.hpp"
#include "support/atomic_file.hpp"
#include "support/rng.hpp"

namespace pochoir {
namespace {

namespace fs = std::filesystem;
namespace rs = resilience;
using namespace stencils;

/// Fresh scratch directory for one test's checkpoint generations.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "pochoir_resilience_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

template <typename T, int D>
bool storage_equal(const Array<T, D>& a, const Array<T, D>& b) {
  if (a.total_size() != b.total_size()) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(T) * static_cast<std::size_t>(a.total_size())) == 0;
}

/// Checkpoint round-trip: run supervised with slabbing, crash (simulated)
/// after slab 1, resume from disk in a fresh stencil, and require the final
/// state to be bit-identical to an uninterrupted run.
template <int D, typename CellT, typename KernFactory, typename Init>
void round_trip_case(const std::string& name, Shape<D> shape,
                     std::array<std::int64_t, D> extents,
                     BoundaryFn<CellT, D> boundary, std::int64_t steps,
                     std::int64_t slab, KernFactory kern_factory, Init init) {
  const std::string base = scratch_dir("rt_" + name) + "/ck";

  // Reference: the same computation, uninterrupted.
  Array<CellT, D> ref(extents, shape.depth());
  ref.register_boundary(boundary);
  init(ref);
  Stencil<D, CellT> sref(shape);
  sref.register_arrays(ref);
  {
    auto kern = kern_factory();
    sref.run(steps, kern);
  }

  // Supervised run that "dies" after slab 1's checkpoint hits disk.
  Array<CellT, D> a(extents, shape.depth());
  a.register_boundary(boundary);
  init(a);
  Stencil<D, CellT> st(shape);
  st.register_arrays(a);
  rs::FaultPlan faults;
  faults.kill_after_slab = 1;
  rs::SupervisorOptions opts;
  opts.slab_steps = slab;
  opts.checkpoint_path = base;
  opts.faults = &faults;
  {
    auto kern = kern_factory();
    const rs::RunReport rep = st.run_supervised(steps, kern, opts);
    ASSERT_EQ(rep.status, rs::RunStatus::kSimulatedCrash) << rep.message;
    ASSERT_EQ(rep.steps_completed, 2 * slab);
    ASSERT_GE(rep.checkpoints_written, 2);
  }

  // "Process restart": fresh array (uninitialized) + fresh stencil; resume
  // restores the newest checkpoint and finishes the run.
  Array<CellT, D> b(extents, shape.depth());
  b.register_boundary(boundary);
  Stencil<D, CellT> st2(shape);
  st2.register_arrays(b);
  rs::SupervisorOptions ropts;
  ropts.slab_steps = slab;
  ropts.checkpoint_path = base;
  {
    auto kern = kern_factory();
    const rs::RunReport rep = st2.resume(kern, ropts);
    ASSERT_TRUE(rep.ok()) << rep.message;
    ASSERT_TRUE(rep.resumed);
    ASSERT_EQ(rep.steps_completed, steps - 2 * slab);
  }
  EXPECT_EQ(st2.steps_done(), steps);
  EXPECT_TRUE(storage_equal(b, ref)) << name << ": resumed state diverged";
}

TEST(ResilienceRoundTrip, Heat2) {
  round_trip_case<2, double>(
      "heat2", heat_shape<2>(), {24, 24}, dirichlet_boundary<double, 2>(0.0),
      12, 3, [] { return heat_kernel_2d({0.125, 0.125}); },
      [](Array<double, 2>& u) { fill_random(u, 0, 0.0, 1.0); });
}

TEST(ResilienceRoundTrip, Heat2Periodic) {
  round_trip_case<2, double>(
      "heat2p", heat_shape<2>(), {24, 24}, periodic_boundary<double, 2>(), 12,
      3, [] { return heat_kernel_2d({0.125, 0.125}); },
      [](Array<double, 2>& u) { fill_random(u, 0, 0.0, 1.0); });
}

TEST(ResilienceRoundTrip, Heat4) {
  round_trip_case<4, double>(
      "heat4", heat_shape<4>(), {6, 6, 6, 6},
      dirichlet_boundary<double, 4>(0.0), 8, 2,
      [] { return heat_kernel_4d({0.06, 0.06, 0.06, 0.06}); },
      [](Array<double, 4>& u) { fill_random(u, 0, 0.0, 1.0); });
}

TEST(ResilienceRoundTrip, Life2Periodic) {
  round_trip_case<2, LifeCell>(
      "life2p", life_shape(), {20, 20}, periodic_boundary<LifeCell, 2>(), 12,
      3, [] { return life_kernel(); },
      [](Array<LifeCell, 2>& u) {
        Rng rng(3);
        u.fill_time(0, [&](const std::array<std::int64_t, 2>&) {
          return static_cast<LifeCell>(rng.next_below(2));
        });
      });
}

TEST(ResilienceRoundTrip, Wave3) {
  round_trip_case<3, double>(
      "wave3", wave_shape(), {10, 10, 10}, dirichlet_boundary<double, 3>(0.0),
      8, 2, [] { return wave_kernel(0.1); },
      [](Array<double, 3>& u) {
        fill_random(u, 0, -0.1, 0.1);
        u.fill_time(1, [&](const std::array<std::int64_t, 3>& i) {
          return u.at(0, i);
        });
      });
}

TEST(ResilienceRoundTrip, Lbm3) {
  round_trip_case<3, LbmCell>(
      "lbm3", lbm_shape(), {8, 8, 10}, periodic_boundary<LbmCell, 3>(), 8, 2,
      [] { return lbm_kernel(0.7); },
      [](Array<LbmCell, 3>& u) { lbm_init(u, 0); });
}

TEST(ResilienceRoundTrip, Rna2) {
  const auto seq = random_sequence(24, 4, 17);
  round_trip_case<2, RnaCell>(
      "rna2", rna_shape(), {24, 24}, zero_boundary<RnaCell, 2>(), 16, 4,
      [seq] { return rna_kernel(seq); },
      [](Array<RnaCell, 2>& g) {
        g.fill_time(0, [](const auto&) { return 0; });
      });
}

TEST(ResilienceRoundTrip, Psa1) {
  const std::int64_t n = 24;
  const auto a_seq = random_sequence(n, 4, 21);
  const auto b_seq = random_sequence(n, 4, 22);
  const PsaCell border{psa_neg_inf, psa_neg_inf, psa_neg_inf};
  round_trip_case<1, PsaCell>(
      "psa1", psa_shape(), {n + 1}, dirichlet_boundary<PsaCell, 1>(border),
      2 * n - 1, 8, [a_seq, b_seq] { return psa_kernel(a_seq, b_seq); },
      [border](Array<PsaCell, 1>& g) {
        g.fill_time(0, [&](const std::array<std::int64_t, 1>& i) {
          return i[0] == 0 ? PsaCell{0, psa_neg_inf, psa_neg_inf} : border;
        });
        g.fill_time(1, [&](const std::array<std::int64_t, 1>& i) {
          if (i[0] == 0) return PsaCell{psa_neg_inf, psa_neg_inf, -3};
          if (i[0] == 1) return PsaCell{psa_neg_inf, -3, psa_neg_inf};
          return border;
        });
      });
}

TEST(ResilienceRoundTrip, Lcs1) {
  const std::int64_t n = 24;
  const auto a_seq = random_sequence(n, 4, 31);
  const auto b_seq = random_sequence(n, 4, 32);
  round_trip_case<1, LcsCell>(
      "lcs1", lcs_shape(), {n + 1}, zero_boundary<LcsCell, 1>(), 2 * n - 1, 8,
      [a_seq, b_seq] { return lcs_kernel(a_seq, b_seq); },
      [](Array<LcsCell, 1>& g) {
        g.fill_time(0, [](const auto&) { return 0; });
        g.fill_time(1, [](const auto&) { return 0; });
      });
}

TEST(ResilienceRoundTrip, Apop1) {
  ApopParams p;
  p.grid = 64;
  p.steps = 12;
  p.maturity = 0.9 /
               (p.sigma * p.sigma / (p.dxi() * p.dxi()) + p.rate) *
               static_cast<double>(p.steps);
  round_trip_case<1, double>(
      "apop1", apop_shape(), {p.grid},
      BoundaryFn<double, 1>([p](const Array<double, 1>&, std::int64_t,
                                const std::array<std::int64_t, 1>& idx)
                                -> double {
        return idx[0] < 0 ? p.payoff(idx[0]) : 0.0;
      }),
      p.steps, 3, [p] { return apop_kernel(p); },
      [p](Array<double, 1>& v) {
        v.fill_time(0, [&](const std::array<std::int64_t, 1>& i) {
          return p.payoff(i[0]);
        });
      });
}

// --- corruption fallback ---------------------------------------------------

struct CheckpointFixture {
  std::string base;
  Array<double, 2> ref{{20, 20}, 1};
  std::int64_t steps = 12;
  std::int64_t slab = 3;

  explicit CheckpointFixture(const std::string& name)
      : base(scratch_dir(name) + "/ck") {
    ref.register_boundary(periodic_boundary<double, 2>());
    fill_random(ref, 0, 0.0, 1.0);
    Stencil<2, double> sref(heat_shape<2>());
    sref.register_arrays(ref);
    auto kern = heat_kernel_2d({0.125, 0.125});
    sref.run(steps, kern);
  }

  /// Runs a crash-interrupted supervised run, leaving >= 2 generations.
  void populate(int keep_generations = 4) {
    Array<double, 2> a({20, 20}, 1);
    a.register_boundary(periodic_boundary<double, 2>());
    fill_random(a, 0, 0.0, 1.0);
    Stencil<2, double> st(heat_shape<2>());
    st.register_arrays(a);
    rs::FaultPlan faults;
    faults.kill_after_slab = 2;
    rs::SupervisorOptions opts;
    opts.slab_steps = slab;
    opts.checkpoint_path = base;
    opts.keep_generations = keep_generations;
    opts.faults = &faults;
    auto kern = heat_kernel_2d({0.125, 0.125});
    const rs::RunReport rep = st.run_supervised(steps, kern, opts);
    ASSERT_EQ(rep.status, rs::RunStatus::kSimulatedCrash) << rep.message;
    ASSERT_GE(rs::list_checkpoints(base).size(), 2u);
  }

  rs::RunReport resume_fresh(Array<double, 2>& b) {
    b.register_boundary(periodic_boundary<double, 2>());
    Stencil<2, double> st(heat_shape<2>());
    st.register_arrays(b);
    rs::SupervisorOptions opts;
    opts.slab_steps = slab;
    opts.checkpoint_path = base;
    auto kern = heat_kernel_2d({0.125, 0.125});
    return st.resume(kern, opts);
  }
};

void flip_byte(const std::string& path, std::int64_t offset_from_end) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(-offset_from_end), SEEK_END);
  const int c = std::fgetc(f);
  std::fseek(f, static_cast<long>(-offset_from_end), SEEK_END);
  std::fputc(c ^ 0x5A, f);
  std::fclose(f);
}

TEST(ResilienceCheckpoint, CorruptedNewestFallsBackToOlderGeneration) {
  CheckpointFixture fx("corrupt_newest");
  fx.populate();
  const auto gens = rs::list_checkpoints(fx.base);
  flip_byte(gens.back().second, /*offset_from_end=*/64);  // payload byte
  rs::Snapshot snap;
  ASSERT_FALSE(rs::load_checkpoint_file(gens.back().second, snap));
  Array<double, 2> b({20, 20}, 1);
  const rs::RunReport rep = fx.resume_fresh(b);
  ASSERT_TRUE(rep.ok()) << rep.message;
  // Fallback re-ran from an older generation; final state still identical.
  EXPECT_TRUE(storage_equal(b, fx.ref));
}

/// Overwrites the i64 at `offset` of a generation file and re-seals its CRC,
/// so only the loader's own checks can reject the edit.
void forge_i64(const std::string& path, std::size_t offset,
               std::int64_t value) {
  std::vector<unsigned char> raw(fs::file_size(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fread(raw.data(), 1, raw.size(), f), raw.size());
  std::fclose(f);
  std::memcpy(raw.data() + offset, &value, sizeof value);
  const std::size_t body = raw.size() - sizeof(std::uint32_t);
  const std::uint32_t crc = rs::crc32c(0, raw.data(), body);
  std::memcpy(raw.data() + body, &crc, sizeof crc);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(raw.data(), 1, raw.size(), f), raw.size());
  std::fclose(f);
}

TEST(ResilienceCheckpoint, ImpossibleStepCountsFallBack) {
  CheckpointFixture fx("impossible_steps");
  fx.populate();
  const std::string newest = rs::list_checkpoints(fx.base).back().second;
  // A CRC-valid generation claiming -5 of 40 steps done: resumed as is, it
  // would run 45 steps on arrays that already hold some.
  forge_i64(newest, /*steps_done at*/ 16, -5);
  forge_i64(newest, /*steps_target at*/ 24, 40);
  rs::Snapshot snap;
  EXPECT_FALSE(rs::load_checkpoint_file(newest, snap));
  Array<double, 2> b({20, 20}, 1);
  const rs::RunReport rep = fx.resume_fresh(b);
  ASSERT_TRUE(rep.ok()) << rep.message;
  EXPECT_LT(rep.steps_requested, fx.steps);
  EXPECT_TRUE(storage_equal(b, fx.ref));
}

TEST(ResilienceCheckpoint, TruncatedNewestFallsBack) {
  CheckpointFixture fx("truncate_newest");
  fx.populate();
  const auto gens = rs::list_checkpoints(fx.base);
  fs::resize_file(gens.back().second,
                  fs::file_size(gens.back().second) / 2);
  Array<double, 2> b({20, 20}, 1);
  const rs::RunReport rep = fx.resume_fresh(b);
  ASSERT_TRUE(rep.ok()) << rep.message;
  EXPECT_TRUE(storage_equal(b, fx.ref));
}

TEST(ResilienceCheckpoint, HugePayloadLengthFallsBack) {
  CheckpointFixture fx("huge_payload_length");
  fx.populate();
  const std::string newest = rs::list_checkpoints(fx.base).back().second;
  std::vector<unsigned char> raw(fs::file_size(newest));
  std::FILE* f = std::fopen(newest.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fread(raw.data(), 1, raw.size(), f), raw.size());
  std::fclose(f);
  // The fixture's one 2D array has its payload length at byte 76.
  constexpr std::size_t kLengthAt = 76;
  std::uint64_t length = 0;
  std::memcpy(&length, raw.data() + kLengthAt, sizeof length);
  rs::Snapshot snap;
  ASSERT_TRUE(rs::load_checkpoint_file(newest, snap));
  ASSERT_EQ(length, snap.arrays[0].bytes);
  // A CRC-valid generation whose length, 2^64 - 17, wraps pos + length.
  length = ~std::uint64_t{0} - 16;
  std::memcpy(raw.data() + kLengthAt, &length, sizeof length);
  const std::size_t body = raw.size() - sizeof(std::uint32_t);
  const std::uint32_t crc = rs::crc32c(0, raw.data(), body);
  std::memcpy(raw.data() + body, &crc, sizeof crc);
  f = std::fopen(newest.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(raw.data(), 1, raw.size(), f), raw.size());
  std::fclose(f);

  EXPECT_FALSE(rs::load_checkpoint_file(newest, snap));
  Array<double, 2> b({20, 20}, 1);
  const rs::RunReport rep = fx.resume_fresh(b);
  ASSERT_TRUE(rep.ok()) << rep.message;
  EXPECT_TRUE(storage_equal(b, fx.ref));
}

TEST(ResilienceCheckpoint, AllGenerationsCorruptReportsError) {
  CheckpointFixture fx("corrupt_all");
  fx.populate();
  for (const auto& [gen, path] : rs::list_checkpoints(fx.base)) {
    flip_byte(path, 16);
  }
  Array<double, 2> b({20, 20}, 1);
  const rs::RunReport rep = fx.resume_fresh(b);
  EXPECT_EQ(rep.status, rs::RunStatus::kCheckpointError);
  EXPECT_FALSE(rep.message.empty());
}

TEST(ResilienceCheckpoint, LayoutMismatchReportsError) {
  CheckpointFixture fx("layout_mismatch");
  fx.populate();
  // Same stencil, different grid: a valid snapshot that must not be
  // memcpy'd into mismatched storage.
  Array<double, 2> b({24, 24}, 1);
  b.register_boundary(periodic_boundary<double, 2>());
  Stencil<2, double> st(heat_shape<2>());
  st.register_arrays(b);
  rs::SupervisorOptions opts;
  opts.checkpoint_path = fx.base;
  auto kern = heat_kernel_2d({0.125, 0.125});
  const rs::RunReport rep = st.resume(kern, opts);
  EXPECT_EQ(rep.status, rs::RunStatus::kCheckpointError);
  EXPECT_NE(rep.message.find("mismatch"), std::string::npos) << rep.message;
}

TEST(ResilienceCheckpoint, LastGenerationHoldsTheFinishedRun) {
  // In slabs the last boundary is captured only to be written; without
  // slabs (nothing to protect) so is the run's one boundary.
  for (const std::int64_t slab : {3, 0}) {
    const std::string base =
        scratch_dir("last_generation_" + std::to_string(slab)) + "/ck";
    Array<double, 2> a({20, 20}, 1);
    a.register_boundary(periodic_boundary<double, 2>());
    fill_random(a, 0, 0.0, 1.0);
    Stencil<2, double> st(heat_shape<2>());
    st.register_arrays(a);
    rs::SupervisorOptions opts;
    opts.slab_steps = slab;
    opts.checkpoint_path = base;
    auto kern = heat_kernel_2d({0.125, 0.125});
    ASSERT_TRUE(st.run_supervised(12, kern, opts).ok());
    rs::Snapshot last;
    ASSERT_TRUE(rs::load_checkpoint_file(
        rs::list_checkpoints(base).back().second, last));
    EXPECT_EQ(last.meta.steps_done, 12) << "slab_steps " << slab;
    EXPECT_EQ(last.meta.steps_target, 12) << "slab_steps " << slab;
    ASSERT_EQ(last.arrays.size(), 1u);
    EXPECT_EQ(std::memcmp(last.arrays[0].data, a.data(), last.arrays[0].bytes),
              0)
        << "slab_steps " << slab;
  }
}

TEST(ResilienceCheckpoint, OldGenerationsArePruned) {
  CheckpointFixture fx("prune");
  fx.populate(/*keep_generations=*/2);
  EXPECT_LE(rs::list_checkpoints(fx.base).size(), 2u);
}

// --- cancellation and deadlines --------------------------------------------

TEST(ResilienceCancel, MidSlabCancellationRollsBackToSlabBoundary) {
  Array<double, 2> ref({20, 20}, 1);
  ref.register_boundary(periodic_boundary<double, 2>());
  fill_random(ref, 0, 0.0, 1.0);
  Stencil<2, double> sref(heat_shape<2>());
  sref.register_arrays(ref);
  auto kern = heat_kernel_2d({0.125, 0.125});

  Array<double, 2> a({20, 20}, 1);
  a.register_boundary(periodic_boundary<double, 2>());
  fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> st(heat_shape<2>());
  st.register_arrays(a);
  rs::FaultPlan faults;
  faults.cancel_at_slab = 1;
  faults.cancel_after_calls = 50;
  rs::SupervisorOptions opts;
  opts.slab_steps = 3;
  opts.faults = &faults;
  const rs::RunReport rep = st.run_supervised(12, kern, opts);
  ASSERT_EQ(rep.status, rs::RunStatus::kCancelled) << rep.message;
  EXPECT_EQ(rep.steps_completed, 3);
  EXPECT_EQ(st.steps_done(), 3);

  // Consistency: arrays hold exactly the 3-step state...
  sref.run(3, kern);
  EXPECT_TRUE(storage_equal(a, ref));
  // ...and a follow-up supervised run finishes the job bit-identically.
  const rs::RunReport rep2 = st.run_supervised(9, kern, {});
  ASSERT_TRUE(rep2.ok()) << rep2.message;
  sref.run(9, kern);
  EXPECT_TRUE(storage_equal(a, ref));
}

TEST(ResilienceCancel, ExpiredDeadlineStopsAtSlabBoundary) {
  Array<double, 2> a({20, 20}, 1);
  a.register_boundary(periodic_boundary<double, 2>());
  fill_random(a, 0, 0.0, 1.0);
  Array<double, 2> before({20, 20}, 1);
  std::memcpy(before.data(), a.data(),
              sizeof(double) * static_cast<std::size_t>(a.total_size()));
  Stencil<2, double> st(heat_shape<2>());
  st.register_arrays(a);
  auto kern = heat_kernel_2d({0.125, 0.125});
  rs::SupervisorOptions opts;
  opts.slab_steps = 2;
  opts.deadline_ms = 0;  // already expired at the first boundary check
  const rs::RunReport rep = st.run_supervised(10, kern, opts);
  EXPECT_EQ(rep.status, rs::RunStatus::kDeadlineExceeded);
  EXPECT_EQ(rep.steps_completed, 0);
  EXPECT_TRUE(storage_equal(a, before));
  // The deadline was scoped to that call: a follow-up run completes.
  const rs::RunReport rep2 = st.run_supervised(10, kern, {});
  EXPECT_TRUE(rep2.ok()) << rep2.message;
  EXPECT_EQ(st.steps_done(), 10);
}

TEST(ResilienceCancel, DeadlineMidRunLeavesWholeSlabs) {
  Array<double, 2> a({48, 48}, 1);
  a.register_boundary(periodic_boundary<double, 2>());
  fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> st(heat_shape<2>());
  st.register_arrays(a);
  auto kern = heat_kernel_2d({0.125, 0.125});
  rs::SupervisorOptions opts;
  opts.slab_steps = 4;
  opts.deadline_ms = 30;
  const rs::RunReport rep = st.run_supervised(100000, kern, opts);
  // Whether the deadline fires mid-slab or at a boundary, only whole slabs
  // may remain.
  EXPECT_EQ(rep.status, rs::RunStatus::kDeadlineExceeded);
  EXPECT_EQ(rep.steps_completed % 4, 0);
  EXPECT_EQ(st.steps_done(), rep.steps_completed);
}

// --- health monitoring ------------------------------------------------------

TEST(ResilienceHealth, InjectedNaNRollsBackAndReports) {
  Array<double, 2> ref({20, 20}, 1);
  ref.register_boundary(periodic_boundary<double, 2>());
  fill_random(ref, 0, 0.0, 1.0);
  Stencil<2, double> sref(heat_shape<2>());
  sref.register_arrays(ref);
  auto kern = heat_kernel_2d({0.125, 0.125});
  sref.run(3, kern);

  Array<double, 2> a({20, 20}, 1);
  a.register_boundary(periodic_boundary<double, 2>());
  fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> st(heat_shape<2>());
  st.register_arrays(a);
  rs::FaultPlan faults;
  faults.poison_after_slab = 1;
  faults.poison_flat_index = 37;
  rs::SupervisorOptions opts;
  opts.slab_steps = 3;
  opts.health_check = true;
  opts.faults = &faults;
  const rs::RunReport rep = st.run_supervised(12, kern, opts);
  ASSERT_EQ(rep.status, rs::RunStatus::kNumericalError) << rep.message;
  EXPECT_NE(rep.message.find("non-finite"), std::string::npos) << rep.message;
  // Rolled back to the last healthy boundary: slab 0's 3-step state, with
  // the planted NaN gone.
  EXPECT_EQ(rep.steps_completed, 3);
  EXPECT_TRUE(storage_equal(a, ref));
}

TEST(ResilienceHealth, DivergenceLimitCatchesBlowup) {
  Array<double, 1> a({16}, 1);
  a.register_boundary(periodic_boundary<double, 1>());
  a.fill_time(0, [](const auto&) { return 1.0; });
  Shape<1> s = {{1, 0}, {0, 0}, {0, 1}, {0, -1}};
  Stencil<1, double> st(s);
  st.register_arrays(a);
  // Unstable update: values triple every step.
  auto kern = [](std::int64_t t, std::int64_t x, auto u) {
    u(t + 1, x) = u(t, x - 1) + u(t, x) + u(t, x + 1);
  };
  rs::SupervisorOptions opts;
  opts.slab_steps = 2;
  opts.health_check = true;
  opts.divergence_limit = 100.0;
  const rs::RunReport rep = st.run_supervised(20, kern, opts);
  ASSERT_EQ(rep.status, rs::RunStatus::kNumericalError);
  EXPECT_NE(rep.message.find("diverged"), std::string::npos) << rep.message;
  EXPECT_LT(rep.steps_completed, 20);
}

// --- task failure and graceful degradation ----------------------------------

TEST(ResilienceDegrade, TaskFailureRetriesOnSerialEngine) {
  Array<double, 2> ref({20, 20}, 1);
  ref.register_boundary(periodic_boundary<double, 2>());
  fill_random(ref, 0, 0.0, 1.0);
  Stencil<2, double> sref(heat_shape<2>());
  sref.register_arrays(ref);
  auto kern = heat_kernel_2d({0.125, 0.125});
  sref.run(12, kern);

  Array<double, 2> a({20, 20}, 1);
  a.register_boundary(periodic_boundary<double, 2>());
  fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> st(heat_shape<2>());
  st.register_arrays(a);
  rs::FaultPlan faults;
  faults.fail_task_at_slab = 1;
  rs::SupervisorOptions opts;
  opts.slab_steps = 3;
  opts.faults = &faults;
  const rs::RunReport rep = st.run_supervised(12, kern, opts);
  ASSERT_TRUE(rep.ok()) << rep.message;
  EXPECT_TRUE(rep.degraded);
  EXPECT_EQ(rep.serial_retries, 1);
  EXPECT_EQ(rep.steps_completed, 12);
  EXPECT_TRUE(storage_equal(a, ref));
}

TEST(ResilienceDegrade, TaskFailureWithoutFallbackReportsAndRollsBack) {
  Array<double, 2> a({20, 20}, 1);
  a.register_boundary(periodic_boundary<double, 2>());
  fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> st(heat_shape<2>());
  st.register_arrays(a);
  auto kern = heat_kernel_2d({0.125, 0.125});
  rs::FaultPlan faults;
  faults.fail_task_at_slab = 1;
  rs::SupervisorOptions opts;
  opts.slab_steps = 3;
  opts.degrade_to_serial = false;
  opts.faults = &faults;
  const rs::RunReport rep = st.run_supervised(12, kern, opts);
  EXPECT_EQ(rep.status, rs::RunStatus::kTaskFailure);
  EXPECT_FALSE(rep.degraded);
  EXPECT_EQ(rep.steps_completed, 3);
  EXPECT_EQ(st.steps_done(), 3);
}

// --- checkpoint IO fault injection ------------------------------------------

TEST(ResilienceIo, TransientCheckpointFailureIsRetried) {
  const std::string base = scratch_dir("io_retry") + "/ck";
  Array<double, 2> a({16, 16}, 1);
  a.register_boundary(periodic_boundary<double, 2>());
  fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> st(heat_shape<2>());
  st.register_arrays(a);
  auto kern = heat_kernel_2d({0.125, 0.125});
  rs::FaultPlan faults;
  faults.checkpoint_io_failures = 1;  // first attempt fails, retry lands
  rs::SupervisorOptions opts;
  opts.slab_steps = 3;
  opts.checkpoint_path = base;
  opts.io_retry_backoff_ms = 1;
  opts.faults = &faults;
  const rs::RunReport rep = st.run_supervised(6, kern, opts);
  ASSERT_TRUE(rep.ok()) << rep.message;
  EXPECT_EQ(rep.checkpoint_io_failures, 1);
  EXPECT_EQ(rep.checkpoints_written, 2);
}

TEST(ResilienceIo, PersistentCheckpointFailureDoesNotStopComputation) {
  const std::string base = scratch_dir("io_persistent") + "/ck";
  Array<double, 2> a({16, 16}, 1);
  a.register_boundary(periodic_boundary<double, 2>());
  fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> st(heat_shape<2>());
  st.register_arrays(a);
  auto kern = heat_kernel_2d({0.125, 0.125});
  rs::FaultPlan faults;
  faults.checkpoint_io_failures = 1000;  // exceeds every retry budget
  rs::SupervisorOptions opts;
  opts.slab_steps = 3;
  opts.checkpoint_path = base;
  opts.io_retries = 2;
  opts.io_retry_backoff_ms = 1;
  opts.faults = &faults;
  const rs::RunReport rep = st.run_supervised(6, kern, opts);
  EXPECT_TRUE(rep.ok()) << rep.message;  // durability degraded, results not
  EXPECT_EQ(rep.checkpoints_written, 0);
  EXPECT_GT(rep.checkpoint_io_failures, 0);
  EXPECT_NE(rep.message.find("checkpoint write failed"), std::string::npos);
  EXPECT_EQ(st.steps_done(), 6);
}

// --- supervised default path -----------------------------------------------

TEST(ResilienceSupervised, DefaultOptionsMatchPlainRun) {
  Array<double, 2> ref({24, 24}, 1);
  ref.register_boundary(periodic_boundary<double, 2>());
  fill_random(ref, 0, 0.0, 1.0);
  Stencil<2, double> sref(heat_shape<2>());
  sref.register_arrays(ref);
  auto kern = heat_kernel_2d({0.125, 0.125});
  sref.run(10, kern);

  Array<double, 2> a({24, 24}, 1);
  a.register_boundary(periodic_boundary<double, 2>());
  fill_random(a, 0, 0.0, 1.0);
  Stencil<2, double> st(heat_shape<2>());
  st.register_arrays(a);
  const rs::RunReport rep = st.run_supervised(10, kern);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.steps_completed, 10);
  EXPECT_TRUE(storage_equal(a, ref));
}

TEST(ResilienceSupervised, UsageErrorsThrow) {
  Stencil<2, double> st(heat_shape<2>());
  auto kern = heat_kernel_2d({0.125, 0.125});
  EXPECT_THROW(st.run_supervised(5, kern), Error);  // not registered
  Array<double, 2> a({8, 8}, 1);
  a.register_boundary(periodic_boundary<double, 2>());
  st.register_arrays(a);
  EXPECT_THROW(st.run_supervised(0, kern), Error);
  rs::SupervisorOptions opts;  // no checkpoint_path
  EXPECT_THROW(st.resume(kern, opts), Error);
}

TEST(ResilienceSupervised, ResumeWithNoCheckpointsReportsError) {
  const std::string base = scratch_dir("resume_empty") + "/ck";
  Array<double, 2> a({8, 8}, 1);
  a.register_boundary(periodic_boundary<double, 2>());
  Stencil<2, double> st(heat_shape<2>());
  st.register_arrays(a);
  auto kern = heat_kernel_2d({0.125, 0.125});
  rs::SupervisorOptions opts;
  opts.checkpoint_path = base;
  const rs::RunReport rep = st.resume(kern, opts);
  EXPECT_EQ(rep.status, rs::RunStatus::kCheckpointError);
}

// --- two registered arrays -------------------------------------------------

/// A double heat field drives a tracer of cell type V (heat_shape<2>).
const auto kTwoArrayKernel = [](std::int64_t t, std::int64_t x, std::int64_t y,
                                auto u, auto v) {
  u(t + 1, x, y) = u(t, x, y) + 0.125 * (u(t, x - 1, y) + u(t, x + 1, y) +
                                         u(t, x, y - 1) + u(t, x, y + 1) -
                                         4.0 * u(t, x, y));
  v(t + 1, x, y) = 0.5f * v(t, x, y) + static_cast<float>(0.25 * u(t, x, y)) +
                   0.125f * (v(t, x - 1, y) + v(t, x + 1, y));
};

template <typename V>
struct TwoArrayGrid {
  Array<double, 2> u{{20, 20}, 1};
  Array<V, 2> v{{20, 20}, 1};
  Stencil<2, double, V> st{heat_shape<2>()};

  TwoArrayGrid() {
    u.register_boundary(periodic_boundary<double, 2>());
    v.register_boundary(periodic_boundary<V, 2>());
    fill_random(u, 0, 0.0, 1.0);
    v.fill_time(0, [](const std::array<std::int64_t, 2>& i) {
      return static_cast<V>(0.01 * static_cast<double>((i[0] * 7 + i[1]) % 11));
    });
    st.register_arrays(u, v);
  }
};

using MixedGrid = TwoArrayGrid<float>;

template <typename T>
std::vector<unsigned char> storage_bytes(const Array<T, 2>& a) {
  const auto* p = reinterpret_cast<const unsigned char*>(a.data());
  return {p, p + sizeof(T) * static_cast<std::size_t>(a.total_size())};
}

TEST(ResilienceTwoArrays, KillAndResumeMatchesUninterruptedRun) {
  const std::string base = scratch_dir("two_arrays_rt") + "/ck";
  MixedGrid ref;
  ref.st.run(12, kTwoArrayKernel);

  MixedGrid a;
  rs::FaultPlan faults;
  faults.kill_after_slab = 1;
  rs::SupervisorOptions opts;
  opts.slab_steps = 3;
  opts.checkpoint_path = base;
  opts.faults = &faults;
  const rs::RunReport crash = a.st.run_supervised(12, kTwoArrayKernel, opts);
  ASSERT_EQ(crash.status, rs::RunStatus::kSimulatedCrash) << crash.message;
  ASSERT_EQ(crash.steps_completed, 6);

  // "Process restart": fresh arrays, whose initial state resume overwrites.
  MixedGrid b;
  rs::SupervisorOptions ropts;
  ropts.slab_steps = 3;
  ropts.checkpoint_path = base;
  const rs::RunReport rep = b.st.resume(kTwoArrayKernel, ropts);
  ASSERT_TRUE(rep.ok()) << rep.message;
  EXPECT_EQ(rep.steps_completed, 6);
  EXPECT_EQ(b.st.steps_done(), 12);
  EXPECT_TRUE(storage_equal(b.u, ref.u));
  EXPECT_TRUE(storage_equal(b.v, ref.v));
}

TEST(ResilienceTwoArrays, HealthRollbackMatchesUninterruptedRun) {
  MixedGrid ref;
  ref.st.run(3, kTwoArrayKernel);

  MixedGrid a;
  rs::FaultPlan faults;
  faults.poison_after_slab = 1;
  faults.poison_flat_index = 37;
  rs::SupervisorOptions opts;
  opts.slab_steps = 3;
  opts.health_check = true;
  opts.faults = &faults;
  const rs::RunReport rep = a.st.run_supervised(12, kTwoArrayKernel, opts);
  ASSERT_EQ(rep.status, rs::RunStatus::kNumericalError) << rep.message;
  // Both arrays roll back to slab 0's boundary.
  EXPECT_EQ(rep.steps_completed, 3);
  EXPECT_EQ(a.st.steps_done(), 3);
  EXPECT_TRUE(storage_equal(a.u, ref.u));
  EXPECT_TRUE(storage_equal(a.v, ref.v));
}

TEST(ResilienceTwoArrays, ElementSizeMismatchRestoresNothing) {
  const std::string base = scratch_dir("two_arrays_mismatch") + "/ck";
  {
    TwoArrayGrid<double> writer;
    rs::FaultPlan faults;
    faults.kill_after_slab = 0;
    rs::SupervisorOptions opts;
    opts.slab_steps = 3;
    opts.checkpoint_path = base;
    opts.faults = &faults;
    const rs::RunReport rep =
        writer.st.run_supervised(12, kTwoArrayKernel, opts);
    ASSERT_EQ(rep.status, rs::RunStatus::kSimulatedCrash) << rep.message;
  }
  // Array 0 matches the snapshot's layout and array 1 does not: the
  // restore must fail before it copies array 0 ("never a partial restore").
  MixedGrid b;
  const auto u_before = storage_bytes(b.u);
  const auto v_before = storage_bytes(b.v);
  rs::SupervisorOptions opts;
  opts.checkpoint_path = base;
  const rs::RunReport rep = b.st.resume(kTwoArrayKernel, opts);
  EXPECT_EQ(rep.status, rs::RunStatus::kCheckpointError);
  EXPECT_NE(rep.message.find("array 1: element size mismatch"),
            std::string::npos)
      << rep.message;
  EXPECT_EQ(b.st.steps_done(), 0);
  EXPECT_EQ(storage_bytes(b.u), u_before);
  EXPECT_EQ(storage_bytes(b.v), v_before);
}

// --- crash-safe writer -------------------------------------------------------

TEST(AtomicFile, WriteReplacesAtomicallyAndPreservesOriginalOnFailure) {
  const std::string dir = scratch_dir("atomic_file");
  const std::string path = dir + "/out.txt";
  auto rep1 = io::atomic_write_file(path, [](std::FILE* f) {
    return std::fputs("first", f) >= 0;
  });
  ASSERT_TRUE(rep1.ok);
  ASSERT_EQ(rep1.attempts, 1);
  // A writer that fails on every attempt must leave the original intact.
  auto rep2 = io::atomic_write_file(
      path, [](std::FILE*) { return false; }, /*retries=*/2, /*backoff_ms=*/1);
  EXPECT_FALSE(rep2.ok);
  EXPECT_EQ(rep2.attempts, 3);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "first");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(AtomicFile, FailHookConsumesOneAttemptThenSucceeds) {
  const std::string dir = scratch_dir("atomic_hook");
  const std::string path = dir + "/out.txt";
  int budget = 1;
  auto rep = io::atomic_write_file(
      path, [](std::FILE* f) { return std::fputs("payload", f) >= 0; },
      /*retries=*/3, /*backoff_ms=*/1, [&budget] { return budget-- > 0; });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.attempts, 2);
}

// --- scheduler abort propagation --------------------------------------------

TEST(SchedulerResilience, ExceptionInSpawnedTaskPropagatesFromWait) {
  EXPECT_THROW(rt::parallel_for(0, 2, 1,
                                [](std::int64_t i) {
                                  if (i == 1) throw Error("task boom");
                                }),
               Error);
  EXPECT_THROW(rt::parallel_for(0, 1024, 8,
                                [](std::int64_t i) {
                                  if (i == 777) throw Error("loop boom");
                                }),
               Error);
}

}  // namespace
}  // namespace pochoir
