// Figure 13 — throughput of pochoirc's two loop-indexing modes on the 2D
// periodic heat equation (grid points per second vs N).  The build runs
// pochoirc twice on one Phase-1 source, bench/fig13/heat2d_periodic.cpp,
// and links both postsources into this bench:
//   --split-pointer      -> fig13_split_pointer: a row clone that sets up
//                           one C-style pointer per access at the start of
//                           a row and walks them down it (Figure 12(c))
//   --split-macro-shadow -> fig13_macro_shadow: a point clone whose array
//                           accesses are shadowed with unchecked ones, an
//                           address computed per access (Figure 12(b))
// Both run through the library's one leaf with the same checked boundary
// clone, so the columns differ only in the interior code, as the two
// postsources of Figure 12 do.
//
// Only the run is timed: each call builds and fills its own grid outside
// its timer.  After one untimed warm-up of each mode, the modes alternate
// for kReps timed reps each, and the table reports each mode's median with
// its spread (interquartile range over the median).  Both modes must
// return bit-identical checksums at every N, in every rep; the bench exits
// 1 if they do not.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"

// Defined by the two postsources that pochoirc generates at build time.
double fig13_split_pointer(std::int64_t N, std::int64_t T, double* checksum);
double fig13_macro_shadow(std::int64_t N, std::int64_t T, double* checksum);

int main() {
  using namespace pochoir;
  using namespace pochoir::bench;

  print_header("Figure 13: -split-pointer vs -split-macro-shadow",
               "Tang et al., SPAA'11, Figure 13 (2D heat on a torus)");

  auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  auto cell = [](double points, const Timing& tm) {
    return strf("%.3g (%.0f%%)", points / tm.median, 100 * tm.spread);
  };

  Table table({"N", "steps", "macro-shadow pts/s", "split-pointer pts/s",
               "split/macro", "checksums"});
  const double budget = 1.0e8 * scale();  // space-time points per data point
  bool all_agree = true;
  for (std::int64_t n : {128, 256, 512, 1024, 2048}) {
    std::int64_t t = static_cast<std::int64_t>(budget / (static_cast<double>(n) * n));
    if (t < 8) t = 8;
    const double points = static_cast<double>(n) * n * t;

    double reference = 0;
    double sum = 0;
    fig13_macro_shadow(n, t, &reference);  // warm-ups, untimed
    fig13_split_pointer(n, t, &sum);
    bool agree = same_bits(sum, reference);
    std::vector<double> macro_secs;
    std::vector<double> split_secs;
    for (int rep = 0; rep < kReps; ++rep) {
      macro_secs.push_back(fig13_macro_shadow(n, t, &sum));
      agree = agree && same_bits(sum, reference);
      split_secs.push_back(fig13_split_pointer(n, t, &sum));
      agree = agree && same_bits(sum, reference);
    }
    all_agree = all_agree && agree;
    const Timing macro = summarize(std::move(macro_secs));
    const Timing split = summarize(std::move(split_secs));

    table.add_row({std::to_string(n), std::to_string(t), cell(points, macro),
                   cell(points, split),
                   strf("%.2f", macro.median / split.median),
                   agree ? "bit-identical" : "DIFFER"});
  }
  table.print();
  std::printf("\npts/s from the median of %d reps (spread: interquartile "
              "range / median); split/macro is the ratio of the pts/s.\n",
              kReps);
  std::printf("paper shape: split-pointer above macro-shadow across the "
              "whole sweep (1.2e8..5.3e9 pts/s on 12 cores there).\n");
  if (!all_agree) {
    std::printf("FAILED: the two modes' checksums differ\n");
    return 1;
  }
  std::printf("both modes' checksums are bit-identical at every N\n");
  return 0;
}
