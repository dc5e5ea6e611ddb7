// Figure 7(b): time to update the local interpretation ℘ during ancestor
// projection — the dominant phase of Fig 7(a) per the paper, linear in
// the number of objects and quadratic in the per-object OPF size.
//
// Usage: bench_fig7b_projection_update [--seed=S] [--trace=PATH]
//        [--metrics=PATH]
#include <cstdio>

#include "fig7_common.h"

namespace pxml {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchFlags defaults;
  defaults.seed = 997;
  BenchFlags flags = ParseBenchFlags(&argc, argv, defaults);
  ObsOutputs obs(flags);
  std::printf(
      "# Figure 7(b): local-interpretation (℘) update time of ancestor "
      "projection\n"
      "# update_ms is the headline series; entries = OPF rows read\n");
  std::printf("%-3s %2s %2s %9s %10s %4s %12s %12s\n", "lab", "b", "d",
              "objects", "opf_rows", "q", "update_ms", "update_frac");
  for (const SweepPoint& point : Fig7Sweep(/*max_objects=*/310000)) {
    ProjectionRow row =
        RunProjectionPoint(point, flags.seed, OpfStyle::kExplicitTable,
                           /*frozen=*/false, obs.session());
    double frac = row.total_ms > 0 ? row.update_ms / row.total_ms : 0.0;
    std::printf("%-3s %2u %2u %9zu %10zu %4d %12.3f %12.3f\n",
                SchemeName(point.scheme), point.branching, point.depth,
                row.objects, row.opf_entries, row.queries, row.update_ms,
                frac);
    std::fflush(stdout);
  }
  obs.Finish();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pxml

int main(int argc, char** argv) { return pxml::bench::Main(argc, argv); }
