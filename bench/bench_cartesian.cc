// E4 ablation: Cartesian product cost (§7.1 says the paper skipped it
// because "it only involves the update of the roots, whose running time
// is very short and independent of the size of the instances").
//
// BM_RootOpfMerge isolates that algorithmic core — merging the two root
// OPFs — and is indeed independent of instance size (it depends only on
// the roots' branching). BM_CartesianProductFull measures our functional
// (copying) implementation, whose cost is the unavoidable deep copy.
//
// Usage: bench_cartesian [--seed=S] [--threads=N] [gbench flags]
// (--threads is accepted for interface uniformity across the bench
// suite; both kernels here are single-threaded.)
#include <benchmark/benchmark.h>

#include "algebra/cartesian_product.h"
#include "fig7_common.h"
#include "workload/generator.h"

namespace {

using namespace pxml;  // NOLINT

// Default seed 0 keeps the historical per-tree seeds (base + 1, base + 2).
bench::BenchFlags g_flags = [] {
  bench::BenchFlags flags;
  flags.threads = 1;
  flags.seed = 0;
  return flags;
}();

ProbabilisticInstance MakeTree(std::uint32_t depth, std::uint32_t branching,
                               std::uint64_t seed) {
  GeneratorConfig config;
  config.depth = depth;
  config.branching = branching;
  config.seed = seed;
  auto inst = GenerateBalancedTree(config);
  if (!inst.ok()) std::abort();
  return std::move(inst).ValueOrDie();
}

void BM_RootOpfMerge(benchmark::State& state) {
  std::uint32_t depth = static_cast<std::uint32_t>(state.range(0));
  ProbabilisticInstance left = MakeTree(depth, 4, g_flags.seed + 1);
  ProbabilisticInstance right = MakeTree(depth, 4, g_flags.seed + 2);
  const Opf* lroot = left.GetOpf(left.weak().root());
  const Opf* rroot = right.GetOpf(right.weak().root());
  for (auto _ : state) {
    ExplicitOpf product;
    std::vector<OpfEntry> rows;
    for (const OpfEntry& a : lroot->Entries()) {
      for (const OpfEntry& b : rroot->Entries()) {
        rows.push_back(
            OpfEntry{a.child_set.Union(b.child_set), a.prob * b.prob});
      }
    }
    product = ExplicitOpf::FromEntries(std::move(rows));
    benchmark::DoNotOptimize(product);
  }
  state.counters["objects"] = static_cast<double>(
      left.weak().num_objects() + right.weak().num_objects());
}
BENCHMARK(BM_RootOpfMerge)->DenseRange(2, 6, 1);

void BM_CartesianProductFull(benchmark::State& state) {
  std::uint32_t depth = static_cast<std::uint32_t>(state.range(0));
  ProbabilisticInstance left = MakeTree(depth, 4, g_flags.seed + 1);
  ProbabilisticInstance right = MakeTree(depth, 4, g_flags.seed + 2);
  // Disjoint names: regenerate right with renames via a fresh dictionary.
  std::vector<std::pair<std::string, std::string>> renames;
  for (ObjectId o = 0; o < right.dict().num_objects(); ++o) {
    renames.emplace_back(right.dict().ObjectName(o),
                         right.dict().ObjectName(o) + "_2");
  }
  auto renamed = RenameObjects(right, renames);
  if (!renamed.ok()) std::abort();
  for (auto _ : state) {
    auto product = CartesianProduct(left, *renamed, "root");
    if (!product.ok()) std::abort();
    benchmark::DoNotOptimize(product);
  }
  state.counters["objects"] = static_cast<double>(
      left.weak().num_objects() + renamed->weak().num_objects());
}
BENCHMARK(BM_CartesianProductFull)->DenseRange(2, 6, 1);

}  // namespace

int main(int argc, char** argv) {
  g_flags = pxml::bench::ParseBenchFlags(&argc, argv, g_flags);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
