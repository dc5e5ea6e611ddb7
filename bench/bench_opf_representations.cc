// E9 ablation: the three OPF representations (§3.2's compact forms) on
// the workloads they differ on — point lookup, marginals, and full-table
// materialization — for growing child counts. Explicit tables pay 2^n
// space for O(log n) lookup; the compact forms store O(n) and answer
// marginals in O(n), but materializing their table is exponential.
//
// Usage: bench_opf_representations [--seed=S] [--json=PATH]
// [gbench flags]. --json=PATH maps onto google-benchmark's own JSON
// reporter (--benchmark_out=PATH --benchmark_out_format=json), so all
// three JSON-emitting benches share one flag spelling.
#include <benchmark/benchmark.h>

#include "fig7_common.h"
#include "graph/path.h"
#include "protdb/conversion.h"
#include "protdb/protdb.h"
#include "query/point_queries.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace pxml;  // NOLINT

bench::BenchFlags g_flags = [] {
  bench::BenchFlags flags;
  flags.threads = 1;
  flags.seed = 5;
  return flags;
}();

/// A one-level document with n children under two labels.
ProtdbDocument MakeDoc(int n) {
  ProtdbDocument doc;
  auto root = doc.CreateRoot("r");
  if (!root.ok()) std::abort();
  Rng rng(g_flags.seed);
  for (int i = 0; i < n; ++i) {
    const char* label = (i % 2 == 0) ? "a" : "b";
    if (!doc.AddChild(*root, label, StrCat("c", i), 0.2 + 0.6 * rng.NextDouble())
             .ok()) {
      std::abort();
    }
  }
  return doc;
}

const Opf* RootOpf(const ProbabilisticInstance& inst) {
  return inst.GetOpf(inst.weak().root());
}

ProbabilisticInstance Convert(int n, OpfRepresentation rep) {
  auto inst = FromProtdb(MakeDoc(n), rep);
  if (!inst.ok()) std::abort();
  return std::move(inst).ValueOrDie();
}

IdSet SomeSubset(const ProbabilisticInstance& inst) {
  std::vector<std::uint32_t> ids;
  ObjectId root = inst.weak().root();
  IdSet all = inst.weak().AllPotentialChildren(root);
  for (std::size_t i = 0; i < all.size(); i += 2) ids.push_back(all[i]);
  return IdSet(std::move(ids));
}

template <OpfRepresentation rep>
void BM_OpfProbLookup(benchmark::State& state) {
  ProbabilisticInstance inst = Convert(static_cast<int>(state.range(0)), rep);
  IdSet query = SomeSubset(inst);
  const Opf* opf = RootOpf(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opf->Prob(query));
  }
  state.counters["equiv_rows"] = static_cast<double>(opf->NumEntries());
}
BENCHMARK(BM_OpfProbLookup<OpfRepresentation::kExplicit>)
    ->DenseRange(4, 16, 4);
BENCHMARK(BM_OpfProbLookup<OpfRepresentation::kIndependent>)
    ->DenseRange(4, 16, 4);
BENCHMARK(BM_OpfProbLookup<OpfRepresentation::kPerLabel>)
    ->DenseRange(4, 16, 4);

template <OpfRepresentation rep>
void BM_OpfMarginal(benchmark::State& state) {
  ProbabilisticInstance inst = Convert(static_cast<int>(state.range(0)), rep);
  const Opf* opf = RootOpf(inst);
  ObjectId child = inst.weak().AllPotentialChildren(inst.weak().root())[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(opf->MarginalChildProb(child));
  }
}
BENCHMARK(BM_OpfMarginal<OpfRepresentation::kExplicit>)->DenseRange(4, 16, 4);
BENCHMARK(BM_OpfMarginal<OpfRepresentation::kIndependent>)
    ->DenseRange(4, 16, 4);
BENCHMARK(BM_OpfMarginal<OpfRepresentation::kPerLabel>)->DenseRange(4, 16, 4);

template <OpfRepresentation rep>
void BM_PointQueryByRepresentation(benchmark::State& state) {
  // A two-level document with `n` authors per paper: the ε-propagation
  // fast path answers independent OPFs in O(n), while explicit tables
  // cost O(2^n) rows per node.
  int n = static_cast<int>(state.range(0));
  ProtdbDocument doc;
  auto root = doc.CreateRoot("r");
  if (!root.ok()) std::abort();
  Rng rng(g_flags.seed + 6);  // default seed 5 keeps the historic 11
  ObjectId target = kInvalidId;
  for (int i = 0; i < 4; ++i) {
    auto paper = doc.AddChild(*root, "paper", StrCat("p", i), 0.8);
    if (!paper.ok()) std::abort();
    for (int j = 0; j < n; ++j) {
      auto a = doc.AddChild(*paper, "author", StrCat("a", i, "_", j),
                            0.2 + 0.6 * rng.NextDouble());
      if (!a.ok()) std::abort();
      target = *a;
    }
  }
  auto inst = FromProtdb(doc, rep);
  if (!inst.ok()) std::abort();
  PathExpression path;
  path.start = inst->weak().root();
  path.labels = {*inst->dict().FindLabel("paper"),
                 *inst->dict().FindLabel("author")};
  for (auto _ : state) {
    auto p = PointQuery(*inst, path, target);
    if (!p.ok()) std::abort();
    benchmark::DoNotOptimize(*p);
  }
}
BENCHMARK(BM_PointQueryByRepresentation<OpfRepresentation::kExplicit>)
    ->DenseRange(4, 12, 4);
BENCHMARK(BM_PointQueryByRepresentation<OpfRepresentation::kIndependent>)
    ->DenseRange(4, 12, 4);

template <OpfRepresentation rep>
void BM_OpfMaterializeTable(benchmark::State& state) {
  ProbabilisticInstance inst = Convert(static_cast<int>(state.range(0)), rep);
  const Opf* opf = RootOpf(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opf->Entries());
  }
}
BENCHMARK(BM_OpfMaterializeTable<OpfRepresentation::kExplicit>)
    ->DenseRange(4, 12, 4);
BENCHMARK(BM_OpfMaterializeTable<OpfRepresentation::kIndependent>)
    ->DenseRange(4, 12, 4);

}  // namespace

int main(int argc, char** argv) {
  g_flags = pxml::bench::ParseBenchFlags(&argc, argv, g_flags);
  // Forward --json=PATH as google-benchmark's JSON reporter flags.
  std::vector<std::string> extra_args;
  std::vector<char*> argv2(argv, argv + argc);
  if (!g_flags.json.empty()) {
    extra_args.push_back("--benchmark_out=" + g_flags.json);
    extra_args.push_back("--benchmark_out_format=json");
    for (std::string& arg : extra_args) argv2.push_back(arg.data());
    argc = static_cast<int>(argv2.size());
    argv = argv2.data();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
