// Serialization throughput: SerializePxml / ParsePxml over generated
// instances of growing size, plus WritePxmlFile and ParsePxml at the
// select_fig7 shape (explicit, b=8, d=4) in bytes per second. Write time
// is a first-class cost in the paper's Figure 7 totals (it dominates
// selection), so the library's storage path deserves its own measurement.
//
// Usage: bench_serialization [--seed=S] [--threads=N] [gbench flags]
// (--threads is accepted for interface uniformity across the bench
// suite; the serialization path is single-threaded.)
#include <benchmark/benchmark.h>

#include <filesystem>

#include "fig7_common.h"
#include "workload/generator.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace {

using namespace pxml;  // NOLINT

bench::BenchFlags g_flags = [] {
  bench::BenchFlags flags;
  flags.threads = 1;
  flags.seed = 77;
  return flags;
}();

ProbabilisticInstance MakeTree(std::uint32_t depth) {
  GeneratorConfig config;
  config.depth = depth;
  config.branching = 4;
  config.seed = g_flags.seed;
  auto inst = GenerateBalancedTree(config);
  if (!inst.ok()) std::abort();
  return std::move(inst).ValueOrDie();
}

void BM_Serialize(benchmark::State& state) {
  ProbabilisticInstance inst =
      MakeTree(static_cast<std::uint32_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string text = SerializePxml(inst);
    bytes = text.size();
    benchmark::DoNotOptimize(text);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(bytes) *
      static_cast<std::int64_t>(state.iterations()));
  state.counters["objects"] =
      static_cast<double>(inst.weak().num_objects());
}
BENCHMARK(BM_Serialize)->DenseRange(2, 6, 1);

void BM_Parse(benchmark::State& state) {
  ProbabilisticInstance inst =
      MakeTree(static_cast<std::uint32_t>(state.range(0)));
  std::string text = SerializePxml(inst);
  for (auto _ : state) {
    auto parsed = ParsePxml(text);
    if (!parsed.ok()) std::abort();
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(text.size()) *
      static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Parse)->DenseRange(2, 5, 1);

/// The select_fig7 / project_fig7 shape: the §7.1 explicit b=8, d=4 tree
/// (4,681 objects, 585 tables of 256 rows, about 9.7 MB of text).
ProbabilisticInstance MakeFig7Tree() {
  GeneratorConfig config;
  config.depth = 4;
  config.branching = 8;
  config.opf_style = OpfStyle::kExplicitTable;
  config.seed = g_flags.seed;
  auto inst = GenerateBalancedTree(config);
  if (!inst.ok()) std::abort();
  return std::move(inst).ValueOrDie();
}

void BM_WriteFileFig7(benchmark::State& state) {
  // What every select_fig7 request pays after Select: the whole result
  // written to a file.
  ProbabilisticInstance inst = MakeFig7Tree();
  const std::string path = (std::filesystem::temp_directory_path() /
                            "pxml_bench_serialization_fig7.pxml")
                               .string();
  for (auto _ : state) {
    if (!WritePxmlFile(inst, path).ok()) std::abort();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(std::filesystem::file_size(path)) *
      static_cast<std::int64_t>(state.iterations()));
  std::filesystem::remove(path);
}
BENCHMARK(BM_WriteFileFig7)->Unit(benchmark::kMillisecond);

void BM_ParseFig7(benchmark::State& state) {
  const std::string text = SerializePxml(MakeFig7Tree());
  for (auto _ : state) {
    auto parsed = ParsePxml(text);
    if (!parsed.ok()) std::abort();
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(text.size()) *
      static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ParseFig7)->Unit(benchmark::kMillisecond);

void BM_DeepCopy(benchmark::State& state) {
  // The "copy the input instance" phase of every Fig 7 query.
  ProbabilisticInstance inst =
      MakeTree(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    ProbabilisticInstance copy = inst;
    benchmark::DoNotOptimize(copy);
  }
  state.counters["opf_rows"] =
      static_cast<double>(inst.TotalOpfEntries());
}
BENCHMARK(BM_DeepCopy)->DenseRange(2, 6, 1);

}  // namespace

int main(int argc, char** argv) {
  g_flags = pxml::bench::ParseBenchFlags(&argc, argv, g_flags);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
