// Cross-query reuse benchmark (DESIGN.md §12): the epoch-keyed answer
// cache, measured on a repeat-heavy point/exists workload against one
// committed epoch.
//
// Two comparisons, at equal thread counts:
//
//   * cache-off vs answer-cache-warm: a repeat workload (default 10k
//     queries, 90% repeats) re-run against the same epoch must be served
//     almost entirely from the cache — required warm hit rate ≥ 99%,
//     ≥ 5× fewer opf_row_ops and ≥ 3× lower wall than the cache-off run,
//     with bit-identical answers (the epoch is immutable, so a hit *is*
//     the cold answer);
//   * mutation commit: publishing one OPF update retires the old epoch —
//     its entries are dropped eagerly (epoch_drops moves) and the next
//     run scores zero hits (nothing stale is ever served).
//
// Usage: bench_answer_cache [--threads=N] [--hit-rate=R] [--queries=N]
//        [--seed=S] [--json=PATH] [--check]
// --check exits non-zero when any of the gates above fail (the CI gate).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/weak_instance.h"
#include "fig7_common.h"
#include "query/engine.h"

namespace {

using namespace pxml;         // NOLINT
using namespace pxml::bench;  // NOLINT

int g_failures = 0;

void Check(bool ok, const char* what, const std::string& detail) {
  std::printf("%-7s %s (%s)\n", ok ? "ok" : "FAIL", what, detail.c_str());
  if (!ok) ++g_failures;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bit-identity over a whole answer vector (statuses and probabilities).
bool AnswersBitEqual(const std::vector<BatchAnswer>& a,
                     const std::vector<BatchAnswer>& b, std::size_t* bad) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].status.code() != b[i].status.code() ||
        !BitEqual(a[i].probability, b[i].probability)) {
      *bad = i;
      return false;
    }
  }
  return true;
}

struct TimedRun {
  std::vector<BatchAnswer> answers;
  BatchStats stats;
  double wall_ms = 0;
};

TimedRun Run(const QueryEngine& engine, const std::vector<BatchQuery>& qs) {
  TimedRun r;
  const auto t0 = std::chrono::steady_clock::now();
  auto result = engine.Run(qs, QueryRequest{}, &r.stats);
  r.wall_ms = MsSince(t0);
  BenchCheck(result.status(), "run batch");
  r.answers = std::move(result).ValueOrDie();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_mode = false;
  double hit_rate = 0.9;
  std::size_t num_queries = 10000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check_mode = true;
    if (std::strncmp(argv[i], "--hit-rate=", 11) == 0) {
      const double r = std::atof(argv[i] + 11);
      if (r >= 0.0 && r < 1.0) {
        hit_rate = r;
      } else {
        std::fprintf(stderr, "ignoring malformed %s (want [0,1))\n", argv[i]);
      }
    }
    if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      const long long n = std::atoll(argv[i] + 10);
      if (n > 0) num_queries = static_cast<std::size_t>(n);
    }
  }
  BenchFlags defaults;
  defaults.threads = 1;
  defaults.seed = 20260810;
  const BenchFlags flags = ParseBenchFlags(&argc, argv, defaults);
  JsonLog json("answer_cache", flags);
  ObsOutputs obs(flags);

  GeneratorConfig config;
  config.depth = 5;
  config.branching = 4;
  config.opf_style = OpfStyle::kExplicitTable;
  config.seed = flags.seed;
  auto generated = GenerateBalancedTree(config);
  BenchCheck(generated.status(), "generate");
  std::printf("# answer cache: %zu objects, %zu queries, "
              "hit-rate %.2f, %zu thread(s)\n",
              generated->weak().num_objects(), num_queries, hit_rate,
              flags.threads);

  // ---- The repeat workload: a distinct pool sized for the requested
  // repeat rate, tiled once (every question appears) and then sampled
  // uniformly, so ~hit_rate of the batch repeats an earlier question.
  Rng rng(flags.seed ^ 0xCACE);
  const std::size_t distinct_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(double(num_queries) * (1.0 - hit_rate))));
  std::vector<BatchQuery> pool;
  while (pool.size() < distinct_count) {
    auto path = GenerateAcceptedPath(*generated, rng);
    BenchCheck(path.status(), "path");
    if (pool.size() % 8 == 7) {
      pool.push_back(BatchQuery::Exists(*path));
      continue;
    }
    auto layers = PrunedWeakPathLayers(generated->weak(), *path);
    BenchCheck(layers.status(), "layers");
    std::vector<ObjectId> targets;
    for (ObjectId o : layers->back()) targets.push_back(o);
    pool.push_back(BatchQuery::Point(
        *path, targets[rng.NextBounded(targets.size())]));
  }
  std::vector<BatchQuery> workload;
  workload.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    workload.push_back(i < pool.size()
                           ? pool[i]
                           : pool[rng.NextBounded(pool.size())]);
  }

  BatchOptions base;
  base.threads = flags.threads;
  BatchOptions cached_opts = base;
  cached_opts.answer_cache = true;

  QueryEngine engine_off(ProbabilisticInstance(*generated), base);
  QueryEngine engine_on(ProbabilisticInstance(*generated), cached_opts);

  // Cache-off reference: run twice, compare against the second (warmed
  // scratch — the steady-state a server would see).
  Run(engine_off, workload);
  const TimedRun off = Run(engine_off, workload);
  const TimedRun cold = Run(engine_on, workload);
  const TimedRun warm = Run(engine_on, workload);

  std::size_t bad = 0;
  Check(AnswersBitEqual(off.answers, cold.answers, &bad),
        "cold answers bit-identical to cache-off",
        StrCat("first mismatch at ", bad));
  Check(AnswersBitEqual(off.answers, warm.answers, &bad),
        "warm cached answers bit-identical to cache-off",
        StrCat("first mismatch at ", bad));

  const double warm_hit_rate =
      double(warm.stats.answer_cache_hits) / double(num_queries);
  Check(warm_hit_rate >= 0.99, "warm hit rate >= 99%",
        StrCat("hits=", warm.stats.answer_cache_hits, "/", num_queries));
  Check(off.stats.opf_row_ops >= 5 * std::max<std::uint64_t>(
                                        warm.stats.opf_row_ops, 1),
        "warm repeat row ops >= 5x fewer than cache-off",
        StrCat("off=", off.stats.opf_row_ops,
               " warm=", warm.stats.opf_row_ops));
  Check(off.wall_ms >= 3.0 * warm.wall_ms,
        "warm repeat wall >= 3x lower than cache-off",
        StrCat("off=", off.wall_ms, "ms warm=", warm.wall_ms, "ms"));

  std::printf("%-10s %8s %12s %12s %10s\n", "mode", "wall_ms",
              "opf_row_ops", "eps_passes", "hits");
  auto print_row = [&](const char* mode, const TimedRun& r) {
    std::printf("%-10s %8.2f %12llu %12llu %10llu\n", mode, r.wall_ms,
                static_cast<unsigned long long>(r.stats.opf_row_ops),
                static_cast<unsigned long long>(r.stats.frozen_passes +
                                                r.stats.generic_passes),
                static_cast<unsigned long long>(r.stats.answer_cache_hits));
    json.NextRow();
    json.Str("mode", mode);
    json.Int("threads", flags.threads);
    json.Int("queries", num_queries);
    json.Num("hit_rate", hit_rate);
    json.Num("wall_ms", r.wall_ms);
    json.Int("opf_row_ops", r.stats.opf_row_ops);
    json.Int("eps_passes", r.stats.frozen_passes + r.stats.generic_passes);
    json.Int("answer_cache_hits", r.stats.answer_cache_hits);
    json.Int("answer_cache_misses", r.stats.answer_cache_misses);
  };
  print_row("off", off);
  print_row("cold", cold);
  print_row("warm", warm);

  // ---- Mutation commit: the old epoch retires, its entries drop, and
  // nothing cached ever crosses the commit.
  const std::uint64_t drops_before = engine_on.answer_cache_stats().epoch_drops;
  const ObjectId root = engine_on.instance().weak().root();
  {
    auto opf = std::make_unique<IndependentOpf>();
    for (ObjectId child :
         engine_on.instance().weak().AllPotentialChildren(root)) {
      BenchCheck(opf->AddChild(child, 0.05 + 0.9 * rng.NextDouble()),
                 "mutate opf");
    }
    BenchCheck(engine_on.UpdateOpf(root, std::move(opf)), "commit mutation");
  }
  const TimedRun post = Run(engine_on, workload);
  Check(engine_on.answer_cache_stats().epoch_drops >= drops_before + 1,
        "epoch retirement dropped the old epoch's entries",
        StrCat("epoch_drops=", engine_on.answer_cache_stats().epoch_drops));
  Check(post.stats.answer_cache_hits == 0,
        "zero hits across a mutation commit",
        StrCat("hits=", post.stats.answer_cache_hits));
  json.NextRow();
  json.Str("mode", "post_mutation");
  json.Int("threads", flags.threads);
  json.Int("answer_cache_hits", post.stats.answer_cache_hits);
  json.Int("epoch_drops", engine_on.answer_cache_stats().epoch_drops);

  json.Write();
  obs.Finish();

  if (g_failures != 0) {
    std::printf("%d check(s) FAILED\n", g_failures);
    return check_mode ? 1 : 0;
  }
  std::printf("all checks passed\n");
  return 0;
}
