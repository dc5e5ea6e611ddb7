// Batch executor and parallel batch engine tests: the executor's
// exactly-once, exception and concurrent-caller contract, the
// many-queries/one-instance concurrency hammer, and
// scheduling-independence of batch results. The whole binary is expected
// to be clean under TSAN (-DPXML_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "query/engine.h"
#include "query/point_queries.h"
#include "util/batch_executor.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/query_generator.h"
#include "xml/writer.h"

namespace pxml {
namespace {

// ---------------------------------------------------------------------------
// BatchExecutor

TEST(BatchExecutorTest, RunsEveryIndexExactlyOnce) {
  for (std::size_t workers : {0u, 1u, 2u, 4u, 8u}) {
    BatchExecutor executor(workers);
    EXPECT_EQ(executor.workers(), workers);
    for (std::size_t n : {0u, 1u, 7u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      executor.Run(n, [&hits](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " of " << n << ", " << workers << " workers";
      }
      EXPECT_EQ(executor.unclaimed(), 0u);
    }
  }
}

TEST(BatchExecutorTest, WithoutWorkersEveryIndexRunsOnTheCallingThread) {
  BatchExecutor executor(0);
  std::vector<std::thread::id> ran_on(100);
  executor.Run(ran_on.size(), [&ran_on](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ran_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(BatchExecutorTest, FirstExceptionReachesCallerAfterEveryIndexRan) {
  for (std::size_t workers : {0u, 4u}) {
    BatchExecutor executor(workers);
    std::atomic<int> ran{0};
    bool caught = false;
    try {
      executor.Run(64, [&ran](std::size_t i) {
        ran.fetch_add(1);
        if (i == 7 || i == 40) throw std::runtime_error("boom");
      });
    } catch (const std::runtime_error&) {
      caught = true;
      EXPECT_EQ(ran.load(), 64) << workers << " workers";
    }
    EXPECT_TRUE(caught) << workers << " workers";
    // The executor stays usable after a job threw.
    std::atomic<int> after{0};
    executor.Run(16, [&after](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 16) << workers << " workers";
  }
}

TEST(BatchExecutorTest, ConcurrentCallersShareTwoWorkers) {
  // A job lives on its caller's stack, so no worker may touch it after
  // Run returns: 4 callers churn through short jobs to widen that window
  // (ASAN/TSAN-visible if a worker did).
  BatchExecutor executor(2);
  constexpr int kCallers = 4;
  constexpr int kJobs = 2000;
  std::vector<std::uint64_t> totals(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&executor, &totals, c] {
      for (int j = 0; j < kJobs; ++j) {
        const std::size_t n = 1 + static_cast<std::size_t>(j % 5);
        std::atomic<std::uint64_t> sum{0};
        executor.Run(n, [&sum](std::size_t i) { sum.fetch_add(i + 1); });
        totals[c] += sum.load();
      }
    });
  }
  for (std::thread& t : callers) t.join();
  // Per caller: sum over jobs of n(n+1)/2 for n = 1..5 cycling.
  const std::uint64_t expected = (kJobs / 5) * (1 + 3 + 6 + 10 + 15);
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(totals[c], expected);
  EXPECT_EQ(executor.unclaimed(), 0u);
}

TEST(BatchExecutorTest, CallerProgressesWhileWorkersAreBusy) {
  // A caller claims from its own job, so it finishes even while every
  // worker is stuck in another caller's job.
  BatchExecutor executor(1);
  std::atomic<bool> release{false};
  std::thread blocked([&] {
    executor.Run(2, [&release](std::size_t) {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  });
  std::atomic<int> count{0};
  executor.Run(100, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
  release.store(true, std::memory_order_release);
  blocked.join();
}

// ---------------------------------------------------------------------------
// Batch engine

/// No frozen snapshot: bit-exact generic evaluation on every run.
BatchOptions Generic(BatchOptions options) {
  options.frozen = false;
  return options;
}

/// The §7.1 workload at test scale, plus a deterministic mixed query set.
class BatchEngineTest : public ::testing::Test {
 protected:
  static ProbabilisticInstance MakeWorkloadInstance() {
    GeneratorConfig config;
    config.depth = 5;
    config.branching = 3;
    config.labeling = LabelingScheme::kSameLabels;
    config.seed = 20260806;
    config.with_leaf_values = true;
    auto inst = GenerateBalancedTree(config);
    EXPECT_TRUE(inst.ok()) << inst.status();
    return std::move(inst).ValueOrDie();
  }

  /// `count` mixed queries: point / exists / value / condition /
  /// projection, derived from generated accepted selections.
  static std::vector<BatchQuery> MakeQueries(
      const ProbabilisticInstance& inst, std::size_t count) {
    std::vector<BatchQuery> queries;
    queries.reserve(count);
    Rng rng(0xBA7C4);
    while (queries.size() < count) {
      auto cond = GenerateObjectSelection(inst, rng);
      if (!cond.ok()) break;
      switch (queries.size() % 5) {
        case 0:
          queries.push_back(BatchQuery::Point(cond->path, cond->object));
          break;
        case 1:
          queries.push_back(BatchQuery::Exists(cond->path));
          break;
        case 2: {
          // Probe a value that exists in some leaf domain ("v0"/"v1").
          Value v(queries.size() % 2 == 0 ? "v0" : "v1");
          queries.push_back(BatchQuery::ValueEquals(cond->path, v));
          break;
        }
        case 3:
          queries.push_back(BatchQuery::Condition(*cond));
          break;
        case 4:
          queries.push_back(BatchQuery::AncestorProjection(cond->path));
          break;
      }
    }
    EXPECT_EQ(queries.size(), count);
    return queries;
  }

  static void ExpectSameAnswers(const std::vector<BatchAnswer>& a,
                                const std::vector<BatchAnswer>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].status.code(), b[i].status.code()) << "query " << i;
      // Bit-identical probabilities, not just approximately equal.
      EXPECT_EQ(std::memcmp(&a[i].probability, &b[i].probability,
                            sizeof(double)),
                0)
          << "query " << i << ": " << a[i].probability
          << " != " << b[i].probability;
      ASSERT_EQ(a[i].projection.has_value(), b[i].projection.has_value())
          << "query " << i;
      if (a[i].projection.has_value()) {
        EXPECT_EQ(SerializePxml(*a[i].projection),
                  SerializePxml(*b[i].projection))
            << "query " << i;
      }
    }
  }
};

TEST_F(BatchEngineTest, ManyQueriesOneInstanceHammer) {
  // 1000+ mixed queries hammering one shared const instance from many
  // workers.
  const ProbabilisticInstance inst = MakeWorkloadInstance();
  const std::vector<BatchQuery> queries = MakeQueries(inst, 1200);

  BatchOptions serial_opts;
  serial_opts.threads = 1;
  QueryEngine serial(inst, Generic(serial_opts));
  auto expected = serial.Run(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();

  for (std::size_t threads : {4u, 8u}) {
    BatchOptions opts;
    opts.threads = threads;
    QueryEngine engine(inst, Generic(opts));
    BatchStats stats;
    auto answers = engine.Run(queries, {}, &stats);
    ASSERT_TRUE(answers.ok()) << answers.status();
    ExpectSameAnswers(*answers, *expected);
    EXPECT_EQ(stats.threads, threads);
    EXPECT_GE(stats.tasks, queries.size());
    EXPECT_GT(stats.wall_seconds, 0.0);
    EXPECT_GT(stats.cpu_seconds, 0.0);
  }
}

TEST_F(BatchEngineTest, ResultsIndependentOfScheduling) {
  // The same engine run twice must produce bit-identical answers; a
  // fresh engine (different pool, different schedule) must as well.
  const ProbabilisticInstance inst = MakeWorkloadInstance();
  const std::vector<BatchQuery> queries = MakeQueries(inst, 300);

  BatchOptions opts;
  opts.threads = 4;
  QueryEngine engine(inst, Generic(opts));
  auto first = engine.Run(queries);
  ASSERT_TRUE(first.ok());
  auto second = engine.Run(queries);
  ASSERT_TRUE(second.ok());
  ExpectSameAnswers(*first, *second);

  QueryEngine fresh(inst, Generic(opts));
  auto third = fresh.Run(queries);
  ASSERT_TRUE(third.ok());
  ExpectSameAnswers(*first, *third);
}

TEST_F(BatchEngineTest, SerialPathUsesNoPool) {
  const ProbabilisticInstance inst = MakeWorkloadInstance();
  BatchOptions opts;
  opts.threads = 1;
  QueryEngine engine(inst, Generic(opts));
  EXPECT_EQ(engine.threads(), 1u);
  BatchStats stats;
  auto answers = engine.Run(MakeQueries(inst, 10), {}, &stats);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(stats.threads, 1u);
  EXPECT_EQ(stats.tasks, 10u);      // one per evaluated query
  EXPECT_EQ(stats.steal_count, 0u);
}

TEST_F(BatchEngineTest, MatchesDirectSerialOperators) {
  // Batch answers equal the historical single-query entry points.
  const ProbabilisticInstance inst = MakeWorkloadInstance();
  Rng rng(0x5EED);
  std::vector<BatchQuery> queries;
  std::vector<double> direct;
  for (int i = 0; i < 40; ++i) {
    auto cond = GenerateObjectSelection(inst, rng);
    ASSERT_TRUE(cond.ok());
    queries.push_back(BatchQuery::Point(cond->path, cond->object));
    auto p = PointQuery(inst, cond->path, cond->object);
    ASSERT_TRUE(p.ok());
    direct.push_back(*p);
    queries.push_back(BatchQuery::Exists(cond->path));
    auto e = ExistsQuery(inst, cond->path);
    ASSERT_TRUE(e.ok());
    direct.push_back(*e);
  }
  BatchOptions opts;
  opts.threads = 4;
  QueryEngine engine(inst, Generic(opts));
  auto answers = engine.Run(queries);
  ASSERT_TRUE(answers.ok());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE((*answers)[i].status.ok()) << (*answers)[i].status;
    EXPECT_EQ((*answers)[i].probability, direct[i]) << "query " << i;
  }
}

TEST_F(BatchEngineTest, PerQueryFailuresDoNotPoisonTheBatch) {
  const ProbabilisticInstance inst = MakeWorkloadInstance();
  Rng rng(0xFA11);
  auto cond = GenerateObjectSelection(inst, rng);
  ASSERT_TRUE(cond.ok());

  // A path starting at an absent object is rejected while locating.
  PathExpression bad;
  bad.start = 0xFFFFFF0u;  // never interned
  bad.labels = cond->path.labels;

  std::vector<BatchQuery> queries;
  queries.push_back(BatchQuery::Exists(cond->path));
  queries.push_back(BatchQuery::Exists(bad));
  queries.push_back(BatchQuery::Point(cond->path, cond->object));

  BatchOptions opts;
  opts.threads = 2;
  QueryEngine engine(inst, Generic(opts));
  auto answers = engine.Run(queries);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE((*answers)[0].status.ok());
  EXPECT_FALSE((*answers)[1].status.ok());
  EXPECT_TRUE((*answers)[2].status.ok());
}

TEST_F(BatchEngineTest, EmptyBatchIsOk) {
  const ProbabilisticInstance inst = MakeWorkloadInstance();
  QueryEngine engine(inst, Generic(BatchOptions{.threads = 2}));
  BatchStats stats;
  auto answers = engine.Run({}, {}, &stats);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->empty());
  EXPECT_EQ(stats.tasks, 0u);
}

}  // namespace
}  // namespace pxml
