// Thread pool and parallel batch engine tests: work-stealing pool
// semantics (drain-on-shutdown, exception propagation, parallel-for
// coverage), the many-queries/one-instance concurrency hammer, and
// scheduling-independence of batch results. The whole binary is expected
// to be clean under TSAN (-DPXML_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "query/engine.h"
#include "query/point_queries.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/query_generator.h"
#include "xml/writer.h"

namespace pxml {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }  // destructor drains
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingTasks) {
  // Tasks submitted right before destruction must still all run.
  std::atomic<int> count{0};
  auto pool = std::make_unique<ThreadPool>(8);
  for (int i = 0; i < 500; ++i) {
    pool->Submit([&count, i] {
      if (i % 7 == 0) {
        // Spawn follow-up work from inside a worker (own-deque path).
        // Submitting from a task is safe because the destructor waits
        // for pending == 0, which includes nested submissions.
      }
      count.fetch_add(1);
    });
  }
  pool.reset();  // blocks until all 500 ran
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, NestedSubmissionFromWorkersDrains) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&pool, &count] {
        pool.Submit([&count] { count.fetch_add(1); });
        count.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, StatsCountTasks) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  for (int i = 0; i < 64; ++i) group.Run([] {});
  group.Wait();
  ThreadPool::Stats s = pool.stats();
  EXPECT_EQ(s.tasks_executed, 64u);
  EXPECT_GE(s.max_queue_depth, 1u);
}

TEST(ThreadPoolTest, ResetMaxQueueDepthScopesHighWaterMark) {
  ThreadPool pool(2);
  // Hold both workers hostage so the next submissions pile up in the
  // injection queue deterministically.
  std::atomic<bool> release{false};
  TaskGroup hostages(&pool);
  for (int i = 0; i < 2; ++i) {
    hostages.Run([&release] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  TaskGroup work(&pool);
  for (int i = 0; i < 16; ++i) work.Run([] {});
  release.store(true, std::memory_order_release);
  work.Wait();
  hostages.Wait();
  EXPECT_GE(pool.stats().max_queue_depth, 16u);
  EXPECT_GE(pool.ResetMaxQueueDepth(), 16u);
  EXPECT_EQ(pool.stats().max_queue_depth, 0u);
  // The mark restarts from zero: one lone submission peaks at depth 1.
  TaskGroup after(&pool);
  after.Run([] {});
  after.Wait();
  EXPECT_EQ(pool.stats().max_queue_depth, 1u);
}

TEST(TaskGroupTest, WaitsForAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 256; ++i) {
    group.Run([&count] { count.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(count.load(), 256);
}

TEST(TaskGroupTest, PropagatesTaskException) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  for (int i = 0; i < 16; ++i) {
    group.Run([i] {
      if (i == 7) throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // The pool must remain usable after a task threw.
  std::atomic<int> count{0};
  TaskGroup after(&pool);
  after.Run([&count] { count.fetch_add(1); });
  after.Wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(TaskGroupTest, StackLifetimeChurn) {
  // Regression: Finish() must do its bookkeeping entirely under the
  // group mutex, otherwise the waiter can observe pending == 0, return
  // from Wait(), and destroy the stack group while the last finisher is
  // still about to lock it (use-after-free, TSAN-visible). Churn through
  // short-lived stack groups to maximize that window.
  ThreadPool pool(4);
  for (int iter = 0; iter < 2000; ++iter) {
    TaskGroup group(&pool);
    for (int t = 0; t < 3; ++t) group.Run([] {});
    group.Wait();
  }
}

TEST(TaskGroupTest, InlineWithoutPoolPropagatesException) {
  TaskGroup group(nullptr);
  group.Run([] { throw std::logic_error("inline"); });
  EXPECT_THROW(group.Wait(), std::logic_error);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> marks(10007);
  for (auto& m : marks) m.store(0);
  ParallelFor(&pool, marks.size(), 64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) marks[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < marks.size(); ++i) {
    ASSERT_EQ(marks[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NestedInsidePoolTasksCompletes) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  TaskGroup group(&pool);
  for (int t = 0; t < 8; ++t) {
    group.Run([&pool, &total] {
      ParallelFor(&pool, 100, 5, [&](std::size_t b, std::size_t e) {
        total.fetch_add(static_cast<int>(e - b));
      });
    });
  }
  group.Wait();
  EXPECT_EQ(total.load(), 800);
}

TEST(ParallelForTest, SerialWhenPoolIsNull) {
  std::vector<int> marks(100, 0);
  ParallelFor(nullptr, marks.size(), 8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++marks[i];
  });
  for (int m : marks) EXPECT_EQ(m, 1);
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
  // workers, with intra-query partitioning forced on (width 1).
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
    opts.min_parallel_width = 1;
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
  opts.min_parallel_width = 1;
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
  EXPECT_EQ(stats.tasks, 0u);       // no pool tasks on the serial path
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
  opts.min_parallel_width = 1;
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

TEST_F(BatchEngineTest, QueueDepthIsScopedPerBatch) {
  // A reused engine must not report an earlier batch's queue high-water
  // mark for a later, smaller batch.
  const ProbabilisticInstance inst = MakeWorkloadInstance();
  BatchOptions opts;
  opts.threads = 2;
  // Keep intra-query passes serial so task counts are exactly one per
  // query and the single-query batch can only ever reach depth 1.
  opts.min_parallel_width = 1000000;
  QueryEngine engine(inst, Generic(opts));

  BatchStats big;
  auto a = engine.Run(MakeQueries(inst, 300), {}, &big);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_GE(big.max_queue_depth, 2u);

  BatchStats small;
  auto b = engine.Run(MakeQueries(inst, 1), {}, &small);
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_LE(small.max_queue_depth, 1u);
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
