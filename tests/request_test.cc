// Engine-level tests for the QueryRequest serving path (DESIGN.md §11):
// the ApplyRequestFlag parser and its error paths, the fail-fast checks
// (expired deadline, pre-cancelled token), graceful degradation of a
// budget-blown batch, cooperative cancellation across thread counts, and
// the admission controller's shed/queue/recovery behavior — asserted
// through answers AND the pxml.engine.* counters.
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/query_generator.h"
#include "xml/writer.h"

namespace pxml {
namespace {

std::uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).value();
}

/// A §7.1-style balanced tree with typed leaves (so VPF mutations are
/// possible) — big enough that queries do real work, small enough that
/// every test stays fast.
ProbabilisticInstance MakeWorkload(std::uint32_t depth,
                                   std::uint32_t branching) {
  GeneratorConfig config;
  config.depth = depth;
  config.branching = branching;
  config.labeling = LabelingScheme::kSameLabels;
  config.seed = 20260809;
  config.with_leaf_values = true;
  auto inst = GenerateBalancedTree(config);
  EXPECT_TRUE(inst.status().ok()) << inst.status().ToString();
  return std::move(inst).ValueOrDie();
}

/// A mixed batch alternating cheap probability kinds with expensive
/// ancestor projections (the same recipe as bench_batch_queries).
std::vector<BatchQuery> MakeQueries(const ProbabilisticInstance& inst,
                                    std::size_t count) {
  Rng rng(0xCAFE5EED);
  std::vector<BatchQuery> queries;
  queries.reserve(count);
  while (queries.size() < count) {
    auto cond = GenerateObjectSelection(inst, rng);
    EXPECT_TRUE(cond.status().ok()) << cond.status().ToString();
    switch (queries.size() % 4) {
      case 0:
        queries.push_back(BatchQuery::Point(cond->path, cond->object));
        break;
      case 1:
        queries.push_back(BatchQuery::Exists(cond->path));
        break;
      case 2:
        queries.push_back(BatchQuery::Condition(*cond));
        break;
      default:
        queries.push_back(BatchQuery::AncestorProjection(cond->path));
        break;
    }
  }
  return queries;
}

/// Bitwise answer equality: status code, probability bits, serialized
/// projection.
bool SameAnswer(const BatchAnswer& a, const BatchAnswer& b) {
  bool same =
      a.status.code() == b.status.code() &&
      std::memcmp(&a.probability, &b.probability, sizeof(double)) == 0 &&
      a.projection.has_value() == b.projection.has_value();
  if (same && a.projection.has_value()) {
    same = SerializePxml(*a.projection) == SerializePxml(*b.projection);
  }
  return same;
}

// ---------------------------------------------------------------------
// ApplyRequestFlag: the bench/CLI parsing surface.

TEST(ApplyRequestFlagTest, ParsesEveryKnob) {
  QueryRequest request;
  ASSERT_TRUE(ApplyRequestFlag("deadline-ms=50", &request).ok());
  ASSERT_TRUE(request.deadline.has_value());
  // now + 50ms, allowing generous slack for a slow test machine.
  const auto remaining = *request.deadline - QueryRequest::Clock::now();
  EXPECT_GT(remaining, std::chrono::milliseconds(0));
  EXPECT_LE(remaining, std::chrono::milliseconds(50));

  ASSERT_TRUE(ApplyRequestFlag("row-op-budget=123456", &request).ok());
  EXPECT_EQ(request.row_op_budget, 123456u);

  ASSERT_TRUE(ApplyRequestFlag("priority=-7", &request).ok());
  EXPECT_EQ(request.priority, -7);
  ASSERT_TRUE(ApplyRequestFlag("priority=3", &request).ok());
  EXPECT_EQ(request.priority, 3);

  ASSERT_TRUE(ApplyRequestFlag("require-latest=1", &request).ok());
  EXPECT_TRUE(request.require_latest);
  ASSERT_TRUE(ApplyRequestFlag("require-latest=0", &request).ok());
  EXPECT_FALSE(request.require_latest);
}

TEST(ApplyRequestFlagTest, RejectsMalformedAndLeavesRequestUntouched) {
  QueryRequest request;
  request.row_op_budget = 777;
  request.priority = 2;

  const char* bad[] = {
      "",                      // no key at all
      "deadline-ms",           // missing '='
      "deadline-ms=",          // empty value
      "deadline-ms=abc",       // non-numeric
      "deadline-ms=10ms",      // trailing junk
      "row-op-budget=-3",      // negative where unsigned expected
      "row-op-budget=1.5",     // fractional
      "priority=high",         // non-numeric
      "require-latest=yes",    // wants 0|1
      "require-latest=2",      // out of domain
      "unknown-knob=1",        // unknown key
  };
  for (const char* flag : bad) {
    Status st = ApplyRequestFlag(flag, &request);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "'" << flag << "'";
  }
  // A failed parse never half-applies.
  EXPECT_FALSE(request.deadline.has_value());
  EXPECT_EQ(request.row_op_budget, 777u);
  EXPECT_EQ(request.priority, 2);
  EXPECT_FALSE(request.require_latest);
}

// ---------------------------------------------------------------------
// Fail-fast paths: nothing is pinned or dispatched.

TEST(QueryRequestTest, ExpiredDeadlineFailsFastWholeBatch) {
  ProbabilisticInstance inst = MakeWorkload(4, 3);
  QueryEngine engine(inst);
  std::vector<BatchQuery> queries = MakeQueries(inst, 6);

  const std::uint64_t before = CounterValue("pxml.engine.deadline_exceeded");
  QueryRequest request;
  request.deadline =
      QueryRequest::Clock::now() - std::chrono::milliseconds(5);
  auto answers = engine.Run(queries, request);
  ASSERT_TRUE(answers.status().ok()) << answers.status().ToString();
  ASSERT_EQ(answers->size(), queries.size());
  for (const BatchAnswer& ans : *answers) {
    EXPECT_EQ(ans.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_STRNE(ans.profile.kind, "");  // profile filled even on failure
  }
  EXPECT_EQ(CounterValue("pxml.engine.deadline_exceeded") - before,
            queries.size());
}

TEST(QueryRequestTest, PreCancelledTokenFailsFastWholeBatch) {
  ProbabilisticInstance inst = MakeWorkload(4, 3);
  QueryEngine engine(inst);
  std::vector<BatchQuery> queries = MakeQueries(inst, 6);

  const std::uint64_t before = CounterValue("pxml.engine.cancelled");
  CancellationToken token;
  token.RequestCancel();
  QueryRequest request;
  request.cancel = &token;
  auto answers = engine.Run(queries, request);
  ASSERT_TRUE(answers.status().ok());
  ASSERT_EQ(answers->size(), queries.size());
  for (const BatchAnswer& ans : *answers) {
    EXPECT_EQ(ans.status.code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(CounterValue("pxml.engine.cancelled") - before, queries.size());
}

TEST(QueryRequestTest, RunOneCarriesTheRequest) {
  ProbabilisticInstance inst = MakeWorkload(4, 3);
  QueryEngine engine(inst);
  std::vector<BatchQuery> queries = MakeQueries(inst, 4);

  // Unconstrained RunOne matches the batch answer for the same query.
  auto batch = engine.Run(queries, QueryRequest{});
  ASSERT_TRUE(batch.status().ok());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    BatchAnswer one = engine.RunOne(queries[i]);
    EXPECT_TRUE(SameAnswer(one, (*batch)[i])) << i;
  }
  // And a constrained RunOne observes the request.
  QueryRequest expired;
  expired.deadline = QueryRequest::Clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(engine.RunOne(queries[0], expired).status.code(),
            StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------
// Graceful degradation: one blown query never poisons the batch.

TEST(QueryRequestTest, BudgetBlownQueriesDegradeGracefully) {
  ProbabilisticInstance inst = MakeWorkload(5, 4);
  std::vector<BatchQuery> queries = MakeQueries(inst, 16);

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    BatchOptions options;
    options.threads = threads;
    // Generic evaluation: per-query row-op totals are a pure function of
    // the query, so the budget split is deterministic.
    options.frozen = false;
    QueryEngine engine(inst, options);

    auto reference = engine.Run(queries, QueryRequest{});
    ASSERT_TRUE(reference.status().ok());

    // Pick a budget strictly between the cheapest and the priciest
    // query, so the batch necessarily splits into both outcomes.
    std::uint64_t min_cost = ~0ull, max_cost = 0;
    for (const BatchAnswer& ans : *reference) {
      ASSERT_TRUE(ans.status.ok());
      min_cost = std::min(min_cost, ans.profile.opf_row_ops);
      max_cost = std::max(max_cost, ans.profile.opf_row_ops);
    }
    ASSERT_LT(min_cost, max_cost) << "batch is not heterogeneous";
    const std::uint64_t budget = (min_cost + max_cost) / 2;

    const std::uint64_t before = CounterValue("pxml.engine.budget_exhausted");
    QueryRequest request;
    request.row_op_budget = budget;
    auto answers = engine.Run(queries, request);
    ASSERT_TRUE(answers.status().ok());

    std::size_t ok = 0, exhausted = 0;
    for (std::size_t i = 0; i < answers->size(); ++i) {
      const BatchAnswer& ans = (*answers)[i];
      if (ans.status.ok()) {
        ++ok;
        // Completed queries are bit-identical to the unconstrained run
        // against the same epoch.
        EXPECT_TRUE(SameAnswer(ans, (*reference)[i])) << i;
        EXPECT_EQ(ans.profile.epoch, (*reference)[i].profile.epoch) << i;
      } else {
        EXPECT_EQ(ans.status.code(), StatusCode::kResourceExhausted) << i;
        ++exhausted;
      }
    }
    EXPECT_GE(ok, 1u);
    EXPECT_GE(exhausted, 1u);
    EXPECT_EQ(CounterValue("pxml.engine.budget_exhausted") - before,
              exhausted);
  }
}

TEST(QueryRequestTest, ConcurrentCancelAcrossThreadCounts) {
  ProbabilisticInstance inst = MakeWorkload(6, 4);
  std::vector<BatchQuery> queries = MakeQueries(inst, 32);

  // Reference answers from an unconstrained serial engine (generic,
  // matching the engines under test).
  BatchOptions ref_options;
  ref_options.threads = 1;
  ref_options.frozen = false;
  QueryEngine ref_engine(inst, ref_options);
  auto reference = ref_engine.Run(queries, QueryRequest{});
  ASSERT_TRUE(reference.status().ok());

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    SCOPED_TRACE(threads);
    BatchOptions options;
    options.threads = threads;
    options.frozen = false;
    QueryEngine engine(inst, options);

    const std::uint64_t before = CounterValue("pxml.engine.cancelled");
    CancellationToken token;
    QueryRequest request;
    request.cancel = &token;
    std::thread canceller([&token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      token.RequestCancel();
    });
    auto answers = engine.Run(queries, request);
    canceller.join();
    ASSERT_TRUE(answers.status().ok());
    ASSERT_EQ(answers->size(), queries.size());

    std::size_t cancelled = 0;
    for (std::size_t i = 0; i < answers->size(); ++i) {
      const BatchAnswer& ans = (*answers)[i];
      if (ans.status.ok()) {
        // A query that completed before the trip keeps its answer,
        // bit-identical to the unconstrained reference.
        EXPECT_TRUE(SameAnswer(ans, (*reference)[i])) << i;
      } else {
        EXPECT_EQ(ans.status.code(), StatusCode::kCancelled) << i;
        ++cancelled;
      }
    }
    EXPECT_EQ(CounterValue("pxml.engine.cancelled") - before, cancelled);
  }
}

// ---------------------------------------------------------------------
// Admission control.

TEST(AdmissionTest, CostGateShedsNormalTrafficAndCriticalBypasses) {
  ProbabilisticInstance inst = MakeWorkload(4, 3);
  BatchOptions options;
  options.max_estimated_row_ops = 1;  // everything exceeds this
  QueryEngine engine(inst, options);
  std::vector<BatchQuery> queries = MakeQueries(inst, 4);

  const std::uint64_t rejected_before = CounterValue("pxml.engine.rejected");
  const std::uint64_t admitted_before = CounterValue("pxml.engine.admitted");

  for (int priority : {-1, 0}) {
    QueryRequest request;
    request.priority = priority;
    auto answers = engine.Run(queries, request);
    ASSERT_TRUE(answers.status().ok());
    for (const BatchAnswer& ans : *answers) {
      EXPECT_EQ(ans.status.code(), StatusCode::kRejected) << priority;
    }
  }
  EXPECT_EQ(CounterValue("pxml.engine.rejected") - rejected_before, 2u);

  QueryRequest critical;
  critical.priority = 1;
  auto answers = engine.Run(queries, critical);
  ASSERT_TRUE(answers.status().ok());
  for (const BatchAnswer& ans : *answers) {
    EXPECT_TRUE(ans.status.ok()) << ans.status.ToString();
  }
  EXPECT_EQ(CounterValue("pxml.engine.admitted") - admitted_before, 1u);
  EXPECT_EQ(engine.in_flight_batches(), 0u);
}

TEST(AdmissionTest, InFlightLimitQueuesNormalAndShedsBestEffort) {
  ProbabilisticInstance inst = MakeWorkload(6, 4);
  BatchOptions options;
  options.threads = 2;
  options.max_in_flight_batches = 1;
  QueryEngine engine(inst, options);

  // A long background batch to hold the single slot...
  std::vector<BatchQuery> long_batch = MakeQueries(inst, 48);
  // ...and a one-query foreground probe.
  std::vector<BatchQuery> probe = MakeQueries(inst, 1);

  bool saw_rejection = false;
  for (int round = 0; round < 3 && !saw_rejection; ++round) {
    std::thread background([&] {
      auto answers = engine.Run(long_batch, QueryRequest{});
      ASSERT_TRUE(answers.status().ok());
    });
    // Wait until the background batch holds the slot.
    while (engine.in_flight_batches() == 0) std::this_thread::yield();

    // Best-effort traffic sheds immediately at the limit. (The batch can
    // in principle finish between the poll above and the admission check
    // — hence the retry loop; one round is virtually always enough.)
    QueryRequest best_effort;
    best_effort.priority = -1;
    auto shed = engine.Run(probe, best_effort);
    ASSERT_TRUE(shed.status().ok());
    saw_rejection = (*shed)[0].status.code() == StatusCode::kRejected;

    // Normal traffic queues for the slot instead and completes.
    auto queued = engine.Run(probe, QueryRequest{});
    ASSERT_TRUE(queued.status().ok());
    EXPECT_TRUE((*queued)[0].status.ok())
        << (*queued)[0].status.ToString();
    background.join();
  }
  EXPECT_TRUE(saw_rejection);

  // Recovery: with the engine drained, best-effort traffic is admitted
  // again.
  EXPECT_EQ(engine.in_flight_batches(), 0u);
  QueryRequest best_effort;
  best_effort.priority = -1;
  auto recovered = engine.Run(probe, best_effort);
  ASSERT_TRUE(recovered.status().ok());
  EXPECT_TRUE((*recovered)[0].status.ok());
}

TEST(AdmissionTest, DeadlineExpiresWhileQueuedForSlot) {
  ProbabilisticInstance inst = MakeWorkload(6, 4);
  BatchOptions options;
  options.threads = 2;
  options.max_in_flight_batches = 1;
  QueryEngine engine(inst, options);

  std::vector<BatchQuery> long_batch = MakeQueries(inst, 48);
  std::vector<BatchQuery> probe = MakeQueries(inst, 1);

  std::thread background([&] {
    auto answers = engine.Run(long_batch, QueryRequest{});
    ASSERT_TRUE(answers.status().ok());
  });
  while (engine.in_flight_batches() == 0) std::this_thread::yield();

  // A normal-priority request whose deadline cannot outlast the slot
  // holder: it queues, times out, and reports the truthful code.
  QueryRequest request;
  request.deadline =
      QueryRequest::Clock::now() + std::chrono::milliseconds(1);
  auto answers = engine.Run(probe, request);
  background.join();
  ASSERT_TRUE(answers.status().ok());
  // Either the deadline expired while queued (the common case) or the
  // background batch finished in time and the probe ran — in which case
  // its own control may still trip on the expired deadline. All three
  // codes are truthful; what must never happen is kRejected.
  const StatusCode code = (*answers)[0].status.code();
  EXPECT_TRUE(code == StatusCode::kDeadlineExceeded ||
              code == StatusCode::kOk)
      << (*answers)[0].status.ToString();
}

TEST(AdmissionTest, MvccStressWithRetryOnRejection) {
  ProbabilisticInstance inst = MakeWorkload(5, 4);
  BatchOptions options;
  options.threads = 2;
  options.max_in_flight_batches = 2;
  QueryEngine engine(std::move(inst), options);  // owning: mutations on

  // Mutation victims, as in the MVCC stress tests: leaf VPFs only.
  std::vector<ObjectId> leaves;
  for (ObjectId o : engine.instance().weak().Objects()) {
    if (engine.instance().weak().IsLeaf(o) &&
        engine.instance().GetVpf(o) != nullptr) {
      leaves.push_back(o);
    }
  }
  ASSERT_FALSE(leaves.empty());
  std::vector<BatchQuery> queries = MakeQueries(engine.instance(), 8);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(0xF00D);
    while (!done.load(std::memory_order_acquire)) {
      const ObjectId victim = leaves[rng.NextBounded(leaves.size())];
      const double p = 0.05 + 0.9 * rng.NextDouble();
      Vpf vpf;
      vpf.Set(Value("v0"), p);
      vpf.Set(Value("v1"), 1.0 - p);
      ASSERT_TRUE(engine.UpdateVpf(victim, std::move(vpf)).ok());
      std::this_thread::yield();
    }
  });

  constexpr int kReaders = 4;
  constexpr int kBatchesPerReader = 5;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int b = 0; b < kBatchesPerReader; ++b) {
        // Best-effort with retry: shed batches are simply resubmitted.
        for (int attempt = 0;; ++attempt) {
          ASSERT_LT(attempt, 10000) << "never admitted";
          QueryRequest request;
          request.priority = -1;
          auto answers = engine.Run(queries, request);
          ASSERT_TRUE(answers.status().ok());
          if (!answers->empty() &&
              (*answers)[0].status.code() == StatusCode::kRejected) {
            std::this_thread::yield();
            continue;
          }
          // Admitted: every answer of the pinned epoch is OK (snapshot
          // reads never observe a half-applied mutation).
          for (const BatchAnswer& ans : *answers) {
            ASSERT_TRUE(ans.status.ok()) << ans.status.ToString();
            EXPECT_EQ(ans.profile.epoch, (*answers)[0].profile.epoch);
          }
          break;
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  done.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(engine.in_flight_batches(), 0u);
}

}  // namespace
}  // namespace pxml
