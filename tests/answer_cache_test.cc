// Epoch-keyed answer cache tests (DESIGN.md §12): cached answers are
// bit-identical to cold evaluation at every thread count, hits are only
// ever served from the batch's pinned epoch (asserted under concurrent
// mutation against per-epoch expected values), the byte budget bounds
// residency with LRU eviction, epoch retirement drops every entry (proven
// on the registry counter), deterministic negative answers replay while
// serving-path trips never do, and hits bypass the admission cost gate
// (only misses count toward the estimate). The whole binary is expected
// to be clean under the ASAN/UBSAN/TSAN matrix.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "query/answer_cache.h"
#include "query/engine.h"
#include "util/rng.h"

namespace pxml {
namespace {

/// A uniform balanced tree: every edge labeled "c", every non-leaf an
/// IndependentOpf with seeded per-child probabilities, every leaf typed
/// over {v0, v1} with a seeded VPF. Construction order is a function of
/// (depth, branching) only, so two trees built with the same arguments
/// assign the same names and the same ObjectIds — the concurrent-mutation
/// differential below replays one mutation schedule on two such twins.
ProbabilisticInstance MakeUniformTree(std::uint32_t depth,
                                      std::uint32_t branching,
                                      std::uint64_t seed) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.mutable_weak();
  const LabelId c = weak.dict().InternLabel("c");
  auto type = weak.dict().DefineType("t", {Value("v0"), Value("v1")});
  EXPECT_TRUE(type.ok());
  Rng rng(seed);

  struct Node {
    ObjectId id;
    std::uint32_t level;
  };
  ObjectId next_name = 0;
  auto add_object = [&](void) {
    return weak.AddObject("n" + std::to_string(next_name++));
  };
  const ObjectId root = add_object();
  EXPECT_TRUE(weak.SetRoot(root).ok());
  std::vector<Node> queue{{root, 0}};
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Node n = queue[i];
    if (n.level == depth) {
      const double p = 0.1 + 0.8 * rng.NextDouble();
      Vpf vpf;
      vpf.Set(Value("v0"), p);
      vpf.Set(Value("v1"), 1.0 - p);
      EXPECT_TRUE(weak.SetLeafType(n.id, *type).ok());
      EXPECT_TRUE(inst.SetVpf(n.id, std::move(vpf)).ok());
      continue;
    }
    auto opf = std::make_unique<IndependentOpf>();
    for (std::uint32_t b = 0; b < branching; ++b) {
      const ObjectId child = add_object();
      EXPECT_TRUE(weak.AddPotentialChild(n.id, c, child).ok());
      EXPECT_TRUE(opf->AddChild(child, 0.3 + 0.6 * rng.NextDouble()).ok());
      queue.push_back({child, n.level + 1});
    }
    EXPECT_TRUE(inst.SetOpf(n.id, std::move(opf)).ok());
  }
  return inst;
}

/// A fresh random IndependentOpf over o's existing potential children.
std::unique_ptr<Opf> RandomOpfFor(const ProbabilisticInstance& inst,
                                  ObjectId o, Rng& rng) {
  auto opf = std::make_unique<IndependentOpf>();
  for (ObjectId child : inst.weak().AllPotentialChildren(o)) {
    EXPECT_TRUE(opf->AddChild(child, 0.05 + 0.9 * rng.NextDouble()).ok());
  }
  return opf;
}

/// The path root.c.c...c (`hops` labels) of a uniform tree.
PathExpression TreePath(const ProbabilisticInstance& inst,
                        std::uint32_t hops) {
  PathExpression p;
  p.start = inst.weak().root();
  const LabelId c = *inst.weak().dict().FindLabel("c");
  p.labels.assign(hops, c);
  return p;
}

/// Every object exactly `level` hops below the root (BFS order).
std::vector<ObjectId> ObjectsAtLevel(const ProbabilisticInstance& inst,
                                     std::uint32_t level) {
  std::vector<ObjectId> frontier{inst.weak().root()};
  for (std::uint32_t l = 0; l < level; ++l) {
    std::vector<ObjectId> next;
    for (ObjectId o : frontier) {
      for (ObjectId child : inst.weak().AllPotentialChildren(o)) {
        next.push_back(child);
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

void ExpectBitEqual(double a, double b, const char* what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << what << ": " << a << " != " << b;
}

/// Reference configuration: no answer cache, no frozen kernels —
/// bit-exact generic evaluation on every run.
BatchOptions Reference() {
  BatchOptions options;
  options.threads = 1;
  options.frozen = false;
  return options;
}

std::uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).value();
}

CachedAnswer OkAnswer(double p) {
  CachedAnswer a;
  a.probability = p;
  return a;
}

// ---------------------------------------------------------------------------
// AnswerCache unit: byte budget, LRU eviction, epoch drop

TEST(AnswerCacheUnitTest, ByteBudgetBoundsResidencyWithLruEviction) {
  // One overhead unit per shard: every shard admits exactly one empty-
  // message, zero-payload entry, so 64 inserts must evict all but the
  // most recent entry of each shard.
  AnswerCache cache(AnswerCache::kShards * AnswerCache::kEntryOverheadBytes);
  EXPECT_EQ(cache.budget_bytes(),
            AnswerCache::kShards * AnswerCache::kEntryOverheadBytes);

  std::vector<Fingerprint> fps(64);
  for (std::size_t i = 0; i < fps.size(); ++i) {
    fps[i].Mix(i + 1);
    cache.Insert(/*epoch=*/1, fps[i], OkAnswer(0.01 * double(i)),
                 /*payload_bytes=*/0);
    // The residency invariant holds after every single insert.
    EXPECT_LE(cache.bytes_used(), cache.budget_bytes()) << i;
  }
  EXPECT_LE(cache.size(), AnswerCache::kShards);
  EXPECT_GE(cache.stats().evictions, fps.size() - AnswerCache::kShards);

  // Exactly the resident entries hit; everything evicted misses.
  std::size_t hits = 0;
  const std::size_t resident = cache.size();
  for (const Fingerprint& fp : fps) {
    if (cache.Lookup(1, fp).has_value()) ++hits;
  }
  EXPECT_EQ(hits, resident);

  // An entry larger than its shard's whole budget self-evicts: the cache
  // never retains more than its budget.
  Fingerprint big;
  big.Mix(0xb16b00b5ull);
  cache.Insert(1, big, OkAnswer(0.5), 10 * cache.budget_bytes());
  EXPECT_LE(cache.bytes_used(), cache.budget_bytes());
  EXPECT_FALSE(cache.Lookup(1, big).has_value());
}

TEST(AnswerCacheUnitTest, DropEpochErasesExactlyThatEpoch) {
  AnswerCache cache;  // default budget — nothing evicts here
  Fingerprint fa, fb;
  fa.Mix(1);
  fb.Mix(2);
  cache.Insert(1, fa, OkAnswer(0.1), 0);
  cache.Insert(1, fb, OkAnswer(0.2), 0);
  cache.Insert(2, fa, OkAnswer(0.3), 0);
  cache.Insert(2, fb, OkAnswer(0.4), 0);
  ASSERT_EQ(cache.size(), 4u);

  cache.DropEpoch(1);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().epoch_drops, 1u);
  EXPECT_FALSE(cache.Lookup(1, fa).has_value());
  EXPECT_FALSE(cache.Lookup(1, fb).has_value());
  ASSERT_TRUE(cache.Lookup(2, fa).has_value());
  ExpectBitEqual(cache.Lookup(2, fa)->probability, 0.3, "epoch-2 survivor");

  // A drop that erases nothing is not counted.
  cache.DropEpoch(1);
  cache.DropEpoch(7);
  EXPECT_EQ(cache.stats().epoch_drops, 1u);
}

// ---------------------------------------------------------------------------
// Differential: cached answers vs the stateless reference

TEST(AnswerCacheTest, WarmRepeatBatchBitIdenticalAcrossThreadCounts) {
  const ProbabilisticInstance base = MakeUniformTree(4, 3, 11);
  QueryEngine ref(MakeUniformTree(4, 3, 11), Reference());

  // A repeat-heavy batch mixing every probability form: a sibling group
  // of leaf point targets, mid-level point targets, exists, and a value
  // query — 8 distinct questions tiled to 96 queries (~92% repeats).
  const std::vector<ObjectId> leaves = ObjectsAtLevel(base, 4);
  const std::vector<ObjectId> mids = ObjectsAtLevel(base, 2);
  const PathExpression full = TreePath(base, 4);
  const PathExpression mid = TreePath(base, 2);
  std::vector<BatchQuery> distinct;
  for (std::size_t k = 0; k < 4; ++k) {
    distinct.push_back(BatchQuery::Point(full, leaves[k * 7]));
  }
  distinct.push_back(BatchQuery::Point(mid, mids[0]));
  distinct.push_back(BatchQuery::Point(mid, mids[5]));
  distinct.push_back(BatchQuery::Exists(full));
  distinct.push_back(BatchQuery::ValueEquals(full, Value("v0")));
  std::vector<BatchQuery> queries;
  for (std::size_t i = 0; i < 96; ++i) {
    queries.push_back(distinct[i % distinct.size()]);
  }

  auto expected = ref.Run(queries);
  ASSERT_TRUE(expected.status().ok());
  for (const BatchAnswer& a : *expected) ASSERT_TRUE(a.status.ok());

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    SCOPED_TRACE(threads);
    BatchOptions opts;
    opts.threads = threads;
    opts.answer_cache = true;
    QueryEngine engine(MakeUniformTree(4, 3, 11), opts);

    BatchStats cold;
    auto got = engine.Run(queries, QueryRequest{}, &cold);
    ASSERT_TRUE(got.status().ok());
    EXPECT_EQ(cold.answer_cache_hits, 0u);
    EXPECT_EQ(cold.answer_cache_misses, queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE((*got)[i].status.ok()) << i;
      ExpectBitEqual((*got)[i].probability, (*expected)[i].probability,
                     "cold vs reference");
    }

    // Warm repeat: every query is a whole-answer hit with a zero-work
    // profile, still bit-identical.
    BatchStats warm;
    auto again = engine.Run(queries, QueryRequest{}, &warm);
    ASSERT_TRUE(again.status().ok());
    EXPECT_EQ(warm.answer_cache_hits, queries.size());
    EXPECT_EQ(warm.answer_cache_misses, 0u);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const BatchAnswer& a = (*again)[i];
      ASSERT_TRUE(a.status.ok()) << i;
      ExpectBitEqual(a.probability, (*expected)[i].probability,
                     "warm hit vs reference");
      EXPECT_TRUE(a.profile.answer_cache_hit) << i;
      EXPECT_STREQ(a.profile.dispatch, "cached") << i;
      EXPECT_EQ(a.profile.opf_row_ops, 0u) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent mutation: hits only ever come from the pinned epoch

TEST(AnswerCacheTest, ConcurrentMutationServesOnlyThePinnedEpoch) {
  constexpr std::uint32_t kDepth = 4, kBranching = 3;
  constexpr std::uint64_t kSeed = 17;
  ProbabilisticInstance twin_a = MakeUniformTree(kDepth, kBranching, kSeed);
  ProbabilisticInstance twin_b = MakeUniformTree(kDepth, kBranching, kSeed);

  const std::vector<ObjectId> leaves = ObjectsAtLevel(twin_a, kDepth);
  const PathExpression full = TreePath(twin_a, kDepth);
  std::vector<BatchQuery> queries;
  for (std::size_t k = 0; k < 8; ++k) {
    queries.push_back(BatchQuery::Point(full, leaves[k * 9]));
  }

  // The mutation schedule: root, then each level-1 child, in order. Both
  // engines replay it with identically seeded RNGs, so epoch e of the
  // subject is state-identical to the reference after e-1 mutations.
  std::vector<ObjectId> victims{twin_a.weak().root()};
  for (ObjectId c : ObjectsAtLevel(twin_a, 1)) victims.push_back(c);

  QueryEngine ref(std::move(twin_a), Reference());
  Rng rng_ref(99), rng_sub(99);
  std::unordered_map<std::uint64_t, std::vector<double>> expected;
  auto record = [&](std::uint64_t epoch) {
    auto r = ref.Run(queries);
    ASSERT_TRUE(r.status().ok());
    std::vector<double> v;
    for (const BatchAnswer& a : *r) {
      ASSERT_TRUE(a.status.ok());
      v.push_back(a.probability);
    }
    expected[epoch] = std::move(v);
  };
  record(1);
  for (std::size_t k = 0; k < victims.size(); ++k) {
    ASSERT_TRUE(
        ref.UpdateOpf(victims[k], RandomOpfFor(ref.instance(), victims[k],
                                               rng_ref))
            .ok());
    record(k + 2);
  }

  BatchOptions opts;
  opts.threads = 4;
  opts.answer_cache = true;
  QueryEngine engine(std::move(twin_b), opts);

  std::thread writer([&] {
    for (std::size_t k = 0; k < victims.size(); ++k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      EXPECT_TRUE(engine
                      .UpdateOpf(victims[k],
                                 RandomOpfFor(engine.instance(), victims[k],
                                              rng_sub))
                      .ok());
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int iter = 0; iter < 25; ++iter) {
        auto got = engine.Run(queries);
        if (!got.status().ok()) {
          ADD_FAILURE() << got.status().ToString();
          return;
        }
        for (std::size_t i = 0; i < got->size(); ++i) {
          const BatchAnswer& a = (*got)[i];
          EXPECT_TRUE(a.status.ok());
          auto it = expected.find(a.profile.epoch);
          // Whatever epoch the batch pinned, its answers — cached or
          // cold — must be bit-identical to a serial replay of the
          // committed prefix that epoch corresponds to.
          ASSERT_NE(it, expected.end()) << a.profile.epoch;
          ExpectBitEqual(a.probability, it->second[i],
                         "concurrent answer vs its epoch's expected value");
        }
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();

  // Quiesced warm determinism: one miss-and-fill run, then a full-hit
  // run against the final epoch.
  BatchStats fill, warm;
  ASSERT_TRUE(engine.Run(queries, QueryRequest{}, &fill).status().ok());
  auto last = engine.Run(queries, QueryRequest{}, &warm);
  ASSERT_TRUE(last.status().ok());
  EXPECT_EQ(warm.answer_cache_hits, queries.size());
  const std::vector<double>& final_expected =
      expected[victims.size() + 1];
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ExpectBitEqual((*last)[i].probability, final_expected[i],
                   "final warm answers");
  }
}

// ---------------------------------------------------------------------------
// Epoch retirement drops every entry — proven on the registry

TEST(AnswerCacheTest, EpochRetirementDropsAllEntries) {
  ProbabilisticInstance inst = MakeUniformTree(3, 3, 7);
  const ObjectId root = inst.weak().root();
  const std::vector<ObjectId> leaves = ObjectsAtLevel(inst, 3);
  const PathExpression full = TreePath(inst, 3);

  BatchOptions opts;
  opts.threads = 1;
  opts.answer_cache = true;
  QueryEngine engine(std::move(inst), opts);

  std::vector<BatchQuery> queries;
  for (std::size_t k = 0; k < 4; ++k) {
    queries.push_back(BatchQuery::Point(full, leaves[k]));
  }
  queries.push_back(BatchQuery::Exists(full));

  BatchStats fill, warm;
  ASSERT_TRUE(engine.Run(queries, QueryRequest{}, &fill).status().ok());
  ASSERT_TRUE(engine.Run(queries, QueryRequest{}, &warm).status().ok());
  EXPECT_EQ(warm.answer_cache_hits, queries.size());
  EXPECT_GT(engine.answer_cache_bytes_used(), 0u);

  const std::uint64_t registry_drops_before =
      CounterValue("pxml.cache.answer_epoch_drops");
  const std::uint64_t hits_before = engine.answer_cache_stats().hits;

  // Committing a mutation retires epoch 1 (no reader pins it), and the
  // retirement must eagerly drop its entries: the cache goes empty and
  // both the instance stats and the process-wide registry counter see
  // the drop.
  Rng rng(5);
  ASSERT_TRUE(
      engine.UpdateOpf(root, RandomOpfFor(engine.instance(), root, rng)).ok());
  EXPECT_GE(engine.answer_cache_stats().epoch_drops, 1u);
  EXPECT_GE(CounterValue("pxml.cache.answer_epoch_drops"),
            registry_drops_before + 1);
  EXPECT_EQ(engine.answer_cache_bytes_used(), 0u);

  // Zero hits across the commit: the new epoch's first run is all
  // misses.
  BatchStats after;
  auto got = engine.Run(queries, QueryRequest{}, &after);
  ASSERT_TRUE(got.status().ok());
  EXPECT_EQ(after.answer_cache_hits, 0u);
  EXPECT_EQ(engine.answer_cache_stats().hits, hits_before);
  for (const BatchAnswer& a : *got) EXPECT_EQ(a.profile.epoch, 2u);
}

// ---------------------------------------------------------------------------
// Negative caching: deterministic errors replay, serving trips never do

TEST(AnswerCacheTest, NegativeAnswersAreCachedServingTripsAreNot) {
  // Big enough that one exists pass charges past a QueryControl check
  // interval (4096 row-ops), so a row_op_budget of 1 reliably trips.
  ProbabilisticInstance inst = MakeUniformTree(6, 4, 21);
  const PathExpression full = TreePath(inst, 6);
  PathExpression bad = TreePath(inst, 1);
  // An absent start object is a deterministic query-shape error
  // (kUnknownObject) — a function of (epoch, query) alone.
  bad.start = static_cast<ObjectId>(inst.weak().dict().num_objects() + 1000);

  QueryEngine ref(MakeUniformTree(6, 4, 21), Reference());

  BatchOptions opts;
  opts.threads = 1;
  opts.answer_cache = true;
  QueryEngine engine(std::move(inst), opts);

  // A deterministic query-shape error is cacheable and replays with the
  // identical status code and message.
  const BatchAnswer cold = engine.RunOne(BatchQuery::Exists(bad));
  ASSERT_FALSE(cold.status.ok());
  ASSERT_TRUE(AnswerCache::Cacheable(cold.status));
  const BatchAnswer replay = engine.RunOne(BatchQuery::Exists(bad));
  EXPECT_TRUE(replay.profile.answer_cache_hit);
  EXPECT_STREQ(replay.profile.dispatch, "cached");
  EXPECT_EQ(replay.status.code(), cold.status.code());
  EXPECT_EQ(replay.status.message(), cold.status.message());

  // A budget trip is a property of the request, not the question: it is
  // never cached, so the same query under a generous request evaluates
  // cold and succeeds.
  QueryRequest tight;
  tight.row_op_budget = 1;
  const BatchAnswer tripped = engine.RunOne(BatchQuery::Exists(full), tight);
  ASSERT_EQ(tripped.status.code(), StatusCode::kResourceExhausted);

  const BatchAnswer ok = engine.RunOne(BatchQuery::Exists(full));
  ASSERT_TRUE(ok.status.ok());
  EXPECT_FALSE(ok.profile.answer_cache_hit);
  const BatchAnswer ref_answer = ref.RunOne(BatchQuery::Exists(full));
  ASSERT_TRUE(ref_answer.status.ok());
  ExpectBitEqual(ok.probability, ref_answer.probability,
                 "post-trip cold evaluation vs reference");

  // ... and the OK answer it produced is what the cache now replays.
  const BatchAnswer warm = engine.RunOne(BatchQuery::Exists(full));
  EXPECT_TRUE(warm.profile.answer_cache_hit);
  ExpectBitEqual(warm.probability, ref_answer.probability, "warm replay");
}

// ---------------------------------------------------------------------------
// Admission: cache hits cost no pass, so they bypass the cost gate

TEST(AnswerCacheTest, CacheHitsBypassTheCostGate) {
  const ProbabilisticInstance base = MakeUniformTree(3, 3, 41);
  const std::vector<ObjectId> leaves = ObjectsAtLevel(base, 3);
  const PathExpression full = TreePath(base, 3);
  std::vector<BatchQuery> queries;
  for (std::size_t k = 0; k < 4; ++k) {
    queries.push_back(BatchQuery::Point(full, leaves[k * 5]));
  }
  queries.push_back(BatchQuery::Exists(full));

  // A 1-row-op limit sheds every normal-priority batch that has anything
  // to evaluate; only the queries that miss the cache count toward it.
  BatchOptions opts;
  opts.threads = 1;
  opts.answer_cache = true;
  opts.max_estimated_row_ops = 1;
  QueryEngine engine(MakeUniformTree(3, 3, 41), opts);
  QueryRequest normal;
  QueryRequest critical;
  critical.priority = 1;

  auto expect_all_rejected = [](const std::vector<BatchAnswer>& answers) {
    for (std::size_t i = 0; i < answers.size(); ++i) {
      EXPECT_EQ(answers[i].status.code(), StatusCode::kRejected) << i;
    }
  };

  // Cold: every query misses, so the batch is over the limit.
  auto cold = engine.Run(queries, normal);
  ASSERT_TRUE(cold.status().ok());
  expect_all_rejected(*cold);

  // Priority 1 bypasses the gate, evaluates every query and fills the
  // cache.
  BatchStats fill_stats;
  auto filled = engine.Run(queries, critical, &fill_stats);
  ASSERT_TRUE(filled.status().ok());
  EXPECT_EQ(fill_stats.answer_cache_misses, queries.size());
  EXPECT_GT(fill_stats.opf_row_ops, 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE((*filled)[i].status.ok()) << i;
  }

  // Warm at priority 0: every query hits, the estimate is zero, and the
  // batch is admitted with the priority-1 answers.
  BatchStats warm_stats;
  auto warm = engine.Run(queries, normal, &warm_stats);
  ASSERT_TRUE(warm.status().ok());
  EXPECT_EQ(warm_stats.answer_cache_hits, queries.size());
  EXPECT_EQ(warm_stats.opf_row_ops, 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const BatchAnswer& a = (*warm)[i];
    ASSERT_TRUE(a.status.ok()) << i;
    EXPECT_TRUE(a.profile.answer_cache_hit) << i;
    ExpectBitEqual(a.probability, (*filled)[i].probability,
                   "warm hit vs priority-1 answer");
  }

  // One new question is a miss, which puts the batch over the limit
  // again.
  std::vector<BatchQuery> plus_one = queries;
  plus_one.push_back(BatchQuery::Point(full, leaves[1]));
  auto again = engine.Run(plus_one, normal);
  ASSERT_TRUE(again.status().ok());
  expect_all_rejected(*again);
}

}  // namespace
}  // namespace pxml
