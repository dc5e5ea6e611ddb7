// QueryEngine facade tests: the default engine's answers are
// bit-identical to generic evaluation and to the possible-worlds oracle
// across randomized mutate/query interleavings and targeted local
// updates, snapshot isolation, and the mutation API (UpdateOpf /
// UpdateVpf / ReplaceSubtree, kStale for require_latest readers). The
// whole binary is expected to be clean under TSAN
// (-DPXML_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "query/engine.h"
#include "query/epsilon.h"
#include "query/point_queries.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/query_generator.h"

namespace pxml {
namespace {

PathExpression MakePath(const Dictionary& dict, ObjectId start,
                        std::initializer_list<const char*> labels) {
  PathExpression p;
  p.start = start;
  for (const char* l : labels) p.labels.push_back(*dict.FindLabel(l));
  return p;
}

/// A uniform balanced tree: every edge labeled "c", every non-leaf an
/// IndependentOpf with seeded per-child probabilities, every leaf typed
/// over {v0, v1} with a seeded VPF. Construction order is a function of
/// (depth, branching) only, so two trees of the same shape assign the
/// same names *and the same ObjectIds* — which the ReplaceSubtree tests
/// exploit.
ProbabilisticInstance MakeUniformTree(std::uint32_t depth,
                                      std::uint32_t branching,
                                      std::uint64_t seed) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
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
      EXPECT_TRUE(
          opf->AddChild(child, 0.3 + 0.6 * rng.NextDouble()).ok());
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

Vpf RandomVpf(Rng& rng) {
  const double p = 0.05 + 0.9 * rng.NextDouble();
  Vpf vpf;
  vpf.Set(Value("v0"), p);
  vpf.Set(Value("v1"), 1.0 - p);
  return vpf;
}

/// The full-depth path root.c.c...c of a uniform tree.
PathExpression FullDepthPath(const ProbabilisticInstance& inst,
                             std::uint32_t depth) {
  PathExpression p;
  p.start = inst.weak().root();
  const LabelId c = *inst.weak().dict().FindLabel("c");
  p.labels.assign(depth, c);
  return p;
}

void ExpectBitEqual(double a, double b, const char* what) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << what << ": " << a << " != " << b;
}

/// Reference configuration: no frozen kernels — bit-exact generic
/// evaluation on every run.
BatchOptions Generic(BatchOptions options) {
  options.frozen = false;
  return options;
}

/// P(∃ path) through RunOne, with the answer's status as a Result.
Result<double> ExistsP(const QueryEngine& engine, const PathExpression& path,
                       const QueryRequest& request = {}) {
  BatchAnswer answer = engine.RunOne(BatchQuery::Exists(path), request);
  if (!answer.status.ok()) return answer.status;
  return answer.probability;
}

// ---------------------------------------------------------------------------
// Default engine vs generic evaluation

TEST(QueryEngineTest, CachedAnswersBitIdenticalToUncachedAcrossThreads) {
  GeneratorConfig config;
  config.depth = 5;
  config.branching = 3;
  config.labeling = LabelingScheme::kSameLabels;
  config.seed = 20260806;
  config.with_leaf_values = true;
  auto generated = GenerateBalancedTree(config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const ProbabilisticInstance inst = *generated;

  std::vector<BatchQuery> queries;
  Rng rng(0xE1);
  while (queries.size() < 200) {
    auto cond = GenerateObjectSelection(inst, rng);
    ASSERT_TRUE(cond.ok());
    switch (queries.size() % 3) {
      case 0:
        queries.push_back(BatchQuery::Point(cond->path, cond->object));
        break;
      case 1:
        queries.push_back(BatchQuery::Exists(cond->path));
        break;
      case 2:
        queries.push_back(BatchQuery::ValueEquals(
            cond->path, Value(queries.size() % 2 == 0 ? "v0" : "v1")));
        break;
    }
  }

  BatchOptions generic_opts;
  generic_opts.threads = 1;
  QueryEngine generic(inst, Generic(generic_opts));
  auto expected = generic.Run(queries);
  ASSERT_TRUE(expected.ok()) << expected.status();

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    BatchOptions opts;
    opts.threads = threads;
    QueryEngine engine(inst, opts);  // owning copy, default options
    // Run the batch twice on one engine: both runs must match the
    // generic serial answers.
    for (int pass = 0; pass < 2; ++pass) {
      auto answers = engine.Run(queries);
      ASSERT_TRUE(answers.ok()) << answers.status();
      ASSERT_EQ(answers->size(), expected->size());
      for (std::size_t i = 0; i < answers->size(); ++i) {
        ASSERT_TRUE((*answers)[i].status.ok()) << (*answers)[i].status;
        ExpectBitEqual((*answers)[i].probability, (*expected)[i].probability,
                       "query probability");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Local updates

/// The answers of `engine` to `queries` equal, bit for bit, a fresh
/// generic engine's answers over the engine's committed instance.
void ExpectMatchesFreshGeneric(const QueryEngine& engine,
                               const std::vector<BatchQuery>& queries,
                               const char* what) {
  auto answers = engine.Run(queries);
  ASSERT_TRUE(answers.ok()) << answers.status();
  QueryEngine generic(engine.instance(), Generic(BatchOptions{.threads = 1}));
  auto fresh = generic.Run(queries);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE((*answers)[i].status.ok()) << (*answers)[i].status;
    ExpectBitEqual((*answers)[i].probability, (*fresh)[i].probability, what);
  }
}

/// Process-wide totals of frozen kernels that FrozenInstance::Refreeze
/// recompiled (the dirty spine) vs carried over unchanged.
struct RefreezeCounts {
  std::uint64_t recompiled = 0;
  std::uint64_t reused = 0;
};

RefreezeCounts RefreezeCountsNow() {
  obs::Registry& registry = obs::Registry::Global();
  return {registry.GetCounter("pxml.frozen.refreeze_recompiled").value(),
          registry.GetCounter("pxml.frozen.refreeze_reused").value()};
}

/// The Refreeze activity between two RefreezeCountsNow() reads.
RefreezeCounts RefreezeSince(const RefreezeCounts& before) {
  const RefreezeCounts now = RefreezeCountsNow();
  return {now.recompiled - before.recompiled, now.reused - before.reused};
}

TEST(QueryEngineTest, LocalUpdateRecomputesOnlyDirtySpine) {
  // The paper's balanced-tree workload shape: depth 6, branching 3.
  const std::uint32_t depth = 6;
  const ProbabilisticInstance inst = MakeUniformTree(depth, 3, 0x7EE);
  QueryEngine engine(inst, BatchOptions{.threads = 1});
  const std::vector<BatchQuery> queries = {
      BatchQuery::Exists(FullDepthPath(inst, depth))};
  ExpectMatchesFreshGeneric(engine, queries, "before the update");

  // One local OPF update at a leaf-parent (deepest internal level): the
  // last internal object added is one.
  ObjectId leaf_parent = kInvalidId;
  for (ObjectId o : inst.weak().Objects()) {
    if (!inst.weak().IsLeaf(o) &&
        (leaf_parent == kInvalidId || o > leaf_parent)) {
      leaf_parent = o;
    }
  }
  ASSERT_NE(leaf_parent, kInvalidId);
  Rng rng(0xD1);
  const RefreezeCounts before = RefreezeCountsNow();
  ASSERT_TRUE(
      engine.UpdateOpf(leaf_parent, RandomOpfFor(engine.instance(),
                                                 leaf_parent, rng))
          .ok());

  // Publishing the update recompiles only the updated object's ancestor
  // spine — O(depth) kernels — and carries every other kernel over.
  const RefreezeCounts spent = RefreezeSince(before);
  EXPECT_GE(spent.recompiled, 1u);
  EXPECT_LE(spent.recompiled, depth);
  EXPECT_GE(spent.reused, 10 * spent.recompiled);

  // And the answer over the mutated instance equals a from-scratch
  // generic pass, bit for bit.
  ExpectMatchesFreshGeneric(engine, queries, "post-update exists probability");
}

TEST(QueryEngineTest, UpdateAtRootInvalidatesOnlyRootEntry) {
  const ProbabilisticInstance inst = MakeUniformTree(5, 3, 0x300);
  QueryEngine engine(inst, BatchOptions{.threads = 1});
  const std::vector<BatchQuery> queries = {
      BatchQuery::Exists(FullDepthPath(inst, 5))};
  ExpectMatchesFreshGeneric(engine, queries, "before the update");

  // The root has no ancestors, so a root update dirties exactly one
  // subtree-change stamp — its own — and one kernel recompiles.
  Rng rng(0xD2);
  const ObjectId root = engine.instance().weak().root();
  const RefreezeCounts before = RefreezeCountsNow();
  ASSERT_TRUE(
      engine.UpdateOpf(root, RandomOpfFor(engine.instance(), root, rng)).ok());
  EXPECT_EQ(RefreezeSince(before).recompiled, 1u);

  ExpectMatchesFreshGeneric(engine, queries, "post-root-update probability");
}

TEST(QueryEngineTest, LeafVpfUpdateRecomputesOnlyLeafSpine) {
  const std::uint32_t depth = 5;
  const ProbabilisticInstance inst = MakeUniformTree(depth, 3, 0x301);
  QueryEngine engine(inst, BatchOptions{.threads = 1});
  const PathExpression path = FullDepthPath(inst, depth);
  const std::vector<BatchQuery> queries = {
      BatchQuery::ValueEquals(path, Value("v0"))};
  ExpectMatchesFreshGeneric(engine, queries, "before the update");

  // Update one leaf's VPF: its survival ε changes, so exactly the leaf
  // and its ancestor spine recompile.
  ObjectId leaf = kInvalidId;
  for (ObjectId o : inst.weak().Objects()) {
    if (inst.weak().IsLeaf(o)) leaf = o;
  }
  ASSERT_NE(leaf, kInvalidId);
  Rng rng(0xD3);
  const RefreezeCounts before = RefreezeCountsNow();
  ASSERT_TRUE(engine.UpdateVpf(leaf, RandomVpf(rng)).ok());

  const RefreezeCounts spent = RefreezeSince(before);
  EXPECT_GE(spent.recompiled, 1u);
  EXPECT_LE(spent.recompiled, depth + 1);
  EXPECT_GE(spent.reused, 10 * spent.recompiled);

  ExpectMatchesFreshGeneric(engine, queries, "post-VPF-update probability");
}

TEST(QueryEngineTest, CommitsShareTheWeakInstance) {
  // ℘-only commits never copy W: the engine's first epoch shares the
  // caller's W, and every later epoch shares it too.
  const ProbabilisticInstance inst = MakeUniformTree(3, 3, 0x5A);
  QueryEngine engine(inst, BatchOptions{.threads = 1});
  const WeakInstance* weak = &engine.instance().weak();
  EXPECT_EQ(weak, &inst.weak());
  std::vector<ObjectId> leaves;
  for (ObjectId o : inst.weak().Objects()) {
    if (inst.weak().IsLeaf(o)) leaves.push_back(o);
  }
  ASSERT_FALSE(leaves.empty());
  Rng rng(0x5B);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.UpdateVpf(leaves[i % leaves.size()], RandomVpf(rng))
                    .ok());
    EXPECT_EQ(&engine.instance().weak(), weak) << "after commit " << i + 1;
  }
  EXPECT_EQ(engine.head_epoch(), 51u);
}

TEST(QueryEngineTest, UpdateOutsideQueriedPathLeavesAnswerUnchanged) {
  // Two sibling subtrees under the root, reached by different labels;
  // the query descends into A, the update lands in B.
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.weak();
  const LabelId a = weak.dict().InternLabel("a");
  const LabelId b = weak.dict().InternLabel("b");
  const ObjectId root = weak.AddObject("root");
  ASSERT_TRUE(weak.SetRoot(root).ok());
  const ObjectId a1 = weak.AddObject("a1");
  const ObjectId a2 = weak.AddObject("a2");
  const ObjectId b1 = weak.AddObject("b1");
  const ObjectId b2 = weak.AddObject("b2");
  ASSERT_TRUE(weak.AddPotentialChild(root, a, a1).ok());
  ASSERT_TRUE(weak.AddPotentialChild(root, b, b1).ok());
  ASSERT_TRUE(weak.AddPotentialChild(a1, a, a2).ok());
  ASSERT_TRUE(weak.AddPotentialChild(b1, b, b2).ok());
  auto root_opf = std::make_unique<IndependentOpf>();
  ASSERT_TRUE(root_opf->AddChild(a1, 0.7).ok());
  ASSERT_TRUE(root_opf->AddChild(b1, 0.6).ok());
  ASSERT_TRUE(inst.SetOpf(root, std::move(root_opf)).ok());
  auto a1_opf = std::make_unique<IndependentOpf>();
  ASSERT_TRUE(a1_opf->AddChild(a2, 0.5).ok());
  ASSERT_TRUE(inst.SetOpf(a1, std::move(a1_opf)).ok());
  auto b1_opf = std::make_unique<IndependentOpf>();
  ASSERT_TRUE(b1_opf->AddChild(b2, 0.4).ok());
  ASSERT_TRUE(inst.SetOpf(b1, std::move(b1_opf)).ok());

  QueryEngine engine(inst, BatchOptions{.threads = 1});
  const PathExpression path =
      MakePath(engine.instance().dict(), root, {"a", "a"});
  auto before = ExistsP(engine, path);
  ASSERT_TRUE(before.ok());

  // Mutate b1, outside the queried path: B is pruned away, so the
  // answer must not move.
  auto new_opf = std::make_unique<IndependentOpf>();
  ASSERT_TRUE(new_opf->AddChild(b2, 0.9).ok());
  ASSERT_TRUE(engine.UpdateOpf(b1, std::move(new_opf)).ok());

  auto after = ExistsP(engine, path);
  ASSERT_TRUE(after.ok());
  ExpectBitEqual(*after, *before,
                 "update outside the queried path must not change the answer");
}

// ---------------------------------------------------------------------------
// Randomized mutate/query interleavings, default vs generic vs oracle

TEST(QueryEngineTest, RandomizedInterleavingsMatchUncachedAndWorldsOracle) {
  // Small enough to enumerate worlds, deep enough to exercise Refreeze.
  const std::uint32_t depth = 2;
  const std::uint32_t branching = 2;
  constexpr int kRounds = 12;

  // One deterministic interleaving, replayed at every thread count; each
  // round mutates (OPF or VPF) and then answers point/exists/value
  // queries through the facade.
  auto run_interleaving = [&](std::size_t threads,
                              std::vector<double>& answers) {
    const ProbabilisticInstance inst =
        MakeUniformTree(depth, branching, 0x5EED);
    BatchOptions opts;
    opts.threads = threads;
    QueryEngine engine(inst, opts);
    Rng mrng(0xA0);  // mutation stream
    Rng qrng(0xB0);  // query stream

    for (int round = 0; round < kRounds; ++round) {
      // Mutate: a random object's ℘ (OPF for non-leaves, VPF for leaves).
      const std::vector<ObjectId> objects = engine.instance().weak().Objects();
      const ObjectId victim =
          objects[mrng.NextBounded(objects.size())];
      if (engine.instance().weak().IsLeaf(victim)) {
        ASSERT_TRUE(engine.UpdateVpf(victim, RandomVpf(mrng)).ok());
      } else {
        ASSERT_TRUE(
            engine
                .UpdateOpf(victim,
                           RandomOpfFor(engine.instance(), victim, mrng))
                .ok());
      }

      // Query through the facade (batch + single-query entry points).
      auto cond = GenerateObjectSelection(engine.instance(), qrng);
      ASSERT_TRUE(cond.ok());
      const Value v(round % 2 == 0 ? "v0" : "v1");
      auto batch = engine.Run({BatchQuery::Point(cond->path, cond->object),
                               BatchQuery::Exists(cond->path),
                               BatchQuery::ValueEquals(cond->path, v)});
      ASSERT_TRUE(batch.ok());
      for (const BatchAnswer& ans : *batch) {
        ASSERT_TRUE(ans.status.ok()) << ans.status;
        answers.push_back(ans.probability);
      }
      auto single = ExistsP(engine, cond->path);
      ASSERT_TRUE(single.ok());
      answers.push_back(*single);

      // Differential: the default facade vs a generic engine vs the
      // possible-worlds oracle, on the current (mutated) instance.
      QueryEngine generic(engine.instance(),
                          Generic(BatchOptions{.threads = 1}));
      auto fresh = generic.Run({BatchQuery::Point(cond->path, cond->object),
                                BatchQuery::Exists(cond->path),
                                BatchQuery::ValueEquals(cond->path, v)});
      ASSERT_TRUE(fresh.ok());
      for (std::size_t i = 0; i < fresh->size(); ++i) {
        ExpectBitEqual((*batch)[i].probability, (*fresh)[i].probability,
                       "default vs generic");
      }
      if (threads == 1) {
        auto oracle_point = PointQueryViaWorlds(engine.instance(), cond->path,
                                                cond->object);
        ASSERT_TRUE(oracle_point.ok()) << oracle_point.status();
        EXPECT_NEAR((*batch)[0].probability, *oracle_point, 1e-9);
        auto oracle_exists =
            ExistsQueryViaWorlds(engine.instance(), cond->path);
        ASSERT_TRUE(oracle_exists.ok());
        EXPECT_NEAR((*batch)[1].probability, *oracle_exists, 1e-9);
        auto oracle_value =
            ValueQueryViaWorlds(engine.instance(), cond->path, v);
        ASSERT_TRUE(oracle_value.ok());
        EXPECT_NEAR((*batch)[2].probability, *oracle_value, 1e-9);
      }
    }
  };

  std::vector<double> serial;
  run_interleaving(1, serial);
  for (std::size_t threads : {2u, 4u, 8u}) {
    std::vector<double> parallel;
    run_interleaving(threads, parallel);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ExpectBitEqual(parallel[i], serial[i], "threaded vs serial answer");
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot isolation and require_latest

TEST(QueryEngineTest, QueriesDuringMutationScopeReadTheCommittedEpoch) {
  const ProbabilisticInstance inst = MakeUniformTree(3, 2, 0x11);
  QueryEngine engine(inst, BatchOptions{.threads = 2});
  const PathExpression path = FullDepthPath(inst, 3);

  auto before = ExistsP(engine, path);
  ASSERT_TRUE(before.ok()) << before.status();

  {
    QueryEngine::MutationGuard guard = engine.BeginMutations();
    // Mutate first so the working copy definitely diverges from the
    // committed epoch the readers are about to pin.
    Rng rng(0xD4);
    const ObjectId root = inst.weak().root();
    ASSERT_TRUE(guard.UpdateOpf(root, RandomOpfFor(inst, root, rng)).ok());

    // Snapshot isolation: the open guard does not block readers, and the
    // answer is bit-identical to the pre-mutation serial answer.
    auto batch = engine.Run({BatchQuery::Exists(path)});
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE((*batch)[0].status.ok()) << (*batch)[0].status;
    ExpectBitEqual((*batch)[0].probability, *before, "during-guard batch");
    EXPECT_EQ((*batch)[0].profile.epoch, 1u);
    auto single = ExistsP(engine, path);
    ASSERT_TRUE(single.ok()) << single.status();
    ExpectBitEqual(*single, *before, "during-guard convenience");

    // require_latest restores the fail-fast contract for readers that
    // must not serve a superseded snapshot.
    QueryRequest latest;
    latest.require_latest = true;
    auto strict_batch =
        engine.Run({BatchQuery::Exists(path)}, latest);
    ASSERT_TRUE(strict_batch.ok());
    EXPECT_EQ((*strict_batch)[0].status.code(), StatusCode::kStale);
    auto strict = ExistsP(engine, path, latest);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kStale);
  }

  // Guard committed: the next reader pins the new epoch.
  auto after = engine.Run({BatchQuery::Exists(path)});
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE((*after)[0].status.ok()) << (*after)[0].status;
  EXPECT_EQ((*after)[0].profile.epoch, 2u);
  QueryRequest latest;
  latest.require_latest = true;
  auto strict_after = ExistsP(engine, path, latest);
  ASSERT_TRUE(strict_after.ok()) << strict_after.status();
}

TEST(QueryEngineTest, ConcurrentMutateAndQueryHammer) {
  // TSAN coverage: one writer thread mutating through the facade while
  // the main thread runs batches. Every answer must be OK or kStale,
  // and the engine must end in a consistent, queryable state.
  const ProbabilisticInstance inst = MakeUniformTree(4, 3, 0x99);
  BatchOptions opts;
  opts.threads = 4;
  QueryEngine engine(inst, opts);
  const PathExpression path = FullDepthPath(inst, 4);
  const std::vector<BatchQuery> queries = {
      BatchQuery::Exists(path), BatchQuery::ValueEquals(path, Value("v1"))};

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(0xF00);
    const std::vector<ObjectId> objects = engine.instance().weak().Objects();
    for (int i = 0; i < 200; ++i) {
      const ObjectId victim = objects[rng.NextBounded(objects.size())];
      Status s = engine.instance().weak().IsLeaf(victim)
                     ? engine.UpdateVpf(victim, RandomVpf(rng))
                     : engine.UpdateOpf(
                           victim,
                           RandomOpfFor(engine.instance(), victim, rng));
      EXPECT_TRUE(s.ok()) << s;
    }
    done.store(true, std::memory_order_release);
  });

  std::size_t ok_answers = 0;
  std::size_t stale_answers = 0;
  // do/while: at least one batch runs even if the writer wins the race
  // outright (sanitizer runs skew startup timing heavily).
  do {
    auto batch = engine.Run(queries);
    ASSERT_TRUE(batch.ok());
    for (const BatchAnswer& ans : *batch) {
      if (ans.status.ok()) {
        ++ok_answers;
      } else {
        ASSERT_EQ(ans.status.code(), StatusCode::kStale) << ans.status;
        ++stale_answers;
      }
    }
  } while (!done.load(std::memory_order_acquire));
  writer.join();
  (void)stale_answers;  // racing is timing-dependent; OKs are guaranteed

  // Post-race differential: after 200 updates the engine still answers
  // like a fresh generic engine.
  ExpectMatchesFreshGeneric(engine, queries, "post-hammer differential");
  EXPECT_GT(ok_answers + stale_answers, 0u);
}

// ---------------------------------------------------------------------------
// Mutation API errors and the error-code taxonomy

TEST(QueryEngineTest, MutationErrorsUseTheTaxonomy) {
  const ProbabilisticInstance inst = MakeUniformTree(2, 2, 0x42);
  QueryEngine owning(inst, BatchOptions{.threads = 1});
  Rng rng(0xD5);

  // Unknown object.
  Status unknown = owning.UpdateOpf(
      0xFFFFFF0u, RandomOpfFor(owning.instance(), inst.weak().root(), rng));
  EXPECT_EQ(unknown.code(), StatusCode::kUnknownObject);
  EXPECT_EQ(owning.UpdateVpf(0xFFFFFF0u, RandomVpf(rng)).code(),
            StatusCode::kUnknownObject);

  // A DAG-shaped instance (x has two potential parents) is rejected as
  // kNotATree by the ε path.
  ProbabilisticInstance dag;
  {
    WeakInstance& w = dag.weak();
    const LabelId la = w.dict().InternLabel("a");
    const LabelId lb = w.dict().InternLabel("b");
    const ObjectId r = w.AddObject("r");
    const ObjectId x = w.AddObject("x");
    const ObjectId y = w.AddObject("y");
    ASSERT_TRUE(w.SetRoot(r).ok());
    ASSERT_TRUE(w.AddPotentialChild(r, la, x).ok());
    ASSERT_TRUE(w.AddPotentialChild(r, la, y).ok());
    ASSERT_TRUE(w.AddPotentialChild(y, lb, x).ok());
    auto r_opf = std::make_unique<IndependentOpf>();
    ASSERT_TRUE(r_opf->AddChild(x, 0.5).ok());
    ASSERT_TRUE(r_opf->AddChild(y, 0.5).ok());
    ASSERT_TRUE(dag.SetOpf(r, std::move(r_opf)).ok());
    auto y_opf = std::make_unique<IndependentOpf>();
    ASSERT_TRUE(y_opf->AddChild(x, 0.5).ok());
    ASSERT_TRUE(dag.SetOpf(y, std::move(y_opf)).ok());
  }
  QueryEngine dag_engine(dag, BatchOptions{.threads = 1});
  PathExpression dag_path;
  dag_path.start = dag.weak().root();
  dag_path.labels.push_back(*dag.dict().FindLabel("a"));
  auto rejected = ExistsP(dag_engine, dag_path);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotATree);

  // A target outside the path's final layer is kBadPath.
  EpsilonPropagator prop(inst);
  const TargetEps off_path{inst.weak().root(), 1.0};
  auto bad = prop.RootEpsilon(FullDepthPath(inst, 2),
                              std::span<const TargetEps>(&off_path, 1));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kBadPath);
}

// ---------------------------------------------------------------------------
// ReplaceSubtree

TEST(QueryEngineTest, ReplaceSubtreeGraftsDonorInterpretation) {
  // Same shape, same names (and, by construction order, the same ids),
  // different seeded ℘.
  const std::uint32_t depth = 3;
  const ProbabilisticInstance original = MakeUniformTree(depth, 2, 0xAA);
  const ProbabilisticInstance donor = MakeUniformTree(depth, 2, 0xBB);

  // Graft the donor's ℘ under the root's first child.
  const ObjectId at =
      *original.weak().dict().FindObject("n1");  // first child of n0
  QueryEngine engine(original, BatchOptions{.threads = 1});
  const PathExpression path = FullDepthPath(original, depth);
  ASSERT_TRUE(engine.ReplaceSubtree(at, donor, at).ok());

  // Expected: original, with every subtree object's OPF/VPF replaced by
  // the donor's (ids coincide across the two trees).
  ProbabilisticInstance expected = original;
  std::vector<ObjectId> stack{at};
  while (!stack.empty()) {
    const ObjectId o = stack.back();
    stack.pop_back();
    if (const Opf* opf = donor.GetOpf(o)) {
      ASSERT_TRUE(expected.SetOpf(o, opf->Clone()).ok());
    }
    if (const Vpf* vpf = donor.GetVpf(o)) {
      ASSERT_TRUE(expected.SetVpf(o, *vpf).ok());
    }
    for (ObjectId child : expected.weak().AllPotentialChildren(o)) {
      stack.push_back(child);
    }
  }

  auto grafted = engine.Run({BatchQuery::Exists(path),
                             BatchQuery::ValueEquals(path, Value("v0"))});
  ASSERT_TRUE(grafted.ok());
  QueryEngine generic(expected, Generic(BatchOptions{.threads = 1}));
  auto fresh = generic.Run({BatchQuery::Exists(path),
                            BatchQuery::ValueEquals(path, Value("v0"))});
  ASSERT_TRUE(fresh.ok());
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE((*grafted)[i].status.ok()) << (*grafted)[i].status;
    ExpectBitEqual((*grafted)[i].probability, (*fresh)[i].probability,
                   "grafted vs rebuilt");
  }
}

TEST(QueryEngineTest, ReplaceSubtreeRejectsMismatchesAndUnknownRoots) {
  const ProbabilisticInstance inst = MakeUniformTree(3, 2, 0xAA);
  const ProbabilisticInstance donor = MakeUniformTree(2, 2, 0xBB);
  QueryEngine engine(inst, BatchOptions{.threads = 1});

  EXPECT_EQ(engine.ReplaceSubtree(0xFFFFFF0u, donor, donor.weak().root())
                .code(),
            StatusCode::kUnknownObject);
  EXPECT_EQ(
      engine.ReplaceSubtree(inst.weak().root(), donor, 0xFFFFFF0u).code(),
      StatusCode::kUnknownObject);
  // Shape mismatch: a depth-2 donor tree under a depth-3 subtree (the
  // donor's level-2 objects are leaves, the target's are not).
  EXPECT_EQ(engine
                .ReplaceSubtree(inst.weak().root(), donor,
                                donor.weak().root())
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pxml
