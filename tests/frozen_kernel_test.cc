// Frozen-kernel equivalence properties (DESIGN.md §9): the compiled
// FrozenInstance kernels must be indistinguishable from the generic
// interpreter —
//   * bit-identical ε for explicit and independent OPFs (the kernels
//     replay the same sequential accumulations);
//   * within 1e-12 for per-label products (the factored Σ_l 2^{b_l}
//     recurrence associates multiplications differently);
//   * cross-checked against the possible-worlds oracle on small
//     instances, including a hand-built mixed-representation tree;
//   * marginalization (AncestorProject) produces the same projected
//     distribution through either path;
//   * a snapshot outdated by a mutation is never consulted: the hooks
//     path silently falls back to the generic interpreter, the
//     QueryEngine refreezes transparently, and an open MutationGuard
//     yields kStale — stale answers are impossible by construction;
//   * a Refreeze answers bit for bit like a fresh Freeze;
//   * the per-label counter wins hold (≥10× fewer per-row OPF ops,
//     zero materialized entries, zero warm-re-query allocations).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "algebra/projection.h"
#include "core/semantics.h"
#include "query/engine.h"
#include "query/frozen.h"
#include "query/point_queries.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/query_generator.h"
#include "world_testing.h"

namespace pxml {
namespace {

/// P(∃ path) through RunOne, with the answer's status as a Result.
Result<double> ExistsP(const QueryEngine& engine, const PathExpression& path,
                       const QueryRequest& request = {}) {
  BatchAnswer answer = engine.RunOne(BatchQuery::Exists(path), request);
  if (!answer.status.ok()) return answer.status;
  return answer.probability;
}

using testing::ExpectSameDistribution;

Result<ProbabilisticInstance> Generate(OpfStyle style, std::uint32_t depth,
                                       std::uint32_t branching,
                                       std::uint64_t seed) {
  GeneratorConfig config;
  config.depth = depth;
  config.branching = branching;
  config.labels_per_level = 2;
  config.opf_style = style;
  config.seed = seed;
  return GenerateBalancedTree(config);
}

/// Runs an exists query through the frozen kernels and asserts the pass
/// actually took the frozen path with no row materialization.
double FrozenExists(const ProbabilisticInstance& inst,
                    const FrozenInstance& frozen, const PathExpression& path,
                    EpsilonScratch* scratch) {
  EpsilonStats stats;
  EpsilonHooks hooks;
  hooks.stats = &stats;
  hooks.frozen = &frozen;
  hooks.scratch = scratch;
  auto p = ExistsQuery(inst, path, hooks);
  EXPECT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(stats.frozen_passes, 1u);
  EXPECT_EQ(stats.entries_materialized, 0u);
  return p.ok() ? *p : -1.0;
}

// ---------------------------------------------------------------------------
// ε equivalence across representations

TEST(FrozenKernelTest, EpsilonBitIdenticalForExplicitAndIndependent) {
  for (OpfStyle style : {OpfStyle::kExplicitTable, OpfStyle::kIndependent}) {
    for (std::uint64_t seed : {7u, 21u, 99u}) {
      auto generated = Generate(style, 3, 3, seed);
      ASSERT_TRUE(generated.ok()) << generated.status();
      // Const view: the non-const weak() accessor bumps the version
      // counters, which would invalidate the snapshot.
      const ProbabilisticInstance& inst = *generated;
      auto frozen = FrozenInstance::Freeze(inst);
      ASSERT_TRUE(frozen.ok()) << frozen.status();
      EpsilonScratch scratch;
      Rng rng(seed * 31 + 1);
      for (int q = 0; q < 3; ++q) {
        auto path = GenerateAcceptedPath(inst, rng);
        ASSERT_TRUE(path.ok()) << path.status();
        auto generic = ExistsQuery(inst, *path);
        ASSERT_TRUE(generic.ok()) << generic.status();
        const double got = FrozenExists(inst, *frozen, *path, &scratch);
        // Bit-identical: the explicit kernel replays the same rows in the
        // same order; the independent kernel the same (child, p)
        // accumulation.
        EXPECT_EQ(got, *generic)
            << "style=" << static_cast<int>(style) << " seed=" << seed;
      }
    }
  }
}

TEST(FrozenKernelTest, EpsilonPerLabelWithinToleranceAndMatchesWorlds) {
  auto generated = Generate(OpfStyle::kPerLabelProduct, 2, 2, 13);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const ProbabilisticInstance& inst = *generated;
  auto frozen = FrozenInstance::Freeze(inst);
  ASSERT_TRUE(frozen.ok()) << frozen.status();
  EpsilonScratch scratch;
  Rng rng(0xBEEF);
  for (int q = 0; q < 3; ++q) {
    auto path = GenerateAcceptedPath(inst, rng);
    ASSERT_TRUE(path.ok()) << path.status();
    auto generic = ExistsQuery(inst, *path);
    ASSERT_TRUE(generic.ok()) << generic.status();
    // Small instance: the possible-worlds oracle is feasible and anchors
    // both evaluators to the model semantics.
    auto oracle = ExistsQueryViaWorlds(inst, *path);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_NEAR(*generic, *oracle, 1e-9);
    const double got = FrozenExists(inst, *frozen, *path, &scratch);
    // The factored per-label recurrence associates differently:
    // documented 1e-12 agreement, not bit identity.
    EXPECT_NEAR(got, *generic, 1e-12);
  }
}

/// One tree exercising all three kernels at once:
///   root --a--> c1, c2          (explicit table)
///   c1   --b--> g1, g2          (independent)
///   c2   --b--> g3, --x--> g4   (per-label product; x is off-path)
ProbabilisticInstance BuildMixedInstance() {
  ProbabilisticInstance built;
  WeakInstance& weak = built.mutable_weak();
  const LabelId a = weak.dict().InternLabel("a");
  const LabelId b = weak.dict().InternLabel("b");
  const LabelId x = weak.dict().InternLabel("x");
  const ObjectId root = weak.AddObject("root");
  EXPECT_TRUE(weak.SetRoot(root).ok());
  const ObjectId c1 = weak.AddObject("c1");
  const ObjectId c2 = weak.AddObject("c2");
  const ObjectId g1 = weak.AddObject("g1");
  const ObjectId g2 = weak.AddObject("g2");
  const ObjectId g3 = weak.AddObject("g3");
  const ObjectId g4 = weak.AddObject("g4");
  EXPECT_TRUE(weak.AddPotentialChild(root, a, c1).ok());
  EXPECT_TRUE(weak.AddPotentialChild(root, a, c2).ok());
  EXPECT_TRUE(weak.AddPotentialChild(c1, b, g1).ok());
  EXPECT_TRUE(weak.AddPotentialChild(c1, b, g2).ok());
  EXPECT_TRUE(weak.AddPotentialChild(c2, b, g3).ok());
  EXPECT_TRUE(weak.AddPotentialChild(c2, x, g4).ok());

  std::vector<OpfEntry> rows;
  rows.push_back({IdSet{}, 0.1});
  rows.push_back({IdSet{c1}, 0.2});
  rows.push_back({IdSet{c2}, 0.3});
  rows.push_back({IdSet{c1, c2}, 0.4});
  EXPECT_TRUE(built.SetOpf(root, std::make_unique<ExplicitOpf>(
                                     ExplicitOpf::FromEntries(std::move(rows))))
                  .ok());
  auto ind = std::make_unique<IndependentOpf>();
  EXPECT_TRUE(ind->AddChild(g1, 0.7).ok());
  EXPECT_TRUE(ind->AddChild(g2, 0.4).ok());
  EXPECT_TRUE(built.SetOpf(c1, std::move(ind)).ok());
  auto per = std::make_unique<PerLabelProductOpf>();
  EXPECT_TRUE(per->AddLabelFactor(
                     b, ExplicitOpf::FromEntries(
                            {{IdSet{}, 0.35}, {IdSet{g3}, 0.65}}))
                  .ok());
  EXPECT_TRUE(per->AddLabelFactor(
                     x, ExplicitOpf::FromEntries(
                            {{IdSet{}, 0.2}, {IdSet{g4}, 0.8}}))
                  .ok());
  EXPECT_TRUE(built.SetOpf(c2, std::move(per)).ok());
  return built;
}

/// root.a.b over BuildMixedInstance's tree.
PathExpression MixedPath(const ProbabilisticInstance& inst) {
  PathExpression path;
  path.start = inst.weak().root();
  path.labels = {inst.weak().dict().FindLabel("a").value(),
                 inst.weak().dict().FindLabel("b").value()};
  return path;
}

TEST(FrozenKernelTest, MixedRepresentationInstanceMatchesWorlds) {
  const ProbabilisticInstance inst = BuildMixedInstance();
  const PathExpression path = MixedPath(inst);

  auto generic = ExistsQuery(inst, path);
  ASSERT_TRUE(generic.ok()) << generic.status();
  auto oracle = ExistsQueryViaWorlds(inst, path);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_NEAR(*generic, *oracle, 1e-9);

  auto frozen = FrozenInstance::Freeze(inst);
  ASSERT_TRUE(frozen.ok()) << frozen.status();
  EpsilonScratch scratch;
  EXPECT_NEAR(FrozenExists(inst, *frozen, path, &scratch), *generic, 1e-12);

  // The projection pass over the same mixed tree: both evaluators must
  // define the same projected distribution.
  ProjectionStats generic_stats;
  auto generic_proj = AncestorProject(inst, path, &generic_stats);
  ASSERT_TRUE(generic_proj.ok()) << generic_proj.status();
  ProjectionStats frozen_stats;
  auto frozen_proj = AncestorProject(inst, path, &frozen_stats, &*frozen);
  ASSERT_TRUE(frozen_proj.ok()) << frozen_proj.status();
  EXPECT_EQ(frozen_stats.frozen_passes, 1u);
  EXPECT_EQ(frozen_stats.entries_materialized, 0u);
  auto generic_worlds = EnumerateWorlds(*generic_proj);
  ASSERT_TRUE(generic_worlds.ok()) << generic_worlds.status();
  auto frozen_worlds = EnumerateWorlds(*frozen_proj);
  ASSERT_TRUE(frozen_worlds.ok()) << frozen_worlds.status();
  ExpectSameDistribution(*frozen_worlds, *generic_worlds, 1e-12);
}

// ---------------------------------------------------------------------------
// Marginalization equivalence

TEST(FrozenKernelTest, ProjectionMatchesGenericAcrossRepresentations) {
  for (OpfStyle style : {OpfStyle::kExplicitTable, OpfStyle::kIndependent,
                         OpfStyle::kPerLabelProduct}) {
    auto generated = Generate(style, 2, 2, 31);
    ASSERT_TRUE(generated.ok()) << generated.status();
    const ProbabilisticInstance& inst = *generated;
    auto frozen = FrozenInstance::Freeze(inst);
    ASSERT_TRUE(frozen.ok()) << frozen.status();
    Rng rng(0xCAFE);
    auto path = GenerateAcceptedPath(inst, rng);
    ASSERT_TRUE(path.ok()) << path.status();

    auto generic_proj = AncestorProject(inst, *path);
    ASSERT_TRUE(generic_proj.ok()) << generic_proj.status();
    ProjectionStats stats;
    auto frozen_proj = AncestorProject(inst, *path, &stats, &*frozen);
    ASSERT_TRUE(frozen_proj.ok()) << frozen_proj.status();
    EXPECT_EQ(stats.frozen_passes, 1u);
    EXPECT_EQ(stats.entries_materialized, 0u);

    const ObjectId root = inst.weak().root();
    const double generic_empty = generic_proj->GetOpf(root)->Prob(IdSet());
    const double frozen_empty = frozen_proj->GetOpf(root)->Prob(IdSet());
    if (style == OpfStyle::kExplicitTable) {
      // The explicit kernel replays the generic accumulation bit for bit.
      EXPECT_EQ(frozen_empty, generic_empty);
    } else {
      EXPECT_NEAR(frozen_empty, generic_empty, 1e-12);
    }

    auto generic_worlds = EnumerateWorlds(*generic_proj);
    ASSERT_TRUE(generic_worlds.ok()) << generic_worlds.status();
    auto frozen_worlds = EnumerateWorlds(*frozen_proj);
    ASSERT_TRUE(frozen_worlds.ok()) << frozen_worlds.status();
    ExpectSameDistribution(*frozen_worlds, *generic_worlds, 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Snapshot invalidation: a mutated instance never sees stale kernels

TEST(FrozenKernelTest, StaleSnapshotFallsBackToGeneric) {
  auto generated = Generate(OpfStyle::kIndependent, 2, 2, 5);
  ASSERT_TRUE(generated.ok()) << generated.status();
  ProbabilisticInstance inst = std::move(*generated);
  const ProbabilisticInstance& cinst = inst;  // reads through const view

  Rng rng(77);
  auto path = GenerateAcceptedPath(cinst, rng);
  ASSERT_TRUE(path.ok()) << path.status();
  auto frozen = FrozenInstance::Freeze(cinst);
  ASSERT_TRUE(frozen.ok()) << frozen.status();
  EXPECT_TRUE(frozen->InSyncWith(cinst));

  EpsilonScratch scratch;
  const double before = FrozenExists(cinst, *frozen, *path, &scratch);
  auto before_generic = ExistsQuery(cinst, *path);
  ASSERT_TRUE(before_generic.ok());
  EXPECT_EQ(before, *before_generic);

  // Mutate ℘(root): SetOpf bumps the version counter, outdating the
  // snapshot.
  const ObjectId root = cinst.weak().root();
  auto opf = std::make_unique<IndependentOpf>();
  for (ObjectId child : cinst.weak().AllPotentialChildren(root)) {
    ASSERT_TRUE(opf->AddChild(child, 0.5).ok());
  }
  ASSERT_TRUE(inst.SetOpf(root, std::move(opf)).ok());
  EXPECT_FALSE(frozen->InSyncWith(cinst));

  // The hooks still point at the stale snapshot: the query must ignore
  // it (generic fallback) and answer from the mutated instance.
  EpsilonStats stats;
  EpsilonHooks hooks;
  hooks.stats = &stats;
  hooks.frozen = &*frozen;
  hooks.scratch = &scratch;
  auto got = ExistsQuery(cinst, *path, hooks);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(stats.frozen_passes, 0u);
  auto fresh = ExistsQuery(cinst, *path);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*got, *fresh);

  // A stale snapshot handed to the projection pass is equally ignored.
  ProjectionStats proj_stats;
  auto proj = AncestorProject(cinst, *path, &proj_stats, &*frozen);
  ASSERT_TRUE(proj.ok()) << proj.status();
  EXPECT_EQ(proj_stats.frozen_passes, 0u);

  // Refreezing restores the fast path, with the post-mutation answer.
  auto refrozen = FrozenInstance::Freeze(cinst);
  ASSERT_TRUE(refrozen.ok()) << refrozen.status();
  const double after = FrozenExists(cinst, *refrozen, *path, &scratch);
  EXPECT_EQ(after, *fresh);
}

TEST(FrozenKernelTest, RefreezeAnswersLikeFreeze) {
  ProbabilisticInstance built = BuildMixedInstance();
  const ProbabilisticInstance& inst = built;
  auto frozen = FrozenInstance::Freeze(inst);
  ASSERT_TRUE(frozen.ok()) << frozen.status();

  // ℘-only mutation: swap c1's independent OPF for one with different
  // probabilities. The structure is untouched, so Refreeze carries the
  // clean kernels forward and recompiles the dirty spine.
  const Dictionary& dict = inst.weak().dict();
  const ObjectId c1 = dict.FindObject("c1").value();
  auto ind = std::make_unique<IndependentOpf>();
  ASSERT_TRUE(ind->AddChild(dict.FindObject("g1").value(), 0.25).ok());
  ASSERT_TRUE(ind->AddChild(dict.FindObject("g2").value(), 0.9).ok());
  ASSERT_TRUE(built.SetOpf(c1, std::move(ind)).ok());

  auto refrozen = FrozenInstance::Refreeze(*frozen, inst);
  ASSERT_TRUE(refrozen.ok()) << refrozen.status();
  auto fresh = FrozenInstance::Freeze(inst);
  ASSERT_TRUE(fresh.ok()) << fresh.status();

  // The refrozen snapshot answers bit for bit like a from-scratch Freeze
  // of the mutated instance, and like the generic interpreter to 1e-12.
  const PathExpression path = MixedPath(inst);
  auto generic = ExistsQuery(inst, path);
  ASSERT_TRUE(generic.ok()) << generic.status();
  EpsilonScratch scratch;
  const double via_refreeze = FrozenExists(inst, *refrozen, path, &scratch);
  const double via_fresh = FrozenExists(inst, *fresh, path, &scratch);
  EXPECT_EQ(via_refreeze, via_fresh);
  EXPECT_NEAR(via_refreeze, *generic, 1e-12);
}

TEST(FrozenKernelTest, EngineRefreezesTransparentlyAfterMutation) {
  auto generated = Generate(OpfStyle::kIndependent, 2, 2, 11);
  ASSERT_TRUE(generated.ok()) << generated.status();
  // A reference copy evolved in lockstep: the copy constructor preserves
  // the version counters and deep-clones the ℘/VPF tables.
  ProbabilisticInstance reference = *generated;
  QueryEngine engine(std::move(*generated));  // owning; frozen on by default

  Rng rng(0xFE11);
  auto path = GenerateAcceptedPath(engine.instance(), rng);
  ASSERT_TRUE(path.ok()) << path.status();

  BatchStats stats;
  auto answers = engine.Run({BatchQuery::Exists(*path)}, {}, &stats);
  ASSERT_TRUE(answers.ok()) << answers.status();
  ASSERT_TRUE((*answers)[0].status.ok()) << (*answers)[0].status;
  auto generic = ExistsQuery(reference, *path);
  ASSERT_TRUE(generic.ok());
  EXPECT_EQ((*answers)[0].probability, *generic);
  EXPECT_GE(stats.frozen_passes, 1u);

  // Mutate through the facade; the same update lands on the reference.
  const ObjectId root = engine.instance().weak().root();
  auto make_opf = [&](void) {
    auto opf = std::make_unique<IndependentOpf>();
    for (ObjectId child :
         engine.instance().weak().AllPotentialChildren(root)) {
      EXPECT_TRUE(opf->AddChild(child, 0.25).ok());
    }
    return opf;
  };
  ASSERT_TRUE(engine.UpdateOpf(root, make_opf()).ok());
  ASSERT_TRUE(reference.SetOpf(root, make_opf()).ok());

  // The next query must see the mutation — the engine refreezes lazily
  // instead of consulting the outdated snapshot.
  BatchStats stats2;
  auto answers2 = engine.Run({BatchQuery::Exists(*path)}, {}, &stats2);
  ASSERT_TRUE(answers2.ok()) << answers2.status();
  ASSERT_TRUE((*answers2)[0].status.ok()) << (*answers2)[0].status;
  auto generic2 = ExistsQuery(reference, *path);
  ASSERT_TRUE(generic2.ok());
  EXPECT_EQ((*answers2)[0].probability, *generic2);
  EXPECT_GE(stats2.frozen_passes, 1u);
  EXPECT_NE(*generic2, *generic);  // the mutation actually changed P
}

TEST(FrozenKernelTest, OpenMutationGuardStillServesSnapshotReads) {
  auto generated = Generate(OpfStyle::kIndependent, 2, 2, 17);
  ASSERT_TRUE(generated.ok()) << generated.status();
  QueryEngine engine(std::move(*generated));
  Rng rng(0x57A1E);
  auto path = GenerateAcceptedPath(engine.instance(), rng);
  ASSERT_TRUE(path.ok()) << path.status();

  auto before = ExistsP(engine, *path);
  ASSERT_TRUE(before.ok()) << before.status();

  {
    QueryEngine::MutationGuard guard = engine.BeginMutations();
    // Snapshot isolation: the open guard no longer blocks readers — the
    // query pins the committed epoch and answers bit-identically to the
    // pre-guard read.
    auto during = ExistsP(engine, *path);
    ASSERT_TRUE(during.ok()) << during.status();
    EXPECT_EQ(*during, *before);
    // The fail-fast contract survives behind require_latest.
    QueryRequest latest;
    latest.require_latest = true;
    auto strict = ExistsP(engine, *path, latest);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kStale);
  }
  auto after = ExistsP(engine, *path);
  ASSERT_TRUE(after.ok()) << after.status();
}

TEST(FrozenKernelTest, FreezeRejectsNonTreeInstances) {
  // Two parents sharing a child: a DAG, outside the frozen kernels'
  // tree-shaped contract. Freeze must refuse (queries then silently use
  // the generic interpreter).
  ProbabilisticInstance built;
  WeakInstance& weak = built.mutable_weak();
  const LabelId a = weak.dict().InternLabel("a");
  const ObjectId root = weak.AddObject("root");
  ASSERT_TRUE(weak.SetRoot(root).ok());
  const ObjectId c1 = weak.AddObject("c1");
  const ObjectId c2 = weak.AddObject("c2");
  const ObjectId shared = weak.AddObject("shared");
  ASSERT_TRUE(weak.AddPotentialChild(root, a, c1).ok());
  ASSERT_TRUE(weak.AddPotentialChild(root, a, c2).ok());
  ASSERT_TRUE(weak.AddPotentialChild(c1, a, shared).ok());
  ASSERT_TRUE(weak.AddPotentialChild(c2, a, shared).ok());
  auto ind = std::make_unique<IndependentOpf>();
  ASSERT_TRUE(ind->AddChild(c1, 0.5).ok());
  ASSERT_TRUE(ind->AddChild(c2, 0.5).ok());
  ASSERT_TRUE(built.SetOpf(root, std::move(ind)).ok());
  auto o1 = std::make_unique<IndependentOpf>();
  ASSERT_TRUE(o1->AddChild(shared, 0.5).ok());
  ASSERT_TRUE(built.SetOpf(c1, std::move(o1)).ok());
  auto o2 = std::make_unique<IndependentOpf>();
  ASSERT_TRUE(o2->AddChild(shared, 0.5).ok());
  ASSERT_TRUE(built.SetOpf(c2, std::move(o2)).ok());

  EXPECT_FALSE(FrozenInstance::Freeze(built).ok());
}

// ---------------------------------------------------------------------------
// Counter wins: the ≥10× per-label claim, and warm re-queries allocate
// nothing

TEST(FrozenKernelTest, PerLabelCountersShowTenfoldWinAndWarmReuse) {
  // The fig7a shape at test scale: branching 8 split over 2 labels, so
  // the generic interpreter enumerates 2^8 rows per node while the
  // frozen kernel touches 2·2^4.
  auto generated = Generate(OpfStyle::kPerLabelProduct, 3, 8, 0xF16);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const ProbabilisticInstance& inst = *generated;
  auto frozen = FrozenInstance::Freeze(inst);
  ASSERT_TRUE(frozen.ok()) << frozen.status();
  Rng rng(0xF16A);
  auto path = GenerateAcceptedPath(inst, rng);
  ASSERT_TRUE(path.ok()) << path.status();

  // ε: generic, then cold frozen (arena growth allowed), then warm.
  EpsilonStats generic_eps;
  EpsilonHooks generic_hooks;
  generic_hooks.stats = &generic_eps;
  auto generic_p = ExistsQuery(inst, *path, generic_hooks);
  ASSERT_TRUE(generic_p.ok()) << generic_p.status();

  EpsilonScratch scratch;
  EpsilonHooks hooks;
  hooks.frozen = &*frozen;
  hooks.scratch = &scratch;
  EpsilonStats cold_eps;
  hooks.stats = &cold_eps;
  ASSERT_TRUE(ExistsQuery(inst, *path, hooks).ok());
  EpsilonStats warm_eps;
  hooks.stats = &warm_eps;
  auto frozen_p = ExistsQuery(inst, *path, hooks);
  ASSERT_TRUE(frozen_p.ok()) << frozen_p.status();

  EXPECT_NEAR(*frozen_p, *generic_p, 1e-12);
  EXPECT_EQ(warm_eps.frozen_passes, 1u);
  EXPECT_EQ(warm_eps.entries_materialized, 0u);
  EXPECT_EQ(warm_eps.bytes_allocated, 0u);
  EXPECT_GE(generic_eps.opf_row_ops,
            10 * warm_eps.opf_row_ops);

  // Marginalization: same discipline; the per-object buffers live in
  // thread-local storage, so the warm re-run allocates nothing either.
  ProjectionStats generic_proj;
  ASSERT_TRUE(AncestorProject(inst, *path, &generic_proj).ok());
  ProjectionStats cold_proj;
  ASSERT_TRUE(AncestorProject(inst, *path, &cold_proj, &*frozen).ok());
  ProjectionStats warm_proj;
  auto frozen_result =
      AncestorProject(inst, *path, &warm_proj, &*frozen);
  ASSERT_TRUE(frozen_result.ok()) << frozen_result.status();

  EXPECT_EQ(warm_proj.frozen_passes, 1u);
  EXPECT_EQ(warm_proj.entries_materialized, 0u);
  EXPECT_EQ(warm_proj.bytes_allocated, 0u);
  EXPECT_GE(generic_proj.opf_row_ops, 10 * warm_proj.opf_row_ops);
}

}  // namespace
}  // namespace pxml
