// Differential tests for the SIMD-vectorized frozen ε kernels
// (DESIGN.md §14): every lane backend available on this host (scalar
// always; SSE2/AVX2 when compiled in and reported by cpuid) must
//   * stay bit-identical to the generic interpreter for explicit and
//     independent kernels at every thread count (the vector kernels
//     replay the exact scalar accumulation order);
//   * agree within the documented 1e-12 envelope for per-label products
//     (the MaskedDot reduction order differs from the scalar row loop),
//     cross-checked against the possible-worlds oracle;
//   * answer MultiPointQuery bit-identically to per-target PointQuery
//     (the shared pass evaluates through the same KernelFn via the
//     zero-overlay);
// plus a Refreeze check: the rebuilt kernel tables answer like a fresh
// Freeze under every backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "core/semantics.h"
#include "query/frozen.h"
#include "query/point_queries.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/query_generator.h"
#include "world_testing.h"

namespace pxml {
namespace {

/// The backends this host can actually run, weakest first. Scalar is
/// always available; wider lanes only when the runtime probe admits
/// them (so the suite degrades gracefully on non-AVX2 machines and
/// under PXML_FORCE_SCALAR=1, where only scalar is selectable).
std::vector<simd::Backend> AvailableBackends() {
  std::vector<simd::Backend> out{simd::Backend::kScalar};
  if (simd::ForcedScalar()) return out;
  const simd::Backend detected = simd::DetectedBackend();
  if (detected >= simd::Backend::kSse2) out.push_back(simd::Backend::kSse2);
  if (detected >= simd::Backend::kAvx2) out.push_back(simd::Backend::kAvx2);
  return out;
}

/// Pins the process-wide active backend for one scope and restores the
/// previous one on exit, so tests cannot leak a narrowed backend into
/// each other.
class BackendGuard {
 public:
  explicit BackendGuard(simd::Backend b) : prev_(simd::ActiveBackend()) {
    EXPECT_TRUE(simd::SetBackend(b)) << simd::BackendName(b);
  }
  ~BackendGuard() { simd::SetBackend(prev_); }

 private:
  simd::Backend prev_;
};

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

/// One frozen exists pass at a given thread count, asserting it stayed
/// on the frozen path with zero row materialization.
double FrozenExists(const ProbabilisticInstance& inst,
                    const FrozenInstance& frozen, const PathExpression& path,
                    std::size_t threads, EpsilonScratch* scratch) {
  std::unique_ptr<ThreadPool> pool;
  ParallelOptions parallel;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    parallel.pool = pool.get();
    parallel.min_parallel_width = 2;
  }
  EpsilonStats stats;
  EpsilonHooks hooks;
  hooks.stats = &stats;
  hooks.frozen = &frozen;
  hooks.scratch = scratch;
  auto p = ExistsQuery(inst, path, parallel, hooks);
  EXPECT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(stats.frozen_passes.load(), 1u);
  EXPECT_EQ(stats.entries_materialized.load(), 0u);
  return p.ok() ? *p : -1.0;
}

/// The mixed-representation tree from frozen_kernel_test: all three
/// kernel kinds in one instance (explicit root, independent c1,
/// per-label c2 with an off-path label).
ProbabilisticInstance BuildMixedInstance() {
  ProbabilisticInstance built;
  WeakInstance& weak = built.weak();
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
  EXPECT_TRUE(per->AddLabelFactor(b, ExplicitOpf::FromEntries({{IdSet{}, 0.35},
                                                               {IdSet{g3},
                                                                0.65}}))
                  .ok());
  EXPECT_TRUE(per->AddLabelFactor(x, ExplicitOpf::FromEntries({{IdSet{}, 0.2},
                                                               {IdSet{g4},
                                                                0.8}}))
                  .ok());
  EXPECT_TRUE(built.SetOpf(c2, std::move(per)).ok());
  return built;
}

// ---------------------------------------------------------------------------
// Backend selection mechanics

TEST(SimdDispatchTest, ScalarAlwaysAvailableAndGuardRestores) {
  const simd::Backend before = simd::ActiveBackend();
  {
    BackendGuard guard(simd::Backend::kScalar);
    EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
  }
  EXPECT_EQ(simd::ActiveBackend(), before);
}

TEST(SimdDispatchTest, ForcedScalarPinsTheBackend) {
  if (!simd::ForcedScalar()) {
    // Without the env override the active backend starts at the
    // detected one and every detected-or-narrower request succeeds.
    EXPECT_EQ(simd::ActiveBackend(), simd::DetectedBackend());
    for (simd::Backend b : AvailableBackends()) {
      EXPECT_TRUE(simd::SetBackend(b)) << simd::BackendName(b);
    }
    simd::SetBackend(simd::DetectedBackend());
    return;
  }
  // PXML_FORCE_SCALAR=1 (the sanitizer CI leg): scalar is the only
  // selectable backend, requests for wider lanes are refused, and the
  // refusal leaves scalar active.
  EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
  EXPECT_TRUE(simd::SetBackend(simd::Backend::kScalar));
  EXPECT_FALSE(simd::SetBackend(simd::Backend::kSse2));
  EXPECT_FALSE(simd::SetBackend(simd::Backend::kAvx2));
  EXPECT_EQ(simd::ActiveBackend(), simd::Backend::kScalar);
}

TEST(SimdDispatchTest, WiderThanDetectedIsRefused) {
  if (simd::DetectedBackend() >= simd::Backend::kAvx2) {
    GTEST_SKIP() << "host detects the widest backend; nothing to refuse";
  }
  EXPECT_FALSE(simd::SetBackend(simd::Backend::kAvx2));
  EXPECT_NE(simd::ActiveBackend(), simd::Backend::kAvx2);
}

// ---------------------------------------------------------------------------
// Differential kernel agreement per backend

TEST(SimdKernelTest, ExplicitAndIndependentBitIdenticalPerBackend) {
  for (OpfStyle style : {OpfStyle::kExplicitTable, OpfStyle::kIndependent}) {
    for (std::uint64_t seed : {5u, 42u}) {
      auto generated = Generate(style, 3, 3, seed);
      ASSERT_TRUE(generated.ok()) << generated.status();
      const ProbabilisticInstance& inst = *generated;
      auto frozen = FrozenInstance::Freeze(inst);
      ASSERT_TRUE(frozen.ok()) << frozen.status();
      Rng rng(seed * 17 + 3);
      for (int q = 0; q < 3; ++q) {
        auto path = GenerateAcceptedPath(inst, rng);
        ASSERT_TRUE(path.ok()) << path.status();
        auto generic = ExistsQuery(inst, *path);
        ASSERT_TRUE(generic.ok()) << generic.status();
        for (simd::Backend backend : AvailableBackends()) {
          BackendGuard guard(backend);
          EpsilonScratch scratch;
          for (std::size_t threads : {1, 2, 4, 8}) {
            const double got =
                FrozenExists(inst, *frozen, *path, threads, &scratch);
            // Bit identity, not tolerance: the vector independent kernel
            // precomputes the 1 − p·ε terms per lane but multiplies them
            // into `none` in the exact scalar (ascending child) order,
            // and explicit rows always take the scalar reference path.
            EXPECT_EQ(got, *generic)
                << "style=" << static_cast<int>(style) << " seed=" << seed
                << " backend=" << simd::BackendName(backend)
                << " threads=" << threads;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, PerLabelWithinToleranceAndMatchesWorldsPerBackend) {
  auto generated = Generate(OpfStyle::kPerLabelProduct, 2, 2, 77);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const ProbabilisticInstance& inst = *generated;
  auto frozen = FrozenInstance::Freeze(inst);
  ASSERT_TRUE(frozen.ok()) << frozen.status();
  Rng rng(0xD1CE);
  for (int q = 0; q < 3; ++q) {
    auto path = GenerateAcceptedPath(inst, rng);
    ASSERT_TRUE(path.ok()) << path.status();
    auto generic = ExistsQuery(inst, *path);
    ASSERT_TRUE(generic.ok()) << generic.status();
    auto oracle = ExistsQueryViaWorlds(inst, *path);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ASSERT_NEAR(*generic, *oracle, 1e-9);
    for (simd::Backend backend : AvailableBackends()) {
      BackendGuard guard(backend);
      EpsilonScratch scratch;
      for (std::size_t threads : {1, 2, 4, 8}) {
        const double got =
            FrozenExists(inst, *frozen, *path, threads, &scratch);
        // MaskedDot accumulates rows round-robin across lanes instead of
        // strictly ascending: documented 1e-12 envelope, anchored to the
        // oracle above.
        EXPECT_NEAR(got, *generic, 1e-12)
            << "backend=" << simd::BackendName(backend)
            << " threads=" << threads;
      }
    }
  }
}

TEST(SimdKernelTest, MixedInstanceMatchesWorldsPerBackend) {
  ProbabilisticInstance built = BuildMixedInstance();
  const ProbabilisticInstance& inst = built;
  const WeakInstance& weak = inst.weak();
  PathExpression path;
  path.start = weak.root();
  path.labels = {weak.dict().FindLabel("a").value(),
                 weak.dict().FindLabel("b").value()};

  auto generic = ExistsQuery(inst, path);
  ASSERT_TRUE(generic.ok()) << generic.status();
  auto oracle = ExistsQueryViaWorlds(inst, path);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_NEAR(*generic, *oracle, 1e-9);

  auto frozen = FrozenInstance::Freeze(inst);
  ASSERT_TRUE(frozen.ok()) << frozen.status();
  for (simd::Backend backend : AvailableBackends()) {
    BackendGuard guard(backend);
    EpsilonScratch scratch;
    for (std::size_t threads : {1, 2, 4, 8}) {
      const double got = FrozenExists(inst, *frozen, path, threads, &scratch);
      EXPECT_NEAR(got, *generic, 1e-12)
          << "backend=" << simd::BackendName(backend)
          << " threads=" << threads;
    }
  }
}

TEST(SimdKernelTest, MultiPointMatchesPerTargetPointQueryPerBackend) {
  for (OpfStyle style : {OpfStyle::kIndependent, OpfStyle::kPerLabelProduct}) {
    auto generated = Generate(style, 3, 2, 11);
    ASSERT_TRUE(generated.ok()) << generated.status();
    const ProbabilisticInstance& inst = *generated;
    auto frozen = FrozenInstance::Freeze(inst);
    ASSERT_TRUE(frozen.ok()) << frozen.status();
    Rng rng(0xFADE);
    auto path = GenerateAcceptedPath(inst, rng);
    ASSERT_TRUE(path.ok()) << path.status();
    const std::vector<ObjectId> objects = inst.weak().Objects();
    for (simd::Backend backend : AvailableBackends()) {
      BackendGuard guard(backend);
      EpsilonScratch scratch;
      EpsilonHooks hooks;
      hooks.frozen = &*frozen;
      hooks.scratch = &scratch;
      auto shared = MultiPointQuery(inst, *path, objects, {}, hooks);
      ASSERT_TRUE(shared.ok()) << shared.status();
      ASSERT_EQ(shared->size(), objects.size());
      for (std::size_t i = 0; i < objects.size(); ++i) {
        auto single = PointQuery(inst, *path, objects[i], {}, hooks);
        ASSERT_TRUE(single.ok()) << single.status();
        // Shared pass vs per-target pass: the overlay evaluates the
        // spine through the same KernelFn as the full pass, so the two
        // are bit-identical under every backend — including the exact
        // 0.0 for objects that cannot match the path.
        EXPECT_EQ((*shared)[i], *single)
            << "backend=" << simd::BackendName(backend) << " object="
            << objects[i] << " style=" << static_cast<int>(style);
      }
    }
  }
}

TEST(SimdKernelTest, ScalarBackendMatchesGenericBitIdentical) {
  // The pre-PR contract, pinned: the scalar KernelFn is the same code
  // the un-batched evaluator ran, so under --simd=scalar (or
  // PXML_FORCE_SCALAR=1) every frozen answer keeps its exact old bits
  // for explicit/independent instances.
  BackendGuard guard(simd::Backend::kScalar);
  auto generated = Generate(OpfStyle::kIndependent, 3, 3, 1234);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const ProbabilisticInstance& inst = *generated;
  auto frozen = FrozenInstance::Freeze(inst);
  ASSERT_TRUE(frozen.ok()) << frozen.status();
  EpsilonScratch scratch;
  Rng rng(99);
  for (int q = 0; q < 4; ++q) {
    auto path = GenerateAcceptedPath(inst, rng);
    ASSERT_TRUE(path.ok()) << path.status();
    auto generic = ExistsQuery(inst, *path);
    ASSERT_TRUE(generic.ok()) << generic.status();
    for (std::size_t threads : {1, 4}) {
      EXPECT_EQ(FrozenExists(inst, *frozen, *path, threads, &scratch),
                *generic);
    }
  }
}

// ---------------------------------------------------------------------------
// Refreeze

TEST(SimdRefreezeTest, RebuildsTablesAndAnswersLikeFreeze) {
  ProbabilisticInstance built = BuildMixedInstance();
  const ProbabilisticInstance& inst = built;
  auto frozen = FrozenInstance::Freeze(inst);
  ASSERT_TRUE(frozen.ok()) << frozen.status();

  // ℘-only mutation: swap c1's independent OPF for one with different
  // probabilities. Structure is untouched; the kernel tables must be
  // rebuilt for the new ℘.
  const ObjectId c1 = inst.weak().dict().FindObject("c1").value();
  const ObjectId g1 = inst.weak().dict().FindObject("g1").value();
  const ObjectId g2 = inst.weak().dict().FindObject("g2").value();
  auto ind = std::make_unique<IndependentOpf>();
  ASSERT_TRUE(ind->AddChild(g1, 0.25).ok());
  ASSERT_TRUE(ind->AddChild(g2, 0.9).ok());
  ASSERT_TRUE(built.SetOpf(c1, std::move(ind)).ok());

  auto refrozen = FrozenInstance::Refreeze(*frozen, inst);
  ASSERT_TRUE(refrozen.ok()) << refrozen.status();

  // The refrozen snapshot answers like a from-scratch Freeze of the
  // mutated instance, under every backend.
  auto fresh = FrozenInstance::Freeze(inst);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  PathExpression path;
  path.start = inst.weak().root();
  path.labels = {inst.weak().dict().FindLabel("a").value(),
                 inst.weak().dict().FindLabel("b").value()};
  auto generic = ExistsQuery(inst, path);
  ASSERT_TRUE(generic.ok()) << generic.status();
  for (simd::Backend backend : AvailableBackends()) {
    BackendGuard guard(backend);
    EpsilonScratch scratch;
    const double via_refreeze =
        FrozenExists(inst, *refrozen, path, 1, &scratch);
    const double via_fresh = FrozenExists(inst, *fresh, path, 1, &scratch);
    EXPECT_EQ(via_refreeze, via_fresh)
        << "backend=" << simd::BackendName(backend);
    EXPECT_NEAR(via_refreeze, *generic, 1e-12);
  }
}

}  // namespace
}  // namespace pxml
