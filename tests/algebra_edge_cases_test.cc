// Edge-case behaviour of the algebra operators: root-only instances,
// roots whose OPF assigns positive mass to the empty child set, paths
// that match nothing, and degenerate Cartesian products. Each test pins
// the documented behaviour (bare-root projections, unnormalised root
// OPFs, empty-result probabilities, disjoint-name preconditions).
#include <gtest/gtest.h>

#include "algebra/cartesian_product.h"
#include "algebra/projection.h"
#include "algebra/projection_global.h"
#include "algebra/selection.h"
#include "algebra/selection_global.h"
#include "core/semantics.h"
#include "core/validation.h"
#include "fixtures.h"
#include "query/point_queries.h"
#include "world_testing.h"

namespace pxml {
namespace {

/// A probabilistic instance consisting of exactly one object: a typed
/// root leaf carrying a two-value VPF.
ProbabilisticInstance MakeRootOnlyInstance(const std::string& root_name) {
  ProbabilisticInstance out;
  WeakInstance& weak = out.mutable_weak();
  ObjectId r = weak.AddObject(root_name);
  EXPECT_TRUE(weak.SetRoot(r).ok());
  auto type = weak.dict().DefineType(root_name + "-type",
                                     {Value("on"), Value("off")});
  EXPECT_TRUE(type.ok());
  EXPECT_TRUE(weak.SetLeafType(r, type.value()).ok());
  Vpf vpf;
  vpf.Set(Value("on"), 0.3);
  vpf.Set(Value("off"), 0.7);
  EXPECT_TRUE(out.SetVpf(r, std::move(vpf)).ok());
  return out;
}

TEST(RootOnlyInstanceTest, IsCoherent) {
  ProbabilisticInstance inst = MakeRootOnlyInstance("r");
  EXPECT_TRUE(ValidateProbabilisticInstance(inst).ok());
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok()) << worlds.status();
  double sum = 0;
  for (const World& w : *worlds) sum += w.prob;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(RootOnlyInstanceTest, EmptyPathProjectsOntoBareRootKeepingLeafData) {
  ProbabilisticInstance inst = MakeRootOnlyInstance("r");
  PathExpression path;
  path.start = inst.weak().root();  // zero labels
  ProjectionStats stats;
  auto projected = AncestorProject(inst, path, &stats);
  ASSERT_TRUE(projected.ok()) << projected.status();
  EXPECT_EQ(stats.kept_objects, 1u);
  EXPECT_EQ(projected->weak().Objects().size(), 1u);
  // The root is a W-leaf, so its type and VPF survive the projection.
  ASSERT_NE(projected->GetVpf(projected->weak().root()), nullptr);
  auto expected = EnumerateWorlds(inst);
  ASSERT_TRUE(expected.ok());
  testing::ExpectInstanceMatchesWorlds(*projected, *expected, 1e-12);
}

TEST(RootOnlyInstanceTest, UnmatchedPathProjectsOntoBareRoot) {
  ProbabilisticInstance inst = MakeRootOnlyInstance("r");
  PathExpression path;
  path.start = inst.weak().root();
  path.labels.push_back(inst.mutable_weak().dict().InternLabel("ghost"));
  ProjectionStats stats;
  auto projected = AncestorProject(inst, path, &stats);
  ASSERT_TRUE(projected.ok()) << projected.status();
  // Documented behaviour: the bare root with no lch at all, which
  // represents the deterministic world {r} with ℘'(r)({}) = 1.
  EXPECT_EQ(stats.kept_objects, 1u);
  EXPECT_EQ(projected->weak().Objects().size(), 1u);
  EXPECT_TRUE(projected->weak().IsLeaf(projected->weak().root()));
  auto worlds = EnumerateWorlds(*projected);
  ASSERT_TRUE(worlds.ok()) << worlds.status();
  double sum = 0;
  for (const World& w : *worlds) sum += w.prob;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

// The chain fixture r -a-> x -b-> y has ℘(r)(∅) = 0.4 and
// ℘(x)(∅) = 0.5, so the root OPF gives positive mass to the empty child
// set and the path r.a.b exists with probability 0.6 * 0.5 = 0.3.
TEST(EmptySetMassTest, ProjectionKeepsUnnormalisedRootOpf) {
  ProbabilisticInstance inst = testing::MakeChainInstance();
  const Dictionary& dict = inst.weak().dict();
  PathExpression path;
  path.start = inst.weak().root();
  path.labels = {*dict.FindLabel("a"), *dict.FindLabel("b")};

  auto exists = ExistsQuery(inst, path);
  ASSERT_TRUE(exists.ok());
  EXPECT_NEAR(*exists, 0.3, 1e-12);

  auto projected = AncestorProject(inst, path);
  ASSERT_TRUE(projected.ok()) << projected.status();
  // The projected root's OPF stays unnormalised: its ∅-row carries the
  // probability that the path matches nothing, 1 - P(exists).
  const Opf* root_opf = projected->GetOpf(projected->weak().root());
  ASSERT_NE(root_opf, nullptr);
  EXPECT_NEAR(root_opf->Prob(IdSet()), 1.0 - *exists, 1e-12);

  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  auto oracle = ProjectWorlds(*worlds, path);
  ASSERT_TRUE(oracle.ok());
  testing::ExpectInstanceMatchesWorlds(*projected, *oracle, 1e-12);
}

TEST(UnmatchedPathTest, QueriesReturnZeroAndSelectionFails) {
  ProbabilisticInstance inst = testing::MakeChainInstance();
  const Dictionary& dict_before = inst.weak().dict();
  ObjectId y = *dict_before.FindObject("y");
  PathExpression ghost;
  ghost.start = inst.weak().root();
  ghost.labels.push_back(inst.mutable_weak().dict().InternLabel("ghost"));

  // Existence and point probabilities of an unmatched path are 0, not
  // an error: the empty pruned layers short-circuit the ε pass.
  auto exists = ExistsQuery(inst, ghost);
  ASSERT_TRUE(exists.ok()) << exists.status();
  EXPECT_EQ(*exists, 0.0);
  auto point = PointQuery(inst, ghost, y);
  ASSERT_TRUE(point.ok()) << point.status();
  EXPECT_EQ(*point, 0.0);

  // Selection conditions on the same path cannot be conditioned on (the
  // event has probability 0), so Select refuses.
  auto selected =
      Select(inst, SelectionCondition::ObjectEquals(ghost, y), nullptr);
  ASSERT_FALSE(selected.ok());
  EXPECT_EQ(selected.status().code(), StatusCode::kFailedPrecondition);

  // Projection still succeeds with the bare-root result.
  ProjectionStats stats;
  auto projected = AncestorProject(inst, ghost, &stats);
  ASSERT_TRUE(projected.ok()) << projected.status();
  EXPECT_EQ(stats.kept_objects, 1u);
  EXPECT_EQ(projected->weak().Objects().size(), 1u);
}

TEST(SelectEdgeCaseTest, LengthZeroPathOnRootIsIdentity) {
  ProbabilisticInstance inst = testing::MakeChainInstance();
  PathExpression path;
  path.start = inst.weak().root();
  SelectionStats stats;
  auto selected = Select(
      inst, SelectionCondition::ObjectEquals(path, inst.weak().root()),
      &stats);
  ASSERT_TRUE(selected.ok()) << selected.status();
  EXPECT_NEAR(stats.condition_prob, 1.0, 1e-12);
  auto expected = EnumerateWorlds(inst);
  ASSERT_TRUE(expected.ok());
  testing::ExpectInstanceMatchesWorlds(*selected, *expected, 1e-12);
}

TEST(CartesianProductEdgeCaseTest, ProductOfRootOnlyInstances) {
  ProbabilisticInstance left = MakeRootOnlyInstance("left");
  ProbabilisticInstance right = MakeRootOnlyInstance("right");
  auto product = CartesianProduct(left, right, "r");
  ASSERT_TRUE(product.ok()) << product.status();
  EXPECT_TRUE(ValidateProbabilisticInstance(*product).ok());

  auto left_worlds = EnumerateWorlds(left);
  auto right_worlds = EnumerateWorlds(right);
  ASSERT_TRUE(left_worlds.ok());
  ASSERT_TRUE(right_worlds.ok());
  auto oracle = CartesianProductWorlds(*left_worlds, *right_worlds, "r");
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  testing::ExpectInstanceMatchesWorlds(*product, *oracle, 1e-12);
}

// A leaf root merged with a non-leaf root would leave the fresh root
// both typed and with children — ill-formed — so the root-only side is
// an untyped bare root here.
TEST(CartesianProductEdgeCaseTest, RootOnlyTimesChainMatchesOracle) {
  ProbabilisticInstance left;
  ObjectId solo = left.mutable_weak().AddObject("solo");
  ASSERT_TRUE(left.mutable_weak().SetRoot(solo).ok());
  ProbabilisticInstance right = testing::MakeChainInstance();
  auto product = CartesianProduct(left, right, "top");
  ASSERT_TRUE(product.ok()) << product.status();
  auto left_worlds = EnumerateWorlds(left);
  auto right_worlds = EnumerateWorlds(right);
  ASSERT_TRUE(left_worlds.ok());
  ASSERT_TRUE(right_worlds.ok());
  auto oracle = CartesianProductWorlds(*left_worlds, *right_worlds, "top");
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  testing::ExpectInstanceMatchesWorlds(*product, *oracle, 1e-12);
}

TEST(CartesianProductEdgeCaseTest, RejectsSharedObjectNames) {
  ProbabilisticInstance inst = MakeRootOnlyInstance("r");
  auto product = CartesianProduct(inst, inst, "top");
  ASSERT_FALSE(product.ok());
  EXPECT_EQ(product.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace pxml
