#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "algebra/cartesian_product.h"
#include "core/semantics.h"
#include "core/validation.h"
#include "fixtures.h"
#include "world_testing.h"

namespace pxml {
namespace {

using testing::ExpectInstanceMatchesWorlds;
using testing::MakeChainInstance;
using testing::MakeSmallTreeInstance;

/// A second instance with disjoint names: r2 --c--> z (typed leaf).
ProbabilisticInstance MakeOtherInstance() {
  ProbabilisticInstance out;
  WeakInstance& weak = out.mutable_weak();
  ObjectId r2 = weak.AddObject("r2");
  ObjectId z = weak.AddObject("z");
  LabelId c = weak.dict().InternLabel("c");
  EXPECT_TRUE(weak.SetRoot(r2).ok());
  EXPECT_TRUE(weak.AddPotentialChild(r2, c, z).ok());
  auto opf = std::make_unique<ExplicitOpf>();
  opf->Set(IdSet{z}, 0.9);
  opf->Set(IdSet(), 0.1);
  EXPECT_TRUE(out.SetOpf(r2, std::move(opf)).ok());
  auto type = weak.dict().DefineType("zt", {Value("p"), Value("q")});
  EXPECT_TRUE(type.ok());
  EXPECT_TRUE(weak.SetLeafType(z, type.value()).ok());
  Vpf vpf;
  vpf.Set(Value("p"), 0.5);
  vpf.Set(Value("q"), 0.5);
  EXPECT_TRUE(out.SetVpf(z, std::move(vpf)).ok());
  return out;
}

TEST(CartesianProductTest, MatchesWorldsOracle) {
  ProbabilisticInstance left = MakeChainInstance();
  ProbabilisticInstance right = MakeOtherInstance();
  auto product = CartesianProduct(left, right, "root");
  ASSERT_TRUE(product.ok()) << product.status();
  auto lw = EnumerateWorlds(left);
  auto rw = EnumerateWorlds(right);
  ASSERT_TRUE(lw.ok());
  ASSERT_TRUE(rw.ok());
  auto oracle = CartesianProductWorlds(*lw, *rw, "root");
  ASSERT_TRUE(oracle.ok());
  ExpectInstanceMatchesWorlds(*product, *oracle);
}

TEST(CartesianProductTest, RootOpfIsProductDistribution) {
  ProbabilisticInstance left = MakeChainInstance();
  ProbabilisticInstance right = MakeOtherInstance();
  auto product = CartesianProduct(left, right, "root");
  ASSERT_TRUE(product.ok());
  const Dictionary& dict = product->dict();
  ObjectId root = product->weak().root();
  ObjectId x = *dict.FindObject("x");
  ObjectId z = *dict.FindObject("z");
  const Opf* opf = product->GetOpf(root);
  ASSERT_NE(opf, nullptr);
  EXPECT_NEAR(opf->Prob(IdSet{x, z}), 0.6 * 0.9, 1e-12);
  EXPECT_NEAR(opf->Prob(IdSet{x}), 0.6 * 0.1, 1e-12);
  EXPECT_NEAR(opf->Prob(IdSet{z}), 0.4 * 0.9, 1e-12);
  EXPECT_NEAR(opf->Prob(IdSet()), 0.4 * 0.1, 1e-12);
  EXPECT_TRUE(opf->Validate().ok());
}

TEST(CartesianProductTest, ResultIsValid) {
  auto product =
      CartesianProduct(MakeChainInstance(), MakeOtherInstance(), "root");
  ASSERT_TRUE(product.ok());
  EXPECT_TRUE(ValidateProbabilisticInstance(*product).ok());
  // Old roots are gone; the new root holds both instances' children.
  EXPECT_FALSE(product->dict().FindObject("r").has_value() &&
               product->weak().Present(*product->dict().FindObject("r")));
}

TEST(CartesianProductTest, NonRootOpfsCarryOverUnchanged) {
  ProbabilisticInstance left = MakeChainInstance();
  auto product = CartesianProduct(left, MakeOtherInstance(), "root");
  ASSERT_TRUE(product.ok());
  ObjectId x = *product->dict().FindObject("x");
  ObjectId y = *product->dict().FindObject("y");
  const Opf* opf = product->GetOpf(x);
  ASSERT_NE(opf, nullptr);
  EXPECT_NEAR(opf->Prob(IdSet{y}), 0.5, 1e-12);
}

TEST(CartesianProductTest, SharedLabelCardinalitiesAdd) {
  // Both roots constrain the same label: the merged root sees the
  // children of both, so the card intervals add (Def 5.7's card'' with
  // the merged-root modification).
  ProbabilisticInstance left;
  ProbabilisticInstance right;
  for (auto [inst, suffix] :
       {std::pair<ProbabilisticInstance*, const char*>{&left, ""},
        std::pair<ProbabilisticInstance*, const char*>{&right, "_2"}}) {
    WeakInstance& weak = inst->mutable_weak();
    ObjectId r = weak.AddObject(std::string("r") + suffix);
    ObjectId c = weak.AddObject(std::string("c") + suffix);
    LabelId item = weak.dict().InternLabel("item");
    ASSERT_TRUE(weak.SetRoot(r).ok());
    ASSERT_TRUE(weak.AddPotentialChild(r, item, c).ok());
    ASSERT_TRUE(weak.SetCard(r, item, IntInterval(1, 1)).ok());
    auto opf = std::make_unique<ExplicitOpf>();
    opf->Set(IdSet{c}, 1.0);
    ASSERT_TRUE(inst->SetOpf(r, std::move(opf)).ok());
  }
  auto product = CartesianProduct(left, right, "root");
  ASSERT_TRUE(product.ok()) << product.status();
  IntInterval card = product->weak().Card(
      product->weak().root(), *product->dict().FindLabel("item"));
  EXPECT_EQ(card, IntInterval(2, 2));
  EXPECT_TRUE(ValidateProbabilisticInstance(*product).ok());
}

TEST(CartesianProductTest, NameCollisionRejected) {
  ProbabilisticInstance a = MakeChainInstance();
  ProbabilisticInstance b = MakeChainInstance();
  Status s = CartesianProduct(a, b, "root").status();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(CartesianProductTest, NewRootNameMustBeFresh) {
  Status s = CartesianProduct(MakeChainInstance(), MakeOtherInstance(), "x")
                 .status();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(RenameObjectsTest, EnablesSelfProduct) {
  ProbabilisticInstance a = MakeChainInstance();
  auto renamed = RenameObjects(
      a, {{"r", "r_2"}, {"x", "x_2"}, {"y", "y_2"}});
  ASSERT_TRUE(renamed.ok()) << renamed.status();
  EXPECT_TRUE(ValidateProbabilisticInstance(*renamed).ok());
  auto product = CartesianProduct(a, *renamed, "root");
  ASSERT_TRUE(product.ok()) << product.status();
  EXPECT_TRUE(ValidateProbabilisticInstance(*product).ok());
  // Both copies are independent: P(x and x_2) = 0.6^2.
  auto worlds = EnumerateWorlds(*product);
  ASSERT_TRUE(worlds.ok());
  double p_both = 0;
  const Dictionary& dict = product->dict();
  for (const World& w : *worlds) {
    if (w.instance.Present(*dict.FindObject("x")) &&
        w.instance.Present(*dict.FindObject("x_2"))) {
      p_both += w.prob;
    }
  }
  EXPECT_NEAR(p_both, 0.36, 1e-9);
}

TEST(RenameObjectsTest, PreservesDistribution) {
  ProbabilisticInstance a = MakeSmallTreeInstance();
  auto renamed = RenameObjects(a, {{"x1", "left"}, {"y2", "lower"}});
  ASSERT_TRUE(renamed.ok());
  auto wa = EnumerateWorlds(a);
  auto wb = EnumerateWorlds(*renamed);
  ASSERT_TRUE(wa.ok());
  ASSERT_TRUE(wb.ok());
  ASSERT_EQ(wa->size(), wb->size());
  double sum = 0;
  for (const World& w : *wb) sum += w.prob;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_TRUE(renamed->dict().FindObject("left").has_value());
  EXPECT_FALSE(renamed->dict().FindObject("x1").has_value());
}

TEST(RenameObjectsTest, RejectsBadRenames) {
  ProbabilisticInstance a = MakeChainInstance();
  EXPECT_EQ(RenameObjects(a, {{"nope", "z"}}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(RenameObjects(a, {{"x", "y"}}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CartesianProductWorldsTest, PairCountAndMass) {
  auto lw = EnumerateWorlds(MakeChainInstance());
  auto rw = EnumerateWorlds(MakeOtherInstance());
  ASSERT_TRUE(lw.ok());
  ASSERT_TRUE(rw.ok());
  auto product = CartesianProductWorlds(*lw, *rw, "root");
  ASSERT_TRUE(product.ok());
  EXPECT_EQ(product->size(), lw->size() * rw->size());
  double sum = 0;
  for (const World& w : *product) sum += w.prob;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

}  // namespace
}  // namespace pxml
