#include <gtest/gtest.h>

#include <cmath>

#include "bayes/factor.h"
#include "bayes/network.h"
#include "core/semantics.h"
#include "fixtures.h"
#include "query/point_queries.h"

namespace pxml {
namespace {

using testing::MakeBibliographicInstance;
using testing::MakeChainInstance;
using testing::MakeFullyTypedBibliographicInstance;
using testing::MakeSmallTreeInstance;

// ------------------------------------------------------------------ Factor

TEST(FactorTest, ScalarUnit) {
  Factor f;
  EXPECT_TRUE(f.IsScalar());
  EXPECT_DOUBLE_EQ(f.ScalarValue(), 1.0);
}

TEST(FactorTest, MakeValidates) {
  EXPECT_TRUE(Factor::Make({0, 1}, {2, 3}, std::vector<double>(6, 0.1)).ok());
  EXPECT_FALSE(Factor::Make({1, 0}, {2, 2}, std::vector<double>(4)).ok());
  EXPECT_FALSE(Factor::Make({0, 0}, {2, 2}, std::vector<double>(4)).ok());
  EXPECT_FALSE(Factor::Make({0}, {2}, std::vector<double>(3)).ok());
  EXPECT_FALSE(Factor::Make({0}, {0}, {}).ok());
}

TEST(FactorTest, MultiplySharedVariable) {
  // f(x) = [0.4, 0.6]; g(x,y) row-major y fastest.
  auto f = Factor::Make({0}, {2}, {0.4, 0.6});
  auto g = Factor::Make({0, 1}, {2, 2}, {0.1, 0.9, 0.5, 0.5});
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(g.ok());
  Factor h = f->Multiply(*g);
  EXPECT_EQ(h.vars(), (std::vector<VarId>{0, 1}));
  EXPECT_NEAR(h.At({0, 0}), 0.4 * 0.1, 1e-12);
  EXPECT_NEAR(h.At({1, 1}), 0.6 * 0.5, 1e-12);
}

TEST(FactorTest, MultiplyDisjointScopes) {
  auto f = Factor::Make({0}, {2}, {0.3, 0.7});
  auto g = Factor::Make({2}, {2}, {0.9, 0.1});
  Factor h = f->Multiply(*g);
  EXPECT_EQ(h.vars(), (std::vector<VarId>{0, 2}));
  EXPECT_NEAR(h.At({1, 0}), 0.7 * 0.9, 1e-12);
  EXPECT_NEAR(h.Sum(), 1.0, 1e-12);
}

TEST(FactorTest, SumOutAndCondition) {
  auto g = Factor::Make({0, 1}, {2, 2}, {0.1, 0.2, 0.3, 0.4});
  Factor marg = g->SumOut(1);
  EXPECT_EQ(marg.vars(), std::vector<VarId>{0});
  EXPECT_NEAR(marg.At({0}), 0.3, 1e-12);
  EXPECT_NEAR(marg.At({1}), 0.7, 1e-12);
  Factor cond = g->Condition(1, 0);
  EXPECT_NEAR(cond.At({0}), 0.1, 1e-12);
  EXPECT_NEAR(cond.At({1}), 0.3, 1e-12);
  // Missing variable: no-ops.
  EXPECT_EQ(g->SumOut(9).vars().size(), 2u);
}

TEST(FactorTest, EliminationMatchesDirectProduct) {
  auto a = Factor::Make({0}, {2}, {0.25, 0.75});
  auto b = Factor::Make({0, 1}, {2, 3},
                        {0.2, 0.3, 0.5, 0.1, 0.1, 0.8});
  auto c = Factor::Make({1, 2}, {3, 2},
                        {0.5, 0.5, 0.4, 0.6, 0.9, 0.1});
  std::vector<Factor> factors{*a, *b, *c};
  auto z = EliminateAllBut(factors, {});
  ASSERT_TRUE(z.ok());
  // Direct: sum over all assignments.
  double direct = 0;
  for (std::uint32_t x = 0; x < 2; ++x) {
    for (std::uint32_t y = 0; y < 3; ++y) {
      for (std::uint32_t w = 0; w < 2; ++w) {
        direct += a->At({x}) * b->At({x, y}) * c->At({y, w});
      }
    }
  }
  EXPECT_NEAR(z->ScalarValue(), direct, 1e-12);

  auto marginal = EliminateAllBut(factors, {2});
  ASSERT_TRUE(marginal.ok());
  EXPECT_EQ(marginal->vars(), std::vector<VarId>{2});
  EXPECT_NEAR(marginal->Sum(), direct, 1e-12);
}

// ---------------------------------------------------------------- BayesNet

/// Oracle: P(o present) by enumeration.
double PresenceByEnumeration(const ProbabilisticInstance& inst, ObjectId o) {
  auto worlds = EnumerateWorlds(inst);
  EXPECT_TRUE(worlds.ok());
  double p = 0;
  for (const World& w : *worlds) {
    if (w.instance.Present(o)) p += w.prob;
  }
  return p;
}

TEST(BayesNetTest, ChainPresence) {
  ProbabilisticInstance inst = MakeChainInstance();
  auto net = BayesNet::Compile(inst);
  ASSERT_TRUE(net.ok()) << net.status();
  auto py = net->ProbPresent(*inst.dict().FindObject("y"));
  ASSERT_TRUE(py.ok());
  EXPECT_NEAR(*py, 0.3, 1e-12);
  auto pr = net->ProbPresent(inst.weak().root());
  ASSERT_TRUE(pr.ok());
  EXPECT_NEAR(*pr, 1.0, 1e-12);
}

TEST(BayesNetTest, PresenceMatchesEnumerationOnTree) {
  ProbabilisticInstance inst = MakeSmallTreeInstance();
  auto net = BayesNet::Compile(inst);
  ASSERT_TRUE(net.ok());
  for (ObjectId o : inst.weak().Objects()) {
    auto p = net->ProbPresent(o);
    ASSERT_TRUE(p.ok());
    EXPECT_NEAR(*p, PresenceByEnumeration(inst, o), 1e-9)
        << inst.dict().ObjectName(o);
  }
}

TEST(BayesNetTest, PresenceMatchesEnumerationOnDag) {
  // The bibliographic instance is a DAG (I1 under A1 and A2); BN
  // inference is the route that handles it exactly.
  ProbabilisticInstance inst = MakeFullyTypedBibliographicInstance();
  auto net = BayesNet::Compile(inst);
  ASSERT_TRUE(net.ok()) << net.status();
  for (ObjectId o : inst.weak().Objects()) {
    auto p = net->ProbPresent(o);
    ASSERT_TRUE(p.ok());
    EXPECT_NEAR(*p, PresenceByEnumeration(inst, o), 1e-9)
        << inst.dict().ObjectName(o);
  }
}

TEST(BayesNetTest, LeafValueMatchesEnumeration) {
  ProbabilisticInstance inst = MakeFullyTypedBibliographicInstance();
  auto net = BayesNet::Compile(inst);
  ASSERT_TRUE(net.ok());
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  ObjectId i1 = *inst.dict().FindObject("I1");
  double oracle = 0;
  for (const World& w : *worlds) {
    auto v = w.instance.ValueOf(i1);
    if (v.has_value() && *v == Value("Stanford")) oracle += w.prob;
  }
  auto p = net->ProbLeafValue(i1, Value("Stanford"));
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, oracle, 1e-9);
}

TEST(BayesNetTest, JointPresence) {
  ProbabilisticInstance inst = MakeFullyTypedBibliographicInstance();
  auto net = BayesNet::Compile(inst);
  ASSERT_TRUE(net.ok());
  ObjectId a1 = *inst.dict().FindObject("A1");
  ObjectId a2 = *inst.dict().FindObject("A2");
  auto joint = net->ProbAllPresent({a1, a2});
  ASSERT_TRUE(joint.ok());
  auto worlds = EnumerateWorlds(inst);
  ASSERT_TRUE(worlds.ok());
  double oracle = 0;
  for (const World& w : *worlds) {
    if (w.instance.Present(a1) && w.instance.Present(a2)) oracle += w.prob;
  }
  EXPECT_NEAR(*joint, oracle, 1e-9);
  // Joint differs from the product of marginals (shared parent B2).
  auto p1 = net->ProbPresent(a1);
  auto p2 = net->ProbPresent(a2);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_GT(std::abs(*joint - *p1 * *p2), 1e-4);
}

TEST(BayesNetTest, AgreesWithEpsilonPropagationOnTrees) {
  // Three routes to P(o in p) must coincide on trees: ε-propagation,
  // world enumeration, and BN inference (in a tree, presence of o is
  // exactly "the unique chain to o exists").
  ProbabilisticInstance inst = testing::MakeTreeBibliographicInstance();
  auto net = BayesNet::Compile(inst);
  ASSERT_TRUE(net.ok());
  const Dictionary& dict = inst.dict();
  PathExpression p;
  p.start = inst.weak().root();
  p.labels = {*dict.FindLabel("book"), *dict.FindLabel("author"),
              *dict.FindLabel("institution")};
  ObjectId i1 = *dict.FindObject("I1");
  auto eps = PointQuery(inst, p, i1);
  auto bn = net->ProbPresent(i1);
  ASSERT_TRUE(eps.ok());
  ASSERT_TRUE(bn.ok());
  EXPECT_NEAR(*eps, *bn, 1e-9);
}

TEST(BayesNetTest, MarginalIsNormalized) {
  ProbabilisticInstance inst = MakeSmallTreeInstance();
  auto net = BayesNet::Compile(inst);
  ASSERT_TRUE(net.ok());
  for (ObjectId o : inst.weak().Objects()) {
    auto m = net->Marginal(o);
    ASSERT_TRUE(m.ok());
    double sum = 0;
    for (double v : *m) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(BayesNetTest, RejectsInvalidInstances) {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.mutable_weak();
  ObjectId r = weak.AddObject("r");
  ObjectId x = weak.AddObject("x");
  LabelId l = weak.dict().InternLabel("l");
  ASSERT_TRUE(weak.SetRoot(r).ok());
  ASSERT_TRUE(weak.AddPotentialChild(r, l, x).ok());
  // Missing OPF.
  EXPECT_FALSE(BayesNet::Compile(inst).ok());
}

TEST(BayesNetTest, UnknownObjectQueriesFail) {
  ProbabilisticInstance inst = MakeChainInstance();
  auto net = BayesNet::Compile(inst);
  ASSERT_TRUE(net.ok());
  EXPECT_FALSE(net->ProbPresent(999).ok());
  EXPECT_FALSE(net->ProbLeafValue(inst.weak().root(), Value("x")).ok());
}

}  // namespace
}  // namespace pxml
