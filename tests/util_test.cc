#include <gtest/gtest.h>

#include <set>

#include "util/id_set.h"
#include "util/interval.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace pxml {
namespace {

// ------------------------------------------------------------------ Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad probability");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad probability");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad probability");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes{
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::FailedPrecondition("").code(), Status::Unimplemented("").code(),
      Status::ParseError("").code(),       Status::IoError("").code(),
      Status::Internal("").code()};
  EXPECT_EQ(codes.size(), 7u);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Doubler(Result<int> in) {
  PXML_ASSIGN_OR_RETURN(int v, std::move(in));
  return 2 * v;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Status::IoError("disk")).status().code(),
            StatusCode::kIoError);
}

// ---------------------------------------------------------------- Interval

TEST(IntervalTest, DefaultIsUnconstrained) {
  IntInterval i;
  EXPECT_TRUE(i.IsUnconstrained());
  EXPECT_TRUE(i.Contains(0));
  EXPECT_TRUE(i.Contains(1000000));
}

TEST(IntervalTest, ContainsIsInclusive) {
  IntInterval i(2, 4);
  EXPECT_FALSE(i.Contains(1));
  EXPECT_TRUE(i.Contains(2));
  EXPECT_TRUE(i.Contains(3));
  EXPECT_TRUE(i.Contains(4));
  EXPECT_FALSE(i.Contains(5));
}

TEST(IntervalTest, ToStringRendersBounds) {
  EXPECT_EQ(IntInterval(1, 2).ToString(), "[1,2]");
  EXPECT_EQ(IntInterval().ToString(), "[0,*]");
}

TEST(IntervalTest, InvalidDetected) {
  EXPECT_FALSE(IntInterval(3, 1).valid());
  EXPECT_TRUE(IntInterval(3, 3).valid());
}

// ------------------------------------------------------------------- IdSet

TEST(IdSetTest, CanonicalizesInput) {
  IdSet s({5, 1, 3, 1, 5});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.ToString(), "{1,3,5}");
}

TEST(IdSetTest, MembershipAndWithWithout) {
  IdSet s{1, 3};
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(2));
  EXPECT_EQ(s.With(2).ToString(), "{1,2,3}");
  EXPECT_EQ(s.Without(3).ToString(), "{1}");
  EXPECT_EQ(s.Without(99), s);  // removing absent id is a no-op
}

TEST(IdSetTest, InsertKeepsTheSetCanonical) {
  IdSet s;
  EXPECT_TRUE(s.Insert(5));
  EXPECT_TRUE(s.Insert(9));   // appended
  EXPECT_TRUE(s.Insert(1));   // inserted in front
  EXPECT_TRUE(s.Insert(7));   // inserted in the middle
  EXPECT_FALSE(s.Insert(7));  // already present
  EXPECT_FALSE(s.Insert(9));
  EXPECT_EQ(s, IdSet({1, 5, 7, 9}));
}

TEST(IdSetTest, SetAlgebra) {
  IdSet a{1, 2, 3};
  IdSet b{3, 4};
  EXPECT_EQ(a.Union(b).ToString(), "{1,2,3,4}");
  EXPECT_EQ(a.Intersect(b).ToString(), "{3}");
  EXPECT_EQ(a.Difference(b).ToString(), "{1,2}");
  EXPECT_TRUE(IdSet({3}).IsSubsetOf(a));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(IdSet().IsSubsetOf(a));
}

TEST(IdSetTest, HashConsistentWithEquality) {
  IdSet a({2, 1});
  IdSet b{1, 2};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(IdSet{1}.Hash(), IdSet{2}.Hash());
}

TEST(IdSetTest, OrderingIsLexicographic) {
  EXPECT_LT(IdSet{1}, IdSet({1, 2}));
  EXPECT_LT((IdSet{1, 2}), IdSet{2});
  EXPECT_LT(IdSet(), IdSet{0});
}

// --------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    std::uint64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, SimplexSumsToOne) {
  Rng rng(3);
  for (std::size_t n : {1u, 2u, 10u, 256u}) {
    std::vector<double> v = rng.NextSimplex(n);
    ASSERT_EQ(v.size(), n);
    double sum = 0;
    for (double x : v) {
      EXPECT_GT(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(7);
  Rng forked = a.Fork();
  EXPECT_NE(a.NextU64(), forked.NextU64());
}

// ----------------------------------------------------------------- Strings

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a.b..c", '.'),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", '.'), (std::vector<std::string>{""}));
}

TEST(StringsTest, JoinRoundTripsSplit) {
  std::vector<std::string> pieces{"R", "book", "author"};
  EXPECT_EQ(StrJoin(pieces, "."), "R.book.author");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("project R.a", "project "));
  EXPECT_FALSE(StartsWith("pro", "project"));
}

TEST(StringsTest, StrCatMixesTypes) {
  EXPECT_EQ(StrCat("x=", 42, ", p=", 0.5), "x=42, p=0.5");
}

}  // namespace
}  // namespace pxml
