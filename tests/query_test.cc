#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/semantics.h"
#include "fixtures.h"
#include "query/parser.h"
#include "query/point_queries.h"
#include "util/rng.h"

namespace pxml {
namespace {

using testing::MakeBibliographicInstance;
using testing::MakeChainInstance;
using testing::MakeSmallTreeInstance;
using testing::MakeTreeBibliographicInstance;

// ------------------------------------------------------------ point queries

TEST(PointQueryTest, ChainInstanceByHand) {
  ProbabilisticInstance inst = MakeChainInstance();
  const Dictionary& dict = inst.dict();
  PathExpression p;
  p.start = inst.weak().root();
  p.labels = {*dict.FindLabel("a"), *dict.FindLabel("b")};
  auto prob = PointQuery(inst, p, *dict.FindObject("y"));
  ASSERT_TRUE(prob.ok());
  EXPECT_NEAR(*prob, 0.6 * 0.5, 1e-12);
}

TEST(PointQueryTest, MatchesWorldsOracle) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  struct Case {
    std::vector<const char*> labels;
    const char* object;
  };
  for (const Case& c : std::vector<Case>{
           {{"book"}, "B1"},
           {{"book"}, "B2"},
           {{"book", "author"}, "A1"},
           {{"book", "author"}, "A3"},
           {{"book", "title"}, "T1"},
           {{"book", "author", "institution"}, "I1"},
           {{"book", "author", "institution"}, "I2"}}) {
    PathExpression p;
    p.start = inst.weak().root();
    for (const char* l : c.labels) p.labels.push_back(*dict.FindLabel(l));
    ObjectId target = *dict.FindObject(c.object);
    auto fast = PointQuery(inst, p, target);
    auto slow = PointQueryViaWorlds(inst, p, target);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok()) << slow.status();
    EXPECT_NEAR(*fast, *slow, 1e-9) << c.object;
  }
}

TEST(PointQueryTest, NonMatchingObjectHasZeroProbability) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  PathExpression p;
  p.start = inst.weak().root();
  p.labels = {*dict.FindLabel("book")};
  auto prob = PointQuery(inst, p, *dict.FindObject("A1"));
  ASSERT_TRUE(prob.ok());
  EXPECT_DOUBLE_EQ(*prob, 0.0);
}

TEST(ExistsQueryTest, MatchesWorldsOracle) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  for (auto labels : std::vector<std::vector<const char*>>{
           {"book"},
           {"book", "title"},
           {"book", "author"},
           {"book", "author", "institution"}}) {
    PathExpression p;
    p.start = inst.weak().root();
    for (const char* l : labels) p.labels.push_back(*dict.FindLabel(l));
    auto fast = ExistsQuery(inst, p);
    auto slow = ExistsQueryViaWorlds(inst, p);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok());
    EXPECT_NEAR(*fast, *slow, 1e-9);
  }
}

TEST(ExistsQueryTest, SharedAncestorsAreNotDoubleCounted) {
  // Both y1 and y2 hang under x1; P(exists r.a.b) must account for the
  // correlation through x1 (1 - prod(1-eps) inside x1's OPF rows, not
  // naive independence across targets).
  ProbabilisticInstance inst = MakeSmallTreeInstance();
  const Dictionary& dict = inst.dict();
  PathExpression p;
  p.start = inst.weak().root();
  p.labels = {*dict.FindLabel("a"), *dict.FindLabel("b")};
  auto fast = ExistsQuery(inst, p);
  auto slow = ExistsQueryViaWorlds(inst, p);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  // P(x1 present) = 0.8; P(x1 has some y | x1) = 0.9.
  EXPECT_NEAR(*fast, 0.8 * 0.9, 1e-12);
  EXPECT_NEAR(*fast, *slow, 1e-12);
}

TEST(ValueQueryTest, MatchesWorldsOracle) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  PathExpression p;
  p.start = inst.weak().root();
  p.labels = {*dict.FindLabel("book"), *dict.FindLabel("author"),
              *dict.FindLabel("institution")};
  for (const char* v : {"Stanford", "UMD"}) {
    auto fast = ValueQuery(inst, p, Value(v));
    auto slow = ValueQueryViaWorlds(inst, p, Value(v));
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(slow.ok());
    EXPECT_NEAR(*fast, *slow, 1e-9) << v;
  }
}

TEST(ChainProbabilityTest, ProductOfMarginals) {
  ProbabilisticInstance inst = MakeChainInstance();
  const Dictionary& dict = inst.dict();
  std::vector<ObjectId> chain{inst.weak().root(), *dict.FindObject("x"),
                              *dict.FindObject("y")};
  auto prob = ChainProbability(inst, chain);
  ASSERT_TRUE(prob.ok());
  EXPECT_NEAR(*prob, 0.3, 1e-12);
  EXPECT_FALSE(ChainProbability(inst, {*dict.FindObject("x")}).ok());
}

TEST(PointQueryTest, RejectsDag) {
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  PathExpression p;
  p.start = inst.weak().root();
  p.labels = {*dict.FindLabel("book"), *dict.FindLabel("author")};
  EXPECT_FALSE(PointQuery(inst, p, *dict.FindObject("A1")).ok());
  // The worlds oracle covers DAGs.
  auto slow = PointQueryViaWorlds(inst, p, *dict.FindObject("A1"));
  ASSERT_TRUE(slow.ok());
  EXPECT_GT(*slow, 0.0);
  EXPECT_LT(*slow, 1.0);
}

// ------------------------------------------------------------------ parser

TEST(ParserTest, PathExpressionRoundTrip) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  auto p = ParsePathExpression(inst.dict(), "R.book.author");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->start, inst.weak().root());
  ASSERT_EQ(p->labels.size(), 2u);
  EXPECT_EQ(p->ToString(inst.dict()), "R.book.author");
}

TEST(ParserTest, PathErrors) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  EXPECT_FALSE(ParsePathExpression(inst.dict(), "").ok());
  EXPECT_FALSE(ParsePathExpression(inst.dict(), "Q.book").ok());
  EXPECT_FALSE(ParsePathExpression(inst.dict(), "R.publisher").ok());
  EXPECT_FALSE(ParsePathExpression(inst.dict(), "R..book").ok());
}

TEST(ParserTest, ValueLiterals) {
  EXPECT_EQ(ParseValueLiteral("\"abc def\""), Value("abc def"));
  EXPECT_EQ(ParseValueLiteral("42"), Value(std::int64_t{42}));
  EXPECT_EQ(ParseValueLiteral("2.5"), Value(2.5));
  EXPECT_EQ(ParseValueLiteral("true"), Value(true));
  EXPECT_EQ(ParseValueLiteral("VQDB"), Value("VQDB"));
}

TEST(ParserTest, SelectionConditions) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  auto obj = ParseSelectionCondition(inst.dict(), "R.book = B1");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->kind, SelectionCondition::Kind::kObject);
  EXPECT_EQ(obj->object, *inst.dict().FindObject("B1"));

  auto val =
      ParseSelectionCondition(inst.dict(), "val(R.book.title) = \"VQDB\"");
  ASSERT_TRUE(val.ok());
  EXPECT_EQ(val->kind, SelectionCondition::Kind::kValue);
  EXPECT_EQ(val->value, Value("VQDB"));
  EXPECT_EQ(val->path.labels.size(), 2u);

  EXPECT_FALSE(ParseSelectionCondition(inst.dict(), "R.book").ok());
  EXPECT_FALSE(ParseSelectionCondition(inst.dict(), "R.book = QQ").ok());
}

TEST(ParserTest, QueryKinds) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  auto q1 = ParseQuery(dict, "project R.book.author");
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1->kind, Query::Kind::kAncestorProject);
  auto q2 = ParseQuery(dict, "project descendant R.book");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->kind, Query::Kind::kDescendantProject);
  auto q3 = ParseQuery(dict, "select R.book = B2");
  ASSERT_TRUE(q3.ok());
  EXPECT_EQ(q3->kind, Query::Kind::kSelect);
  auto q4 = ParseQuery(dict, "prob R.book = B1");
  ASSERT_TRUE(q4.ok());
  EXPECT_EQ(q4->kind, Query::Kind::kPointProbability);
  auto q5 = ParseQuery(dict, "prob exists R.book.title");
  ASSERT_TRUE(q5.ok());
  EXPECT_EQ(q5->kind, Query::Kind::kExistsProbability);
  auto q6 = ParseQuery(dict, "prob val(R.book.title) = \"Lore\"");
  ASSERT_TRUE(q6.ok());
  EXPECT_EQ(q6->kind, Query::Kind::kValueProbability);
  EXPECT_FALSE(ParseQuery(dict, "drop table books").ok());
}

TEST(ParserTest, QueryToStringRoundTrips) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  for (const char* text :
       {"project R.book.author", "project descendant R.book",
        "select R.book = B2", "prob R.book = B1",
        "prob exists R.book.title"}) {
    auto q = ParseQuery(dict, text);
    ASSERT_TRUE(q.ok()) << text;
    EXPECT_EQ(q->ToString(dict), text);
  }
}

TEST(ParserTest, CountsMustBeUnsignedDecimalsBelow2To32) {
  // Counts follow the XML reader's rule: the whole token is an unsigned
  // decimal below 2^32, so no sign, no wrap-around and no k + 1 overflow.
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  for (const char* text :
       {"count(R, book) = 4294967296", "count(R, book) = 99999999999",
        "count(R, book) = -1", "count(R, book) = +1",
        "count(R, book) <= 4294967297", "count(R, book) in [0, 4294967296]",
        "count(R, book) in [-1, 2]", "count(R, book) > 4294967295",
        "count(R, book) = 2x", "count(R, book) = 0x2"}) {
    auto cond = ParseSelectionCondition(dict, text);
    ASSERT_FALSE(cond.ok())
        << text << " parsed as " << cond->count_range.ToString();
    EXPECT_EQ(cond.status().code(), StatusCode::kParseError) << text;
  }
  // The largest count still parses, and comparisons next to it keep
  // their meaning.
  auto ge = ParseSelectionCondition(dict, "count(R, book) > 4294967294");
  ASSERT_TRUE(ge.ok()) << ge.status();
  EXPECT_EQ(ge->count_range,
            IntInterval(IntInterval::kUnbounded, IntInterval::kUnbounded));
  auto in = ParseSelectionCondition(dict, "count(R, book) in [ 2 , 3 ]");
  ASSERT_TRUE(in.ok()) << in.status();
  EXPECT_EQ(in->count_range, IntInterval(2, 3));
}

TEST(ParserTest, SeededMutationsNeverCrash) {
  // Hostile query text: seeded inserts, deletes, duplications,
  // replacements with query punctuation and truncations of valid queries
  // of every Query::Kind. Each must come back as a Result, ok or not,
  // never as a crash or a sanitizer report.
  ProbabilisticInstance inst = MakeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  const std::vector<std::string> valid = {
      "project R.book.author",
      "project descendant R.book",
      "project single R.book.author",
      "select R.book = B1",
      "select val(R.book.title) = \"VQDB\"",
      "select count(R.book, author) in [1, 2]",
      "prob R.book = B1",
      "prob exists R.book.title",
      "prob val(R.book.title) != \"Lore\"",
      "prob count(R.book, author) >= 1",
      "prob count(R, book) < 3",
      "dist R.book.author",
  };
  std::set<Query::Kind> kinds;
  for (const std::string& text : valid) {
    auto q = ParseQuery(dict, text);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status();
    kinds.insert(q->kind);
  }
  ASSERT_EQ(kinds.size(), 9u);  // every Query::Kind

  Rng rng(0x9a45e);
  const auto mutate = [&rng](std::string text) {
    const std::size_t at = rng.NextBounded(text.size() + 1);
    const std::size_t span = 1 + rng.NextBounded(8);
    switch (rng.NextBounded(5)) {
      case 0:  // insert random bytes
        for (std::size_t i = 0; i < span; ++i) {
          text.insert(text.begin() + at,
                      static_cast<char>(rng.NextBounded(256)));
        }
        break;
      case 1:  // delete a span
        text.erase(at, span);
        break;
      case 2:  // duplicate a span
        text.insert(at, text.substr(at, span));
        break;
      case 3:  // replace one byte with query punctuation or a digit
        if (at < text.size()) {
          text[at] = "().,[]=<>!*\" -0123456789"[rng.NextBounded(24)];
        }
        break;
      default:  // truncate
        text.resize(at);
    }
    return text;
  };
  constexpr int kMutations = 12000;
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::string text = valid[static_cast<std::size_t>(i) % valid.size()];
    for (std::uint64_t k = 1 + rng.NextBounded(3); k > 0; --k) {
      text = mutate(std::move(text));
    }
    Result<Query> q = ParseQuery(dict, text);
    if (q.ok()) {
      ++accepted;
      EXPECT_FALSE(q->ToString(dict).empty()) << text;
    }
  }
  // Some mutations keep a valid query (a duplicated space, a digit for a
  // digit); most break it.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutations);
}

// --------------------------------------------------------------- execution

TEST(ExecuteQueryTest, ProbabilityQueries) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  auto q = ParseQuery(dict, "prob R.book = B1");
  ASSERT_TRUE(q.ok());
  auto out = ExecuteQuery(inst, *q);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->probability.has_value());
  EXPECT_NEAR(*out->probability, 0.8, 1e-12);

  q = ParseQuery(dict, "prob exists R.book.title");
  ASSERT_TRUE(q.ok());
  out = ExecuteQuery(inst, *q);
  ASSERT_TRUE(out.ok());
  auto oracle = ExistsQueryViaWorlds(inst, q->path);
  ASSERT_TRUE(oracle.ok());
  EXPECT_NEAR(*out->probability, *oracle, 1e-9);
}

TEST(ExecuteQueryTest, InstanceQueries) {
  ProbabilisticInstance inst = MakeTreeBibliographicInstance();
  const Dictionary& dict = inst.dict();
  auto q = ParseQuery(dict, "project R.book.author");
  ASSERT_TRUE(q.ok());
  auto out = ExecuteQuery(inst, *q);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_TRUE(out->instance.has_value());
  EXPECT_FALSE(out->instance->weak().Present(*dict.FindObject("T1")));

  q = ParseQuery(dict, "select R.book = B1");
  ASSERT_TRUE(q.ok());
  out = ExecuteQuery(inst, *q);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->instance.has_value());
  const Opf* root_opf = out->instance->GetOpf(inst.weak().root());
  EXPECT_NEAR(root_opf->MarginalChildProb(*dict.FindObject("B1")), 1.0,
              1e-12);
}

}  // namespace
}  // namespace pxml
