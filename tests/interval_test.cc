// Tests for the interval-probability extension (the companion
// "Probabilistic Interval XML" direction the paper cites): interval
// arithmetic, the box-simplex optimizer, interval OPF/VPF tables, and
// interval ε-propagation queries that must bound every point instance.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/validation.h"
#include "fixtures.h"
#include "interval/interval_model.h"
#include "interval/interval_prob.h"
#include "interval/interval_queries.h"
#include "query/point_queries.h"
#include "xml/interval_io.h"
#include "util/rng.h"

namespace pxml {
namespace {

using testing::MakeChainInstance;
using testing::MakeSmallTreeInstance;
using testing::MakeTreeBibliographicInstance;

void ExpectIntervalNear(const IntervalProb& p, double lo, double hi,
                        double tol = 1e-12) {
  EXPECT_NEAR(p.lo(), lo, tol);
  EXPECT_NEAR(p.hi(), hi, tol);
}

PathExpression MakePath(const Dictionary& dict, ObjectId start,
                        std::initializer_list<const char*> labels) {
  PathExpression p;
  p.start = start;
  for (const char* l : labels) p.labels.push_back(*dict.FindLabel(l));
  return p;
}

// ----------------------------------------------------------- IntervalProb

TEST(IntervalProbTest, MakeValidates) {
  EXPECT_TRUE(IntervalProb::Make(0.2, 0.7).ok());
  EXPECT_FALSE(IntervalProb::Make(0.7, 0.2).ok());
  EXPECT_FALSE(IntervalProb::Make(-0.1, 0.5).ok());
  EXPECT_FALSE(IntervalProb::Make(0.5, 1.1).ok());
}

TEST(IntervalProbTest, Arithmetic) {
  IntervalProb a(0.2, 0.5);
  IntervalProb b(0.4, 0.6);
  ExpectIntervalNear(a.Mult(b), 0.08, 0.3);
  ExpectIntervalNear(a.Complement(), 0.5, 0.8);
  ExpectIntervalNear(a.Add(b), 0.6, 1.0);
  ExpectIntervalNear(a.Hull(b), 0.2, 0.6);
  ExpectIntervalNear(a.Intersect(b), 0.4, 0.5);
  EXPECT_FALSE(IntervalProb(0.1, 0.2).Intersect(IntervalProb(0.5, 0.6))
                   .valid());
  EXPECT_TRUE(a.Contains(0.35));
  EXPECT_FALSE(a.Contains(0.55));
}

TEST(BoxSimplexTest, OptimizesGreedily) {
  // Three rows: p0 in [0.1,0.5], p1 in [0.2,0.6], p2 in [0.1,0.4].
  std::vector<double> lo{0.1, 0.2, 0.1};
  std::vector<double> hi{0.5, 0.6, 0.4};
  std::vector<double> w{1.0, 0.0, 0.5};
  // Max: fill p0 to 0.5, then p2 with the rest (0.1 + 0.4 spent... mass
  // left after lows = 0.6; p0 takes 0.4 -> 0.5, p2 takes 0.2 -> 0.3).
  auto max = OptimizeBoxSimplex(lo, hi, w, true);
  ASSERT_TRUE(max.ok());
  EXPECT_NEAR(*max, 0.5 * 1.0 + 0.2 * 0.0 + 0.3 * 0.5, 1e-12);
  // Min: spend on p1 first (w=0): p1 -> 0.6 uses 0.4; rest 0.2 on p2.
  auto min = OptimizeBoxSimplex(lo, hi, w, false);
  ASSERT_TRUE(min.ok());
  EXPECT_NEAR(*min, 0.1 * 1.0 + 0.6 * 0.0 + 0.3 * 0.5, 1e-12);
}

TEST(BoxSimplexTest, DetectsInfeasibility) {
  EXPECT_FALSE(OptimizeBoxSimplex({0.6, 0.6}, {0.7, 0.7}, {1, 1}, true)
                   .ok());  // lows exceed 1
  EXPECT_FALSE(OptimizeBoxSimplex({0.0, 0.0}, {0.3, 0.3}, {1, 1}, true)
                   .ok());  // highs below 1
}

// ------------------------------------------------------------ IntervalOpf

TEST(IntervalOpfTest, ValidateAndTighten) {
  IntervalOpf opf;
  opf.Set(IdSet{1}, IntervalProb(0.1, 0.9));
  opf.Set(IdSet{2}, IntervalProb(0.3, 0.5));
  ASSERT_TRUE(opf.Validate().ok());
  ASSERT_TRUE(opf.Tighten().ok());
  // p1 = 1 - p2 in [0.5, 0.7].
  ExpectIntervalNear(opf.Get(IdSet{1}), 0.5, 0.7);
  ExpectIntervalNear(opf.Get(IdSet{2}), 0.3, 0.5);
  // Tightening is idempotent.
  ASSERT_TRUE(opf.Tighten().ok());
  ExpectIntervalNear(opf.Get(IdSet{1}), 0.5, 0.7);
}

TEST(IntervalOpfTest, DetectsInconsistency) {
  IntervalOpf opf;
  opf.Set(IdSet{1}, IntervalProb(0.8, 0.9));
  opf.Set(IdSet{2}, IntervalProb(0.8, 0.9));
  EXPECT_FALSE(opf.Validate().ok());
}

TEST(IntervalOpfTest, ContainsPoint) {
  IntervalOpf iopf;
  iopf.Set(IdSet{1}, IntervalProb(0.2, 0.6));
  iopf.Set(IdSet{2}, IntervalProb(0.4, 0.8));
  ExplicitOpf inside;
  inside.Set(IdSet{1}, 0.5);
  inside.Set(IdSet{2}, 0.5);
  EXPECT_TRUE(iopf.ContainsPoint(inside));
  ExplicitOpf outside;
  outside.Set(IdSet{1}, 0.1);
  outside.Set(IdSet{2}, 0.9);
  EXPECT_FALSE(iopf.ContainsPoint(outside));
  ExplicitOpf off_support;
  off_support.Set(IdSet{1}, 0.5);
  off_support.Set(IdSet{3}, 0.5);
  EXPECT_FALSE(iopf.ContainsPoint(off_support));
}

TEST(IntervalOpfTest, MarginalChildProbBounds) {
  IntervalOpf opf;
  opf.Set(IdSet{1}, IntervalProb(0.2, 0.6));
  opf.Set(IdSet{1, 2}, IntervalProb(0.1, 0.3));
  opf.Set(IdSet(), IntervalProb(0.1, 0.7));
  auto bounds = opf.MarginalChildProb(1);
  ASSERT_TRUE(bounds.ok());
  // min: {1}=0.2, {1,2}=0.1, {}=0.7 -> 0.3; max: 0.6+0.3 -> 0.9.
  EXPECT_NEAR(bounds->lo(), 0.3, 1e-12);
  EXPECT_NEAR(bounds->hi(), 0.9, 1e-12);
}

TEST(IntervalVpfTest, ValidateAndContains) {
  IntervalVpf ivpf;
  ivpf.Set(Value("a"), IntervalProb(0.1, 0.5));
  ivpf.Set(Value("b"), IntervalProb(0.5, 0.9));
  EXPECT_TRUE(ivpf.Validate().ok());
  Vpf point;
  point.Set(Value("a"), 0.3);
  point.Set(Value("b"), 0.7);
  EXPECT_TRUE(ivpf.ContainsPoint(point));
  Vpf outside;
  outside.Set(Value("a"), 0.6);
  outside.Set(Value("b"), 0.4);
  EXPECT_FALSE(ivpf.ContainsPoint(outside));
}

// ------------------------------------------------------- IntervalInstance

TEST(IntervalInstanceTest, FromPointIsDegenerate) {
  ProbabilisticInstance point = MakeChainInstance();
  auto interval = IntervalInstance::FromPoint(point);
  ASSERT_TRUE(interval.ok()) << interval.status();
  EXPECT_TRUE(ValidateIntervalInstance(*interval).ok());
  EXPECT_TRUE(interval->CheckContainsPoint(point).ok());
  const IntervalOpf* opf = interval->GetOpf(point.weak().root());
  ASSERT_NE(opf, nullptr);
  for (const IntervalOpf::Entry& e : opf->Entries()) {
    EXPECT_TRUE(e.prob.IsPoint());
  }
}

TEST(IntervalInstanceTest, WidenContainsOriginalAndSamples) {
  ProbabilisticInstance point = MakeSmallTreeInstance();
  auto interval = IntervalInstance::Widen(point, 0.1);
  ASSERT_TRUE(interval.ok());
  EXPECT_TRUE(ValidateIntervalInstance(*interval).ok());
  EXPECT_TRUE(interval->CheckContainsPoint(point).ok());
  Rng rng(31);
  for (int i = 0; i < 20; ++i) {
    auto sampled = interval->SamplePointInstance(rng);
    ASSERT_TRUE(sampled.ok()) << sampled.status();
    EXPECT_TRUE(interval->CheckContainsPoint(*sampled).ok());
    EXPECT_TRUE(ValidateProbabilisticInstance(*sampled).ok());
  }
}

// -------------------------------------------------------- interval queries

TEST(IntervalQueryTest, DegenerateBoundsEqualPointQueries) {
  ProbabilisticInstance point = MakeTreeBibliographicInstance();
  auto interval = IntervalInstance::FromPoint(point);
  ASSERT_TRUE(interval.ok());
  const Dictionary& dict = point.dict();
  PathExpression p = MakePath(dict, point.weak().root(),
                              {"book", "author", "institution"});
  ObjectId i1 = *dict.FindObject("I1");
  auto bounds = IntervalPointQuery(*interval, p, i1);
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  auto exact = PointQuery(point, p, i1);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(bounds->lo(), *exact, 1e-9);
  EXPECT_NEAR(bounds->hi(), *exact, 1e-9);

  auto ebounds = IntervalExistsQuery(*interval, p);
  auto eexact = ExistsQuery(point, p);
  ASSERT_TRUE(ebounds.ok());
  ASSERT_TRUE(eexact.ok());
  EXPECT_NEAR(ebounds->lo(), *eexact, 1e-9);
  EXPECT_NEAR(ebounds->hi(), *eexact, 1e-9);
}

TEST(IntervalQueryTest, BoundsContainEveryPointInstance) {
  ProbabilisticInstance point = MakeTreeBibliographicInstance();
  auto interval = IntervalInstance::Widen(point, 0.05);
  ASSERT_TRUE(interval.ok());
  const Dictionary& dict = point.dict();
  PathExpression p = MakePath(dict, point.weak().root(),
                              {"book", "author", "institution"});
  ObjectId i1 = *dict.FindObject("I1");
  auto bounds = IntervalPointQuery(*interval, p, i1);
  ASSERT_TRUE(bounds.ok());
  EXPECT_LT(bounds->lo(), bounds->hi());  // genuinely widened

  // The original point instance and 25 random ones within the bounds
  // must all land inside.
  auto exact = PointQuery(point, p, i1);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(bounds->Contains(*exact));
  Rng rng(92);
  for (int i = 0; i < 25; ++i) {
    auto sampled = interval->SamplePointInstance(rng);
    ASSERT_TRUE(sampled.ok());
    auto sampled_exact = PointQuery(*sampled, p, i1);
    ASSERT_TRUE(sampled_exact.ok()) << sampled_exact.status();
    EXPECT_TRUE(bounds->Contains(*sampled_exact))
        << *sampled_exact << " not in " << bounds->ToString();
  }
}

TEST(IntervalQueryTest, ExistsBoundsContainPointInstances) {
  ProbabilisticInstance point = MakeSmallTreeInstance();
  auto interval = IntervalInstance::Widen(point, 0.08);
  ASSERT_TRUE(interval.ok());
  PathExpression p =
      MakePath(point.dict(), point.weak().root(), {"a", "b"});
  auto bounds = IntervalExistsQuery(*interval, p);
  ASSERT_TRUE(bounds.ok());
  Rng rng(17);
  for (int i = 0; i < 25; ++i) {
    auto sampled = interval->SamplePointInstance(rng);
    ASSERT_TRUE(sampled.ok());
    auto exact = ExistsQuery(*sampled, p);
    ASSERT_TRUE(exact.ok());
    EXPECT_TRUE(bounds->Contains(*exact));
  }
}

TEST(IntervalQueryTest, UnmatchedPathIsZero) {
  ProbabilisticInstance point = MakeChainInstance();
  auto interval = IntervalInstance::Widen(point, 0.1);
  ASSERT_TRUE(interval.ok());
  PathExpression p = MakePath(point.dict(), point.weak().root(), {"b"});
  auto bounds = IntervalExistsQuery(*interval, p);
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(*bounds, IntervalProb::Point(0.0));
}

// ----------------------------------------------------- IPXML round trips

TEST(IntervalIoTest, RoundTripsWidenedInstances) {
  for (const ProbabilisticInstance& base :
       {MakeChainInstance(), MakeSmallTreeInstance(),
        MakeTreeBibliographicInstance()}) {
    auto interval = IntervalInstance::Widen(base, 0.07);
    ASSERT_TRUE(interval.ok());
    std::string text = SerializeIntervalPxml(*interval);
    auto parsed = ParseIntervalPxml(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    EXPECT_TRUE(ValidateIntervalInstance(*parsed).ok());
    EXPECT_EQ(parsed->weak().num_objects(), base.weak().num_objects());
    // Bounds round-trip exactly: every row interval matches.
    for (ObjectId o : interval->weak().Objects()) {
      const IntervalOpf* a = interval->GetOpf(o);
      const IntervalOpf* b = parsed->GetOpf(o);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a == nullptr) continue;
      ASSERT_EQ(a->NumEntries(), b->NumEntries());
      for (const IntervalOpf::Entry& e : a->Entries()) {
        EXPECT_EQ(b->Get(e.child_set), e.prob);
      }
    }
    // Queries agree after the round trip.
    PathExpression p;
    p.start = parsed->weak().root();
    p.labels = {parsed->weak().LabelsOf(parsed->weak().root())[0]};
    auto qa = IntervalExistsQuery(*interval, p);
    auto qb = IntervalExistsQuery(*parsed, p);
    ASSERT_TRUE(qa.ok());
    ASSERT_TRUE(qb.ok());
    EXPECT_EQ(*qa, *qb);
  }
}

TEST(IntervalIoTest, FileRoundTripAndErrors) {
  auto interval = IntervalInstance::Widen(MakeChainInstance(), 0.05);
  ASSERT_TRUE(interval.ok());
  std::string path = ::testing::TempDir() + "/interval_roundtrip.ipxml";
  ASSERT_TRUE(WriteIntervalPxmlFile(*interval, path).ok());
  auto parsed = ReadIntervalPxmlFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->weak().num_objects(), 3u);
  EXPECT_FALSE(ReadIntervalPxmlFile("/nonexistent.ipxml").ok());
  EXPECT_EQ(ParseIntervalPxml("<pxml root=\"r\"></pxml>").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseIntervalPxml(
                "<ipxml root=\"r\"><object id=\"r\"><iopf>"
                "<row lo=\"0.9\" hi=\"0.5\"></row></iopf></object></ipxml>")
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // lo > hi
}

TEST(IntervalIoTest, MalformedBoundsAreParseErrors) {
  // A bound must be the whole attribute: a finite number in [0, 1] with
  // nothing after it. Each failure names the element that carries it.
  auto with_bounds = [](const std::string& lo, const std::string& hi) {
    return "<ipxml root=\"r\"><types><type name=\"t\"><val k=\"s\">a</val>"
           "</type></types><object id=\"r\"><lch label=\"l\">c</lch><iopf>"
           "<row lo=\"" + lo + "\" hi=\"" + hi + "\">c</row><row lo=\"0\" "
           "hi=\"0.5\"></row></iopf></object><object id=\"c\" type=\"t\">"
           "<ivpf><val k=\"s\" lo=\"" + lo + "\" hi=\"" + hi + "\">a</val>"
           "</ivpf></object></ipxml>";
  };
  ASSERT_TRUE(ParseIntervalPxml(with_bounds("0.5", "1")).ok())
      << ParseIntervalPxml(with_bounds("0.5", "1")).status();
  for (const auto& [lo, hi] : std::vector<std::pair<std::string, std::string>>{
           {"0.5abc", "1"},
           {"0.5 0.3", "1"},
           {"0.5", "1junk"},
           {"0.5", "1 1"},
           {"nan", "1"},
           {"0.5", "inf"},
           {"-0.5", "1"},
           {"0.5", "1e300"},
           {"", "1"}}) {
    Status s = ParseIntervalPxml(with_bounds(lo, hi)).status();
    EXPECT_EQ(s.code(), StatusCode::kParseError) << lo << ", " << hi;
    EXPECT_NE(s.message().find("<row>"), std::string::npos) << s;
  }
  // The same bounds on a value: the <iopf> rows are fine, the <val> is not.
  const std::string bad_value = [&] {
    std::string text = with_bounds("0.5", "1");
    text.replace(text.rfind("lo=\"0.5\""), 9, "lo=\"0.5x\"");
    return text;
  }();
  Status s = ParseIntervalPxml(bad_value).status();
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_NE(s.message().find("<val>"), std::string::npos) << s;
}

}  // namespace
}  // namespace pxml
