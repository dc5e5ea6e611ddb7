// The interval-probability extension (the companion "Probabilistic
// Interval XML" direction the paper cites): when an extraction pipeline
// can only bound its confidences, the instance carries probability
// intervals, queries return intervals, and every conventional (point)
// instance inside the bounds is guaranteed to fall within them.
//
// Run:  ./interval_bounds
#include <cstdio>
#include <memory>

#include "core/probabilistic_instance.h"
#include "interval/interval_model.h"
#include "interval/interval_queries.h"
#include "query/point_queries.h"
#include "util/rng.h"

namespace {

using namespace pxml;  // NOLINT — example brevity

void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result) {
  Check(result.status());
  return std::move(result).ValueOrDie();
}

/// A small extraction result: R --paper--> P --author--> A.
ProbabilisticInstance BuildPointInstance() {
  ProbabilisticInstance inst;
  WeakInstance& weak = inst.mutable_weak();
  ObjectId r = weak.AddObject("R");
  ObjectId p = weak.AddObject("P");
  ObjectId a = weak.AddObject("A");
  Check(weak.SetRoot(r));
  LabelId paper = weak.dict().InternLabel("paper");
  LabelId author = weak.dict().InternLabel("author");
  Check(weak.AddPotentialChild(r, paper, p));
  Check(weak.AddPotentialChild(p, author, a));
  auto r_opf = std::make_unique<ExplicitOpf>();
  r_opf->Set(IdSet{p}, 0.7);
  r_opf->Set(IdSet(), 0.3);
  Check(inst.SetOpf(r, std::move(r_opf)));
  auto p_opf = std::make_unique<ExplicitOpf>();
  p_opf->Set(IdSet{a}, 0.6);
  p_opf->Set(IdSet(), 0.4);
  Check(inst.SetOpf(p, std::move(p_opf)));
  return inst;
}

}  // namespace

int main() {
  ProbabilisticInstance point = BuildPointInstance();
  const Dictionary& dict = point.dict();
  PathExpression path;
  path.start = point.weak().root();
  path.labels = {*dict.FindLabel("paper"), *dict.FindLabel("author")};
  ObjectId a = *dict.FindObject("A");

  double exact = Unwrap(PointQuery(point, path, a));
  std::printf("point instance:    P(A in R.paper.author) = %.4f\n", exact);

  // The extractor is only confident to within ±0.1 per table row.
  IntervalInstance interval =
      Unwrap(IntervalInstance::Widen(point, 0.1));
  Check(ValidateIntervalInstance(interval));
  IntervalProb bounds = Unwrap(IntervalPointQuery(interval, path, a));
  std::printf("interval instance: P(A in R.paper.author) in %s\n",
              bounds.ToString().c_str());

  // Every point instance inside the bounds stays inside the answer.
  Rng rng(2003);
  std::printf("\nsampled point instances within the bounds:\n");
  for (int i = 0; i < 5; ++i) {
    ProbabilisticInstance sampled =
        Unwrap(interval.SamplePointInstance(rng));
    double p = Unwrap(PointQuery(sampled, path, a));
    std::printf("  sample %d: P = %.4f  (inside: %s)\n", i, p,
                bounds.Contains(p) ? "yes" : "NO");
  }

  // Interval tables can also be tightened by mutual consistency.
  IntervalOpf loose;
  ObjectId pid = *dict.FindObject("P");
  loose.Set(IdSet{pid}, IntervalProb(0.1, 0.95));
  loose.Set(IdSet(), IntervalProb(0.3, 0.5));
  Check(loose.Tighten());
  std::printf("\ntightening [0.1,0.95]/[0.3,0.5] gives %s/%s\n",
              loose.Get(IdSet{pid}).ToString().c_str(),
              loose.Get(IdSet()).ToString().c_str());
  return 0;
}
