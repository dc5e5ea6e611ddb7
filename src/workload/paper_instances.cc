#include "workload/paper_instances.h"

#include <cassert>
#include <memory>

#include "prob/opf.h"
#include "prob/vpf.h"

namespace pxml {

namespace {

/// Aborts on failure — the figure is a hand-written constant.
void Check(const Status& status) {
  assert(status.ok());
  (void)status;
}

Result<ProbabilisticInstance> BuildFigure2(bool fully_typed) {
  ProbabilisticInstance out;
  WeakInstance& weak = out.mutable_weak();
  Dictionary& dict = weak.dict();

  ObjectId r = weak.AddObject("R");
  ObjectId b1 = weak.AddObject("B1");
  ObjectId b2 = weak.AddObject("B2");
  ObjectId b3 = weak.AddObject("B3");
  ObjectId t1 = weak.AddObject("T1");
  ObjectId t2 = weak.AddObject("T2");
  ObjectId a1 = weak.AddObject("A1");
  ObjectId a2 = weak.AddObject("A2");
  ObjectId a3 = weak.AddObject("A3");
  ObjectId i1 = weak.AddObject("I1");
  ObjectId i2 = weak.AddObject("I2");
  Check(weak.SetRoot(r));

  LabelId book = dict.InternLabel("book");
  LabelId title = dict.InternLabel("title");
  LabelId author = dict.InternLabel("author");
  LabelId institution = dict.InternLabel("institution");

  Check(weak.AddPotentialChild(r, book, b1));
  Check(weak.AddPotentialChild(r, book, b2));
  Check(weak.AddPotentialChild(r, book, b3));
  Check(weak.AddPotentialChild(b1, title, t1));
  Check(weak.AddPotentialChild(b1, author, a1));
  Check(weak.AddPotentialChild(b1, author, a2));
  Check(weak.AddPotentialChild(b2, author, a1));
  Check(weak.AddPotentialChild(b2, author, a2));
  Check(weak.AddPotentialChild(b2, author, a3));
  Check(weak.AddPotentialChild(b3, title, t2));
  Check(weak.AddPotentialChild(b3, author, a3));
  Check(weak.AddPotentialChild(a1, institution, i1));
  Check(weak.AddPotentialChild(a2, institution, i1));
  Check(weak.AddPotentialChild(a2, institution, i2));
  Check(weak.AddPotentialChild(a3, institution, i2));

  Check(weak.SetCard(r, book, IntInterval(2, 3)));
  Check(weak.SetCard(b1, author, IntInterval(1, 2)));
  Check(weak.SetCard(b1, title, IntInterval(0, 1)));
  Check(weak.SetCard(b2, author, IntInterval(2, 2)));
  Check(weak.SetCard(b3, author, IntInterval(1, 1)));
  Check(weak.SetCard(b3, title, IntInterval(1, 1)));
  Check(weak.SetCard(a1, institution, IntInterval(0, 1)));
  Check(weak.SetCard(a2, institution, IntInterval(1, 1)));
  Check(weak.SetCard(a3, institution, IntInterval(1, 1)));

  {
    auto opf = std::make_unique<ExplicitOpf>();
    opf->Set(IdSet{b1, b2}, 0.2);
    opf->Set(IdSet{b1, b3}, 0.2);
    opf->Set(IdSet{b2, b3}, 0.2);
    opf->Set(IdSet{b1, b2, b3}, 0.4);
    Check(out.SetOpf(r, std::move(opf)));
  }
  {
    auto opf = std::make_unique<ExplicitOpf>();
    opf->Set(IdSet{a1}, 0.3);
    opf->Set(IdSet{a1, t1}, 0.35);
    opf->Set(IdSet{a2}, 0.1);
    opf->Set(IdSet{a2, t1}, 0.15);
    opf->Set(IdSet{a1, a2}, 0.05);
    opf->Set(IdSet{a1, a2, t1}, 0.05);
    Check(out.SetOpf(b1, std::move(opf)));
  }
  {
    auto opf = std::make_unique<ExplicitOpf>();
    opf->Set(IdSet{a1, a2}, 0.4);
    opf->Set(IdSet{a1, a3}, 0.4);
    opf->Set(IdSet{a2, a3}, 0.2);
    Check(out.SetOpf(b2, std::move(opf)));
  }
  {
    auto opf = std::make_unique<ExplicitOpf>();
    opf->Set(IdSet{a3, t2}, 1.0);
    Check(out.SetOpf(b3, std::move(opf)));
  }
  {
    auto opf = std::make_unique<ExplicitOpf>();
    opf->Set(IdSet{i1}, 0.8);
    opf->Set(IdSet(), 0.2);
    Check(out.SetOpf(a1, std::move(opf)));
  }
  {
    auto opf = std::make_unique<ExplicitOpf>();
    opf->Set(IdSet{i1}, 0.5);
    opf->Set(IdSet{i2}, 0.5);
    Check(out.SetOpf(a2, std::move(opf)));
  }
  {
    auto opf = std::make_unique<ExplicitOpf>();
    opf->Set(IdSet{i2}, 1.0);
    Check(out.SetOpf(a3, std::move(opf)));
  }

  // Leaf values.
  auto title_type =
      dict.DefineType("title-type", {Value("VQDB"), Value("Lore")});
  assert(title_type.ok());
  Check(weak.SetLeafType(t1, title_type.value()));
  {
    Vpf vpf;
    vpf.Set(Value("VQDB"), 0.4);
    vpf.Set(Value("Lore"), 0.6);
    Check(out.SetVpf(t1, std::move(vpf)));
  }
  if (fully_typed) {
    Check(weak.SetLeafType(t2, title_type.value()));
    {
      Vpf vpf;
      vpf.Set(Value("VQDB"), 0.3);
      vpf.Set(Value("Lore"), 0.7);
      Check(out.SetVpf(t2, std::move(vpf)));
    }
    auto inst_type = dict.DefineType("institution-type",
                                     {Value("Stanford"), Value("UMD")});
    assert(inst_type.ok());
    Check(weak.SetLeafType(i1, inst_type.value()));
    Check(weak.SetLeafType(i2, inst_type.value()));
    {
      Vpf vpf;
      vpf.Set(Value("Stanford"), 0.6);
      vpf.Set(Value("UMD"), 0.4);
      Check(out.SetVpf(i1, std::move(vpf)));
    }
    {
      Vpf vpf;
      vpf.Set(Value("Stanford"), 0.25);
      vpf.Set(Value("UMD"), 0.75);
      Check(out.SetVpf(i2, std::move(vpf)));
    }
  }
  return out;
}


}  // namespace

Result<ProbabilisticInstance> MakeFigure2Instance(bool fully_typed) {
  return BuildFigure2(fully_typed);
}

}  // namespace pxml
