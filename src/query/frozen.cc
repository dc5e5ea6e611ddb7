#include "query/frozen.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/strings.h"

namespace pxml {

namespace {

/// Charges any capacity growth of `v` since `cap_before` to the arena.
template <typename T>
void ChargeGrowth(EpsilonScratch* scratch, const std::vector<T>& v,
                  std::size_t cap_before) {
  if (v.capacity() > cap_before) {
    scratch->bytes_grown += (v.capacity() - cap_before) * sizeof(T);
  }
}

obs::Counter& RefreezeReused() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.frozen.refreeze_reused");
  return c;
}
obs::Counter& RefreezeRecompiled() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.frozen.refreeze_recompiled");
  return c;
}

// Layer-loop execution counters: the path levels the full ε pass
// evaluated and the kernels it evaluated in them.
obs::Counter& LevelBatches() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.frozen.level_batches");
  return c;
}
obs::Counter& LevelObjects() {
  static obs::Counter& c =
      obs::Registry::Global().GetCounter("pxml.frozen.level_objects");
  return c;
}

}  // namespace

Result<FrozenInstance> FrozenInstance::Freeze(
    const ProbabilisticInstance& instance) {
  const WeakInstance& weak = instance.weak();
  PXML_RETURN_IF_ERROR(CheckWeakTree(weak));

  FrozenInstance fz;
  // Captured before compilation: a mutation racing Freeze would make the
  // snapshot look older than it is and refreeze — safe in both directions.
  fz.version_ = instance.version();
  fz.structure_version_ = instance.structure_version();
  fz.root_ = weak.root();

  const std::size_t num_ids = weak.dict().num_objects();
  fz.obj_labels_.resize(num_ids);
  fz.kernels_.resize(num_ids);
  fz.row_child_begin_.push_back(0);  // CSR sentinel: row r = [begin[r], begin[r+1])

  // Bottom-up topological order by iterative post-order DFS from the
  // root; CheckWeakTree guarantees unique parents and full reachability,
  // so every present object is emitted exactly once, after all of its
  // potential descendants.
  fz.topo_order_.reserve(weak.num_objects());
  {
    struct Frame {
      ObjectId object;
      IdSet kids;
      std::size_t next = 0;
    };
    std::vector<Frame> stack;
    stack.push_back({fz.root_, weak.AllPotentialChildren(fz.root_)});
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.next < top.kids.size()) {
        ObjectId c = top.kids[top.next++];
        stack.push_back({c, weak.AllPotentialChildren(c)});
      } else {
        fz.topo_order_.push_back(top.object);
        stack.pop_back();
      }
    }
  }

  // pc_label[c] = l + 1 while compiling the object that has c in
  // lch(o, l); 0 otherwise. This is both the label-disjointness check and
  // the row-verification oracle that lets the hot kernels replace the
  // per-row `child_set ∩ Lch(o, l) ∩ next_layer` of the generic
  // interpreter with a single next-layer membership test.
  std::vector<std::uint32_t> pc_label(num_ids, 0);

  for (ObjectId o : fz.topo_order_) {
    Span ls;
    ls.begin = static_cast<std::uint32_t>(fz.label_ranges_.size());
    const std::uint32_t child_begin =
        static_cast<std::uint32_t>(fz.child_ids_.size());
    Status st = Status::Ok();
    for (LabelId l : weak.LabelsOf(o)) {
      LabelRange range;
      range.label = l;
      range.begin = static_cast<std::uint32_t>(fz.child_ids_.size());
      for (ObjectId c : weak.Lch(o, l)) {
        if (pc_label[c] != 0) {
          st = Status::FailedPrecondition(
              StrCat("cannot freeze: object ", c, " is a potential child of '",
                     weak.dict().ObjectName(o), "' under two labels"));
          break;
        }
        pc_label[c] = l + 1;
        fz.child_ids_.push_back(c);
      }
      if (!st.ok()) break;
      range.end = static_cast<std::uint32_t>(fz.child_ids_.size());
      fz.label_ranges_.push_back(range);
    }
    ls.end = static_cast<std::uint32_t>(fz.label_ranges_.size());
    fz.obj_labels_[o] = ls;

    Kernel k;
    if (st.ok()) {
      st = CompileKernel(fz, instance, o, /*leaf=*/ls.begin == ls.end,
                         pc_label, k);
    }

    for (std::uint32_t i = child_begin; i < fz.child_ids_.size(); ++i) {
      pc_label[fz.child_ids_[i]] = 0;
    }
    PXML_RETURN_IF_ERROR(st);
    fz.kernels_[o] = k;
  }
  return fz;
}

Status FrozenInstance::CompileKernel(FrozenInstance& fz,
                                     const ProbabilisticInstance& instance,
                                     ObjectId o, bool leaf,
                                     const std::vector<std::uint32_t>& pc_label,
                                     Kernel& out) {
  const WeakInstance& weak = instance.weak();
  const std::size_t num_ids = pc_label.size();
  const Opf* opf = leaf ? nullptr : instance.GetOpf(o);
  Status st = Status::Ok();
  Kernel k;
  if (leaf) {
    k.kind = FrozenOpfKind::kLeaf;
  } else if (opf == nullptr) {
    // Mirrors the generic interpreter: freezing succeeds, evaluating
    // this object fails.
    k.kind = FrozenOpfKind::kMissing;
  } else if (const auto* ex = dynamic_cast<const ExplicitOpf*>(opf)) {
    k.kind = FrozenOpfKind::kExplicit;
    k.begin = static_cast<std::uint32_t>(fz.row_prob_.size());
    for (const OpfEntry& row : ex->rows()) {
      for (ObjectId c : row.child_set) {
        if (c >= num_ids || pc_label[c] == 0) {
          st = Status::FailedPrecondition(
              StrCat("cannot freeze: OPF row of '",
                     weak.dict().ObjectName(o), "' mentions object ", c,
                     " which is not a potential child"));
          break;
        }
      }
      if (!st.ok()) break;
      fz.row_prob_.push_back(row.prob);
      for (ObjectId c : row.child_set) fz.row_children_.push_back(c);
      fz.row_child_begin_.push_back(
          static_cast<std::uint32_t>(fz.row_children_.size()));
    }
    k.end = static_cast<std::uint32_t>(fz.row_prob_.size());
  } else if (const auto* ind = dynamic_cast<const IndependentOpf*>(opf)) {
    k.kind = FrozenOpfKind::kIndependent;
    k.begin = static_cast<std::uint32_t>(fz.ind_child_.size());
    for (const auto& [c, p] : ind->children()) {
      if (c >= num_ids || pc_label[c] == 0) {
        st = Status::FailedPrecondition(
            StrCat("cannot freeze: independent OPF of '",
                   weak.dict().ObjectName(o), "' mentions object ", c,
                   " which is not a potential child"));
        break;
      }
      fz.ind_child_.push_back(c);
      fz.ind_prob_.push_back(p);
    }
    k.end = static_cast<std::uint32_t>(fz.ind_child_.size());
  } else if (const auto* pl = dynamic_cast<const PerLabelProductOpf*>(opf)) {
    k.kind = FrozenOpfKind::kPerLabel;
    k.begin = static_cast<std::uint32_t>(fz.factors_.size());
    for (const auto& [fl, table] : pl->factor_views()) {
      // The factored recurrence identifies the on-path factor by
      // label, so factor universes must live under their own label's
      // lch set and labels must be distinct.
      for (std::size_t fi = k.begin; fi < fz.factors_.size(); ++fi) {
        if (fz.factors_[fi].label == fl) {
          st = Status::FailedPrecondition(
              StrCat("cannot freeze: per-label OPF of '",
                     weak.dict().ObjectName(o),
                     "' has two factors for label ", fl));
        }
      }
      if (!st.ok()) break;
      Factor f;
      f.label = fl;
      f.row_begin = static_cast<std::uint32_t>(fz.row_prob_.size());
      f.mass = 0.0;
      for (const OpfEntry& row : table->rows()) {
        for (ObjectId c : row.child_set) {
          if (c >= num_ids || pc_label[c] != fl + 1) {
            st = Status::FailedPrecondition(StrCat(
                "cannot freeze: per-label OPF factor for label ", fl,
                " of '", weak.dict().ObjectName(o), "' mentions object ",
                c, " outside lch(o, ", fl, ")"));
            break;
          }
        }
        if (!st.ok()) break;
        f.mass += row.prob;
        fz.row_prob_.push_back(row.prob);
        for (ObjectId c : row.child_set) fz.row_children_.push_back(c);
        fz.row_child_begin_.push_back(
            static_cast<std::uint32_t>(fz.row_children_.size()));
      }
      if (!st.ok()) break;
      f.row_end = static_cast<std::uint32_t>(fz.row_prob_.size());
      fz.factors_.push_back(f);
    }
    k.end = static_cast<std::uint32_t>(fz.factors_.size());
  } else {
    st = Status::FailedPrecondition(
        StrCat("cannot freeze OPF representation '",
               opf->RepresentationName(), "' of '",
               weak.dict().ObjectName(o), "'"));
  }
  out = k;
  return st;
}

Result<FrozenInstance> FrozenInstance::Refreeze(
    const FrozenInstance& prev, const ProbabilisticInstance& instance) {
  if (instance.structure_version() != prev.structure_version_) {
    return Status::FailedPrecondition(
        "cannot refreeze: the weak structure changed since the previous "
        "snapshot (full Freeze required)");
  }

  FrozenInstance fz;
  fz.version_ = instance.version();
  fz.structure_version_ = instance.structure_version();
  fz.root_ = prev.root_;
  // Structure unchanged ⟹ the CSR arrays and the topological order carry
  // over verbatim.
  fz.obj_labels_ = prev.obj_labels_;
  fz.label_ranges_ = prev.label_ranges_;
  fz.child_ids_ = prev.child_ids_;
  fz.topo_order_ = prev.topo_order_;

  const std::size_t num_ids = prev.kernels_.size();
  fz.kernels_.resize(num_ids);
  fz.row_child_begin_.push_back(0);
  fz.row_prob_.reserve(prev.row_prob_.size());
  fz.row_children_.reserve(prev.row_children_.size());
  fz.ind_child_.reserve(prev.ind_child_.size());
  fz.ind_prob_.reserve(prev.ind_prob_.size());
  fz.factors_.reserve(prev.factors_.size());

  // Copies prev's rows [begin, end) into fz, returning the new span.
  auto copy_rows = [&](std::uint32_t begin,
                       std::uint32_t end) -> std::pair<std::uint32_t,
                                                       std::uint32_t> {
    const std::uint32_t out_begin =
        static_cast<std::uint32_t>(fz.row_prob_.size());
    fz.row_prob_.insert(fz.row_prob_.end(), prev.row_prob_.begin() + begin,
                        prev.row_prob_.begin() + end);
    for (std::uint32_t r = begin; r < end; ++r) {
      fz.row_children_.insert(fz.row_children_.end(),
                              prev.row_children_.begin() +
                                  prev.row_child_begin_[r],
                              prev.row_children_.begin() +
                                  prev.row_child_begin_[r + 1]);
      fz.row_child_begin_.push_back(
          static_cast<std::uint32_t>(fz.row_children_.size()));
    }
    return {out_begin, static_cast<std::uint32_t>(fz.row_prob_.size())};
  };

  std::vector<std::uint32_t> pc_label(num_ids, 0);
  std::uint64_t reused = 0, recompiled = 0;
  for (ObjectId o : fz.topo_order_) {
    const Kernel& pk = prev.kernels_[o];
    Kernel k;
    if (instance.SubtreeChangeVersion(o) <= prev.version_) {
      // Clean: no ℘ update touched this subtree since prev froze, so the
      // object's own OPF is unchanged — bulk-copy the compiled form.
      k.kind = pk.kind;
      switch (pk.kind) {
        case FrozenOpfKind::kLeaf:
        case FrozenOpfKind::kMissing:
          break;
        case FrozenOpfKind::kExplicit: {
          auto [b, e] = copy_rows(pk.begin, pk.end);
          k.begin = b;
          k.end = e;
          break;
        }
        case FrozenOpfKind::kIndependent: {
          k.begin = static_cast<std::uint32_t>(fz.ind_child_.size());
          fz.ind_child_.insert(fz.ind_child_.end(),
                               prev.ind_child_.begin() + pk.begin,
                               prev.ind_child_.begin() + pk.end);
          fz.ind_prob_.insert(fz.ind_prob_.end(),
                              prev.ind_prob_.begin() + pk.begin,
                              prev.ind_prob_.begin() + pk.end);
          k.end = static_cast<std::uint32_t>(fz.ind_child_.size());
          break;
        }
        case FrozenOpfKind::kPerLabel: {
          k.begin = static_cast<std::uint32_t>(fz.factors_.size());
          for (std::uint32_t fi = pk.begin; fi < pk.end; ++fi) {
            Factor f = prev.factors_[fi];
            auto [b, e] = copy_rows(f.row_begin, f.row_end);
            f.row_begin = b;
            f.row_end = e;
            fz.factors_.push_back(f);
          }
          k.end = static_cast<std::uint32_t>(fz.factors_.size());
          break;
        }
      }
      ++reused;
    } else {
      // Dirty spine: recompile from the live OPF, with the verification
      // oracle rebuilt from the (unchanged) frozen structure.
      bool leaf = true;
      for (const LabelRange& r : prev.labels_of(o)) {
        leaf = false;
        for (std::uint32_t i = r.begin; i < r.end; ++i) {
          pc_label[prev.child_ids_[i]] = r.label + 1;
        }
      }
      Status st = CompileKernel(fz, instance, o, leaf, pc_label, k);
      for (const LabelRange& r : prev.labels_of(o)) {
        for (std::uint32_t i = r.begin; i < r.end; ++i) {
          pc_label[prev.child_ids_[i]] = 0;
        }
      }
      PXML_RETURN_IF_ERROR(st);
      ++recompiled;
    }
    fz.kernels_[o] = k;
  }
  RefreezeReused().Add(reused);
  RefreezeRecompiled().Add(recompiled);
  return fz;
}

std::string FrozenInstance::KernelMix() const {
  std::size_t explicit_n = 0, independent_n = 0, per_label_n = 0;
  for (const Kernel& k : kernels_) {
    switch (k.kind) {
      case FrozenOpfKind::kExplicit:
        ++explicit_n;
        break;
      case FrozenOpfKind::kIndependent:
        ++independent_n;
        break;
      case FrozenOpfKind::kPerLabel:
        ++per_label_n;
        break;
      case FrozenOpfKind::kLeaf:
      case FrozenOpfKind::kMissing:
        break;
    }
  }
  std::string mix;
  auto append = [&mix](const char* name, std::size_t n) {
    if (n == 0) return;
    if (!mix.empty()) mix += ',';
    mix += StrCat(name, ":", n);
  };
  append("explicit", explicit_n);
  append("independent", independent_n);
  append("per_label", per_label_n);
  return mix;
}

namespace {

/// Builds the pruned path layers K_0..K_n into s->layers over the frozen
/// CSR structure: forward collect (a tree never produces duplicates, so
/// a sort restores the canonical ascending order IdSet unions would
/// give), then prune backward keeping objects with a next-layer child.
/// Semantically identical to PrunedWeakPathLayers, without building
/// IdSets. s->mark is zeroed, used as the pruning scratch, and left
/// zeroed on return.
void BuildFrozenPrunedLayers(const FrozenInstance& frozen,
                             const PathExpression& path, EpsilonScratch* s) {
  const std::size_t n = path.labels.size();
  s->SizeTo(s->layers, n + 1);
  s->FillTo<std::uint8_t>(s->mark, frozen.num_ids(), 0);
  {
    std::vector<ObjectId>& first = s->layers[0];
    const std::size_t cap0 = first.capacity();
    first.clear();
    first.push_back(path.start);
    ChargeGrowth(s, first, cap0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<ObjectId>& next = s->layers[i + 1];
    const std::size_t cap0 = next.capacity();
    next.clear();
    for (ObjectId o : s->layers[i]) {
      for (ObjectId j : frozen.children(o, path.labels[i])) {
        next.push_back(j);
      }
    }
    std::sort(next.begin(), next.end());
    ChargeGrowth(s, next, cap0);
  }
  for (std::size_t i = n; i-- > 0;) {
    for (ObjectId j : s->layers[i + 1]) s->mark[j] = 1;
    std::vector<ObjectId>& layer = s->layers[i];
    std::size_t kept = 0;
    for (ObjectId o : layer) {
      bool has_child = false;
      for (ObjectId j : frozen.children(o, path.labels[i])) {
        if (s->mark[j]) {
          has_child = true;
          break;
        }
      }
      if (has_child) layer[kept++] = o;
    }
    layer.resize(kept);
    for (ObjectId j : s->layers[i + 1]) s->mark[j] = 0;
  }
}

/// Evaluates o's compiled kernel: the retained-membership test is
/// `mark[j] != 0` and child ε values come from the pass's `eps` array
/// (indexed by ObjectId). kLeaf/kMissing is the pass's per-object error.
Status EvalFrozenKernel(const FrozenInstance& frozen,
                        const ProbabilisticInstance& instance, ObjectId o,
                        LabelId l, const std::uint8_t* mark,
                        const double* eps, double& e_out,
                        std::uint64_t& ops_out) {
  const FrozenInstance::Kernel& k = frozen.kernel(o);
  double e = 0.0;
  std::uint64_t ops = 0;
  switch (k.kind) {
    case FrozenOpfKind::kLeaf:
    case FrozenOpfKind::kMissing:
      return Status::FailedPrecondition(StrCat(
          "non-leaf '", instance.dict().ObjectName(o), "' has no OPF"));
    case FrozenOpfKind::kExplicit: {
      for (std::uint32_t r = k.begin; r < k.end; ++r) {
        const double p = frozen.row_prob(r);
        if (p <= 0.0) continue;
        const std::span<const ObjectId> rc = frozen.row_children(r);
        ops += 1 + rc.size();
        double none = 1.0;
        for (ObjectId j : rc) {
          if (mark[j]) none *= 1.0 - eps[j];
        }
        e += p * (1.0 - none);
      }
      break;
    }
    case FrozenOpfKind::kIndependent: {
      const std::span<const ObjectId> ic = frozen.ind_children(k);
      const std::span<const double> ip = frozen.ind_probs(k);
      ops += ic.size();
      double none = 1.0;
      for (std::size_t i = 0; i < ic.size(); ++i) {
        if (mark[ic[i]]) none *= 1.0 - ip[i] * eps[ic[i]];
      }
      e = 1.0 - none;
      break;
    }
    case FrozenOpfKind::kPerLabel: {
      // Factored recurrence (DESIGN.md §9): only the on-path label's
      // factor sees retained children; every other factor contributes
      // its mass. Σ_l 2^{b_l} instead of Π_l 2^{b_l}.
      double mass_all = 1.0;
      double survive_all = 1.0;
      for (const FrozenInstance::Factor& f : frozen.factors(k)) {
        ops += 1;
        mass_all *= f.mass;
        if (f.label != l) {
          survive_all *= f.mass;
          continue;
        }
        double sum = 0.0;
        for (std::uint32_t r = f.row_begin; r < f.row_end; ++r) {
          const double p = frozen.row_prob(r);
          if (p <= 0.0) continue;
          const std::span<const ObjectId> rc = frozen.row_children(r);
          ops += 1 + rc.size();
          double none = 1.0;
          for (ObjectId j : rc) {
            if (mark[j]) none *= 1.0 - eps[j];
          }
          sum += p * none;
        }
        survive_all *= sum;
      }
      e = mass_all - survive_all;
      break;
    }
  }
  e_out = e;
  ops_out = ops;
  return Status::Ok();
}

/// The pass body; every counter lands in `tally`, which the public
/// wrapper flushes once at pass end.
Result<double> FrozenRootEpsilonImpl(const FrozenInstance& frozen,
                                     const ProbabilisticInstance& instance,
                                     const PathExpression& path,
                                     std::span<const TargetEps> targets,
                                     EpsilonStats& tally,
                                     EpsilonScratch* scratch,
                                     QueryControl* control) {
  if (path.start != frozen.root()) {
    return Status::BadPath("epsilon propagation paths must start at the root");
  }
  const std::size_t n = path.labels.size();
  const std::size_t num_ids = frozen.num_ids();
  EpsilonScratch* s = scratch;

  BuildFrozenPrunedLayers(frozen, path, s);

  s->FillTo(s->eps, num_ids, 0.0);
  {
    const std::vector<ObjectId>& final_layer = s->layers[n];
    for (ObjectId j : final_layer) s->mark[j] = 1;
    for (const TargetEps& t : targets) {
      if (t.object >= num_ids || !s->mark[t.object]) {
        for (ObjectId j : final_layer) s->mark[j] = 0;
        return Status::BadPath(StrCat(
            "target id ", t.object, " does not satisfy the path expression"));
      }
      s->eps[t.object] = t.eps;
    }
    for (ObjectId j : final_layer) s->mark[j] = 0;
  }
  ++tally.frozen_passes;
  if (n == 0) {
    tally.bytes_allocated += s->TakeBytesGrown();
    return s->eps[frozen.root()];
  }

  // ε of one frontier object via its compiled kernel. During a level,
  // mark[j] == 1 ⟺ j is in the pruned next layer; Freeze verified every
  // kernel child is a declared potential child of its object, and in a
  // tree a potential child of o that reaches the next layer necessarily
  // got there through o under the level's label — so the single mark test
  // equals the generic `∈ Lch(o, l) ∩ next_layer` membership. Per-row
  // accumulation order matches the generic interpreter exactly for
  // explicit/independent kernels.
  auto process = [&](ObjectId o, LabelId l) -> Status {
    // Cooperative gate: one op up front, the kernel's row-ops at the
    // end — overshoot is bounded by one kernel's rows plus the check
    // interval (util/cancel.h).
    if (control != nullptr) {
      Status cs = control->Charge(1);
      if (!cs.ok()) return cs;
    }
    double e = 0.0;
    std::uint64_t ops = 0;
    PXML_RETURN_IF_ERROR(EvalFrozenKernel(frozen, instance, o, l,
                                          s->mark.data(), s->eps.data(), e,
                                          ops));
    s->eps[o] = e;
    ++tally.recomputed;
    tally.opf_row_ops += ops;
    if (control != nullptr) {
      Status cs = control->Charge(ops);
      if (!cs.ok()) return cs;
    }
    return Status::Ok();
  };

  for (std::size_t level = n; level-- > 0;) {
    const LabelId l = path.labels[level];
    const std::vector<ObjectId>& frontier = s->layers[level];
    const std::vector<ObjectId>& next = s->layers[level + 1];
    for (ObjectId j : next) s->mark[j] = 1;
    LevelBatches().Add(1);
    LevelObjects().Add(frontier.size());
    Status level_status = Status::Ok();
    for (ObjectId o : frontier) {
      level_status = process(o, l);
      if (!level_status.ok()) break;
    }
    for (ObjectId j : next) s->mark[j] = 0;
    PXML_RETURN_IF_ERROR(level_status);
  }
  tally.bytes_allocated += s->TakeBytesGrown();
  return s->eps[frozen.root()];
}

}  // namespace

void FrozenInstance::BuildPrunedLayers(const PathExpression& path,
                                       EpsilonScratch* scratch) const {
  BuildFrozenPrunedLayers(*this, path, scratch);
}

Result<double> FrozenRootEpsilon(const FrozenInstance& frozen,
                                 const ProbabilisticInstance& instance,
                                 const PathExpression& path,
                                 std::span<const TargetEps> targets,
                                 EpsilonStats* stats, EpsilonScratch* scratch,
                                 obs::TraceSession* trace,
                                 QueryControl* control) {
  obs::TraceSpan span(trace, "epsilon");
  EpsilonStats tally;
  Result<double> result = FrozenRootEpsilonImpl(
      frozen, instance, path, targets, tally, scratch, control);
  FlushEpsilonPass(tally, stats, span, /*frozen=*/true);
  return result;
}

}  // namespace pxml
