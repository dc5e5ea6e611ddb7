#include "algebra/projection.h"

#include <chrono>
#include <optional>
#include <unordered_map>

#include "obs/metrics.h"
#include "prob/distribution.h"
#include "query/frozen.h"
#include "util/strings.h"

namespace pxml {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Mirrors one completed projection's counters into the global
/// `pxml.projection.*` registry metrics; every successful AncestorProject
/// flushes through here exactly once, so registry deltas reconcile
/// exactly with the legacy ProjectionStats totals.
void FlushProjectionPass(const ProjectionStats& ps) {
  using obs::Registry;
  static obs::Counter& c_passes =
      Registry::Global().GetCounter("pxml.projection.passes");
  static obs::Counter& c_kept =
      Registry::Global().GetCounter("pxml.projection.kept_objects");
  static obs::Counter& c_processed =
      Registry::Global().GetCounter("pxml.projection.processed_entries");
  static obs::Counter& c_row_ops =
      Registry::Global().GetCounter("pxml.projection.opf_row_ops");
  static obs::Counter& c_materialized =
      Registry::Global().GetCounter("pxml.projection.entries_materialized");
  static obs::Counter& c_bytes =
      Registry::Global().GetCounter("pxml.projection.bytes_allocated");
  static obs::Counter& c_frozen =
      Registry::Global().GetCounter("pxml.projection.frozen_passes");
  static obs::Histogram& h_locate =
      Registry::Global().GetHistogram("pxml.projection.locate_ns");
  static obs::Histogram& h_update =
      Registry::Global().GetHistogram("pxml.projection.update_ns");
  static obs::Histogram& h_structure =
      Registry::Global().GetHistogram("pxml.projection.structure_ns");
  c_passes.Increment();
  c_kept.Add(ps.kept_objects);
  c_processed.Add(ps.processed_entries);
  c_row_ops.Add(ps.opf_row_ops);
  c_materialized.Add(ps.entries_materialized);
  c_bytes.Add(ps.bytes_allocated);
  c_frozen.Add(ps.frozen_passes);
  h_locate.Record(static_cast<std::uint64_t>(ps.locate_seconds * 1e9));
  h_update.Record(static_cast<std::uint64_t>(ps.update_seconds * 1e9));
  h_structure.Record(static_cast<std::uint64_t>(ps.structure_seconds * 1e9));
}

/// Mass below which a non-root object is considered impossible after
/// projection and dropped from the result.
constexpr double kDropEps = 1e-15;

/// Copies a target's leaf data (type, witnessed value, VPF) into `out`.
Status CopyLeafData(const ProbabilisticInstance& in, ObjectId o,
                    ProbabilisticInstance* out) {
  const WeakInstance& weak = in.weak();
  auto type = weak.TypeOf(o);
  if (!type.has_value()) return Status::Ok();
  auto val = weak.ValueOf(o);
  if (val.has_value()) {
    PXML_RETURN_IF_ERROR(out->mutable_weak().SetLeafValue(o, *type, *val));
  } else {
    PXML_RETURN_IF_ERROR(out->mutable_weak().SetLeafType(o, *type));
  }
  if (const Vpf* vpf = in.GetVpf(o)) {
    PXML_RETURN_IF_ERROR(out->SetVpf(o, *vpf));
  }
  return Status::Ok();
}

/// Tightens card(o, l) in `out` to the support of `table`.
void SetCardFromSupport(ObjectId o, LabelId l,
                        const std::vector<OpfEntry>& rows,
                        WeakInstance* weak) {
  std::uint32_t lo = IntInterval::kUnbounded;
  std::uint32_t hi = 0;
  for (const OpfEntry& e : rows) {
    if (e.prob <= 0.0) continue;
    std::uint32_t k = static_cast<std::uint32_t>(e.child_set.size());
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  if (lo == IntInterval::kUnbounded) {
    lo = 0;
    hi = 0;
  }
  // Ignore failures: o and l are known to be present.
  weak->SetCard(o, l, IntInterval(lo, hi)).ok();
}

/// Reusable buffers for the marginalization pass. A projection runs on
/// one thread; thread-local storage keeps their capacity across queries
/// (pool workers are long-lived), so warm re-queries never allocate on
/// the hot path.
struct MarginScratch {
  std::vector<double> acc;
  std::vector<std::uint32_t> retained;
};

MarginScratch& LocalMarginScratch() {
  static thread_local MarginScratch s;
  return s;
}

}  // namespace

Result<ProbabilisticInstance> AncestorProject(
    const ProbabilisticInstance& instance, const PathExpression& path,
    ProjectionStats* stats, const FrozenInstance* frozen,
    obs::TraceSession* trace, QueryControl* control) {
  const WeakInstance& weak = instance.weak();
  const std::size_t num_ids = weak.dict().num_objects();
  PXML_RETURN_IF_ERROR(CheckWeakTree(weak));
  if (path.start != weak.root()) {
    return Status::InvalidArgument(
        "ancestor projection paths must start at the root");
  }
  // Counters land in a pass-local struct and are flushed once at pass
  // end — to the caller's stats and the pxml.projection.* registry — so
  // the two always agree.
  ProjectionStats ps;
  auto finish = [&] {
    FlushProjectionPass(ps);
    if (stats != nullptr) *stats = ps;
  };

  // ---- Locate: the pruned layers K_0..K_n of potential matches.
  Clock::time_point t0 = Clock::now();
  std::vector<IdSet> layers;
  {
    obs::TraceSpan span(trace, "locate");
    PXML_ASSIGN_OR_RETURN(layers, PrunedWeakPathLayers(weak, path));
  }
  Clock::time_point t1 = Clock::now();
  ps.locate_seconds = Seconds(t0, t1);

  const std::size_t n = path.labels.size();
  ProbabilisticInstance out;
  out.mutable_weak().SetDictionary(weak.dict());
  out.mutable_weak().AddObjectById(weak.root()).ok();
  PXML_RETURN_IF_ERROR(out.mutable_weak().SetRoot(weak.root()));

  // Degenerate cases: an empty path projects onto the bare root (keeping
  // its leaf data if the root is a W-leaf); a structurally unmatched path
  // yields the bare root with ℘'(r)({}) = 1, here represented by the root
  // having no lch at all.
  if (n == 0) {
    if (weak.IsLeaf(weak.root())) {
      PXML_RETURN_IF_ERROR(CopyLeafData(instance, weak.root(), &out));
    }
    ps.kept_objects = 1;
    finish();
    return out;
  }
  if (layers.back().empty()) {
    ps.kept_objects = 1;
    finish();
    return out;
  }

  // ---- Bottom-up ℘ update (marginalize, ε, normalize).
  // The span is optional-wrapped so it can be closed (with its args) at
  // the phase boundary instead of at scope exit.
  std::optional<obs::TraceSpan> update_span;
  if (trace != nullptr) update_span.emplace(trace, "update");
  Clock::time_point t2 = Clock::now();
  std::vector<double> eps(num_ids, 0.0);
  std::vector<char> dropped(num_ids, 0);
  // Targets survive with probability 1.
  for (ObjectId o : layers[n]) eps[o] = 1.0;

  // New OPF tables for objects at depths n-1 .. 0.
  std::vector<std::unique_ptr<ExplicitOpf>> new_opf(num_ids);
  const bool use_frozen = frozen != nullptr && frozen->InSyncWith(instance);

  // Marginalize/ε-update one frontier object. Reads eps/dropped of the
  // (finalized) next layer, writes only this object's eps / dropped /
  // new_opf slots.
  auto update_object = [&](ObjectId o, std::size_t level) -> Status {
    // Cooperative gate: one op up front, the object's row-ops at the
    // end; overshoot is bounded by one object's update plus the check
    // interval (util/cancel.h).
    if (control != nullptr) {
      Status cs = control->Charge(1);
      if (!cs.ok()) return cs;
    }
    const bool children_are_targets = (level + 1 == n);
    const LabelId l = path.labels[level];
    MarginScratch& ms = LocalMarginScratch();
    std::uint64_t bytes = 0;
    // Retained children: potential l-children that are still alive in
    // the next layer (ascending, so bit b of the accumulator index is
    // rids[b] — the same mask convention mask_of used historically).
    ms.retained.clear();
    {
      const std::size_t cap0 = ms.retained.capacity();
      weak.Lch(o, l).ForEachIntersecting(
          layers[level + 1], [&](ObjectId c) {
            if (!dropped[c]) ms.retained.push_back(c);
          });
      bytes += (ms.retained.capacity() - cap0) * sizeof(std::uint32_t);
    }
    const std::vector<std::uint32_t>& rids = ms.retained;
    const Opf* opf = instance.GetOpf(o);
    if (opf == nullptr) {
      return Status::FailedPrecondition(
          StrCat("non-leaf '", weak.dict().ObjectName(o),
                 "' has no OPF"));
    }
    if (rids.size() > 20) {
      return Status::InvalidArgument(
          "projection update too wide (>20 retained children)");
    }
    // Dense accumulation indexed by bitmask over the retained children
    // (subset-of-retained -> probability). Keeps the inner loop free of
    // allocation; complexity is quadratic in the OPF size, matching the
    // paper's observation.
    {
      const std::size_t need = std::size_t{1} << rids.size();
      if (ms.acc.capacity() < need) {
        bytes += (need - ms.acc.capacity()) * sizeof(double);
      }
      ms.acc.assign(need, 0.0);
    }
    std::vector<double>& acc = ms.acc;
    // The retained part of an ascending child sequence, as a bitmask
    // over rids (merge walk — no intersection materialized).
    auto part_of = [&](const auto& kids) {
      std::size_t mask = 0;
      std::size_t b = 0;
      for (std::uint32_t c : kids) {
        while (b < rids.size() && rids[b] < c) ++b;
        if (b == rids.size()) break;
        if (rids[b] == c) mask |= std::size_t{1} << b;
      }
      return mask;
    };
    // Distribute one row's mass. Targets have ε = 1: pure
    // marginalization onto the retained children (the paper's first
    // bullet). General levels distribute the row over subsets of its
    // retained children, weighting members by ε and non-members by
    // (1 - ε) (the paper's third bullet), iterating submasks of `part`.
    auto accumulate = [&](double prob, std::size_t part) {
      if (children_are_targets) {
        acc[part] += prob;
        return;
      }
      std::size_t sub = part;
      for (;;) {
        double w = prob;
        for (std::size_t b = 0; b < rids.size(); ++b) {
          std::size_t bit = std::size_t{1} << b;
          if (!(part & bit)) continue;
          w *= (sub & bit) ? eps[rids[b]] : 1.0 - eps[rids[b]];
        }
        acc[sub] += w;
        if (sub == 0) break;
        sub = (sub - 1) & part;
      }
    };
    std::size_t rows_read = 0;
    std::uint64_t ops = 0;
    std::uint64_t mats = 0;
    if (use_frozen) {
      const FrozenInstance::Kernel& kern = frozen->kernel(o);
      switch (kern.kind) {
        case FrozenOpfKind::kLeaf:
        case FrozenOpfKind::kMissing:
          return Status::FailedPrecondition(
              StrCat("non-leaf '", weak.dict().ObjectName(o),
                     "' has no OPF"));
        case FrozenOpfKind::kExplicit:
          // Packed row spans, in the generic Entries() order — replays
          // the generic accumulation bit-for-bit.
          for (std::uint32_t r = kern.begin; r < kern.end; ++r) {
            ++rows_read;
            const double p = frozen->row_prob(r);
            if (p <= 0.0) continue;
            const auto rc = frozen->row_children(r);
            ops += 1 + rc.size();
            accumulate(p, part_of(rc));
          }
          break;
        case FrozenOpfKind::kIndependent: {
          // Closed form: retained child c lands in the surviving subset
          // independently with probability p_c·ε_c (present AND its
          // subtree survives); marginalized-out children sum to 1. The
          // 2^|R| weights expand by doubling in ascending bit order:
          // acc[m] = Π_b (m has bit b ? q_b : 1 − q_b), each element
          // multiplied once per bit — the exact multiply sequence of
          // the per-mask loop, in O(2^|R|) instead of 2^|R|·|R|.
          const auto ic = frozen->ind_children(kern);
          const auto ip = frozen->ind_probs(kern);
          ops += ic.size();
          acc[0] = 1.0;
          for (std::size_t b = 0; b < rids.size(); ++b) {
            double q = 0.0;  // a retained child outside the support: p = 0
            for (std::size_t i = 0; i < ic.size(); ++i) {
              if (ic[i] == rids[b]) {
                q = ip[i] * eps[rids[b]];
                break;
              }
            }
            const double nq = 1.0 - q;
            const std::size_t half = std::size_t{1} << b;
            for (std::size_t m = 0; m < half; ++m) {
              acc[half + m] = acc[m] * q;
              acc[m] = acc[m] * nq;
            }
          }
          break;
        }
        case FrozenOpfKind::kPerLabel: {
          // Only the on-path-label factor's children can be retained
          // (factors cover disjoint labels; Freeze verified each factor
          // universe ⊆ lch(o, label)). Marginalize that factor's rows
          // alone and scale by the off-path masses — Σ_l 2^{b_l} work
          // instead of the generic Π_l 2^{b_l}.
          double off_mass = 1.0;
          bool found_on_path = false;
          for (const FrozenInstance::Factor& f : frozen->factors(kern)) {
            ++ops;
            if (f.label != l) {
              off_mass *= f.mass;
              continue;
            }
            found_on_path = true;
            for (std::uint32_t r = f.row_begin; r < f.row_end; ++r) {
              ++rows_read;
              const double p = frozen->row_prob(r);
              if (p <= 0.0) continue;
              const auto rc = frozen->row_children(r);
              ops += 1 + rc.size();
              accumulate(p, part_of(rc));
            }
          }
          if (!found_on_path) {
            // No factor covers the path label: every world's retained
            // part is empty, so the whole mass sits on the empty set.
            acc[0] += off_mass;
          } else if (off_mass != 1.0) {
            for (double& a : acc) a *= off_mass;
          }
          break;
        }
      }
    } else if (const auto* ex = dynamic_cast<const ExplicitOpf*>(opf)) {
      // Static fast path: iterate the stored rows in place (no
      // materialized copy), bit-identical to the historical Entries()
      // loop.
      for (const OpfEntry& row : ex->rows()) {
        ++rows_read;
        if (row.prob <= 0.0) continue;
        ops += 1 + row.child_set.size();
        accumulate(row.prob, part_of(row.child_set.ids()));
      }
    } else {
      // Generic fallback: stream rows through the visitor (compact
      // representations enumerate lazily — counted as materialized).
      opf->ForEachEntry([&](const OpfEntry& row) {
        ++rows_read;
        ++mats;
        bytes += sizeof(OpfEntry) + row.child_set.size() * sizeof(ObjectId);
        if (row.prob <= 0.0) return;
        ops += 1 + row.child_set.size();
        accumulate(row.prob, part_of(row.child_set.ids()));
      });
    }
    ps.processed_entries += rows_read;
    ps.opf_row_ops += ops;
    ps.entries_materialized += mats;
    ps.bytes_allocated += bytes;
    // ε_o: mass of non-empty child sets.
    double e = 0.0;
    for (std::size_t mask = 1; mask < acc.size(); ++mask) e += acc[mask];
    eps[o] = e;
    std::size_t first_mask = 0;
    if (level > 0) {
      if (e <= kDropEps) {
        dropped[o] = 1;
        return Status::Ok();
      }
      // Normalize: condition on having a surviving child.
      first_mask = 1;
      for (std::size_t mask = 1; mask < acc.size(); ++mask) acc[mask] /= e;
    }
    std::vector<OpfEntry> rows;
    for (std::size_t mask = first_mask; mask < acc.size(); ++mask) {
      if (acc[mask] <= 0.0 && mask != 0) continue;
      std::vector<std::uint32_t> members;
      for (std::size_t b = 0; b < rids.size(); ++b) {
        if (mask & (std::size_t{1} << b)) members.push_back(rids[b]);
      }
      rows.push_back(OpfEntry{IdSet(std::move(members)), acc[mask]});
    }
    new_opf[o] = std::make_unique<ExplicitOpf>(
        ExplicitOpf::FromEntries(std::move(rows)));
    if (control != nullptr) {
      Status cs = control->Charge(ops);
      if (!cs.ok()) return cs;
    }
    return Status::Ok();
  };

  for (std::size_t level = n; level-- > 0;) {
    for (ObjectId o : layers[level]) {
      PXML_RETURN_IF_ERROR(update_object(o, level));
    }
  }
  Clock::time_point t3 = Clock::now();
  ps.update_seconds = Seconds(t2, t3);
  ps.frozen_passes = use_frozen ? 1 : 0;
  if (update_span.has_value()) {
    update_span->Arg("dispatch", use_frozen ? "frozen" : "generic");
    update_span->Arg("processed_entries",
                     static_cast<std::uint64_t>(ps.processed_entries));
    update_span->Arg("opf_row_ops", ps.opf_row_ops);
    update_span->Arg("entries_materialized", ps.entries_materialized);
    update_span->Arg("bytes_allocated", ps.bytes_allocated);
    update_span.reset();
  }

  // ---- Build the projected structure.
  obs::TraceSpan structure_span(trace, "structure");
  // Walk top-down keeping only objects whose parents survive.
  std::vector<char> kept(num_ids, 0);
  kept[weak.root()] = 1;
  for (std::size_t level = 0; level < n; ++level) {
    const LabelId l = path.labels[level];
    for (ObjectId o : layers[level]) {
      if (!kept[o] || dropped[o] || new_opf[o] == nullptr) continue;
      IdSet universe = new_opf[o]->ChildUniverse();
      for (ObjectId c : universe) {
        kept[c] = 1;
        out.mutable_weak().AddObjectById(c).ok();
        PXML_RETURN_IF_ERROR(out.mutable_weak().AddPotentialChild(o, l, c));
      }
    }
  }
  for (std::size_t level = 0; level < n; ++level) {
    const LabelId l = path.labels[level];
    for (ObjectId o : layers[level]) {
      if (!kept[o] || dropped[o] || new_opf[o] == nullptr) continue;
      std::vector<OpfEntry> rows = new_opf[o]->Entries();
      SetCardFromSupport(o, l, rows, &out.mutable_weak());
      PXML_RETURN_IF_ERROR(out.SetOpf(o, std::move(new_opf[o])));
    }
  }
  // Targets keep their leaf data.
  for (ObjectId o : layers[n]) {
    if (kept[o] && weak.IsLeaf(o)) {
      PXML_RETURN_IF_ERROR(CopyLeafData(instance, o, &out));
    }
  }
  Clock::time_point t4 = Clock::now();
  ps.structure_seconds = Seconds(t3, t4);
  ps.kept_objects = out.weak().num_objects();
  structure_span.Arg("kept_objects",
                     static_cast<std::uint64_t>(ps.kept_objects));
  finish();
  return out;
}

Result<ProbabilisticInstance> SingleProject(
    const ProbabilisticInstance& instance, const PathExpression& path,
    ProjectionStats* stats, std::size_t max_targets) {
  const WeakInstance& weak = instance.weak();
  PXML_RETURN_IF_ERROR(CheckWeakTree(weak));
  if (path.start != weak.root()) {
    return Status::InvalidArgument(
        "single projection paths must start at the root");
  }
  if (path.labels.empty()) {
    return AncestorProject(instance, path, stats);
  }
  Clock::time_point t0 = Clock::now();
  PXML_ASSIGN_OR_RETURN(std::vector<IdSet> layers,
                        PrunedWeakPathLayers(weak, path));
  Clock::time_point t1 = Clock::now();
  if (stats != nullptr) stats->locate_seconds = Seconds(t0, t1);
  const std::size_t n = path.labels.size();

  ProbabilisticInstance out;
  out.mutable_weak().SetDictionary(weak.dict());
  out.mutable_weak().AddObjectById(weak.root()).ok();
  PXML_RETURN_IF_ERROR(out.mutable_weak().SetRoot(weak.root()));
  if (layers[n].empty()) {
    if (stats != nullptr) stats->kept_objects = 1;
    return out;
  }
  if (layers[n].size() > max_targets) {
    return Status::InvalidArgument(StrCat(
        "single projection over ", layers[n].size(),
        " targets exceeds the cap of ", max_targets,
        " (the result OPF is a joint over target subsets); use the "
        "ProjectWorlds oracle"));
  }

  // Bottom-up: per object, the distribution over which target subsets
  // survive in its subtree, given the object exists.
  Clock::time_point t2 = Clock::now();
  std::vector<std::unordered_map<IdSet, double, IdSetHash>> dist(
      weak.dict().num_objects());
  for (ObjectId o : layers[n]) dist[o] = {{IdSet{o}, 1.0}};
  std::size_t processed = 0;
  for (std::size_t level = n; level-- > 0;) {
    const LabelId l = path.labels[level];
    for (ObjectId o : layers[level]) {
      const IdSet retained = weak.Lch(o, l).Intersect(layers[level + 1]);
      const Opf* opf = instance.GetOpf(o);
      if (opf == nullptr) {
        return Status::FailedPrecondition(
            StrCat("non-leaf '", weak.dict().ObjectName(o),
                   "' has no OPF"));
      }
      std::unordered_map<IdSet, double, IdSetHash> acc;
      for (const OpfEntry& row : opf->Entries()) {
        ++processed;
        if (row.prob <= 0.0) continue;
        // Convolve (by disjoint union) the children's subset
        // distributions.
        std::unordered_map<IdSet, double, IdSetHash> row_dist{
            {IdSet(), row.prob}};
        for (ObjectId c : row.child_set.Intersect(retained)) {
          std::unordered_map<IdSet, double, IdSetHash> next;
          for (const auto& [sa, pa] : row_dist) {
            for (const auto& [sb, pb] : dist[c]) {
              next[sa.Union(sb)] += pa * pb;
            }
          }
          row_dist = std::move(next);
        }
        for (const auto& [s, p] : row_dist) acc[s] += p;
      }
      dist[o] = std::move(acc);
    }
  }
  Clock::time_point t3 = Clock::now();
  if (stats != nullptr) {
    stats->update_seconds = Seconds(t2, t3);
    stats->processed_entries = processed;
  }

  // Structure: root + targets under the path's final label; the root's
  // OPF is the computed joint.
  const LabelId last = path.labels[n - 1];
  for (ObjectId t : layers[n]) {
    out.mutable_weak().AddObjectById(t).ok();
    PXML_RETURN_IF_ERROR(
        out.mutable_weak().AddPotentialChild(weak.root(), last, t));
    if (weak.IsLeaf(t)) {
      PXML_RETURN_IF_ERROR(CopyLeafData(instance, t, &out));
    }
  }
  std::vector<OpfEntry> rows;
  rows.reserve(dist[weak.root()].size());
  for (const auto& [s, p] : dist[weak.root()]) {
    rows.push_back(OpfEntry{s, p});
  }
  auto root_opf =
      std::make_unique<ExplicitOpf>(ExplicitOpf::FromEntries(std::move(rows)));
  std::vector<OpfEntry> support = root_opf->Entries();
  SetCardFromSupport(weak.root(), last, support, &out.mutable_weak());
  PXML_RETURN_IF_ERROR(out.SetOpf(weak.root(), std::move(root_opf)));
  Clock::time_point t4 = Clock::now();
  if (stats != nullptr) {
    stats->structure_seconds = Seconds(t3, t4);
    stats->kept_objects = out.weak().num_objects();
  }
  return out;
}

Result<ProbabilisticInstance> DescendantProject(
    const ProbabilisticInstance& instance, const PathExpression& path,
    ProjectionStats* stats) {
  PXML_ASSIGN_OR_RETURN(ProbabilisticInstance out,
                        AncestorProject(instance, path, stats));
  const WeakInstance& weak = instance.weak();
  PXML_ASSIGN_OR_RETURN(std::vector<IdSet> layers,
                        PrunedWeakPathLayers(weak, path));
  if (path.labels.empty()) return out;

  // Re-attach every kept target's original subtree; the local
  // interpretation below a target is untouched (targets survive with
  // probability 1).
  std::vector<ObjectId> frontier;
  for (ObjectId o : layers.back()) {
    if (out.weak().Present(o)) frontier.push_back(o);
  }
  while (!frontier.empty()) {
    ObjectId o = frontier.back();
    frontier.pop_back();
    if (weak.IsLeaf(o)) {
      PXML_RETURN_IF_ERROR(CopyLeafData(instance, o, &out));
      continue;
    }
    for (LabelId l : weak.LabelsOf(o)) {
      for (ObjectId c : weak.Lch(o, l)) {
        out.mutable_weak().AddObjectById(c).ok();
        PXML_RETURN_IF_ERROR(out.mutable_weak().AddPotentialChild(o, l, c));
        frontier.push_back(c);
      }
      PXML_RETURN_IF_ERROR(out.mutable_weak().SetCard(o, l, weak.Card(o, l)));
    }
    if (const Opf* opf = instance.GetOpf(o)) {
      PXML_RETURN_IF_ERROR(out.SetOpf(o, opf->Clone()));
    }
  }
  if (stats != nullptr) stats->kept_objects = out.weak().num_objects();
  return out;
}

}  // namespace pxml
