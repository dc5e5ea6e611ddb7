#include "query/epsilon.h"

#include <vector>

#include "obs/metrics.h"
#include "query/frozen.h"
#include "util/strings.h"

namespace pxml {

namespace {

/// Evaluates ε for one object from its (finalized) children's ε values
/// in `eps` (indexed by ObjectId), interpreting ℘(o) generically.
/// Streamed supports block-charge `control` every 1024 ops; those ops
/// are tallied here and excluded from `ops_out`, so the caller's final
/// Charge(ops_out) + tally.opf_row_ops stays exact even when the stream
/// trips mid-support.
Status EvalObjectEps(const ProbabilisticInstance& instance,
                     const WeakInstance& weak, ObjectId o,
                     const IdSet& retained, const std::vector<double>& eps,
                     QueryControl* control, EpsilonStats& tally,
                     double& e_out, std::uint64_t& ops_out,
                     std::uint64_t& materialized_out,
                     std::uint64_t& bytes_out) {
  const Opf* opf = instance.GetOpf(o);
  if (opf == nullptr) {
    return Status::FailedPrecondition(
        StrCat("non-leaf '", weak.dict().ObjectName(o), "' has no OPF"));
  }
  double e = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t materialized = 0;
  std::uint64_t bytes = retained.size() * sizeof(ObjectId);
  if (const auto* ind = dynamic_cast<const IndependentOpf*>(opf)) {
    // §3.2 structure exploitation: with independent children,
    // ε_o = 1 - Π_{j ∈ R} (1 - p_j ε_j) in O(|children|) instead of
    // O(2^|children|) table rows.
    double none = 1.0;
    ops += ind->children().size();
    for (const auto& [child, p] : ind->children()) {
      if (retained.Contains(child)) none *= 1.0 - p * eps[child];
    }
    e = 1.0 - none;
  } else if (const auto* ex = dynamic_cast<const ExplicitOpf*>(opf)) {
    // The stored rows in place — no Entries() copy, no per-row
    // intersection materialization. Same visit order as the historical
    // Entries()/Intersect walk, so identical bits.
    for (const OpfEntry& row : ex->rows()) {
      if (row.prob <= 0.0) continue;
      ops += 1 + row.child_set.size();
      double none = 1.0;
      row.child_set.ForEachIntersecting(
          retained, [&](ObjectId j) { none *= 1.0 - eps[j]; });
      e += row.prob * (1.0 - none);
    }
  } else {
    // Generic fallback: stream the (possibly exponential) support one
    // transient row at a time. Every streamed row is a materialized
    // entry — the counter the frozen kernels drive to zero. Charged in
    // blocks so even a single exponential support trips within the
    // check interval rather than at object end.
    Status stream_status;
    std::uint64_t charged = 0;
    opf->ForEachEntry([&](const OpfEntry& row) {
      if (!stream_status.ok()) return;
      ++materialized;
      bytes += sizeof(OpfEntry) + row.child_set.size() * sizeof(ObjectId);
      if (row.prob <= 0.0) return;
      ops += 1 + row.child_set.size();
      double none = 1.0;
      row.child_set.ForEachIntersecting(
          retained, [&](ObjectId j) { none *= 1.0 - eps[j]; });
      e += row.prob * (1.0 - none);
      if (control != nullptr && ops - charged >= 1024) {
        stream_status = control->Charge(ops - charged);
        charged = ops;
      }
    });
    // Ops already block-charged are also already tallied here, so the
    // tally stays exact even when the stream tripped mid-support; the
    // caller accounts only for the uncharged remainder.
    tally.opf_row_ops.fetch_add(charged, std::memory_order_relaxed);
    ops -= charged;
    PXML_RETURN_IF_ERROR(stream_status);
  }
  e_out = e;
  ops_out = ops;
  materialized_out = materialized;
  bytes_out = bytes;
  return Status::Ok();
}

}  // namespace

void FlushEpsilonPass(const EpsilonStats& tally, EpsilonStats* out,
                      obs::TraceSpan& span, bool frozen) {
  const std::uint64_t recomputed =
      tally.recomputed.load(std::memory_order_relaxed);
  const std::uint64_t row_ops =
      tally.opf_row_ops.load(std::memory_order_relaxed);
  const std::uint64_t materialized =
      tally.entries_materialized.load(std::memory_order_relaxed);
  const std::uint64_t bytes =
      tally.bytes_allocated.load(std::memory_order_relaxed);
  const std::uint64_t frozen_passes =
      tally.frozen_passes.load(std::memory_order_relaxed);
  if (out != nullptr) {
    out->recomputed.fetch_add(recomputed, std::memory_order_relaxed);
    out->opf_row_ops.fetch_add(row_ops, std::memory_order_relaxed);
    out->entries_materialized.fetch_add(materialized,
                                        std::memory_order_relaxed);
    out->bytes_allocated.fetch_add(bytes, std::memory_order_relaxed);
    out->frozen_passes.fetch_add(frozen_passes, std::memory_order_relaxed);
    if (!frozen) {
      out->generic_passes.fetch_add(1, std::memory_order_relaxed);
    }
  }
  {
    using obs::Counter;
    using obs::Registry;
    static Counter& c_recomputed =
        Registry::Global().GetCounter("pxml.epsilon.recomputed");
    static Counter& c_row_ops =
        Registry::Global().GetCounter("pxml.epsilon.opf_row_ops");
    static Counter& c_materialized =
        Registry::Global().GetCounter("pxml.epsilon.entries_materialized");
    static Counter& c_bytes =
        Registry::Global().GetCounter("pxml.epsilon.bytes_allocated");
    static Counter& c_generic =
        Registry::Global().GetCounter("pxml.epsilon.passes_generic");
    static Counter& c_frozen =
        Registry::Global().GetCounter("pxml.epsilon.passes_frozen");
    c_recomputed.Add(recomputed);
    c_row_ops.Add(row_ops);
    c_materialized.Add(materialized);
    c_bytes.Add(bytes);
    // A frozen pass that failed validation before its frozen_passes bump
    // counts under neither (matching the legacy stats struct exactly).
    if (frozen) {
      c_frozen.Add(frozen_passes);
    } else {
      c_generic.Increment();
    }
  }
  if (span.enabled()) {
    span.Arg("dispatch", frozen ? "frozen" : "generic");
    span.Arg("recomputed", recomputed);
    span.Arg("opf_row_ops", row_ops);
    span.Arg("entries_materialized", materialized);
    span.Arg("bytes_allocated", bytes);
  }
}

Result<double> EpsilonPropagator::RootEpsilon(
    const PathExpression& path, std::span<const TargetEps> targets) const {
  // Compiled route: when the caller supplied a frozen snapshot that still
  // matches the instance, run the specialized kernels over it. The
  // version check makes a stale snapshot a silent slow path, never a
  // wrong answer.
  if (frozen_ != nullptr && scratch_ != nullptr &&
      frozen_->InSyncWith(instance_)) {
    return FrozenRootEpsilon(*frozen_, instance_, path, targets, parallel_,
                             stats_, scratch_, trace_, control_);
  }
  obs::TraceSpan span(trace_, "epsilon");
  // Every counter of the pass lands in a pass-local tally first and is
  // flushed exactly once at pass end — to the caller's stats, to the
  // registry, and onto the span — so the three always agree.
  EpsilonStats tally;
  Result<double> result = RootEpsilonGeneric(path, targets, tally);
  FlushEpsilonPass(tally, stats_, span, /*frozen=*/false);
  return result;
}

Result<double> EpsilonPropagator::RootEpsilonGeneric(
    const PathExpression& path, std::span<const TargetEps> targets,
    EpsilonStats& tally) const {
  const WeakInstance& weak = instance_.weak();
  PXML_RETURN_IF_ERROR(CheckWeakTree(weak));
  if (path.start != weak.root()) {
    return Status::BadPath(
        "epsilon propagation paths must start at the root");
  }
  PXML_ASSIGN_OR_RETURN(std::vector<IdSet> layers,
                        PrunedWeakPathLayers(weak, path));
  const std::size_t n = path.labels.size();

  std::vector<double> eps(weak.dict().num_objects(), 0.0);
  for (const TargetEps& t : targets) {
    if (!layers[n].Contains(t.object)) {
      return Status::BadPath(StrCat("target id ", t.object,
                                    " does not satisfy the path expression"));
    }
    eps[t.object] = t.eps;
  }
  tally.bytes_allocated.fetch_add(eps.size() * sizeof(double),
                                  std::memory_order_relaxed);
  if (n == 0) return eps[weak.root()];

  // ε of one frontier object from its children's (finalized) ε values.
  // Writes only its own eps slot; the per-row sums stay sequential per
  // object, so parallel and serial execution produce identical bits.
  auto process = [&](ObjectId o, LabelId l, const IdSet& next_layer) -> Status {
    // Cooperative gate: one op up front, the object's row-ops at the
    // end, and block charges inside the potentially-exponential
    // streaming loop.
    if (control_ != nullptr) {
      Status cs = control_->Charge(1);
      if (!cs.ok()) return cs;
    }
    const IdSet retained = weak.Lch(o, l).Intersect(next_layer);
    double e = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t materialized = 0;
    std::uint64_t bytes = 0;
    PXML_RETURN_IF_ERROR(EvalObjectEps(instance_, weak, o, retained, eps,
                                       control_, tally, e, ops, materialized,
                                       bytes));
    eps[o] = e;
    tally.recomputed.fetch_add(1, std::memory_order_relaxed);
    tally.opf_row_ops.fetch_add(ops, std::memory_order_relaxed);
    if (materialized != 0) {
      tally.entries_materialized.fetch_add(materialized,
                                           std::memory_order_relaxed);
    }
    tally.bytes_allocated.fetch_add(bytes, std::memory_order_relaxed);
    // Charged after the work; overshoot is bounded by one object's
    // stored rows.
    if (control_ != nullptr) {
      Status cs = control_->Charge(ops);
      if (!cs.ok()) return cs;
    }
    return Status::Ok();
  };

  for (std::size_t level = n; level-- > 0;) {
    const LabelId l = path.labels[level];
    const IdSet& frontier = layers[level];
    const IdSet& next_layer = layers[level + 1];
    if (parallel_.pool != nullptr && frontier.size() > 1 &&
        frontier.size() >= parallel_.min_parallel_width) {
      // Partition the frontier; each chunk fills disjoint status slots.
      const std::vector<ObjectId>& objs = frontier.ids();
      std::vector<Status> statuses(objs.size());
      const std::size_t grain = std::max<std::size_t>(
          1, objs.size() / (4 * parallel_.pool->num_threads() + 1));
      ParallelFor(parallel_.pool, objs.size(), grain,
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t k = begin; k < end; ++k) {
                      statuses[k] = process(objs[k], l, next_layer);
                    }
                  });
      // Deterministic error selection: first failure in frontier order.
      for (const Status& s : statuses) PXML_RETURN_IF_ERROR(s);
    } else {
      for (ObjectId o : frontier) {
        PXML_RETURN_IF_ERROR(process(o, l, next_layer));
      }
    }
  }
  return eps[weak.root()];
}

}  // namespace pxml
