#include "interval/interval_model.h"

#include <algorithm>
#include <sstream>

#include "core/validation.h"
#include "prob/distribution.h"
#include "util/strings.h"

namespace pxml {

namespace {

/// Σ lo <= 1 <= Σ hi over a row set.
Status CheckMassFeasible(double lo_sum, double hi_sum) {
  if (lo_sum > 1.0 + kProbEps) {
    return Status::FailedPrecondition(
        StrCat("interval lower bounds sum to ", lo_sum, " > 1"));
  }
  if (hi_sum < 1.0 - kProbEps) {
    return Status::FailedPrecondition(
        StrCat("interval upper bounds sum to ", hi_sum, " < 1"));
  }
  return Status::Ok();
}

}  // namespace

// ------------------------------------------------------------ IntervalOpf

void IntervalOpf::Set(IdSet child_set, IntervalProb prob) {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), child_set,
                             [](const Entry& e, const IdSet& key) {
                               return e.child_set < key;
                             });
  if (it != rows_.end() && it->child_set == child_set) {
    it->prob = prob;
  } else {
    rows_.insert(it, Entry{std::move(child_set), prob});
  }
}

IntervalProb IntervalOpf::Get(const IdSet& child_set) const {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), child_set,
                             [](const Entry& e, const IdSet& key) {
                               return e.child_set < key;
                             });
  if (it != rows_.end() && it->child_set == child_set) return it->prob;
  return IntervalProb(0.0, 0.0);
}

Status IntervalOpf::Validate() const {
  double lo_sum = 0.0;
  double hi_sum = 0.0;
  for (const Entry& e : rows_) {
    if (!e.prob.valid()) {
      return Status::InvalidArgument(
          StrCat("invalid interval ", e.prob.ToString(), " for ",
                 e.child_set.ToString()));
    }
    lo_sum += e.prob.lo();
    hi_sum += e.prob.hi();
  }
  return CheckMassFeasible(lo_sum, hi_sum);
}

Status IntervalOpf::Tighten() {
  PXML_RETURN_IF_ERROR(Validate());
  double lo_sum = 0.0;
  double hi_sum = 0.0;
  for (const Entry& e : rows_) {
    lo_sum += e.prob.lo();
    hi_sum += e.prob.hi();
  }
  for (Entry& e : rows_) {
    double other_lo = lo_sum - e.prob.lo();
    double other_hi = hi_sum - e.prob.hi();
    double lo = std::max(e.prob.lo(), 1.0 - other_hi);
    double hi = std::min(e.prob.hi(), 1.0 - other_lo);
    e.prob = IntervalProb(std::max(0.0, lo), std::min(1.0, hi));
    if (!e.prob.valid()) {
      return Status::FailedPrecondition("tightening found inconsistency");
    }
  }
  return Status::Ok();
}

bool IntervalOpf::ContainsPoint(const Opf& point, double eps) const {
  for (const Entry& e : rows_) {
    if (!e.prob.Contains(point.Prob(e.child_set), eps)) return false;
  }
  // Point support must not put mass outside the interval support.
  for (const OpfEntry& pe : point.Entries()) {
    if (pe.prob <= eps) continue;
    auto it = std::lower_bound(rows_.begin(), rows_.end(), pe.child_set,
                               [](const Entry& e, const IdSet& key) {
                                 return e.child_set < key;
                               });
    if (it == rows_.end() || !(it->child_set == pe.child_set)) return false;
  }
  return true;
}

Result<IntervalProb> IntervalOpf::MarginalChildProb(ObjectId child) const {
  std::vector<double> lo;
  std::vector<double> hi;
  std::vector<double> weight;
  lo.reserve(rows_.size());
  for (const Entry& e : rows_) {
    lo.push_back(e.prob.lo());
    hi.push_back(e.prob.hi());
    weight.push_back(e.child_set.Contains(child) ? 1.0 : 0.0);
  }
  PXML_ASSIGN_OR_RETURN(double min,
                        OptimizeBoxSimplex(lo, hi, weight, false));
  PXML_ASSIGN_OR_RETURN(double max,
                        OptimizeBoxSimplex(lo, hi, weight, true));
  return IntervalProb(min, max);
}

std::string IntervalOpf::ToString(const Dictionary& dict) const {
  std::ostringstream os;
  os << "interval OPF {\n";
  for (const Entry& e : rows_) {
    os << "  {";
    bool first = true;
    for (ObjectId o : e.child_set) {
      if (!first) os << ',';
      first = false;
      os << dict.ObjectName(o);
    }
    os << "} -> " << e.prob.ToString() << '\n';
  }
  os << '}';
  return os.str();
}

// ------------------------------------------------------------ IntervalVpf

void IntervalVpf::Set(Value value, IntervalProb prob) {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), value,
                             [](const Entry& e, const Value& key) {
                               return e.value < key;
                             });
  if (it != rows_.end() && it->value == value) {
    it->prob = prob;
  } else {
    rows_.insert(it, Entry{std::move(value), prob});
  }
}

IntervalProb IntervalVpf::Get(const Value& value) const {
  auto it = std::lower_bound(rows_.begin(), rows_.end(), value,
                             [](const Entry& e, const Value& key) {
                               return e.value < key;
                             });
  if (it != rows_.end() && it->value == value) return it->prob;
  return IntervalProb(0.0, 0.0);
}

Status IntervalVpf::Validate() const {
  double lo_sum = 0.0;
  double hi_sum = 0.0;
  for (const Entry& e : rows_) {
    if (!e.prob.valid()) {
      return Status::InvalidArgument(
          StrCat("invalid interval for value ", e.value.ToString()));
    }
    lo_sum += e.prob.lo();
    hi_sum += e.prob.hi();
  }
  return CheckMassFeasible(lo_sum, hi_sum);
}

bool IntervalVpf::ContainsPoint(const Vpf& point, double eps) const {
  for (const Entry& e : rows_) {
    if (!e.prob.Contains(point.Prob(e.value), eps)) return false;
  }
  for (const Vpf::Entry& pe : point.Entries()) {
    if (pe.prob <= eps) continue;
    bool found = false;
    for (const Entry& e : rows_) {
      if (e.value == pe.value) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

// ------------------------------------------------------- IntervalInstance

IntervalInstance::IntervalInstance(const IntervalInstance& other)
    : weak_(other.weak_) {
  opfs_.resize(other.opfs_.size());
  for (std::size_t i = 0; i < other.opfs_.size(); ++i) {
    if (other.opfs_[i]) {
      opfs_[i] = std::make_unique<IntervalOpf>(*other.opfs_[i]);
    }
  }
  vpfs_.resize(other.vpfs_.size());
  for (std::size_t i = 0; i < other.vpfs_.size(); ++i) {
    if (other.vpfs_[i]) {
      vpfs_[i] = std::make_unique<IntervalVpf>(*other.vpfs_[i]);
    }
  }
}

IntervalInstance& IntervalInstance::operator=(const IntervalInstance& other) {
  if (this == &other) return *this;
  IntervalInstance copy(other);
  *this = std::move(copy);
  return *this;
}

void IntervalInstance::EnsureSize(ObjectId o) {
  if (o >= opfs_.size()) opfs_.resize(o + 1);
  if (o >= vpfs_.size()) vpfs_.resize(o + 1);
}

Status IntervalInstance::SetOpf(ObjectId o, IntervalOpf opf) {
  if (!weak_.Present(o)) {
    return Status::NotFound(StrCat("object id ", o, " not present"));
  }
  EnsureSize(o);
  opfs_[o] = std::make_unique<IntervalOpf>(std::move(opf));
  return Status::Ok();
}

Status IntervalInstance::SetVpf(ObjectId o, IntervalVpf vpf) {
  if (!weak_.Present(o)) {
    return Status::NotFound(StrCat("object id ", o, " not present"));
  }
  EnsureSize(o);
  vpfs_[o] = std::make_unique<IntervalVpf>(std::move(vpf));
  return Status::Ok();
}

const IntervalOpf* IntervalInstance::GetOpf(ObjectId o) const {
  return o < opfs_.size() ? opfs_[o].get() : nullptr;
}

const IntervalVpf* IntervalInstance::GetVpf(ObjectId o) const {
  return o < vpfs_.size() ? vpfs_[o].get() : nullptr;
}

namespace {

Result<IntervalInstance> FromPointWithDelta(
    const ProbabilisticInstance& instance, double delta) {
  PXML_RETURN_IF_ERROR(ValidateProbabilisticInstance(instance));
  IntervalInstance out;
  out.weak() = instance.weak();
  for (ObjectId o : instance.weak().Objects()) {
    if (const Opf* opf = instance.GetOpf(o)) {
      IntervalOpf iopf;
      for (const OpfEntry& e : opf->Entries()) {
        iopf.Set(e.child_set,
                 IntervalProb(std::max(0.0, e.prob - delta),
                              std::min(1.0, e.prob + delta)));
      }
      PXML_RETURN_IF_ERROR(out.SetOpf(o, std::move(iopf)));
    } else if (const Vpf* vpf = instance.GetVpf(o)) {
      IntervalVpf ivpf;
      for (const Vpf::Entry& e : vpf->Entries()) {
        ivpf.Set(e.value,
                 IntervalProb(std::max(0.0, e.prob - delta),
                              std::min(1.0, e.prob + delta)));
      }
      PXML_RETURN_IF_ERROR(out.SetVpf(o, std::move(ivpf)));
    }
  }
  return out;
}

}  // namespace

Result<IntervalInstance> IntervalInstance::FromPoint(
    const ProbabilisticInstance& instance) {
  return FromPointWithDelta(instance, 0.0);
}

Result<IntervalInstance> IntervalInstance::Widen(
    const ProbabilisticInstance& instance, double delta) {
  if (delta < 0.0) {
    return Status::InvalidArgument("delta must be non-negative");
  }
  return FromPointWithDelta(instance, delta);
}

Status IntervalInstance::CheckContainsPoint(
    const ProbabilisticInstance& point) const {
  for (ObjectId o : weak_.Objects()) {
    if (const IntervalOpf* iopf = GetOpf(o)) {
      const Opf* popf = point.GetOpf(o);
      if (popf == nullptr || !iopf->ContainsPoint(*popf)) {
        return Status::FailedPrecondition(
            StrCat("point OPF of '", weak_.dict().ObjectName(o),
                   "' outside interval bounds"));
      }
    }
    if (const IntervalVpf* ivpf = GetVpf(o)) {
      const Vpf* pvpf = point.GetVpf(o);
      if (pvpf == nullptr || !ivpf->ContainsPoint(*pvpf)) {
        return Status::FailedPrecondition(
            StrCat("point VPF of '", weak_.dict().ObjectName(o),
                   "' outside interval bounds"));
      }
    }
  }
  return Status::Ok();
}

Result<ProbabilisticInstance> IntervalInstance::SamplePointInstance(
    Rng& rng) const {
  ProbabilisticInstance out;
  out.mutable_weak() = weak_;
  for (ObjectId o : weak_.Objects()) {
    if (const IntervalOpf* iopf = GetOpf(o)) {
      const auto& rows = iopf->Entries();
      // Start at the lows, spend the remainder in random row order.
      std::vector<double> probs;
      double remaining = 1.0;
      for (const auto& e : rows) {
        probs.push_back(e.prob.lo());
        remaining -= e.prob.lo();
      }
      if (remaining < -kProbEps) {
        return Status::FailedPrecondition("interval OPF infeasible");
      }
      std::vector<std::size_t> order(rows.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextBounded(i)]);
      }
      for (std::size_t i : order) {
        if (remaining <= 0.0) break;
        double cap = rows[i].prob.hi() - rows[i].prob.lo();
        double take = std::min(remaining, cap * rng.NextDouble());
        // On the last chance to spend, take the full cap if needed.
        probs[i] += take;
        remaining -= take;
      }
      if (remaining > 0.0) {
        // Final pass: fill deterministically.
        for (std::size_t i : order) {
          double cap = rows[i].prob.hi() - probs[i];
          double take = std::min(remaining, cap);
          probs[i] += take;
          remaining -= take;
          if (remaining <= 0.0) break;
        }
      }
      if (remaining > kProbEps) {
        return Status::FailedPrecondition(
            "interval OPF cannot reach unit mass");
      }
      auto popf = std::make_unique<ExplicitOpf>();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        popf->Set(rows[i].child_set, probs[i]);
      }
      PXML_RETURN_IF_ERROR(out.SetOpf(o, std::move(popf)));
    } else if (const IntervalVpf* ivpf = GetVpf(o)) {
      const auto& rows = ivpf->Entries();
      double remaining = 1.0;
      std::vector<double> probs;
      for (const auto& e : rows) {
        probs.push_back(e.prob.lo());
        remaining -= e.prob.lo();
      }
      for (std::size_t i = 0; i < rows.size() && remaining > 0.0; ++i) {
        double cap = rows[i].prob.hi() - probs[i];
        double take = std::min(remaining, cap);
        probs[i] += take;
        remaining -= take;
      }
      if (remaining > kProbEps) {
        return Status::FailedPrecondition(
            "interval VPF cannot reach unit mass");
      }
      Vpf pvpf;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        pvpf.Set(rows[i].value, probs[i]);
      }
      PXML_RETURN_IF_ERROR(out.SetVpf(o, std::move(pvpf)));
    }
  }
  return out;
}

Status ValidateIntervalInstance(const IntervalInstance& instance) {
  PXML_RETURN_IF_ERROR(ValidateWeakInstance(instance.weak()));
  for (ObjectId o : instance.weak().Objects()) {
    if (const IntervalOpf* opf = instance.GetOpf(o)) {
      PXML_RETURN_IF_ERROR(opf->Validate());
    }
    if (const IntervalVpf* vpf = instance.GetVpf(o)) {
      PXML_RETURN_IF_ERROR(vpf->Validate());
    }
  }
  return Status::Ok();
}

}  // namespace pxml
