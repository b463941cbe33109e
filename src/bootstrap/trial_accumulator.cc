#include "bootstrap/trial_accumulator.h"

namespace iolap {

TrialAccumulatorSet::TrialAccumulatorSet(const AggregateFunction& fn,
                                         int num_trials)
    : state_(&fn.state),
      main_(fn.new_accumulator()),
      trials_(static_cast<size_t>(num_trials) * fn.state.width, 0.0) {}

void TrialAccumulatorSet::AddMoments(const Value& v, double weight) {
  if (v.is_null() || !v.is_numeric()) return;
  const double x = v.AsDouble();
  m_n_ += weight;
  m_sum_ += weight * x;
  m_sumsq_ += weight * x * x;
}

double TrialAccumulatorSet::moment_variance() const {
  if (m_n_ <= 1.0) return 0.0;
  const double mean = m_sum_ / m_n_;
  const double var = m_sumsq_ / m_n_ - mean * mean;
  return var < 0.0 ? 0.0 : var;
}

void TrialAccumulatorSet::AddMainOnly(const Value& v, double weight) {
  main_->Add(v, weight);
  AddMoments(v, weight);
}

void TrialAccumulatorSet::Merge(const TrialAccumulatorSet& other) {
  main_->Merge(*other.main_);
  m_n_ += other.m_n_;
  m_sum_ += other.m_sum_;
  m_sumsq_ += other.m_sumsq_;
  for (size_t i = 0; i < trials_.size(); i += state_->width) {
    state_->merge(trials_.data() + i, other.trials_.data() + i);
  }
}

Value TrialAccumulatorSet::MainResult(double scale) const {
  return main_->Result(scale);
}

void TrialAccumulatorSet::TrialResults(double scale, double* out) const {
  const Value main = main_->Result(scale);
  const double fallback = main.is_null() ? 0.0 : main.AsDouble();
  for (size_t i = 0; i < trials_.size(); i += state_->width) {
    const std::optional<double> v = state_->result(trials_.data() + i, scale);
    *out++ = v.has_value() ? *v : fallback;
  }
}

std::vector<double> TrialAccumulatorSet::TrialResults(double scale) const {
  std::vector<double> out(trials_.size() / state_->width);
  TrialResults(scale, out.data());
  return out;
}

TrialAccumulatorSet TrialAccumulatorSet::Clone() const {
  TrialAccumulatorSet copy;
  copy.state_ = state_;
  copy.main_ = main_->Clone();
  copy.trials_ = trials_;
  copy.m_n_ = m_n_;
  copy.m_sum_ = m_sum_;
  copy.m_sumsq_ = m_sumsq_;
  return copy;
}

size_t TrialAccumulatorSet::ByteSize() const {
  return main_->ByteSize() + trials_.size() * sizeof(double);
}

void FoldRowTrials(TrialAccumulatorSet* accs, size_t num_aggs,
                   const Value* args, const TrialArg* trial_args,
                   const double* w, int begin, int end,
                   TrialWeight* scratch) {
  // The nonzero weights, compacted without a branch: every slot is
  // written, and the count advances only past a nonzero one.
  size_t n = 0;
  for (int t = begin; t < end; ++t) {
    scratch[n] = {t, w[t]};
    n += w[t] != 0.0;
  }
  for (size_t a = 0; a < num_aggs; ++a) {
    if (trial_args == nullptr) {
      if (!args[a].is_null()) {
        accs[a].FoldTrials(scratch, n, args[a].AsDouble(), args[a].type());
      }
      continue;
    }
    for (size_t i = 0; i < n; ++i) {
      const TrialArg& arg =
          trial_args[static_cast<size_t>(scratch[i].trial) * num_aggs + a];
      if (arg.type != ValueType::kNull) {
        accs[a].FoldTrials(scratch + i, 1, arg.x, arg.type);
      }
    }
  }
}

}  // namespace iolap
