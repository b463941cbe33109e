#include "bootstrap/trial_accumulator.h"

namespace iolap {

TrialAccumulatorSet::TrialAccumulatorSet(const AggregateFunction& fn,
                                         int num_trials) {
  main_ = fn.new_accumulator();
  trials_.reserve(num_trials);
  for (int t = 0; t < num_trials; ++t) trials_.push_back(fn.new_accumulator());
}

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

void TrialAccumulatorSet::AddTrialOnly(int trial, const Value& v,
                                       double weight) {
  if (weight != 0.0) trials_[trial]->Add(v, weight);
}

void TrialAccumulatorSet::Merge(const TrialAccumulatorSet& other) {
  main_->Merge(*other.main_);
  m_n_ += other.m_n_;
  m_sum_ += other.m_sum_;
  m_sumsq_ += other.m_sumsq_;
  for (size_t t = 0; t < trials_.size(); ++t) {
    trials_[t]->Merge(*other.trials_[t]);
  }
}

Value TrialAccumulatorSet::MainResult(double scale) const {
  return main_->Result(scale);
}

std::vector<double> TrialAccumulatorSet::TrialResults(double scale) const {
  const Value main = main_->Result(scale);
  const double fallback = main.is_null() ? 0.0 : main.AsDouble();
  std::vector<double> out;
  out.reserve(trials_.size());
  for (const auto& trial : trials_) {
    const Value v = trial->Result(scale);
    out.push_back(v.is_null() ? fallback : v.AsDouble());
  }
  return out;
}

TrialAccumulatorSet TrialAccumulatorSet::Clone() const {
  TrialAccumulatorSet copy;
  copy.m_n_ = m_n_;
  copy.m_sum_ = m_sum_;
  copy.m_sumsq_ = m_sumsq_;
  copy.main_ = main_->Clone();
  copy.trials_.reserve(trials_.size());
  for (const auto& trial : trials_) copy.trials_.push_back(trial->Clone());
  return copy;
}

size_t TrialAccumulatorSet::ByteSize() const {
  size_t total = main_->ByteSize();
  for (const auto& trial : trials_) total += trial->ByteSize();
  return total;
}

}  // namespace iolap
