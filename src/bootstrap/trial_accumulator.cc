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

void TrialAccumulatorSet::AddTrialOnly(int trial, const Value& v,
                                       double weight) {
  if (weight == 0.0 || v.is_null()) return;
  state_->fold(trials_.data() + static_cast<size_t>(trial) * state_->width,
               v.AsDouble(), v.type(), weight);
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

std::vector<double> TrialAccumulatorSet::TrialResults(double scale) const {
  const Value main = main_->Result(scale);
  const double fallback = main.is_null() ? 0.0 : main.AsDouble();
  std::vector<double> out;
  out.reserve(trials_.size() / state_->width);
  for (size_t i = 0; i < trials_.size(); i += state_->width) {
    const std::optional<double> v = state_->result(trials_.data() + i, scale);
    out.push_back(v.has_value() ? *v : fallback);
  }
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

void DeferredTrialFolds::AddRow(TrialAccumulatorSet* accs, uint64_t uid,
                                double weight, bool from_stream) {
  rows_.push_back({accs, uid, weight, from_stream,
                   static_cast<uint32_t>(args_.size())});
}

void DeferredTrialFolds::AddArg(uint32_t agg, const Value& v) {
  if (v.is_null()) return;
  args_.push_back({v.AsDouble(), agg, v.type()});
  rows_.back().args_end = static_cast<uint32_t>(args_.size());
}

void DeferredTrialFolds::Clear() {
  rows_.clear();
  args_.clear();
}

void DeferredTrialFolds::FoldTrials(const BootstrapWeights& bootstrap,
                                    int begin, int end) const {
  std::vector<TrialWeight> weights(static_cast<size_t>(end - begin));
  uint32_t arg = 0;
  for (const Row& row : rows_) {
    // The row's nonzero weights over the range, compacted without a
    // branch: every slot is written, and the count advances only past a
    // nonzero one.
    size_t n = 0;
    for (int t = begin; t < end; ++t) {
      const double w =
          row.from_stream ? row.weight * bootstrap.WeightAt(row.uid, t)
                          : row.weight;
      weights[n] = {t, w};
      n += w != 0.0;
    }
    for (; arg < row.args_end; ++arg) {
      const Arg& a = args_[arg];
      row.accs[a.agg].FoldTrials(weights.data(), n, a.x, a.type);
    }
  }
}

}  // namespace iolap
