#include "core/aggregate.h"

#include <cmath>

namespace iolap {

namespace {

// ------------------------------------------------- COUNT / SUM / AVG

// One (sum, count) pair serves all three linear aggregates.
class SumCountAccumulator final : public AggAccumulator {
 public:
  enum class Output : uint8_t { kCount, kSum, kAvg };

  explicit SumCountAccumulator(Output output) : output_(output) {}

  void Add(const Value& v, double weight) override {
    if (v.is_null()) return;
    count_ += weight;
    sum_ += weight * v.AsDouble();
  }

  void Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const SumCountAccumulator&>(other);
    count_ += o.count_;
    sum_ += o.sum_;
  }

  Value Result(double scale) const override {
    switch (output_) {
      case Output::kCount:
        return Value::Double(scale * count_);
      case Output::kSum:
        return count_ == 0.0 ? Value::Null() : Value::Double(scale * sum_);
      default:  // kAvg
        return count_ == 0.0 ? Value::Null() : Value::Double(sum_ / count_);
    }
  }

  std::unique_ptr<AggAccumulator> Clone() const override {
    return std::make_unique<SumCountAccumulator>(*this);
  }

  size_t ByteSize() const override { return 2 * sizeof(double); }

 private:
  Output output_;
  double sum_ = 0.0;
  double count_ = 0.0;
};

// ----------------------------------------------------------- MIN / MAX

class MinMaxAccumulator final : public AggAccumulator {
 public:
  explicit MinMaxAccumulator(bool is_min) : is_min_(is_min) {}

  void Add(const Value& v, double weight) override {
    if (v.is_null() || weight <= 0.0) return;
    if (best_.is_null()) {
      best_ = v;
      return;
    }
    const int cmp = v.Compare(best_);
    if ((is_min_ && cmp < 0) || (!is_min_ && cmp > 0)) best_ = v;
  }

  void Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const MinMaxAccumulator&>(other);
    Add(o.best_, 1.0);
  }

  Value Result(double) const override { return best_; }

  std::unique_ptr<AggAccumulator> Clone() const override {
    return std::make_unique<MinMaxAccumulator>(*this);
  }

  size_t ByteSize() const override { return sizeof(Value) + best_.ByteSize(); }

 private:
  bool is_min_;
  Value best_;
};

// ------------------------------------------------------ VAR / STDDEV

class MomentsAccumulator final : public AggAccumulator {
 public:
  explicit MomentsAccumulator(bool stddev) : stddev_(stddev) {}

  void Add(const Value& v, double weight) override {
    if (v.is_null()) return;
    const double x = v.AsDouble();
    w_ += weight;
    wx_ += weight * x;
    wxx_ += weight * x * x;
  }

  void Merge(const AggAccumulator& other) override {
    const auto& o = static_cast<const MomentsAccumulator&>(other);
    w_ += o.w_;
    wx_ += o.wx_;
    wxx_ += o.wxx_;
  }

  Value Result(double) const override {
    if (w_ <= 0.0) return Value::Null();
    const double mean = wx_ / w_;
    double var = wxx_ / w_ - mean * mean;
    if (var < 0.0) var = 0.0;  // numerical noise
    return Value::Double(stddev_ ? std::sqrt(var) : var);
  }

  std::unique_ptr<AggAccumulator> Clone() const override {
    return std::make_unique<MomentsAccumulator>(*this);
  }

  size_t ByteSize() const override { return 3 * sizeof(double); }

 private:
  bool stddev_;
  double w_ = 0.0;
  double wx_ = 0.0;
  double wxx_ = 0.0;
};

}  // namespace

std::unique_ptr<AggAccumulator> NewCountAccumulator() {
  return std::make_unique<SumCountAccumulator>(
      SumCountAccumulator::Output::kCount);
}

std::unique_ptr<AggAccumulator> NewSumAccumulator() {
  return std::make_unique<SumCountAccumulator>(
      SumCountAccumulator::Output::kSum);
}

std::unique_ptr<AggAccumulator> NewAvgAccumulator() {
  return std::make_unique<SumCountAccumulator>(
      SumCountAccumulator::Output::kAvg);
}

std::unique_ptr<AggAccumulator> NewMinAccumulator() {
  return std::make_unique<MinMaxAccumulator>(/*is_min=*/true);
}

std::unique_ptr<AggAccumulator> NewMaxAccumulator() {
  return std::make_unique<MinMaxAccumulator>(/*is_min=*/false);
}

std::unique_ptr<AggAccumulator> NewVarAccumulator() {
  return std::make_unique<MomentsAccumulator>(/*stddev=*/false);
}

std::unique_ptr<AggAccumulator> NewStddevAccumulator() {
  return std::make_unique<MomentsAccumulator>(/*stddev=*/true);
}

}  // namespace iolap
