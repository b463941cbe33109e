#include "core/aggregate.h"

namespace iolap {

namespace {

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

}  // namespace

std::unique_ptr<AggAccumulator> NewMinAccumulator() {
  return std::make_unique<MinMaxAccumulator>(/*is_min=*/true);
}

std::unique_ptr<AggAccumulator> NewMaxAccumulator() {
  return std::make_unique<MinMaxAccumulator>(/*is_min=*/false);
}

}  // namespace iolap
