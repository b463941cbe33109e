#include "common/random.h"

#include <cmath>

namespace iolap {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // SplitMix64 expansion of the seed; guarantees a non-zero state.
  uint64_t s = seed;
  for (auto& lane : state_) {
    s += 0x9e3779b97f4a7c15ull;
    lane = Mix64(s);
  }
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

Rng Rng::ForLane(uint64_t seed, uint64_t lane) {
  // Mixing before the constructor's own SplitMix64 expansion keeps lanes
  // with small indices (0, 1, 2, ...) far apart in the seed space.
  return Rng(Mix64(seed ^ lane));
}

uint64_t Rng::NextBounded(uint64_t bound) {
  if (bound <= 1) return 0;  // `-bound % bound` is a division by zero at 0
  // Rejection sampling over the top of the range to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::NextGaussian() {
  // Box-Muller; discards the second variate for simplicity.
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::NextExponential(double lambda) {
  double u = NextDouble();
  if (u >= 1.0) u = std::nextafter(1.0, 0.0);
  return -std::log1p(-u) / lambda;
}

uint64_t Rng::NextZipf(uint64_t n, double s) {
  if (n <= 1) return 0;
  if (s <= 0.0) return NextBounded(n);
  // Rejection-inversion (Hörmann). H(x) is the integral of the unnormalized
  // density x^-s.
  const double nd = static_cast<double>(n);
  auto h = [s](double x) {
    if (s == 1.0) return std::log(x);
    return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto h_inv = [s](double y) {
    if (s == 1.0) return std::exp(y);
    return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double h_x1 = h(1.5) - 1.0;
  const double h_n = h(nd + 0.5);
  for (;;) {
    const double u = h_x1 + NextDouble() * (h_n - h_x1);
    const double x = h_inv(u);
    const uint64_t k = static_cast<uint64_t>(x + 0.5);
    const uint64_t clamped = k < 1 ? 1 : (k > n ? n : k);
    const double kd = static_cast<double>(clamped);
    if (u >= h(kd + 0.5) - std::pow(kd, -s)) {
      return clamped - 1;  // 0-based rank
    }
  }
}

int Rng::NextPoisson(double mean) {
  // Knuth's multiplication method; fine for the small means we use.
  const double l = std::exp(-mean);
  int k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= NextDouble();
  } while (p > l);
  return k - 1;
}

int PoissonOneAt(uint64_t stream, uint64_t index) {
  // Deterministic Poisson(1) via inverse-CDF on a hashed uniform. The CDF
  // of Poisson(1) at k = 0..8 (k >= 9 has probability < 1e-6 and is folded
  // into the last bucket; the bias is far below bootstrap noise).
  static const double kCdf[] = {
      0.36787944117144233, 0.7357588823428847, 0.9196986029286058,
      0.9810118431238462,  0.9963401531726563, 0.9994058151824183,
      0.9999167588507119,  0.9999897508033253, 0.9999988747974020,
  };
  // k is the number of CDF entries u has reached: kCdf is increasing, so
  // this is the first k with u < kCdf[k] (9 past the last), without a
  // data-dependent branch.
  const uint64_t h = Mix64(HashCombine(stream, index));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  int k = 0;
  for (double c : kCdf) k += u >= c;
  return k;
}

}  // namespace iolap
