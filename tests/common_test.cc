// Unit tests for src/common: Status/Result, hashing, RNG, thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace iolap {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad batch size");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad batch size");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad batch size");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status UseReturnIfError(int x) {
  IOLAP_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UseReturnIfError(1).ok());
  EXPECT_EQ(UseReturnIfError(-1).code(), StatusCode::kOutOfRange);
}

Result<int> DoubleIfPositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return 2 * x;
}

Result<int> UseAssignOrReturn(int x) {
  IOLAP_ASSIGN_OR_RETURN(int doubled, DoubleIfPositive(x));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = UseAssignOrReturn(10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 21);
  EXPECT_FALSE(UseAssignOrReturn(0).ok());
}

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(HashTest, HashBytesDiffersOnContent) {
  EXPECT_NE(HashBytes("abc"), HashBytes("abd"));
  EXPECT_EQ(HashBytes("abc"), HashBytes("abc"));
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  EXPECT_NE(a.NextUint64(), c.NextUint64());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundZeroAndOneReturnZero) {
  // Regression: NextBounded(0) computed `-0 % 0` (division by zero, UB).
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextBounded(0), 0u);
    EXPECT_EQ(rng.NextBounded(1), 0u);
  }
}

TEST(RngTest, ForLaneIsDeterministicAndDecorrelated) {
  // Same (seed, lane) → identical stream; different lanes → distinct
  // streams; and lane 0 is not the plain Rng(seed) stream (the lane index
  // is mixed into the seed, not appended to it).
  Rng a = Rng::ForLane(7, 0), b = Rng::ForLane(7, 0);
  Rng other_lane = Rng::ForLane(7, 1);
  Rng other_seed = Rng::ForLane(8, 0);
  const uint64_t first = a.NextUint64();
  EXPECT_EQ(first, b.NextUint64());
  EXPECT_NE(first, other_lane.NextUint64());
  EXPECT_NE(first, other_seed.NextUint64());
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(3);
  double sum = 0, sumsq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, PoissonMeanOne) {
  Rng rng(4);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.NextPoisson(1.0);
  EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(RngTest, ZipfSkewsTowardSmallRanks) {
  Rng rng(5);
  int low = 0, high = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t z = rng.NextZipf(1000, 1.1);
    EXPECT_LT(z, 1000u);
    if (z < 10) ++low;
    if (z >= 500) ++high;
  }
  EXPECT_GT(low, high);
}

TEST(RngTest, ZipfZeroExponentIsUniformish) {
  Rng rng(6);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.NextZipf(4, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(PoissonOneAtTest, DeterministicPerKey) {
  EXPECT_EQ(PoissonOneAt(1, 2), PoissonOneAt(1, 2));
}

TEST(PoissonOneAtTest, MeanOneAcrossIndices) {
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += PoissonOneAt(42, i);
  EXPECT_NEAR(sum / n, 1.0, 0.02);
}

TEST(PoissonOneAtTest, VarianceOneAcrossIndices) {
  double sum = 0, sumsq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const int k = PoissonOneAt(43, i);
    sum += k;
    sumsq += static_cast<double>(k) * k;
  }
  const double mean = sum / n;
  EXPECT_NEAR(sumsq / n - mean * mean, 1.0, 0.03);
}

TEST(ThreadPoolTest, ParallelRangesCoversRangeWithStableLanes) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1001);
  std::atomic<size_t> max_lane{0};
  pool.ParallelRanges(hits.size(), [&](size_t begin, size_t end, size_t lane) {
    size_t seen = max_lane.load();
    while (lane > seen && !max_lane.compare_exchange_weak(seen, lane)) {
    }
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_LT(max_lane.load(), pool.num_lanes());
}

TEST(ThreadPoolTest, ParallelRangesInlineUsesLaneZero) {
  ThreadPool pool(0);
  ASSERT_EQ(pool.num_lanes(), 1u);
  size_t calls = 0;
  pool.ParallelRanges(64, [&](size_t begin, size_t end, size_t lane) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 64u);
    EXPECT_EQ(lane, 0u);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPoolTest, ParallelRangesRethrowsFirstTaskException) {
  // A throwing range surfaces on the calling thread instead of escaping
  // WorkerLoop and std::terminate-ing the process.
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelRanges(100,
                                   [&](size_t begin, size_t end, size_t) {
                                     if (begin <= 37 && 37 < end) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
               std::runtime_error);
  // The pool is still usable afterwards, and the error does not leak into
  // the next call.
  std::atomic<size_t> covered{0};
  EXPECT_NO_THROW(pool.ParallelRanges(
      10, [&](size_t begin, size_t end, size_t) {
        covered.fetch_add(end - begin);
      }));
  EXPECT_EQ(covered.load(), 10u);
}

TEST(ThreadPoolTest, ConcurrentParallelRangesCallsAreIndependent) {
  // Each call counts down its own latch, so concurrent callers do not wait
  // on each other's ranges, and no call returns before its own ranges have
  // finished.
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr size_t kPerCall = 500;
  std::vector<std::atomic<int>> counts(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelRanges(kPerCall, [&, c](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i) counts[c].fetch_add(1);
      });
      EXPECT_EQ(counts[c].load(), static_cast<int>(kPerCall));
    });
  }
  for (auto& t : callers) t.join();
}

TEST(TimerTest, CpuTimerAdvancesWithWork) {
  CpuTimer timer;
  volatile double sink = 0;
  // Plain assignment: compound ops on volatile are deprecated in C++20.
  for (int i = 0; i < 200000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  timer.Restart();
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer timer;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMicros(), 0);
}

}  // namespace
}  // namespace iolap
