// Unit tests for src/common: Status/Result, strings, Histogram, Rng/Zipf,
// SimClock, CostMeter, WorkerPool.

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/cost_model.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/worker_pool.h"

namespace scrub {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = InvalidArgument("bad query");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad query");
  EXPECT_EQ(s.ToString(), "invalid_argument: bad query");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kResourceExhausted, StatusCode::kUnimplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  const std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, CaseMapping) {
  EXPECT_EQ(AsciiToLower("SeLeCt"), "select");
  EXPECT_EQ(AsciiToUpper("group by"), "GROUP BY");
  EXPECT_TRUE(EqualsIgnoreCase("WINDOW", "window"));
  EXPECT_FALSE(EqualsIgnoreCase("WINDOW", "windows"));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x \t\n"), "x");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringsTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(i);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.mean(), 50.5, 0.001);
  // Log-bucketed percentiles: within one bucket width (~12.5% relative).
  EXPECT_NEAR(static_cast<double>(h.p50()), 50, 8);
  EXPECT_NEAR(static_cast<double>(h.p99()), 99, 14);
}

TEST(HistogramTest, QuantileAccuracyIsBounded) {
  Histogram h;
  Rng rng(1);
  std::vector<int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBelow(1'000'000)) + 1;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.99}) {
    const int64_t exact = values[static_cast<size_t>(q * values.size())];
    const int64_t approx = h.ValueAtQuantile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                0.15 * static_cast<double>(exact))
        << "q=" << q;
  }
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
  Histogram a;
  Histogram b;
  Histogram combined;
  for (int i = 0; i < 1000; ++i) {
    a.Record(i);
    combined.Record(i);
  }
  for (int i = 1000; i < 3000; ++i) {
    b.Record(i);
    combined.Record(i);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  EXPECT_EQ(a.p95(), combined.p95());
}

TEST(HistogramTest, EmptyAndReset) {
  Histogram h;
  EXPECT_EQ(h.p99(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-17);
  EXPECT_EQ(h.min(), 0);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NextBelowCoversRangeWithoutBias) {
  Rng rng(4);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextBelow(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(5);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(250.0);
  }
  EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(6);
  double sum = 0;
  double sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(ZipfTest, HeavyHeadLightTail) {
  ZipfGenerator zipf(1000, 1.1);
  Rng rng(7);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    ++counts[zipf.Next(rng)];
  }
  // Rank 0 dominates rank 100 which dominates rank 900.
  EXPECT_GT(counts[0], counts[100] * 5);
  EXPECT_GT(counts[0], 1000);
}

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.AdvanceTo(50);  // backwards: ignored
  EXPECT_EQ(clock.Now(), 100);
  clock.AdvanceTo(200);
  EXPECT_EQ(clock.Now(), 200);
  clock.AdvanceBy(5);
  EXPECT_EQ(clock.Now(), 205);
}

TEST(CostMeterTest, FractionSplitsAppAndScrub) {
  CostMeter meter;
  EXPECT_EQ(meter.ScrubCpuFraction(), 0.0);
  meter.ChargeApp(900);
  meter.ChargeScrub(100);
  EXPECT_DOUBLE_EQ(meter.ScrubCpuFraction(), 0.1);
  meter.Reset();
  EXPECT_EQ(meter.total_ns(), 0);
}

// ---------------------------------------------------------------------------
// WorkerPool.

TEST(WorkerPoolTest, InlineModeRunsEverythingOnCaller) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  std::vector<int> out(100, 0);
  pool.ParallelFor(out.size(),
                   [&](size_t i) { out[i] = static_cast<int>(i) * 2; });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 2);
  }
  EXPECT_EQ(pool.regions(), 1u);
}

TEST(WorkerPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    WorkerPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1);
    }
  }
}

TEST(WorkerPoolTest, DisjointSlotResultsMatchInlineForAnyWidth) {
  // The placement contract: index i writes slot i only, so for any thread
  // count the result vector is identical to the inline run.
  auto run = [](size_t threads) {
    WorkerPool pool(threads);
    std::vector<uint64_t> out(257, 0);
    pool.ParallelFor(out.size(), [&](size_t i) {
      uint64_t v = 0x9E3779B97F4A7C15ULL * (i + 1);
      v ^= v >> 29;
      out[i] = v;
    });
    return out;
  };
  const std::vector<uint64_t> inline_result = run(0);
  EXPECT_EQ(run(1), inline_result);
  EXPECT_EQ(run(3), inline_result);
  EXPECT_EQ(run(8), inline_result);
}

TEST(WorkerPoolTest, ReusableAcrossManyRegions) {
  WorkerPool pool(2);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(10, [&](size_t i) { total.fetch_add(i); });
  }
  EXPECT_EQ(total.load(), 50u * 45u);
  EXPECT_EQ(pool.regions(), 50u);
}

TEST(WorkerPoolTest, BoundedQueueBackpressuresSubmit) {
  // Capacity-1 queues: Submit must block (not drop, not grow) while the
  // worker is busy. 200 submits through a 1-slot queue all execute.
  WorkerPool pool(1, /*queue_capacity=*/1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit(0, [&] { ran.fetch_add(1); });
  }
  // Synchronize via a region barrier (ParallelFor joins after queued work).
  pool.ParallelFor(1, [](size_t) {});
  EXPECT_EQ(ran.load(), 200);
}

TEST(WorkerPoolTest, MetersCriticalPathAndBusyTime) {
  WorkerPool pool(2);
  std::atomic<uint64_t> sink{0};
  pool.ParallelFor(8, [&](size_t) {
    uint64_t x = 0;
    for (int i = 0; i < 200000; ++i) {
      x += static_cast<uint64_t>(i);
    }
    sink.fetch_add(x);
  });
  // Two workers split the region: the critical path is at least half the
  // busy time (up to imbalance) and never more than all of it.
  EXPECT_GT(pool.busy_ns(), 0u);
  EXPECT_GE(pool.busy_ns(), pool.critical_ns());
  EXPECT_GE(pool.critical_ns(), pool.busy_ns() / 2 / 2);  // generous slack
}

}  // namespace
}  // namespace scrub
