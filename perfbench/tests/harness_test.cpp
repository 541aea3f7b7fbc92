// Self-tests of the benchmark's own measurement helpers (harness.hpp).
// Build and run with: python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>

#include "harness.hpp"

namespace perfbench {
namespace {

using ss::runtime::Collector;
using ss::runtime::OperatorLogic;
using ss::runtime::Tuple;

TEST(Percentile, TenSamplesBeyondRule) {
  // p99 needs n >= 1000, p90 needs n >= 100.
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_FALSE(percentile_supported(99, 0.9));
  EXPECT_TRUE(percentile_supported(100, 0.9));
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_FALSE(percentile_supported(0, 0.5));
}

TEST(Percentile, NearestRankValues) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
  EXPECT_DOUBLE_EQ(s.p90, 900.0);
  EXPECT_DOUBLE_EQ(s.p99, 990.0);  // exactly 10 samples (991..1000) beyond
  EXPECT_TRUE(s.p99_ok);
  v.pop_back();
  EXPECT_FALSE(summarize(v).p99_ok);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(Schedule, DueTimesFollowTheRate) {
  const OpenLoopSchedule s({{1000.0, 10}, {2000.0, 10}});
  EXPECT_EQ(s.total(), 20);
  EXPECT_DOUBLE_EQ(s.offset(0), 0.0);
  EXPECT_DOUBLE_EQ(s.offset(5), 0.005);
  EXPECT_DOUBLE_EQ(s.offset(10), 0.010);   // second step starts where the first ended
  EXPECT_DOUBLE_EQ(s.offset(12), 0.011);
  EXPECT_EQ(s.step_of(9), 0u);
  EXPECT_EQ(s.step_of(10), 1u);
  EXPECT_DOUBLE_EQ(s.end_offset(), 0.015);
  EXPECT_LT(OpenLoopSchedule::closed(5).offset(3), 0.0);
}

TEST(Schedule, LatenessCountsFromDueNotFromThePreviousCall) {
  // Items due every 1 ms; the generator stalls 5 ms before item 0 and then
  // produces back to back.  Every later item is late by its own distance
  // to its due time, not by the gap since the previous call.
  const OpenLoopSchedule s({{1000.0, 5}});
  const double t0 = 100.0;
  const double stall = 0.005;
  for (std::int64_t i = 0; i < 5; ++i) {
    const double called = t0 + stall + 1e-6 * static_cast<double>(i);
    EXPECT_NEAR(lateness(t0 + s.offset(i), called), stall - 0.001 * static_cast<double>(i) +
                                                        1e-6 * static_cast<double>(i),
                1e-12);
  }
  EXPECT_DOUBLE_EQ(lateness(10.0, 9.0), 0.0);  // early calls are not late
}

TEST(Sustainable, InterpolatesWhereTheScoreCrossesOne) {
  const std::vector<double> rates{100, 200, 400};
  // Score 0.5 at 200, 2.0 at 400: log-midpoint crossing at ~283.
  EXPECT_NEAR(sustainable_rate(rates, {0.1, 0.5, 2.0}), std::sqrt(200.0 * 400.0), 1e-6);
  // One spike between passing steps is skipped; two failures end the walk.
  EXPECT_NEAR(sustainable_rate({100, 200, 400, 800}, {0.5, 3.0, 0.5, 2.0}),
              std::sqrt(400.0 * 800.0), 1e-6);
  EXPECT_DOUBLE_EQ(sustainable_rate({100, 200, 400}, {0.5, 3.0, 3.0}),
                   sustainable_rate({100, 200}, {0.5, 3.0}));
  EXPECT_DOUBLE_EQ(sustainable_rate(rates, {0.1, 0.2, 0.3}), 400.0);  // ladder ceiling
  EXPECT_DOUBLE_EQ(sustainable_rate(rates, {4.0, 5.0}), 25.0);        // fails from the start
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_GT(sustainable_rate(rates, {0.5, inf}), 100.0);  // stream cut off mid-step
  EXPECT_LT(sustainable_rate(rates, {0.5, inf}), 200.0);
}

class Identity final : public OperatorLogic {
 public:
  void process(const Tuple& item, ss::OpIndex, Collector& out) override { out.emit(item); }
  [[nodiscard]] std::unique_ptr<OperatorLogic> clone() const override {
    return std::make_unique<Identity>();
  }
};

class Discard final : public Collector {
 public:
  void emit(const Tuple&) override { ++emitted; }
  void emit_to(ss::OpIndex, const Tuple&) override { ++emitted; }
  int emitted = 0;
};

TEST(SinkWrapper, RecordsEachItemExactlyOnce) {
  auto log = std::make_shared<DeliveryLog>(16);
  RecordingLogic sink(std::make_unique<Identity>(), log);
  auto replica = sink.clone();  // a replica records into its own buffer
  Discard out;
  for (std::int64_t i = 0; i < 100; ++i) {
    Tuple t;
    t.id = i;
    t.f[kDueField] = now_s();
    (i % 2 == 0 ? static_cast<OperatorLogic&>(sink) : *replica).process(t, 0, out);
  }
  EXPECT_EQ(out.emitted, 100);
  EXPECT_EQ(log->merged().size(), 100u);
  const auto counts = log->counts(100);
  for (auto c : counts) EXPECT_EQ(c, 1u);
  for (const auto& r : log->merged()) EXPECT_GE(r.latency_s, 0.0f);
}

TEST(SinkWrapper, ConcurrentReplicasDoNotLoseRecords) {
  auto log = std::make_shared<DeliveryLog>();
  RecordingLogic a(std::make_unique<Identity>(), log);
  auto b = a.clone();
  std::thread other([&] {
    Discard out;
    for (std::int64_t i = 1; i < 20000; i += 2) {
      Tuple t;
      t.id = i;
      b->process(t, 0, out);
    }
  });
  Discard out;
  for (std::int64_t i = 0; i < 20000; i += 2) {
    Tuple t;
    t.id = i;
    a.process(t, 0, out);
  }
  other.join();
  const auto counts = log->counts(20000);
  for (auto c : counts) ASSERT_EQ(c, 1u);
}

}  // namespace
}  // namespace perfbench
