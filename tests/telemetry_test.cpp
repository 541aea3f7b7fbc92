// Tests of the runtime telemetry layer: TelemetryBoard gating and the
// blocked-charge context, measured-rho vs Algorithm 1's predicted rho on a
// live bottlenecked run, busy metering of a fused group's end-of-stream
// cascade, queue high-water marks under backpressure, the
// trace ring round-trip to Chrome trace-event JSON, and the JSONL metrics
// exporter.
#include "runtime/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/steady_state.hpp"
#include "runtime/engine.hpp"
#include "runtime/trace.hpp"

namespace ss::runtime {
namespace {

using std::chrono::duration;

TEST(TelemetryBoard, GateStartsClosedAndAccumulates) {
  TelemetryBoard board(2);
  EXPECT_FALSE(board.enabled());
  board.set_enabled(true);
  EXPECT_TRUE(board.enabled());
  board.add_busy(0, 100);
  board.add_busy(0, 50);
  board.add_blocked(1, 7);
  EXPECT_EQ(board.busy_ns(0), 150u);
  EXPECT_EQ(board.blocked_ns(0), 0u);
  EXPECT_EQ(board.blocked_ns(1), 7u);
  EXPECT_EQ(board.size(), 2u);
}

TEST(ScopedActorContext, ChargesTheCurrentOpAndScopesNest) {
  TelemetryBoard board(2);
  board.set_enabled(true);
  EXPECT_FALSE(blocked_metering_enabled());  // no context pinned yet
  {
    ScopedActorContext outer(board, 0);
    EXPECT_TRUE(blocked_metering_enabled());
    charge_blocked(100);
    {
      // A meta-group actor runs one member inside another's dispatch: the
      // inner scope charges its own op and restores the outer on exit.
      ScopedActorContext inner(board, 1);
      charge_blocked(50);
      EXPECT_EQ(inner.blocked_ns(), 50u);
    }
    EXPECT_EQ(outer.blocked_ns(), 100u);  // inner charges are not the outer's
    charge_blocked(10);
    EXPECT_EQ(outer.blocked_ns(), 110u);
  }
  EXPECT_FALSE(blocked_metering_enabled());
  EXPECT_EQ(board.blocked_ns(0), 110u);
  EXPECT_EQ(board.blocked_ns(1), 50u);
}

TEST(ScopedActorContext, DisabledBoardReportsMeteringOff) {
  TelemetryBoard board(1);  // gate closed
  ScopedActorContext ctx(board, 0);
  EXPECT_FALSE(blocked_metering_enabled());
}

// ------------------------------------------------------------ live engine

/// Two-operator pipeline: source paced at 1/source_s items/s feeding a
/// worker whose service time is worker_s — the Figure-9 shape reduced to
/// its essence (one saturating stage behind a paced source).
Topology pipeline(double source_s, double worker_s) {
  Topology::Builder b;
  b.add_operator("src", source_s);
  b.add_operator("work", worker_s);
  b.add_edge(0, 1);
  return b.build();
}

/// src at ~2000/s, worker at 400 us/item -> predicted rho = 0.8, checked
/// against the measured busy fraction on either backend.
void expect_measured_rho_matches_algorithm1(SchedulerKind kind) {
  const Topology t = pipeline(5e-4, 4e-4);
  const SteadyStateResult predicted = steady_state(t);
  ASSERT_NEAR(predicted.rates[1].utilization, 0.8, 1e-9);

  EngineConfig config;
  config.scheduler = kind;
  config.workers = 4;
  Engine engine(t, Deployment{}, synthetic_factory(), config);
  const RunStats stats = engine.run_for(duration<double>(1.5));

  ASSERT_TRUE(stats.has_telemetry);
  // Acceptance bound: measured rho within 10% (relative) of Alg. 1 for the
  // bottleneck stage; the source is saturated (its pacing wait IS its
  // service), so its busy fraction sits near 1.
  EXPECT_NEAR(stats.ops[1].busy_fraction, 0.8, 0.08);
  EXPECT_GT(stats.ops[0].busy_fraction, 0.8);
  // No backpressure at rho 0.8: blocked stays marginal.
  EXPECT_LT(stats.ops[0].blocked_fraction, 0.10);
  // Busy + blocked never exceeds the window (small clock-edge slack).
  for (const OperatorStats& op : stats.ops) {
    EXPECT_LE(op.busy_fraction + op.blocked_fraction, 1.05);
  }
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(MeasuredUtilization, AgreesWithAlgorithm1OnThePooledEngine) {
  expect_measured_rho_matches_algorithm1(SchedulerKind::kPooled);
}

TEST(MeasuredUtilization, AgreesWithAlgorithm1OnTheThreadPerActorEngine) {
  expect_measured_rho_matches_algorithm1(SchedulerKind::kThreadPerActor);
}

/// Emits `count` default tuples as fast as the engine takes them.
class CountSource final : public SourceLogic {
 public:
  explicit CountSource(std::int64_t count) : count_(count) {}
  bool next(Tuple& out) override {
    if (next_ >= count_) return false;
    out = Tuple{};
    out.id = next_++;
    return true;
  }

 private:
  std::int64_t count_;
  std::int64_t next_ = 0;
};

/// A window that never closes early: holds every item and releases the
/// whole tail at end of stream.
class HoldUntilFinish final : public OperatorLogic {
 public:
  void process(const Tuple& item, OpIndex, Collector&) override { held_.push_back(item); }
  void on_finish(Collector& out) override {
    for (const Tuple& t : held_) out.emit(t);
  }
  std::unique_ptr<OperatorLogic> clone() const override {
    return std::make_unique<HoldUntilFinish>();
  }

 private:
  std::vector<Tuple> held_;
};

/// Spins for `service` per item: busy time with a hard lower bound.
class SpinService final : public OperatorLogic {
 public:
  explicit SpinService(std::chrono::microseconds service) : service_(service) {}
  void process(const Tuple& item, OpIndex, Collector& out) override {
    const auto until = std::chrono::steady_clock::now() + service_;
    while (std::chrono::steady_clock::now() < until) {
    }
    out.emit(item);
  }
  std::unique_ptr<OperatorLogic> clone() const override {
    return std::make_unique<SpinService>(service_);
  }

 private:
  std::chrono::microseconds service_;
};

TEST(MeasuredUtilization, FusedFinishCascadeIsMetered) {
  // src -> hold -> spin, with hold and spin fused into one actor.  Every
  // item reaches `spin` only through hold's end-of-stream flush, so spin's
  // whole service happens inside the finish cascade; it must be charged
  // like any other member service, on both backends.
  static constexpr std::int64_t kItems = 100;
  static constexpr auto kService = std::chrono::microseconds(200);
  Topology::Builder b;
  b.add_operator("src", 1e-6);
  b.add_operator("hold", 1e-6);
  b.add_operator("spin", 1e-6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Topology t = b.build();
  AppFactory factory;
  factory.source = [](OpIndex, const OperatorSpec&) {
    return std::make_unique<CountSource>(kItems);
  };
  factory.logic = [](OpIndex op, const OperatorSpec&) -> std::unique_ptr<OperatorLogic> {
    if (op == 1) return std::make_unique<HoldUntilFinish>();
    return std::make_unique<SpinService>(kService);
  };
  Deployment d;
  d.fusions.push_back(FusionSpec{{1, 2}, "fused"});
  for (const SchedulerKind kind : {SchedulerKind::kThreadPerActor, SchedulerKind::kPooled}) {
    EngineConfig config;
    config.scheduler = kind;
    config.workers = 2;
    Engine engine(t, d, factory, config);
    const RunStats stats = engine.run_until_complete(duration<double>(30.0));
    ASSERT_EQ(stats.ops[2].processed, static_cast<std::uint64_t>(kItems)) << to_string(kind);
    // Half the spun time: busy is read on the calibrated metering clock
    // (clock.hpp), not on the steady_clock the spin watches.  Unmetered,
    // the cascade charges nothing at all.
    const auto floor_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(kService).count() * kItems / 2);
    EXPECT_GE(engine.sample().busy_ns[2], floor_ns) << to_string(kind);
  }
}

TEST(MeasuredUtilization, BackpressureShowsUpAsBlockedTimeAndQueuePeaks) {
  // src generates ~20x faster than the worker drains: the worker's mailbox
  // fills to capacity and the source spends the window blocked in send.
  const Topology t = pipeline(5e-5, 1e-3);
  EngineConfig config;
  config.mailbox_capacity = 32;
  Engine engine(t, Deployment{}, synthetic_factory(), config);
  const RunStats stats = engine.run_for(duration<double>(1.2));

  ASSERT_TRUE(stats.has_telemetry);
  // The sender is charged the wait; its busy fraction stays pure service.
  EXPECT_GT(stats.ops[0].blocked_fraction, 0.5);
  EXPECT_LT(stats.ops[0].busy_fraction, 0.5);
  // The worker is the saturated stage.
  EXPECT_GT(stats.ops[1].busy_fraction, 0.7);
  // Its input queue hit (or neared) capacity inside the window.
  EXPECT_GE(stats.ops[1].queue_peak, 16u);
  EXPECT_LE(stats.ops[1].queue_peak, 32u);
}

TEST(MeasuredUtilization, RunWithoutMetricsStillFillsTheSteadyWindow) {
  // Telemetry is window-gated by default (no --metrics-out, not elastic):
  // run_for opens it after warmup, so the columns still fill.
  const Topology t = pipeline(1e-3, 2e-4);
  Engine engine(t, Deployment{}, synthetic_factory(), EngineConfig{});
  const RunStats stats = engine.run_for(duration<double>(0.8));
  ASSERT_TRUE(stats.has_telemetry);
  EXPECT_NEAR(stats.ops[1].busy_fraction, 0.2, 0.1);
}

// ------------------------------------------------------------------ trace

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Trace, RoundTripsSpansAndInstantsToChromeJson) {
  trace::Tracer& tracer = trace::Tracer::instance();
  ASSERT_TRUE(tracer.start());
  EXPECT_FALSE(tracer.start());  // the first starter owns the trace
  EXPECT_TRUE(trace::enabled());

  tracer.set_thread_name("main-test-thread");
  {
    trace::Span span("outer", "test");
    span.set_arg("n", 42);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  trace::instant("tick", "test", "value", -7);
  std::thread other([] {
    trace::Tracer::instance().set_thread_name("other-test-thread");
    trace::Span span("inner", "test");
  });
  other.join();

  const std::string path = "telemetry_test_trace.json";
  const std::size_t events = tracer.stop_and_flush(path);
  EXPECT_FALSE(trace::enabled());
  EXPECT_GE(events, 3u);
  EXPECT_EQ(tracer.dropped(), 0u);

  const std::string json = slurp(path);
  std::remove(path.c_str());
  // Structural skeleton of the trace-event format.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Thread metadata lanes.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("main-test-thread"), std::string::npos);
  EXPECT_NE(json.find("other-test-thread"), std::string::npos);
  // The complete span with its arg, the instant with its scope marker.
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"n\":42}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tick\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":-7"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  // Balanced braces — a cheap well-formedness proxy without a JSON parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(json.back(), '\n');
}

TEST(Trace, RecordingIsANoOpWhileDisarmed) {
  ASSERT_FALSE(trace::enabled());
  trace::instant("ignored", "test");
  { trace::Span span("also-ignored", "test"); }
  trace::Tracer& tracer = trace::Tracer::instance();
  ASSERT_TRUE(tracer.start());
  const std::string path = "telemetry_test_empty_trace.json";
  EXPECT_EQ(tracer.stop_and_flush(path), 0u);
  const std::string json = slurp(path);
  std::remove(path.c_str());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
}

TEST(Trace, UnwritablePathThrowsAndDisarms) {
  trace::Tracer& tracer = trace::Tracer::instance();
  ASSERT_TRUE(tracer.start());
  trace::instant("doomed", "test");
  EXPECT_THROW(tracer.stop_and_flush("/nonexistent-dir/trace.json"), Error);
  EXPECT_FALSE(trace::enabled());  // a failed flush never leaves it armed
}

// --------------------------------------------------------------- exporter

MetricsSample synthetic_sample(int tick) {
  MetricsSample s;
  s.counters.at_seconds = 0.1 * tick;
  s.counters.processed = {static_cast<std::uint64_t>(100 * tick),
                          static_cast<std::uint64_t>(60 * tick)};
  s.counters.emitted = s.counters.processed;
  s.counters.busy_ns = {static_cast<std::uint64_t>(50'000'000 * tick), 0};
  s.counters.blocked_ns = {0, 0};
  s.counters.queue_depth = {3, 0};
  s.counters.queue_peak = {9, 1};
  s.scheduler.steals = static_cast<std::uint64_t>(tick);
  s.epoch = 1;
  return s;
}

TEST(MetricsExporter, WritesOneJsonObjectPerLineAndAFinalSample) {
  const std::string path = "telemetry_test_metrics.jsonl";
  std::atomic<int> tick{0};
  {
    MetricsExporter exporter([&] { return synthetic_sample(++tick); },
                             {"src", "work"}, path, 0.05);
    exporter.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(180));
    exporter.stop();
    EXPECT_GE(exporter.lines_written(), 2u);  // periodic samples + final
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"ops\":["), std::string::npos);
    EXPECT_NE(line.find("\"name\":\"src\""), std::string::npos);
    EXPECT_NE(line.find("\"sched\":{"), std::string::npos);
    EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
              std::count(line.begin(), line.end(), '}'));
  }
  in.close();
  std::remove(path.c_str());
  EXPECT_GE(lines, 2u);
}

TEST(MetricsExporter, RatesAreDeltasOverThePeriod) {
  const std::string path = "telemetry_test_metrics_rates.jsonl";
  std::atomic<int> tick{0};
  {
    MetricsExporter exporter([&] { return synthetic_sample(++tick); },
                             {"src", "work"}, path, 0.04);
    exporter.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    exporter.stop();
  }
  // Every sample advances processed by 100 and time by 0.1 s: once a
  // previous sample exists the delta rate is 1000/s and rho 0.5.
  std::ifstream in(path);
  std::string line, second;
  std::getline(in, line);
  ASSERT_TRUE(static_cast<bool>(std::getline(in, second)));
  in.close();
  std::remove(path.c_str());
  EXPECT_NE(second.find("\"proc_rate\":1000"), std::string::npos);
  EXPECT_NE(second.find("\"rho\":0.5"), std::string::npos);
}

TEST(MetricsExporter, UnwritablePathThrowsBeforeTheRunStarts) {
  EXPECT_THROW(MetricsExporter([] { return MetricsSample{}; }, {},
                               "/nonexistent-dir/metrics.jsonl", 0.5),
               Error);
}

TEST(MetricsExporter, EngineRejectsUnwritableMetricsPathBeforeStarting) {
  const Topology t = pipeline(1e-3, 1e-4);
  EngineConfig config;
  config.metrics_path = "/nonexistent-dir/metrics.jsonl";
  Engine engine(t, Deployment{}, synthetic_factory(), config);
  EXPECT_THROW(engine.run_for(duration<double>(0.2)), Error);
}

}  // namespace
}  // namespace ss::runtime
