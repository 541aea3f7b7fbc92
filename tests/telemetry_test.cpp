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

/// Waits until the exporter thread has called the sampler `n` times (each
/// call bumps `tick`); false after a deadline no healthy run reaches.
bool wait_for_ticks(const std::atomic<int>& tick, int n) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (tick.load() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(MetricsExporter, WritesOneJsonObjectPerLineAndAFinalSample) {
  const std::string path = "telemetry_test_metrics.jsonl";
  std::atomic<int> tick{0};
  {
    MetricsExporter exporter([&] { return synthetic_sample(++tick); },
                             {"src", "work"}, path, 0.05);
    exporter.start();
    ASSERT_TRUE(wait_for_ticks(tick, 2));
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
    ASSERT_TRUE(wait_for_ticks(tick, 2));
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


// ------------------------------------------------------------ metric table

LatencySummary summary_of(std::uint64_t count, double p50, double p95, double p99) {
  LatencySummary l;
  l.count = count;
  l.mean = p50;
  l.p50 = p50;
  l.p95 = p95;
  l.p99 = p99;
  return l;
}

/// Every exported value distinct and non-zero, and operator 0 ("src")
/// different from operator 1 ("work") everywhere: a row that reads the
/// wrong field or the wrong operator renders some other number.
MetricsSample golden_sample() {
  MetricsSample s;
  s.tenant = "blue";
  s.epoch = 4;
  s.dropped = 6;
  s.counters.at_seconds = 3.0;
  s.counters.processed = {2002, 1001};
  s.counters.emitted = {1902, 803};
  s.counters.busy_ns = {1'100'000'000, 1'500'000'000};
  s.counters.blocked_ns = {50'000'000, 250'000'000};
  s.counters.queue_depth = {19, 7};
  s.counters.queue_peak = {29, 13};
  s.profile.resize(2);
  s.profile[0] = {111.0, 112.0, 0.11, 0.12, 0.13, 14};
  s.profile[1].estimated_rate = 777.0;
  s.profile[1].busy_rate = 555.0;
  s.profile[1].cv2 = 0.45;
  s.profile[1].queue_full_fraction = 0.35;
  s.profile[1].confidence = 0.85;
  s.profile[1].samples = 321;
  s.latency.per_op = {summary_of(55, 0.0011, 0.0012, 0.0013),
                      summary_of(99, 0.0021, 0.0034, 0.0047)};
  s.latency.end_to_end = summary_of(4321, 0.0123, 0.0234, 0.0345);
  s.predicted.valid = true;
  s.predicted.op_response = {0.0007, 0.0016};
  s.predicted.op_p99 = {0.0009, 0.0058};
  s.predicted.mean = 0.0144;
  s.predicted.p50 = 0.0111;
  s.predicted.p95 = 0.0222;
  s.predicted.p99 = 0.0333;
  s.checkpoints_written = 8;
  s.last_epoch_persisted = 9;
  s.recovered_from_epoch = 5;
  s.bottlenecks.push_back({1, 0.65, 0.9});
  SchedulerCounters& c = s.scheduler;
  c.steals = 31;
  c.parks = 41;
  c.wakeups = 37;
  c.batches = 53;
  c.batch_messages = 159;
  c.max_batch = 17;
  c.ring_enqueues = 211;
  c.ring_spills = 23;
  c.pushes = 101;
  c.local_pops = 67;
  c.discarded = 3;
  return s;
}

/// The sample two seconds earlier: "work" processed 500 (250/s), emitted
/// 400 (200/s), was busy 0.6 s (rho 0.3) and blocked 0.08 s (0.04).
MetricsSample golden_prev() {
  MetricsSample p;
  p.counters.at_seconds = 1.0;
  p.counters.processed = {1002, 501};
  p.counters.emitted = {902, 403};
  p.counters.busy_ns = {100'000'000, 900'000'000};
  p.counters.blocked_ns = {10'000'000, 170'000'000};
  return p;
}

/// The schema itself: each row's JSON key, Prometheus family (empty: JSON
/// only) and the golden sample's value in each sink (ms in JSON, seconds
/// in Prometheus).  Per-op and bottleneck rows show operator "work".
struct GoldenRow {
  MetricScope scope;
  const char* key;
  const char* family;
  const char* json;
  const char* prom;
};

constexpr GoldenRow kGolden[] = {
    {MetricScope::kTop, "t", "ss_run_seconds", "3", "3"},
    {MetricScope::kTop, "epoch", "ss_epoch", "4", "4"},
    {MetricScope::kTop, "dropped", "ss_dropped_total", "6", "6"},
    {MetricScope::kOp, "processed", "ss_op_processed_total", "1001", "1001"},
    {MetricScope::kOp, "emitted", "ss_op_emitted_total", "803", "803"},
    {MetricScope::kOp, "proc_rate", "", "250", ""},
    {MetricScope::kOp, "emit_rate", "", "200", ""},
    {MetricScope::kOp, "rho", "", "0.3", ""},
    {MetricScope::kOp, "blocked", "", "0.04", ""},
    {MetricScope::kOp, "busy_s", "ss_op_busy_seconds_total", "1.5", "1.5"},
    {MetricScope::kOp, "blocked_s", "ss_op_blocked_seconds_total", "0.25", "0.25"},
    {MetricScope::kOp, "queue", "ss_op_queue_depth", "7", "7"},
    {MetricScope::kOp, "queue_peak", "ss_op_queue_peak", "13", "13"},
    {MetricScope::kOp, "est_rate", "ss_op_estimated_service_rate", "777", "777"},
    {MetricScope::kOp, "busy_rate", "ss_op_busy_service_rate", "555", "555"},
    {MetricScope::kOp, "confidence", "ss_op_profile_confidence", "0.85", "0.85"},
    {MetricScope::kOp, "est_samples", "ss_op_profile_samples", "321", "321"},
    {MetricScope::kOp, "cv2", "ss_op_service_cv2", "0.45", "0.45"},
    {MetricScope::kOp, "queue_full", "ss_op_queue_full_fraction", "0.35", "0.35"},
    {MetricScope::kOp, "p50_ms", "ss_op_latency_seconds", "2.1", "0.0021"},
    {MetricScope::kOp, "p95_ms", "ss_op_latency_seconds", "3.4", "0.0034"},
    {MetricScope::kOp, "p99_ms", "ss_op_latency_seconds", "4.7", "0.0047"},
    {MetricScope::kOp, "pred_ms", "ss_op_predicted_response_seconds", "1.6", "0.0016"},
    {MetricScope::kOp, "pred_p99_ms", "ss_op_predicted_p99_seconds", "5.8", "0.0058"},
    {MetricScope::kE2e, "count", "ss_e2e_samples_total", "4321", "4321"},
    {MetricScope::kE2e, "p50_ms", "ss_e2e_latency_seconds", "12.3", "0.0123"},
    {MetricScope::kE2e, "p95_ms", "ss_e2e_latency_seconds", "23.4", "0.0234"},
    {MetricScope::kE2e, "p99_ms", "ss_e2e_latency_seconds", "34.5", "0.0345"},
    {MetricScope::kE2e, "pred_p50_ms", "ss_e2e_predicted_latency_seconds", "11.1", "0.0111"},
    {MetricScope::kE2e, "pred_p95_ms", "ss_e2e_predicted_latency_seconds", "22.2", "0.0222"},
    {MetricScope::kE2e, "pred_p99_ms", "ss_e2e_predicted_latency_seconds", "33.3", "0.0333"},
    {MetricScope::kE2e, "pred_mean_ms", "ss_e2e_predicted_mean_seconds", "14.4", "0.0144"},
    {MetricScope::kCkpt, "written", "ss_checkpoints_written_total", "8", "8"},
    {MetricScope::kCkpt, "last_epoch", "ss_checkpoint_last_epoch", "9", "9"},
    {MetricScope::kCkpt, "recovered_from", "ss_checkpoint_recovered_from_epoch", "5", "5"},
    {MetricScope::kBottleneck, "blame_s", "ss_op_bottleneck_blame_seconds", "0.65", "0.65"},
    {MetricScope::kBottleneck, "share", "ss_op_bottleneck_share", "0.9", "0.9"},
    {MetricScope::kSched, "steals", "ss_sched_steals_total", "31", "31"},
    {MetricScope::kSched, "parks", "ss_sched_parks_total", "41", "41"},
    {MetricScope::kSched, "wakeups", "ss_sched_wakeups_total", "37", "37"},
    {MetricScope::kSched, "batches", "ss_sched_batches_total", "53", "53"},
    {MetricScope::kSched, "batch_messages", "ss_sched_batch_messages_total", "159", "159"},
    {MetricScope::kSched, "max_batch", "ss_sched_max_batch", "17", "17"},
    {MetricScope::kSched, "ring_enqueues", "ss_sched_ring_enqueues_total", "211", "211"},
    {MetricScope::kSched, "ring_spills", "ss_sched_ring_spills_total", "23", "23"},
    {MetricScope::kSched, "pushes", "ss_sched_pushes_total", "101", "101"},
    {MetricScope::kSched, "local_pops", "ss_sched_local_pops_total", "67", "67"},
    {MetricScope::kSched, "discarded", "ss_sched_discarded_total", "3", "3"},
};

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

/// The JSON text a row of `scope` lives in: operator `op`'s (or its
/// bottleneck entry's) object, a nested block, or the whole line for the
/// top-level rows.  Empty when the object is missing.
std::string scope_text(const std::string& json, MetricScope scope, const std::string& op) {
  std::string anchor;
  switch (scope) {
    case MetricScope::kTop: return json;
    case MetricScope::kOp: anchor = "{\"name\":\"" + op + "\""; break;
    case MetricScope::kBottleneck: anchor = "{\"op\":\"" + op + "\""; break;
    case MetricScope::kE2e: anchor = "\"e2e\":{"; break;
    case MetricScope::kCkpt: anchor = "\"ckpt\":{"; break;
    case MetricScope::kSched: anchor = "\"sched\":{"; break;
  }
  const std::size_t begin = json.find(anchor);
  if (begin == std::string::npos) return {};
  return json.substr(begin, json.find('}', begin) + 1 - begin);
}

/// `{tenant="..",op="..",quantile=".."}` over the non-empty parts.
std::string prom_series(const MetricRow& row, const std::string& tenant,
                        const std::string& op) {
  std::string labels;
  const auto label = [&labels](const char* name, const std::string& value) {
    if (value.empty()) return;
    labels += (labels.empty() ? "{" : ",") + std::string(name) + "=\"" + value + "\"";
  };
  label("tenant", tenant);
  label("op", op);
  label("quantile", row.quantile);
  return row.family + (labels.empty() ? " " : labels + "} ");
}

bool has_line_starting(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0 || text.find("\n" + prefix) != std::string::npos;
}

TEST(MetricTable, GoldenSchemaRendersEveryRowOnceWithItsValueInBothSinks) {
  const MetricsSample s = golden_sample();
  const MetricsSample prev = golden_prev();
  const std::vector<std::string> names = {"src", "work"};
  const std::string json = render_json(s, names, &prev);
  const std::string prom = render_prometheus(s, names);
  ASSERT_EQ(std::size(kGolden), metric_rows().size()) << "golden table out of date";
  for (const MetricRow& row : metric_rows()) {
    SCOPED_TRACE("row " + row.key + " / " + row.family);
    const GoldenRow* golden = nullptr;
    for (const GoldenRow& g : kGolden) {
      if (g.scope == row.scope && row.key == g.key) golden = &g;
    }
    ASSERT_NE(golden, nullptr) << "row missing from the golden schema";
    EXPECT_EQ(row.family, golden->family);
    const bool per_op = row.scope == MetricScope::kOp || row.scope == MetricScope::kBottleneck;
    const std::size_t entry = row.scope == MetricScope::kOp ? 1 : 0;  // "work"
    ASSERT_TRUE(row.present({s, &prev, entry})) << "the golden sample must fill every row";

    const std::string text = scope_text(json, row.scope, "work");
    const std::string key = "\"" + row.key + "\":";
    EXPECT_EQ(count_of(text, key), 1u) << text;
    const std::string pair = key + golden->json;
    const std::size_t at = text.find(pair);
    ASSERT_NE(at, std::string::npos) << pair << " not in " << text;
    EXPECT_TRUE(text[at + pair.size()] == ',' || text[at + pair.size()] == '}') << text;

    if (row.family.empty()) {
      EXPECT_TRUE(row.present({s, &prev, entry}) && !row.present({s, nullptr, entry}))
          << "JSON-only rows are the windowed ones";
      continue;
    }
    EXPECT_EQ(count_of(prom, "# TYPE " + row.family + " "), 1u);
    EXPECT_EQ(count_of(prom, "# HELP " + row.family + " "), 1u);
    const std::string series = prom_series(row, "blue", per_op ? "work" : "") + golden->prom;
    EXPECT_TRUE(has_line_starting(prom, series + "\n")) << series << "\n" << prom;
  }
  // The op and bottleneck lists name operators, never index them.
  EXPECT_NE(json.find("\"bottlenecks\":[{\"op\":\"work\""), std::string::npos) << json;
  EXPECT_NE(json.find("{\"tenant\":\"blue\""), std::string::npos) << json;
}

TEST(MetricTable, RowsThePresenceRuleRejectsAppearInNoSink) {
  // A telemetry-free, unwindowed, untagged sample: no busy/blocked columns,
  // "src" has no estimate and no latency, "work" an estimate without cv2,
  // no prediction, no checkpoint, no bottleneck, no end-to-end samples.
  MetricsSample s;
  s.counters.at_seconds = 1.0;
  s.counters.processed = {10, 20};
  s.counters.emitted = {10, 20};
  s.counters.queue_depth = {1, 2};
  s.counters.queue_peak = {3, 4};
  s.profile.resize(2);
  s.profile[1].estimated_rate = 50.0;
  s.latency.per_op = {LatencySummary{}, summary_of(3, 0.001, 0.002, 0.003)};
  const std::vector<std::string> names = {"src", "work"};
  const std::string json = render_json(s, names);
  const std::string prom = render_prometheus(s, names);

  std::vector<std::string> absent;
  std::vector<std::string> typed;
  for (const MetricRow& row : metric_rows()) {
    const bool per_op = row.scope == MetricScope::kOp || row.scope == MetricScope::kBottleneck;
    const std::size_t entries = row.scope == MetricScope::kOp           ? names.size()
                                : row.scope == MetricScope::kBottleneck ? s.bottlenecks.size()
                                                                        : 1;
    for (std::size_t i = 0; i < entries; ++i) {
      const std::string op = per_op ? names[i] : "";
      const std::string text = scope_text(json, row.scope, op);
      const std::string key = "\"" + row.key + "\":";
      const bool present = row.present({s, nullptr, i});
      SCOPED_TRACE("row " + row.key + " op '" + op + "'");
      EXPECT_EQ(count_of(text, key), present ? 1u : 0u) << text;
      if (!present) absent.push_back(row.key + "@" + op);
      if (row.family.empty()) continue;
      EXPECT_EQ(has_line_starting(prom, prom_series(row, "", op)), present) << prom;
      if (present) typed.push_back(row.family);
    }
  }
  for (const MetricRow& row : metric_rows()) {
    if (row.family.empty()) continue;
    const bool any = std::find(typed.begin(), typed.end(), row.family) != typed.end();
    EXPECT_EQ(count_of(prom, "# TYPE " + row.family + " "), any ? 1u : 0u) << row.family;
  }
  for (const char* expected :
       {"proc_rate@src", "rho@work", "busy_s@src", "blocked_s@work", "est_rate@src",
        "cv2@work", "p50_ms@src", "pred_ms@work", "p99_ms@", "pred_mean_ms@", "written@"}) {
    EXPECT_NE(std::find(absent.begin(), absent.end(), expected), absent.end()) << expected;
  }
  EXPECT_EQ(json.find("\"ckpt\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"tenant\""), std::string::npos) << json;
  EXPECT_EQ(prom.find("tenant="), std::string::npos) << prom;
  EXPECT_NE(json.find("\"bottlenecks\":[]"), std::string::npos) << json;
}

TEST(MetricTable, EngineSamplesCarryTheConfiguredTenant) {
  EngineConfig config;
  config.tenant = "blue";
  Engine engine(pipeline(1e-3, 1e-4), Deployment{}, synthetic_factory(), config);
  EXPECT_EQ(engine.metrics_sample().tenant, "blue");  // so both sinks tag it
}

TEST(JsonEscape, OperatorNamesRenderAlikeInEverySink) {
  const std::string name = std::string("a\"b\\c") + '\x01';
  const std::string escaped = "\"a\\\"b\\\\c\\u0001\"";
  const std::vector<std::string> names = {name, "work"};

  const std::string path = "telemetry_test_escape.jsonl";
  {
    MetricsExporter exporter([] { return synthetic_sample(1); }, names, path, 60.0);
    exporter.start();
    exporter.stop();  // writes the final sample
  }
  const std::string jsonl = slurp(path);
  std::remove(path.c_str());
  EXPECT_NE(jsonl.find("\"name\":" + escaped), std::string::npos) << jsonl;

  const std::string stats_json = render_json(synthetic_sample(1), names);  // /stats.json
  EXPECT_NE(stats_json.find("\"name\":" + escaped), std::string::npos) << stats_json;

  trace::Tracer& tracer = trace::Tracer::instance();
  ASSERT_TRUE(tracer.start());
  std::thread named([&name] {
    trace::Tracer::instance().set_thread_name(name);
    trace::instant("escape", "test");
  });
  named.join();
  const std::string trace_path = "telemetry_test_escape_trace.json";
  tracer.stop_and_flush(trace_path);
  const std::string trace_json = slurp(trace_path);
  std::remove(trace_path.c_str());
  EXPECT_NE(trace_json.find("\"name\":" + escaped), std::string::npos) << trace_json;
}

}  // namespace
}  // namespace ss::runtime
