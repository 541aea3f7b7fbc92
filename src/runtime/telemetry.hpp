// Utilization & backpressure metering, and the machine-readable metrics
// exporter.
//
// Algorithm 1 predicts per-operator utilization ρ and backpressure-limited
// throughput; until this layer existed the runtime could only *report*
// rates and latency percentiles, never measure ρ itself.  TelemetryBoard
// closes that gap: every actor accumulates
//
//   busy-ns    — wall time inside OperatorLogic::process (for synthetic
//                operators this is the wait-realized service time, i.e.
//                exactly the model's 1/μ per item),
//   blocked-ns — wall time spent blocked in Mailbox::send under
//                Blocking-After-Service backpressure (charged to the
//                *sending* operator and subtracted from its busy time, so
//                busy is pure service),
//
// per steady-state window; idle is the remainder.  Measured ρ is then
// busy / (window × replicas) — directly comparable to the predicted ρ of
// steady_state(), which is what the new RunStats columns print.
//
// The blocked charge crosses a layer boundary (the mailbox does not know
// which operator is sending), so the engine pins a thread-local
// ActorContext around every slice of actor code it runs; the mailbox's
// blocking slow path — and only the slow path — reads the clock and
// charges the wait through it.  The fast path cost with metering enabled
// is two thread-local stores per message plus two clock reads.
//
// The machine-readable side is one metric table (metric_rows() below):
// every exported quantity is named once there, and the JSON renderer
// (MetricsExporter's JSONL, StatsServer's /stats.json) and the Prometheus
// renderer (/metrics) walk the same rows.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/topology.hpp"
#include "runtime/metrics.hpp"

namespace ss::runtime {

/// Receives per-edge blocked-on-send observations from the mailbox slow
/// path: `from` spent `ns` blocked pushing into `to`'s input buffer.  The
/// ProfileEstimator implements this to build the backpressure-attribution
/// graph without telemetry/mailbox depending on the profiler headers.
/// Implementations must be lock-free-ish: calls come from actor threads
/// that were already stalled, but still on the hot(ish) path.
class BlockedEdgeSink {
 public:
  virtual ~BlockedEdgeSink() = default;
  virtual void record_blocked_edge(OpIndex from, OpIndex to, std::uint64_t ns) = 0;
};

/// Per-operator busy/blocked nanosecond accumulators (lock-free; replicas
/// and meta-group members of one logical operator share an entry, exactly
/// like OpCounters).  Gated: accumulation only happens while enabled, so a
/// closed gate costs one relaxed load per message.
class TelemetryBoard {
 public:
  explicit TelemetryBoard(std::size_t num_ops) : cells_(num_ops) {}

  TelemetryBoard(const TelemetryBoard&) = delete;
  TelemetryBoard& operator=(const TelemetryBoard&) = delete;

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  void add_busy(OpIndex op, std::uint64_t ns) {
    cells_[op].busy.fetch_add(ns, std::memory_order_relaxed);
  }
  void add_blocked(OpIndex op, std::uint64_t ns) {
    cells_[op].blocked.fetch_add(ns, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t busy_ns(OpIndex op) const {
    return cells_[op].busy.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t blocked_ns(OpIndex op) const {
    return cells_[op].blocked.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t size() const { return cells_.size(); }

  /// Attaches the per-edge blocked-time listener (the profiler).  Not
  /// owned; must outlive its registration (the engine clears it before
  /// destroying the profiler).  Atomic so registration can race the
  /// mailbox slow path safely.
  void set_blocked_sink(BlockedEdgeSink* sink) {
    sink_.store(sink, std::memory_order_release);
  }
  [[nodiscard]] BlockedEdgeSink* blocked_sink() const {
    return sink_.load(std::memory_order_acquire);
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> busy{0};
    std::atomic<std::uint64_t> blocked{0};
  };
  std::vector<Cell> cells_;  ///< fixed: atomics are not movable
  std::atomic<bool> enabled_{false};
  std::atomic<BlockedEdgeSink*> sink_{nullptr};
};

/// Pins "this thread is currently executing operator `op`" so that
/// Mailbox::send can charge blocked-on-send time to the right operator.
/// Scopes nest (a meta-group actor runs one member inside another's
/// dispatch): the constructor saves and the destructor restores the outer
/// context.  blocked_ns() reports the blocked time charged *within this
/// scope* — the engine subtracts it from the elapsed service time so busy
/// never double-counts backpressure waits.
class ScopedActorContext {
 public:
  ScopedActorContext(TelemetryBoard& board, OpIndex op) noexcept;
  ~ScopedActorContext();

  ScopedActorContext(const ScopedActorContext&) = delete;
  ScopedActorContext& operator=(const ScopedActorContext&) = delete;

  /// Blocked-on-send nanoseconds accumulated inside this scope so far.
  [[nodiscard]] std::uint64_t blocked_ns() const;

 private:
  struct Saved {
    TelemetryBoard* board;
    OpIndex op;
    std::uint64_t blocked_in_scope;
  } saved_;
};

/// True when the calling thread holds an ActorContext whose board is
/// enabled — the mailbox's wait path checks this before reading clocks.
[[nodiscard]] bool blocked_metering_enabled();

/// Charges `ns` of blocked-on-send time to the calling thread's current
/// actor context (no-op without one / with the gate closed).
void charge_blocked(std::uint64_t ns);

/// Like charge_blocked(ns), and additionally reports the blocked *edge*
/// (current actor context → `dest_op`) to the board's BlockedEdgeSink so
/// backpressure can be attributed to its root cause.  `dest_op` is the
/// logical owner of the mailbox the send stalled on; kInvalidOp degrades
/// to the plain charge.
void charge_blocked(std::uint64_t ns, OpIndex dest_op);

// ------------------------------------------------------------ metric table

/// One cumulative sample of everything the runtime measures; the JSON
/// renderer turns two consecutive samples into windowed rates.
struct MetricsSample {
  CounterSnapshot counters;    ///< processed/emitted/busy/blocked/queues
  LatencyReport latency;       ///< cumulative percentile summaries
  SchedulerCounters scheduler;
  std::uint64_t dropped = 0;
  int epoch = 1;
  /// Tenant tag of a co-hosted engine; empty = untagged (single tenant).
  std::string tenant;
  // --- epoch checkpointing (zero when checkpointing is off)
  std::uint64_t checkpoints_written = 0;
  std::uint64_t last_epoch_persisted = 0;
  std::uint64_t recovered_from_epoch = 0;
  /// Model predictions of the current epoch's deployment, exported next to
  /// the measured percentiles they should explain.
  PredictedLatency predicted;
  /// Online profiler output (empty when no ProfileEstimator is attached):
  /// per-op non-blocking rate estimates and the backpressure ranking.
  std::vector<ProfileEstimate> profile;
  std::vector<BottleneckEntry> bottlenecks;
};

/// Where a row's values live: the sample's top level, one entry per
/// operator, the e2e, checkpoint and scheduler blocks, or one entry per
/// ranked bottleneck.
enum class MetricScope { kTop, kOp, kE2e, kCkpt, kSched, kBottleneck };
/// Prometheus type; a kQuantile row is one quantile of a summary family.
enum class MetricType { kCounter, kGauge, kQuantile };
/// Unit of a row's value.  Times are read in seconds: kMillis rows show ms
/// in JSON and seconds in Prometheus.  kCount values print as integers.
enum class MetricUnit { kCount, kSeconds, kMillis, kPerSecond, kRatio };

/// What a row reads: the sample, the previous one (nullptr: no window),
/// and the entry index within the row's scope.
struct MetricView {
  const MetricsSample& now;
  const MetricsSample* prev;
  std::size_t index;
};

/// One exported quantity.  `present` is its presence rule: a value it
/// rejects appears in no sink.
struct MetricRow {
  MetricScope scope;
  std::string key;     ///< JSON key, unique within the scope
  std::string family;  ///< Prometheus family; empty: JSON only (windowed)
  MetricType type;
  MetricUnit unit;
  std::string help;
  std::function<double(const MetricView&)> value;
  std::function<bool(const MetricView&)> present;
  std::string quantile = {};  ///< kQuantile rows: the quantile label
};

/// The metric table: every quantity the runtime exports, in render order.
/// docs/runtime.md ("Metric schema") lists the same rows.
const std::vector<MetricRow>& metric_rows();

/// One JSON object (newline-terminated) for `s`; operators are named by
/// `op_names` (index when missing).  The windowed rows (rates, rho,
/// blocked) are deltas since `prev` and appear only when it is given.
std::string render_json(const MetricsSample& s, const std::vector<std::string>& op_names,
                        const MetricsSample* prev = nullptr);

/// Prometheus text exposition of `s`: every family with # HELP and # TYPE,
/// per-op series labelled op="<name>", all labelled tenant="<tag>" when
/// the sample has one.
std::string render_prometheus(const MetricsSample& s,
                              const std::vector<std::string>& op_names);

// ---------------------------------------------------------------- exporter

/// Background JSONL metrics writer: calls `sampler` every `period` seconds
/// and appends render_json of the sample to `path`, windowed over the
/// period (the first line over [0, t]).  A final sample is written on
/// stop().  Throws ss::Error from the constructor when `path` cannot be
/// opened.
class MetricsExporter {
 public:
  MetricsExporter(std::function<MetricsSample()> sampler,
                  std::vector<std::string> op_names, const std::string& path,
                  double period_seconds);
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  void start();
  /// Writes the final sample, flushes and joins.  Idempotent.
  void stop();

  [[nodiscard]] std::size_t lines_written() const { return lines_; }

 private:
  struct Impl;
  void loop();
  void write_sample(const MetricsSample& sample);

  std::function<MetricsSample()> sampler_;
  std::vector<std::string> op_names_;
  double period_;
  std::unique_ptr<Impl> impl_;  ///< the output stream (keeps <fstream> out)
  MetricsSample prev_;  ///< the last sample written (the run start before any)
  std::size_t lines_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  // stop() wakes the sampling loop early through a condition variable in
  // Impl so shutdown never waits out a full period.
};

}  // namespace ss::runtime
