// Measurement plumbing: per-logical-operator counters, the steady-state
// rate window used to report measured throughput (paper §5: throughput is
// the source departure rate at steady state, after a warmup period), and
// latency histograms recording source→operator and end-to-end tuple delays
// so execution backends can be compared on tail latency, not only rates
// (the dimension the paper's Table 1 / Figure 11 arguments leave out).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/topology.hpp"

namespace ss::runtime {

/// Lock-free counters shared by all actors of one logical operator
/// (replicas and meta-group members included).
struct OpCounters {
  std::atomic<std::uint64_t> processed{0};  ///< input items consumed
  std::atomic<std::uint64_t> emitted{0};    ///< results produced
};

/// Snapshot of every operator's counters at one instant.  The telemetry
/// vectors (busy/blocked nanoseconds, attached TelemetryBoard required)
/// and the queue columns (engine-filled: the board does not own the
/// mailboxes) may be empty when the producer has no such data.
struct CounterSnapshot {
  std::vector<std::uint64_t> processed;
  std::vector<std::uint64_t> emitted;
  std::vector<std::uint64_t> busy_ns;     ///< cumulative in-service time
  std::vector<std::uint64_t> blocked_ns;  ///< cumulative blocked-on-send time
  std::vector<std::size_t> queue_depth;   ///< mailbox depth right now
  std::vector<std::size_t> queue_peak;    ///< high-water mark since window open
  double at_seconds = 0.0;
};

/// Counters of the pooled scheduler's work-stealing machinery, surfaced in
/// RunStats and the metrics export (all zero under thread-per-actor).
/// `pushes/local_pops/steals/discarded` are queue-hint accounting —
/// internally consistent: pushes == local_pops + steals + discarded once
/// the pool is quiescent; `parks/wakeups` count the idle protocol;
/// `batches/batch_messages/max_batch` describe mailbox drain batching.
struct SchedulerCounters {
  std::uint64_t pushes = 0;
  std::uint64_t local_pops = 0;
  std::uint64_t steals = 0;
  std::uint64_t discarded = 0;  ///< hints still queued at shutdown
  std::uint64_t parks = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_messages = 0;
  std::uint64_t max_batch = 0;
  /// Messages that entered mailboxes through the lock-free ring fast path
  /// and the ones that spilled to the mutex side queue (both 0 under
  /// --mailbox=mutex).  Enqueue *volume*, not hint counts: the ready-hint
  /// ledger above fires one hint per empty→non-empty edge, so
  /// ring_enqueues >= pushes on the ring path while the pushes ==
  /// local_pops + steals + discarded invariant is unchanged.
  std::uint64_t ring_enqueues = 0;
  std::uint64_t ring_spills = 0;

  /// Sums every field (max_batch combines by max), walking the field list.
  SchedulerCounters& operator+=(const SchedulerCounters& o);
};

/// One SchedulerCounters member, named once.  The list drives operator+=,
/// the `sched` rows of the metric table (telemetry.hpp) and format_stats'
/// scheduler line, in this order.
struct SchedulerCounterField {
  const char* name;  ///< JSON key; Prometheus family ss_sched_<name>[_total]
  std::uint64_t SchedulerCounters::*member;
  bool is_max;  ///< combines by max and exports as a gauge, else sums
  const char* help;
};

inline constexpr SchedulerCounterField kSchedulerCounterFields[] = {
    {"steals", &SchedulerCounters::steals, false, "ready hints stolen from another worker"},
    {"parks", &SchedulerCounters::parks, false, "times a worker parked idle"},
    {"wakeups", &SchedulerCounters::wakeups, false, "parked workers woken by a hint"},
    {"batches", &SchedulerCounters::batches, false, "mailbox drain batches"},
    {"batch_messages", &SchedulerCounters::batch_messages, false, "messages in drain batches"},
    {"max_batch", &SchedulerCounters::max_batch, true, "largest drain batch"},
    {"ring_enqueues", &SchedulerCounters::ring_enqueues, false, "ring fast-path enqueues"},
    {"ring_spills", &SchedulerCounters::ring_spills, false, "enqueues spilled to the side queue"},
    {"pushes", &SchedulerCounters::pushes, false, "ready hints pushed"},
    {"local_pops", &SchedulerCounters::local_pops, false, "ready hints popped by their owner"},
    {"discarded", &SchedulerCounters::discarded, false, "ready hints left at shutdown"},
};
// A member missing from the list would be summed and exported by nothing.
static_assert(std::size(kSchedulerCounterFields) * 8 == sizeof(SchedulerCounters));

inline SchedulerCounters& SchedulerCounters::operator+=(const SchedulerCounters& o) {
  for (const SchedulerCounterField& f : kSchedulerCounterFields) {
    std::uint64_t& mine = this->*f.member;
    const std::uint64_t theirs = o.*f.member;
    mine = f.is_max ? (mine > theirs ? mine : theirs) : mine + theirs;
  }
  return *this;
}

/// Percentile summary of one latency distribution (seconds).
struct LatencySummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Frozen bucket counts of a LatencyHistogram at one instant.  Two uses:
/// windowed percentiles (summary_since subtracts a base snapshot, giving
/// the distribution of samples recorded *after* it — the SLO controller's
/// per-window measured p99) and the StatsBoard's steady-state window
/// (latency metered before the window opens never pollutes the report).
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::uint64_t sum_nanos = 0;
};

/// Lock-free log-bucketed latency histogram (HDR style): 32 linear
/// sub-buckets per power-of-two decade of microseconds, i.e. ~3% value
/// resolution from 1 us to ~67 s.  record() is wait-free (one relaxed
/// fetch_add per sample) so actors can meter every tuple; quantiles are
/// derived from a snapshot of the bucket counts.
class LatencyHistogram {
 public:
  LatencyHistogram();

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records one latency sample (seconds; negative values clamp to 0).
  void record(double seconds);

  /// Value at quantile `q` in [0, 1] (bucket midpoint); 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  /// count/mean/p50/p95/p99 in one pass.
  [[nodiscard]] LatencySummary summary() const;

  /// Freezes the current bucket counts (relaxed loads; concurrent records
  /// may or may not be included, like every other reader here).
  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Summary of the samples recorded since `base` was snapshot from this
  /// histogram.  An empty/default base yields summary().
  [[nodiscard]] LatencySummary summary_since(const HistogramSnapshot& base) const;

 private:
  static constexpr int kSubBits = 5;  ///< 32 sub-buckets: ~3% resolution
  static constexpr int kSubBuckets = 1 << kSubBits;
  static constexpr std::uint64_t kMaxMicros = 1ull << 26;  ///< ~67 s cap
  static std::size_t bucket_of(std::uint64_t micros);
  static double bucket_midpoint_seconds(std::size_t bucket);

  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_nanos_{0};
};

/// Measured steady-state rates of one logical operator.
struct OperatorStats {
  std::uint64_t processed = 0;  ///< total over the whole run
  std::uint64_t emitted = 0;
  double arrival_rate = 0.0;    ///< items/s inside the measurement window
  double departure_rate = 0.0;  ///< results/s inside the measurement window
  /// Source→operator delay (source stamp to processing start) inside the
  /// measurement window; count == 0 when the operator saw no metered item
  /// (e.g. the source itself).
  LatencySummary latency;
  // --- telemetry (measured counterparts of Algorithm 1's quantities)
  /// Measured utilization ρ: busy time / (window × replicas).  The direct
  /// check of Alg. 1's predicted ρ; -1 when the run carried no telemetry.
  double busy_fraction = -1.0;
  /// Fraction of the window spent blocked sending downstream (BAS
  /// backpressure); -1 when the run carried no telemetry.
  double blocked_fraction = -1.0;
  /// Mailbox depth high-water mark inside the window (max over the
  /// operator's actors; 0 for sources).
  std::size_t queue_peak = 0;
};

/// One operator's online profile estimate (runtime/profiler.hpp): the
/// inferred *non-blocking* service rate reconstructed from micro
/// observations — inter-departure gaps inside multi-item busy slices,
/// queue-occupancy sampling and profiler-armed burst windows (Beard &
/// Chamberlain style) — next to the naive busy-time rate for comparison.
struct ProfileEstimate {
  /// Estimated non-blocking service rate, items/s; 0 = no estimate yet.
  double estimated_rate = 0.0;
  /// Naive busy-time rate (processed / busy seconds) over the same
  /// horizon; 0 when the operator processed nothing.
  double busy_rate = 0.0;
  /// Estimated service-time squared coefficient of variation (slice
  /// statistics); < 0 = not measured.
  double cv2 = -1.0;
  /// Fraction of occupancy samples that found the input buffer full.
  double queue_full_fraction = 0.0;
  /// Confidence in estimated_rate in [0, 1]: grows with multi-item slice
  /// coverage, decays when only singleton slices are seen.
  double confidence = 0.0;
  /// Items that contributed inter-departure gap observations.
  std::uint64_t samples = 0;
};

/// One entry of the backpressure-attribution ranking: `blame_seconds` of
/// upstream blocked-on-send time attributed (transitively) to this
/// operator as the root cause, `share` of the total blocked time.
struct BottleneckEntry {
  OpIndex op = 0;
  double blame_seconds = 0.0;
  double share = 0.0;  ///< blame / total blocked time, in [0, 1]
};

/// Per-op and end-to-end latency summaries extracted from a StatsBoard.
struct LatencyReport {
  std::vector<LatencySummary> per_op;
  LatencySummary end_to_end;
};

/// Model-side latency predictions riding next to the measurements
/// (estimate_latency + Alg. 1 on the deployed plan; the engine computes
/// them at epoch build so every report can print predicted-vs-measured
/// without re-deriving the model).  `valid` gates all columns.
struct PredictedLatency {
  bool valid = false;
  std::vector<double> op_response;  ///< per-op predicted mean response (s)
  std::vector<double> op_p99;       ///< per-op predicted p99 response (s)
  double mean = 0.0;                ///< predicted end-to-end tuple sojourn
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double throughput = 0.0;  ///< Alg. 1 predicted throughput (tuples/s)
};

/// Result of one engine run.
struct RunStats {
  std::vector<OperatorStats> ops;
  double measured_seconds = 0.0;  ///< length of the steady-state window
  double total_seconds = 0.0;     ///< wall time of the whole run
  double source_rate = 0.0;       ///< measured ingest throughput (tuples/s)
  double sink_rate = 0.0;         ///< combined sink departure rate
  std::uint64_t dropped = 0;      ///< items lost to send timeouts (should be 0)
  /// Source stamp → leaving the system at a sink, steady-state window only.
  LatencySummary end_to_end;
  // --- elastic re-deployment (EngineConfig::elastic / Engine::reconfigure)
  int epochs = 1;                  ///< actor-graph instantiations this run
  int reconfigurations = 0;        ///< completed epoch switch-overs
  std::uint64_t keys_migrated = 0; ///< per-key state moves across switch-overs
  // --- epoch checkpointing (runtime/checkpoint.hpp)
  std::uint64_t checkpoints_written = 0;   ///< snapshots persisted this run
  std::uint64_t last_epoch_persisted = 0;  ///< epoch id of the newest snapshot
  /// Epoch id the run was restored from (`--recover`); 0 = fresh start.
  std::uint64_t recovered_from_epoch = 0;
  // --- telemetry (PR 4)
  /// True when busy/blocked metering ran, i.e. the per-op busy_fraction /
  /// blocked_fraction columns are meaningful.
  bool has_telemetry = false;
  /// Work-stealing / batching counters of the pooled scheduler (summed
  /// over epochs; all zero under thread-per-actor).
  SchedulerCounters scheduler;
  /// Model predictions for the deployment the run ended on (the engine
  /// fills them; valid == false when the producer attached none).
  PredictedLatency predicted;
  // --- online profiler (PR 9; runtime/profiler.hpp)
  /// True when the ProfileEstimator ran; gates the two vectors below.
  bool has_profile = false;
  /// Per-op non-blocking service-rate estimates (indexed by OpIndex).
  std::vector<ProfileEstimate> profile;
  /// Backpressure-attribution ranking, most-blamed operator first.
  std::vector<BottleneckEntry> bottlenecks;
};

class TelemetryBoard;  // telemetry.hpp; attached to a StatsBoard below

/// Shared counter board; one entry per logical operator.
class StatsBoard {
 public:
  explicit StatsBoard(std::size_t num_ops) : counters_(num_ops), latency_(num_ops) {}

  void add_processed(OpIndex op) {
    counters_[op].processed.fetch_add(1, std::memory_order_relaxed);
  }
  void add_emitted(OpIndex op) {
    counters_[op].emitted.fetch_add(1, std::memory_order_relaxed);
  }

  /// Latency recording is gated so only the steady-state window is metered
  /// (run_for opens it after warmup; run_until_complete for the whole run).
  [[nodiscard]] bool latency_enabled() const {
    return latency_enabled_.load(std::memory_order_relaxed);
  }
  void set_latency_enabled(bool enabled) {
    latency_enabled_.store(enabled, std::memory_order_relaxed);
  }

  void add_latency(OpIndex op, double seconds) { latency_[op].record(seconds); }
  void add_end_to_end(double seconds) { end_to_end_.record(seconds); }

  /// Attaches the busy/blocked-time board so snapshots carry telemetry and
  /// the window helpers gate it together with latency.  Not owned; must
  /// outlive the StatsBoard's use (the engine owns both).
  void attach_telemetry(TelemetryBoard* telemetry) { telemetry_ = telemetry; }
  [[nodiscard]] TelemetryBoard* telemetry() const { return telemetry_; }

  /// Opens the steady-state measurement window: enables the latency gate
  /// AND telemetry metering, snapshots the latency histograms as the
  /// window base (samples metered before the window — e.g. by an SLO
  /// controller running from the start — stay out of the report), then
  /// snapshots the counters — one helper so the ρ window and the rate
  /// window can never disagree (they used to be toggled independently by
  /// run_for).
  CounterSnapshot open_window(double at_seconds);
  /// Snapshots the counters, then closes both gates.
  CounterSnapshot close_window(double at_seconds);

  /// Windowed end-to-end latency for online consumers (the SLO path of
  /// the ReconfigController): freeze a base, measure, summarize the delta.
  [[nodiscard]] HistogramSnapshot end_to_end_snapshot() const {
    return end_to_end_.snapshot();
  }
  [[nodiscard]] LatencySummary end_to_end_since(const HistogramSnapshot& base) const {
    return end_to_end_.summary_since(base);
  }

  [[nodiscard]] CounterSnapshot snapshot(double at_seconds) const;
  [[nodiscard]] LatencyReport latency_report() const;
  [[nodiscard]] std::size_t size() const { return counters_.size(); }

 private:
  // deque-free fixed vectors: the entries hold atomics (non-movable), so
  // construct in place and never resize
  std::vector<OpCounters> counters_;
  std::vector<LatencyHistogram> latency_;
  LatencyHistogram end_to_end_;
  std::atomic<bool> latency_enabled_{false};
  TelemetryBoard* telemetry_ = nullptr;
  /// Histogram bases frozen at open_window (empty before the first open).
  std::vector<HistogramSnapshot> window_base_;
  HistogramSnapshot e2e_base_;
};

/// Derives steady-state rates from two snapshots; `latency` (when given)
/// attaches the per-op and end-to-end percentile summaries.  `replicas`
/// (per-op replica counts, when given) normalizes the measured busy /
/// blocked fractions — ρ of an operator with n replicas is busy time over
/// n × window, matching Alg. 1's per-replica utilization.
RunStats make_run_stats(const Topology& t, const CounterSnapshot& begin,
                        const CounterSnapshot& end, const CounterSnapshot& final_totals,
                        double total_seconds, std::uint64_t dropped,
                        const LatencyReport* latency = nullptr,
                        const std::vector<int>* replicas = nullptr);

/// Human-readable table of measured rates (mirrors core's format_analysis).
/// When stats.predicted is valid, every latency column gets its model
/// prediction next to it and a predicted end-to-end footer is appended.
std::string format_stats(const Topology& t, const RunStats& stats);

}  // namespace ss::runtime
