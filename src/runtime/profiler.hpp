// Online profile estimation below saturation (ROADMAP item; Beard &
// Chamberlain, arXiv:1504.00591).
//
// The telemetry layer (PR 4) measures *busy-time* service rates:
// processed items over accumulated busy nanoseconds.  That quotient is
// only trustworthy for saturated operators — an operator with headroom
// amortizes its wakeup/scheduling overhead over few items per slice, so
// its busy-time rate under-estimates the true non-blocking service rate
// exactly where the elastic controller needs headroom information.
//
// The ProfileEstimator reconstructs the non-blocking rate from micro
// observations instead:
//
//   * inter-departure gaps inside *multi-item* busy slices: when a batch
//     slice drains k >= 2 backlogged items in `ns` contiguous busy
//     nanoseconds, ns/k is a direct sample of the per-item service time
//     even if the operator idles 90% of the wall clock — the backlog
//     forced a short saturated burst.  These are the primary signal.
//   * singleton slices (one item per metered slice) still sample the
//     service path but carry slice-entry overhead; they never raise
//     confidence on their own.  Beside bursts they enter the interval's
//     mean (a singleton that overran is what built the next burst, whose
//     paced waits then repay the overrun); alone they fill in with
//     reduced weight.
//   * queue-occupancy sampling: the fold loop probes every operator's
//     mailbox depth against its capacity; the fraction of probes that
//     found the buffer full is the measured stall probability the latency
//     model consumes (LatencyModelInputs::stall_p).
//   * forced-burst windows are realized as *armed* dense-sampling
//     windows: while any operator's confidence is below the arm
//     threshold, every slice is recorded; once all estimates are
//     confident the recorder thins to 1-in-8 slices, so the disarmed
//     steady-state overhead is a relaxed load and (7 of 8 times) one
//     relaxed fetch_add per metered slice.
//
// Estimates are EWMA-smoothed across fold periods with a per-op
// confidence score that grows with multi-item item coverage.  The fold
// loop runs on a background thread (cadence scaled by the SchedulerHost
// when several tenants share one pool) and additionally:
//
//   * fits the service-time squared coefficient of variation (cv²) from
//     slice statistics — reoptimize() turns it into arrival ca² terms via
//     the QNA linking equations (core/optimizer.hpp fit_variability);
//   * implements BlockedEdgeSink: the mailbox slow path reports every
//     blocked-on-send episode as an edge (sender → mailbox owner), and
//     the fold propagates blame transitively along those edges — an
//     operator that was itself blocked downstream passes the blame on —
//     into a bottleneck ranking ("op X is the root cause of Y% of the
//     run's blocked time"), surfaced in format_stats, the metrics JSONL,
//     the live stats endpoint and `bottleneck_rank` trace instants;
//   * emits one `profile_sample` trace instant per fold.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/topology.hpp"
#include "runtime/metrics.hpp"
#include "runtime/telemetry.hpp"

namespace ss::runtime {

struct ProfilerConfig {
  /// Fold cadence, seconds.  A SchedulerHost-attached engine multiplies
  /// this by the tenant count so N co-scheduled profilers do not probe
  /// N times as often as one.
  double period_seconds = 0.25;
  /// EWMA smoothing factor for the per-fold service-time estimate.
  double ewma_alpha = 0.3;
  /// Multi-item gap observations at which confidence reaches ~0.7
  /// (confidence = items / (items + target/2), capped by singleton-only
  /// penalties).
  std::uint64_t confidence_target = 200;
  /// Minimum per-op confidence before the recorder disarms (thins to
  /// 1-in-8 slice sampling).  Ops that processed nothing are ignored.
  double arm_threshold = 0.5;
};

/// One (size, capacity) probe of an operator's input mailbox, taken by
/// the engine under its epoch lock.
struct QueueProbe {
  std::size_t depth = 0;
  std::size_t capacity = 0;
  bool valid = false;  ///< false for sources / ops without a mailbox
};

class ProfileEstimator final : public BlockedEdgeSink {
 public:
  /// `telemetry` provides per-op blocked totals for blame propagation
  /// and busy totals for the busy-rate comparison column; `stats`
  /// provides processed counts.  Both are borrowed and must outlive the
  /// estimator (the engine owns all three).  `queue_probe`, when set, is
  /// called once per fold and must fill one QueueProbe per operator.
  ProfileEstimator(std::size_t num_ops, const TelemetryBoard* telemetry,
                   const StatsBoard* stats, ProfilerConfig config = {},
                   std::function<void(std::vector<QueueProbe>&)> queue_probe = {});
  ~ProfileEstimator() override;

  ProfileEstimator(const ProfileEstimator&) = delete;
  ProfileEstimator& operator=(const ProfileEstimator&) = delete;

  void start();
  /// Runs one final fold, then joins the fold thread.  Idempotent.
  void stop();

  /// Hot-path hook: one contiguous busy slice of `ns` nanoseconds in
  /// which `items` messages were fully processed (engine batch / message
  /// metering).  Wait-free; thins itself to 1-in-8 slices when disarmed.
  void record_slice(OpIndex op, std::uint64_t ns, std::uint64_t items) {
    if (op >= cells_.size() || items == 0 || ns == 0) return;
    Cell& c = cells_[op];
    if (!armed_.load(std::memory_order_relaxed) &&
        (c.tick.fetch_add(1, std::memory_order_relaxed) & 7u) != 0) {
      return;
    }
    if (items >= 2) {
      c.multi_ns.fetch_add(ns, std::memory_order_relaxed);
      c.multi_items.fetch_add(items, std::memory_order_relaxed);
      c.multi_slices.fetch_add(1, std::memory_order_relaxed);
      // Per-slice mean gap squared, weighted by items: feeds the
      // across-slice service-time variance behind the cv² fit.
      const double gap = static_cast<double>(ns) / static_cast<double>(items);
      add_relaxed(c.multi_sq_ns2, gap * gap * static_cast<double>(items));
    } else {
      c.single_ns.fetch_add(ns, std::memory_order_relaxed);
      c.single_slices.fetch_add(1, std::memory_order_relaxed);
      add_relaxed(c.single_sq_ns2,
                  static_cast<double>(ns) * static_cast<double>(ns));
    }
  }

  /// BlockedEdgeSink: `from` spent `ns` blocked pushing into `to`.
  void record_blocked_edge(OpIndex from, OpIndex to, std::uint64_t ns) override;

  /// True while the estimator wants dense slice sampling (some operator's
  /// confidence is still below ProfilerConfig::arm_threshold).
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Latest smoothed per-op estimates (copy; fold-thread synchronized).
  [[nodiscard]] std::vector<ProfileEstimate> snapshot() const;
  /// Latest backpressure-attribution ranking, most blamed first.
  [[nodiscard]] std::vector<BottleneckEntry> bottlenecks() const;

  /// Runs one fold synchronously (tests; also called by stop()).
  void fold_now();

 private:
  struct Cell {
    std::atomic<std::uint64_t> multi_ns{0};
    std::atomic<std::uint64_t> multi_items{0};
    std::atomic<std::uint64_t> multi_slices{0};
    std::atomic<double> multi_sq_ns2{0.0};
    std::atomic<std::uint64_t> single_ns{0};
    std::atomic<std::uint64_t> single_slices{0};
    std::atomic<double> single_sq_ns2{0.0};
    std::atomic<std::uint32_t> tick{0};  ///< disarmed 1-in-8 sampler
  };

  /// Smoothed per-op state, fold-thread-owned, published under mu_.
  struct Smoothed {
    double service_ns = 0.0;  ///< EWMA of the per-item service estimate
    double var_ns2 = 0.0;     ///< EWMA of the service-time variance
    double confidence = 0.0;
    std::uint64_t items = 0;        ///< cumulative recorded gap items
    std::uint64_t full_probes = 0;  ///< occupancy probes that found full
    std::uint64_t probes = 0;       ///< occupancy probes taken
  };

  static void add_relaxed(std::atomic<double>& cell, double v) {
    double cur = cell.load(std::memory_order_relaxed);
    while (!cell.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
    }
  }

  void loop();
  void fold();
  void compute_bottlenecks();

  const std::size_t num_ops_;
  const TelemetryBoard* telemetry_;  ///< borrowed, may be null in tests
  const StatsBoard* stats_;          ///< borrowed, may be null in tests
  const ProfilerConfig config_;
  std::function<void(std::vector<QueueProbe>&)> queue_probe_;

  std::vector<Cell> cells_;  ///< fixed: atomics are not movable
  /// Dense blocked-edge matrix, ns at [from * num_ops + to] (topologies
  /// are small; the testbed generator tops out well under 100 ops).
  std::vector<std::atomic<std::uint64_t>> edge_ns_;
  std::atomic<bool> armed_{true};

  mutable std::mutex mu_;  ///< guards the published fold results below
  std::vector<Smoothed> smoothed_;
  std::vector<ProfileEstimate> published_;
  std::vector<BottleneckEntry> ranking_;

  std::thread thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
};

}  // namespace ss::runtime
