#include "runtime/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "runtime/telemetry.hpp"

namespace ss::runtime {

// ------------------------------------------------------------ LatencyHistogram

namespace {

/// Buckets 0..31 are exact microseconds; above that each power-of-two
/// decade of microseconds splits into 32 linear sub-buckets.
constexpr std::size_t num_buckets(int sub_bits, std::uint64_t max_micros) {
  // decades from 2^sub_bits to max_micros, plus the linear head and a
  // final overflow bucket
  std::size_t n = std::size_t{1} << sub_bits;
  for (std::uint64_t edge = std::uint64_t{1} << sub_bits; edge < max_micros; edge <<= 1) {
    n += std::size_t{1} << sub_bits;
  }
  return n + 1;
}

}  // namespace

LatencyHistogram::LatencyHistogram()
    : buckets_(num_buckets(kSubBits, kMaxMicros)) {}

std::size_t LatencyHistogram::bucket_of(std::uint64_t micros) {
  if (micros < kSubBuckets) return static_cast<std::size_t>(micros);
  if (micros >= kMaxMicros) micros = kMaxMicros - 1;
  const int msb = std::bit_width(micros) - 1;  // >= kSubBits
  const int shift = msb - kSubBits;
  const std::size_t decade = static_cast<std::size_t>(msb - kSubBits + 1);
  const std::size_t sub = static_cast<std::size_t>((micros >> shift) & (kSubBuckets - 1));
  return (decade << kSubBits) + sub;
}

double LatencyHistogram::bucket_midpoint_seconds(std::size_t bucket) {
  if (bucket < kSubBuckets) return (static_cast<double>(bucket) + 0.5) * 1e-6;
  const std::size_t decade = bucket >> kSubBits;
  const std::size_t sub = bucket & (kSubBuckets - 1);
  const int shift = static_cast<int>(decade) - 1;
  const double lo = static_cast<double>((std::uint64_t{1} << (shift + kSubBits)) +
                                        (static_cast<std::uint64_t>(sub) << shift));
  const double width = static_cast<double>(std::uint64_t{1} << shift);
  return (lo + width * 0.5) * 1e-6;
}

void LatencyHistogram::record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  const auto micros = static_cast<std::uint64_t>(seconds * 1e6);
  buckets_[bucket_of(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_nanos_.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
}

double LatencyHistogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // rank of the q-th sample, 1-based, ceil(q * total) clamped to [1, total]
  const auto rank = static_cast<std::uint64_t>(
      std::min<double>(static_cast<double>(total),
                       std::max(1.0, std::ceil(q * static_cast<double>(total)))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) return bucket_midpoint_seconds(b);
  }
  return bucket_midpoint_seconds(buckets_.size() - 1);
}

LatencySummary LatencyHistogram::summary() const {
  LatencySummary s;
  s.count = count();
  if (s.count == 0) return s;
  s.mean = static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9 /
           static_cast<double>(s.count);
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  return s;
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    snap.buckets.push_back(b.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_nanos = sum_nanos_.load(std::memory_order_relaxed);
  return snap;
}

LatencySummary LatencyHistogram::summary_since(const HistogramSnapshot& base) const {
  const auto base_bucket = [&base](std::size_t b) -> std::uint64_t {
    return b < base.buckets.size() ? base.buckets[b] : 0;
  };
  // Delta bucket counts; clamp at 0 so a base from a *different* histogram
  // (caller bug) degrades gracefully instead of wrapping.
  std::vector<std::uint64_t> delta(buckets_.size());
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::uint64_t now = buckets_[b].load(std::memory_order_relaxed);
    const std::uint64_t was = base_bucket(b);
    delta[b] = now > was ? now - was : 0;
    total += delta[b];
  }
  LatencySummary s;
  s.count = total;
  if (total == 0) return s;
  const std::uint64_t sum_now = sum_nanos_.load(std::memory_order_relaxed);
  const std::uint64_t sum_delta = sum_now > base.sum_nanos ? sum_now - base.sum_nanos : 0;
  s.mean = static_cast<double>(sum_delta) * 1e-9 / static_cast<double>(total);
  const auto quantile_of = [&](double q) {
    const auto rank = static_cast<std::uint64_t>(
        std::min<double>(static_cast<double>(total),
                         std::max(1.0, std::ceil(q * static_cast<double>(total)))));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < delta.size(); ++b) {
      seen += delta[b];
      if (seen >= rank) return bucket_midpoint_seconds(b);
    }
    return bucket_midpoint_seconds(delta.size() - 1);
  };
  s.p50 = quantile_of(0.50);
  s.p95 = quantile_of(0.95);
  s.p99 = quantile_of(0.99);
  return s;
}

// ------------------------------------------------------------------ StatsBoard

CounterSnapshot StatsBoard::snapshot(double at_seconds) const {
  CounterSnapshot snap;
  snap.at_seconds = at_seconds;
  snap.processed.reserve(counters_.size());
  snap.emitted.reserve(counters_.size());
  for (const OpCounters& c : counters_) {
    snap.processed.push_back(c.processed.load(std::memory_order_relaxed));
    snap.emitted.push_back(c.emitted.load(std::memory_order_relaxed));
  }
  // Telemetry rides in the same snapshot so the rate window and the ρ
  // window can never disagree; runs without an attached board leave the
  // vectors empty and make_run_stats reports -1 sentinels.
  if (telemetry_ != nullptr) {
    snap.busy_ns.reserve(telemetry_->size());
    snap.blocked_ns.reserve(telemetry_->size());
    for (OpIndex i = 0; i < static_cast<OpIndex>(telemetry_->size()); ++i) {
      snap.busy_ns.push_back(telemetry_->busy_ns(i));
      snap.blocked_ns.push_back(telemetry_->blocked_ns(i));
    }
  }
  return snap;
}

CounterSnapshot StatsBoard::open_window(double at_seconds) {
  set_latency_enabled(true);
  if (telemetry_ != nullptr) telemetry_->set_enabled(true);
  // Freeze the histogram bases: latency metered before the window (SLO
  // controller runs keep the gate open from the start) stays out of the
  // steady-state report.
  window_base_.clear();
  window_base_.reserve(latency_.size());
  for (const LatencyHistogram& h : latency_) window_base_.push_back(h.snapshot());
  e2e_base_ = end_to_end_.snapshot();
  return snapshot(at_seconds);
}

CounterSnapshot StatsBoard::close_window(double at_seconds) {
  CounterSnapshot snap = snapshot(at_seconds);
  set_latency_enabled(false);
  if (telemetry_ != nullptr) telemetry_->set_enabled(false);
  return snap;
}

LatencyReport StatsBoard::latency_report() const {
  LatencyReport report;
  report.per_op.reserve(latency_.size());
  const bool windowed = window_base_.size() == latency_.size();
  for (std::size_t i = 0; i < latency_.size(); ++i) {
    report.per_op.push_back(windowed ? latency_[i].summary_since(window_base_[i])
                                     : latency_[i].summary());
  }
  report.end_to_end =
      windowed ? end_to_end_.summary_since(e2e_base_) : end_to_end_.summary();
  return report;
}

RunStats make_run_stats(const Topology& t, const CounterSnapshot& begin,
                        const CounterSnapshot& end, const CounterSnapshot& final_totals,
                        double total_seconds, std::uint64_t dropped,
                        const LatencyReport* latency, const std::vector<int>* replicas) {
  RunStats stats;
  stats.total_seconds = total_seconds;
  stats.dropped = dropped;
  stats.measured_seconds = end.at_seconds - begin.at_seconds;
  const double window = stats.measured_seconds > 0.0 ? stats.measured_seconds : 1.0;
  // Telemetry is all-or-nothing per run: both snapshots carry a busy/blocked
  // entry per logical operator, or the run was metering-free.
  stats.has_telemetry = begin.busy_ns.size() == t.num_operators() &&
                        end.busy_ns.size() == t.num_operators();

  stats.ops.resize(t.num_operators());
  for (OpIndex i = 0; i < t.num_operators(); ++i) {
    OperatorStats& op = stats.ops[i];
    op.processed = final_totals.processed[i];
    op.emitted = final_totals.emitted[i];
    op.arrival_rate =
        static_cast<double>(end.processed[i] - begin.processed[i]) / window;
    op.departure_rate = static_cast<double>(end.emitted[i] - begin.emitted[i]) / window;
    if (latency != nullptr && i < latency->per_op.size()) {
      op.latency = latency->per_op[i];
    }
    if (stats.has_telemetry) {
      // Measured ρ of an operator with n replicas is busy time over
      // n × window — per-replica utilization, Alg. 1's quantity.
      const int n = replicas != nullptr && i < replicas->size()
                        ? std::max(1, (*replicas)[i])
                        : 1;
      const double denom_ns = window * 1e9 * static_cast<double>(n);
      op.busy_fraction =
          static_cast<double>(end.busy_ns[i] - begin.busy_ns[i]) / denom_ns;
      op.blocked_fraction =
          static_cast<double>(end.blocked_ns[i] - begin.blocked_ns[i]) / denom_ns;
    }
    if (i < end.queue_peak.size()) op.queue_peak = end.queue_peak[i];
  }
  if (latency != nullptr) stats.end_to_end = latency->end_to_end;
  // Ingest throughput is the source departure rate at steady state (§5.2).
  stats.source_rate = stats.ops[t.source()].departure_rate;
  for (OpIndex s : t.sinks()) stats.sink_rate += stats.ops[s].departure_rate;
  return stats;
}

std::string format_stats(const Topology& t, const RunStats& stats) {
  std::ostringstream out;
  const auto ms = [&out](const LatencySummary& s, double value) -> std::ostream& {
    if (s.count == 0) return out << std::setw(10) << "-";
    return out << std::setw(10) << value * 1e3;
  };
  const PredictedLatency& pred = stats.predicted;
  const bool predicted = pred.valid && pred.op_response.size() == t.num_operators() &&
                         pred.op_p99.size() == t.num_operators();
  out << std::fixed << std::setprecision(1);
  out << std::setw(18) << std::left << "operator" << std::right << std::setw(12) << "processed"
      << std::setw(12) << "emitted" << std::setw(14) << "arrival/s" << std::setw(14)
      << "departure/s" << std::setw(10) << "p50 ms" << std::setw(10) << "p95 ms"
      << std::setw(10) << "p99 ms";
  if (predicted) {
    // Model-side response time of the deployed plan (estimate_latency),
    // printed right of the measured percentiles it should explain.
    out << std::setw(10) << "pred ms" << std::setw(10) << "pred p99";
  }
  if (stats.has_telemetry) {
    // Measured counterparts of Algorithm 1's per-operator quantities:
    // utilization ρ, blocked-on-send fraction, queue high-water mark.
    out << std::setw(8) << "rho" << std::setw(8) << "blk" << std::setw(7) << "q_hi";
  }
  out << '\n';
  for (OpIndex i = 0; i < t.num_operators(); ++i) {
    const OperatorStats& op = stats.ops[i];
    out << std::setw(18) << std::left << t.op(i).name << std::right << std::setw(12)
        << op.processed << std::setw(12) << op.emitted << std::setw(14) << op.arrival_rate
        << std::setw(14) << op.departure_rate;
    out << std::setprecision(2);
    ms(op.latency, op.latency.p50);
    ms(op.latency, op.latency.p95);
    ms(op.latency, op.latency.p99);
    if (predicted) {
      out << std::setw(10) << pred.op_response[i] * 1e3 << std::setw(10)
          << pred.op_p99[i] * 1e3;
    }
    if (stats.has_telemetry) {
      out << std::setw(8) << op.busy_fraction << std::setw(8) << op.blocked_fraction
          << std::setw(7) << op.queue_peak;
    }
    out << std::setprecision(1) << '\n';
  }
  out << "measured throughput: " << stats.source_rate << " tuples/s";
  if (predicted) out << " (predicted " << pred.throughput << ")";
  out << " over " << stats.measured_seconds << " s (total run " << stats.total_seconds
      << " s, dropped " << stats.dropped << ")\n";
  out << std::setprecision(2);
  if (stats.end_to_end.count > 0) {
    out << "end-to-end latency: p50 " << stats.end_to_end.p50 * 1e3 << " ms / p95 "
        << stats.end_to_end.p95 * 1e3 << " ms / p99 " << stats.end_to_end.p99 * 1e3
        << " ms (mean " << stats.end_to_end.mean * 1e3 << " ms, "
        << stats.end_to_end.count << " samples)\n";
  } else {
    out << "end-to-end latency: no samples in the measurement window\n";
  }
  if (predicted) {
    out << "predicted end-to-end: p50 " << pred.p50 * 1e3 << " ms / p95 "
        << pred.p95 * 1e3 << " ms / p99 " << pred.p99 * 1e3 << " ms (mean "
        << pred.mean * 1e3 << " ms)\n";
  }
  if (stats.reconfigurations > 0) {
    out << "elastic: " << stats.epochs << " epochs, " << stats.reconfigurations
        << " re-deployment(s), " << stats.keys_migrated << " key(s) migrated\n";
  }
  if (stats.checkpoints_written > 0 || stats.recovered_from_epoch > 0) {
    out << "checkpoints: " << stats.checkpoints_written << " written (last epoch "
        << stats.last_epoch_persisted << ")";
    if (stats.recovered_from_epoch > 0) {
      out << ", recovered from epoch " << stats.recovered_from_epoch;
    }
    out << "\n";
  }
  if (stats.has_profile && !stats.profile.empty()) {
    // Online profiler block: the inferred non-blocking service rate next
    // to the naive busy-time rate it corrects.  Only operators with an
    // estimate print a row (sources and never-sampled ops stay silent).
    bool header = false;
    for (OpIndex i = 0; i < t.num_operators() && i < stats.profile.size(); ++i) {
      const ProfileEstimate& p = stats.profile[i];
      if (p.estimated_rate <= 0.0) continue;
      if (!header) {
        out << "profiler: estimated non-blocking service rates (vs busy-time)\n";
        header = true;
      }
      out << "  " << std::setw(16) << std::left << t.op(i).name << std::right
          << std::setprecision(1) << std::setw(12) << p.estimated_rate << " /s (busy "
          << std::setw(10) << p.busy_rate << " /s, conf " << std::setprecision(2)
          << p.confidence << ", " << p.samples << " samples";
      if (p.cv2 >= 0.0) out << ", cv2 " << p.cv2;
      if (p.queue_full_fraction > 0.0) out << ", q_full " << p.queue_full_fraction;
      out << ")\n";
    }
  }
  if (!stats.bottlenecks.empty()) {
    // Backpressure attribution: blocked-on-send time charged to senders,
    // propagated along blocked edges to the root-cause operator.
    out << "backpressure: ";
    bool first = true;
    for (const BottleneckEntry& b : stats.bottlenecks) {
      if (b.share <= 0.0) continue;
      if (!first) out << ", ";
      out << t.op(b.op).name << " " << std::setprecision(0) << b.share * 100.0 << "%"
          << std::setprecision(2) << " (" << b.blame_seconds << " s blamed)";
      first = false;
    }
    if (first) out << "none (no blocked time attributed)";
    out << "\n";
  }
  if (stats.scheduler.batches > 0) {
    // Every counter under its exported name.  Many ring_enqueues per push
    // is the design working (hints are edge-triggered), not lost hints.
    const double avg_batch = static_cast<double>(stats.scheduler.batch_messages) /
                             static_cast<double>(stats.scheduler.batches);
    const char* separator = "scheduler: ";
    for (const SchedulerCounterField& f : kSchedulerCounterFields) {
      out << separator << stats.scheduler.*f.member << ' ' << f.name;
      separator = ", ";
    }
    out << " (avg " << avg_batch << " msgs/batch)\n";
    // Ready-hint ledger invariant of the quiescent pool: every pushed hint
    // was popped by its owner, stolen, or discarded at shutdown.  Checked
    // in release builds too — drift here means a scheduler accounting bug
    // (hints lost or double-counted), so surface it in the report instead
    // of only in the unit tests.
    const std::uint64_t accounted = stats.scheduler.local_pops + stats.scheduler.steals +
                                    stats.scheduler.discarded;
    if (stats.scheduler.pushes != accounted) {
      const auto drift = static_cast<std::int64_t>(stats.scheduler.pushes) -
                         static_cast<std::int64_t>(accounted);
      out << "scheduler WARNING: ready-hint ledger drift " << drift << " (pushes "
          << stats.scheduler.pushes << " != pops " << stats.scheduler.local_pops
          << " + steals " << stats.scheduler.steals << " + discarded "
          << stats.scheduler.discarded << ")\n";
    }
  }
  return out.str();
}

}  // namespace ss::runtime
