// Measurement helpers of the benchmark, kept free of workload logic so the
// self-tests (perfbench/tests) can exercise them directly:
//
//   * the benchmark's own clock (all latencies are timed against it, never
//     against the engine's stamps);
//   * nearest-rank percentiles with the ">= 10 samples beyond" rule;
//   * the open-loop schedule: item i is due at t0 + offset(i), and lateness
//     is counted from that due time, not from the previous call;
//   * the delivery recorder and the sink wrapper that feeds it (one record
//     per emitted result, per wrapper instance, merged after the run);
//   * the span log written as Chrome trace-event JSON by the traced run.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/operator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the benchmark process started its clock.
inline double now_s() {
  static const Clock::time_point base = Clock::now();
  return std::chrono::duration<double>(Clock::now() - base).count();
}

// --------------------------------------------------------------- percentiles

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  // The epsilon keeps q*n from rounding up past an exact integer rank
  // (0.99 * 1000 is 990.0000000000001 in binary floating point).
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

/// A percentile is reported only when at least ten samples lie beyond it.
inline bool percentile_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= 10;
}

/// Nearest-rank quantile of an ascending-sorted sample; 0 when empty.
inline double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t beyond = samples_beyond(sorted.size(), q);
  return sorted[sorted.size() - beyond - 1];
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  bool p90_ok = false;  ///< >= 10 samples beyond p90
  bool p99_ok = false;  ///< >= 10 samples beyond p99
};

inline Summary summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Summary s;
  s.n = values.size();
  s.p50 = nearest_rank(values, 0.5);
  s.p90 = nearest_rank(values, 0.9);
  s.p99 = nearest_rank(values, 0.99);
  s.p90_ok = percentile_supported(s.n, 0.9);
  s.p99_ok = percentile_supported(s.n, 0.99);
  return s;
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// One latency sample: the item's due time (seconds after t0) and how long
/// after it the result reached a sink (ms; +inf for a lost item).
struct LatencySample {
  double due;
  double latency_ms;
};

/// Percentiles of a run cut into consecutive windows of due time, each at
/// least `min_seconds` long and holding at least `min_count` samples (a
/// short tail joins the last window).  The reported p50/p99 are the
/// medians over windows: one stall makes one window slow instead of
/// setting the whole run's tail, so repeated runs agree, while a stall
/// that recurs (a control-plane pause every few tens of ms) lands in every
/// window and shows.  `pooled` summarizes all samples at once.
struct WindowedSummary {
  std::size_t windows = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  Summary pooled;
};

inline WindowedSummary windowed_summary(const std::vector<LatencySample>& by_due,
                                        double min_seconds, std::size_t min_count) {
  WindowedSummary out;
  std::vector<double> all;
  all.reserve(by_due.size());
  for (const auto& s : by_due) all.push_back(s.latency_ms);
  out.pooled = summarize(all);
  std::vector<std::vector<double>> windows;
  std::vector<double> current;
  double start = by_due.empty() ? 0.0 : by_due.front().due;
  for (const auto& s : by_due) {
    if (current.size() >= min_count && s.due - start >= min_seconds) {
      windows.push_back(std::move(current));
      current.clear();
      start = s.due;
    }
    current.push_back(s.latency_ms);
  }
  if (!current.empty()) {
    if (windows.empty() || current.size() >= min_count) {
      windows.push_back(std::move(current));
    } else {
      windows.back().insert(windows.back().end(), current.begin(), current.end());
    }
  }
  std::vector<double> p50, p99;
  for (auto& w : windows) {
    const Summary s = summarize(std::move(w));
    p50.push_back(s.p50);
    p99.push_back(s.p99);
  }
  out.windows = windows.size();
  out.p50 = median(p50);
  out.p99 = median(p99);
  return out;
}

// ------------------------------------------------------------ open-loop plan

/// Piecewise-constant-rate arrival plan.  A step with rate <= 0 is closed:
/// its items are due the moment the source asks for them (peak runs).
class OpenLoopSchedule {
 public:
  struct Step {
    double rate = 0.0;  ///< items per second; <= 0 = unthrottled
    std::int64_t items = 0;
  };

  OpenLoopSchedule() = default;
  explicit OpenLoopSchedule(std::vector<Step> steps) : steps_(std::move(steps)) {
    double at = 0.0;
    std::int64_t first = 0;
    for (const Step& s : steps_) {
      start_offset_.push_back(at);
      first_item_.push_back(first);
      if (s.rate > 0.0) at += static_cast<double>(s.items) / s.rate;
      first += s.items;
    }
    total_ = first;
    end_offset_ = at;
  }

  static OpenLoopSchedule constant(double rate, double seconds) {
    return OpenLoopSchedule({{rate, static_cast<std::int64_t>(std::llround(rate * seconds))}});
  }
  static OpenLoopSchedule closed(std::int64_t items) {
    return OpenLoopSchedule({{0.0, items}});
  }

  [[nodiscard]] std::int64_t total() const { return total_; }
  [[nodiscard]] const std::vector<Step>& steps() const { return steps_; }
  /// Seconds after t0 at which the last open-loop item is due.
  [[nodiscard]] double end_offset() const { return end_offset_; }

  /// Step that item `i` belongs to.
  [[nodiscard]] std::size_t step_of(std::int64_t i) const {
    const auto it = std::upper_bound(first_item_.begin(), first_item_.end(), i);
    return static_cast<std::size_t>(it - first_item_.begin()) - 1;
  }
  [[nodiscard]] std::int64_t first_item(std::size_t step) const { return first_item_[step]; }

  /// Seconds after t0 at which item `i` is due; a negative value marks an
  /// item of a closed step (due when asked for).
  [[nodiscard]] double offset(std::int64_t i) const {
    const std::size_t s = step_of(i);
    if (steps_[s].rate <= 0.0) return -1.0;
    return start_offset_[s] + static_cast<double>(i - first_item_[s]) / steps_[s].rate;
  }

 private:
  std::vector<Step> steps_;
  std::vector<double> start_offset_;
  std::vector<std::int64_t> first_item_;
  std::int64_t total_ = 0;
  double end_offset_ = 0.0;
};

/// How late the generator was for an item: the time by which the call
/// that produced it came after the item's due time (never negative).
inline double lateness(double due, double called) { return called > due ? called - due : 0.0; }

/// The sustainable rate of a ladder walk: `score[k]` is the step's
/// max(p99, generator lag) / limit at `rates[k]` (ascending; +inf for a
/// step the stream never finished).  A step fails when its score exceeds
/// 1; one failing step between passing ones is a spike, two in a row end
/// the walk.  The rate is interpolated (log rate vs log score) where the
/// score crosses 1 before that first double failure; never failing
/// reports the top of the ladder, failing from the first step scales the
/// first rate down by its score.
inline double sustainable_rate(const std::vector<double>& rates, const std::vector<double>& score) {
  const std::size_t n = std::min(rates.size(), score.size());
  std::size_t fail = n;
  for (std::size_t k = 0; k < n; ++k) {
    if (score[k] > 1.0 && (k + 1 == n || score[k + 1] > 1.0)) {
      fail = k;
      break;
    }
  }
  if (n == 0) return 0.0;
  if (fail == n) return rates[n - 1];
  if (fail == 0) return rates[0] / (std::isfinite(score[0]) ? score[0] : 2.0);
  const double x0 = std::log(rates[fail - 1]);
  const double x1 = std::log(rates[fail]);
  const double y0 = std::log(std::max(score[fail - 1], 1e-3));
  const double y1 = std::isfinite(score[fail]) ? std::log(score[fail]) : y0 + 2.0;
  const double f = std::clamp(-y0 / std::max(y1 - y0, 1e-9), 0.0, 1.0);
  return std::exp(x0 + f * (x1 - x0));
}

// ---------------------------------------------------------------- deliveries

/// Tuple attributes the benchmark owns.  The engine stamps Tuple::ts when
/// SourceLogic::next() returns, so the due time travels separately.
constexpr std::size_t kDueField = 3;      ///< due time, benchmark clock seconds
constexpr std::size_t kEnteredField = 2;  ///< when next() returned the item

/// Results recorded at the sinks.  Every sink logic instance (replicas
/// included) appends to its own buffer, so the hot path takes no lock;
/// buffers are merged after the engine joined its threads.
class DeliveryLog {
 public:
  struct Record {
    std::uint32_t id;
    float latency_s;  ///< delivery time minus due time
  };
  struct Buffer {
    std::vector<Record> records;
    double last_s = 0.0;  ///< latest delivery time seen by this buffer
  };

  explicit DeliveryLog(std::size_t reserve = 0) : reserve_(reserve) {}

  /// A fresh buffer for one sink logic instance (thread-safe).
  Buffer* add_buffer() {
    std::lock_guard lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->records.reserve(reserve_);
    return buffers_.back().get();
  }

  /// All records in buffer order (call after the run joined).
  [[nodiscard]] std::vector<Record> merged() const {
    std::lock_guard lock(mu_);
    std::vector<Record> all;
    for (const auto& b : buffers_) all.insert(all.end(), b->records.begin(), b->records.end());
    return all;
  }
  [[nodiscard]] double last_delivery() const {
    std::lock_guard lock(mu_);
    double last = 0.0;
    for (const auto& b : buffers_) last = std::max(last, b->last_s);
    return last;
  }
  /// Per-item delivery counts for ids in [0, items).
  [[nodiscard]] std::vector<std::uint32_t> counts(std::int64_t items) const {
    std::vector<std::uint32_t> c(static_cast<std::size_t>(items), 0);
    for (const Record& r : merged()) {
      if (r.id < c.size()) ++c[r.id];
    }
    return c;
  }

 private:
  mutable std::mutex mu_;
  std::size_t reserve_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Sampled per-tuple hook of the traced run (source and sink spans).
using DeliverHook = void (*)(const ss::runtime::Tuple& t, double delivered_s);

/// Wraps a sink's logic: every result it emits is recorded (now - due) in
/// the wrapper's own DeliveryLog buffer, then passed on unchanged.  State
/// hooks forward to the wrapped logic so checkpoints and key migration see
/// the real operator.
class RecordingLogic final : public ss::runtime::OperatorLogic {
 public:
  RecordingLogic(std::unique_ptr<ss::runtime::OperatorLogic> inner,
                 std::shared_ptr<DeliveryLog> log, DeliverHook hook = nullptr)
      : inner_(std::move(inner)), log_(std::move(log)), buffer_(log_->add_buffer()), hook_(hook) {}

  void on_start() override { inner_->on_start(); }
  void process(const ss::runtime::Tuple& item, ss::OpIndex from,
               ss::runtime::Collector& out) override {
    Recorder rec(*this, out);
    inner_->process(item, from, rec);
  }
  void on_finish(ss::runtime::Collector& out) override {
    Recorder rec(*this, out);
    inner_->on_finish(rec);
  }
  [[nodiscard]] std::unique_ptr<ss::runtime::OperatorLogic> clone() const override {
    return std::make_unique<RecordingLogic>(inner_->clone(), log_, hook_);
  }
  [[nodiscard]] std::vector<std::int64_t> owned_keys() const override {
    return inner_->owned_keys();
  }
  bool migrate_key(std::int64_t key, ss::runtime::OperatorLogic& dest) override {
    auto* wrapped = dynamic_cast<RecordingLogic*>(&dest);
    return inner_->migrate_key(key, wrapped != nullptr ? *wrapped->inner_ : dest);
  }
  [[nodiscard]] bool save_state(std::string& out) const override {
    return inner_->save_state(out);
  }
  bool restore_state(const std::string& bytes) override { return inner_->restore_state(bytes); }

 private:
  class Recorder final : public ss::runtime::Collector {
   public:
    Recorder(RecordingLogic& owner, ss::runtime::Collector& out) : owner_(owner), out_(out) {}
    void emit(const ss::runtime::Tuple& t) override {
      owner_.record(t);
      out_.emit(t);
    }
    void emit_to(ss::OpIndex target, const ss::runtime::Tuple& t) override {
      owner_.record(t);
      out_.emit_to(target, t);
    }

   private:
    RecordingLogic& owner_;
    ss::runtime::Collector& out_;
  };

  void record(const ss::runtime::Tuple& t) {
    const double now = now_s();
    buffer_->records.push_back(
        {static_cast<std::uint32_t>(t.id), static_cast<float>(now - t.f[kDueField])});
    buffer_->last_s = now;
    if (hook_ != nullptr) hook_(t, now);
  }

  std::unique_ptr<ss::runtime::OperatorLogic> inner_;
  std::shared_ptr<DeliveryLog> log_;
  DeliveryLog::Buffer* buffer_;
  DeliverHook hook_;
};

// --------------------------------------------------------------------- spans

/// Viewer lanes of the span log, one per role (the engine's own threads
/// come and go with every run, so lanes are not threads).
enum class Lane : int { kMain = 0, kSource = 1, kSink = 2, kControl = 3 };

/// In-memory span log of the traced run, written once at the end in the
/// Chrome trace-event format (load it in Perfetto or chrome://tracing).
class SpanLog {
 public:
  struct Span {
    const char* name;  ///< string literal
    const char* cat;   ///< string literal: the layer the span measures
    Lane lane;
    double start_s;
    double dur_s;
    std::int64_t id;  ///< tuple id for per-tuple spans, -1 otherwise
  };

  static SpanLog& instance() {
    static SpanLog log;
    return log;
  }

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void add(const char* name, const char* cat, double start_s, double end_s,
           Lane lane = Lane::kMain, std::int64_t id = -1) {
    if (!enabled()) return;
    std::lock_guard lock(mu_);
    spans_.push_back({name, cat, lane, start_s, end_s - start_s, id});
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return spans_.size();
  }

  /// Writes {"traceEvents": [...]}; timestamps in microseconds.
  bool write_chrome(const std::string& path) const {
    std::lock_guard lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    const char* lanes[] = {"main", "source", "sink", "control"};
    for (int lane = 0; lane < 4; ++lane) {
      out << (lane == 0 ? "" : ",") << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
          << lane << ",\"args\":{\"name\":\"" << lanes[lane] << "\"}}";
    }
    char buf[64];
    for (const Span& s : spans_) {
      out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"" << s.cat
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << static_cast<int>(s.lane);
      std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f", s.start_s * 1e6,
                    std::max(0.0, s.dur_s) * 1e6);
      out << buf;
      if (s.id >= 0) out << ",\"args\":{\"tuple\":" << s.id << "}";
      out << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records a span around a call into one layer (no-op when tracing is off).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat) : name_(name), cat_(cat), start_(now_s()) {}
  ~ScopedSpan() { SpanLog::instance().add(name_, cat_, start_, now_s()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  const char* cat_;
  double start_;
};

}  // namespace perfbench
