#include "runtime/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "core/error.hpp"
#include "runtime/trace.hpp"

namespace ss::runtime {

// ------------------------------------------------------- thread-local context

namespace {

struct ActorContext {
  TelemetryBoard* board = nullptr;
  OpIndex op = kInvalidOp;
  std::uint64_t blocked_in_scope = 0;
};

thread_local ActorContext tls_context;

}  // namespace

ScopedActorContext::ScopedActorContext(TelemetryBoard& board, OpIndex op) noexcept
    : saved_{tls_context.board, tls_context.op, tls_context.blocked_in_scope} {
  tls_context.board = &board;
  tls_context.op = op;
  tls_context.blocked_in_scope = 0;
}

ScopedActorContext::~ScopedActorContext() {
  tls_context.board = saved_.board;
  tls_context.op = saved_.op;
  tls_context.blocked_in_scope = saved_.blocked_in_scope;
}

std::uint64_t ScopedActorContext::blocked_ns() const {
  return tls_context.blocked_in_scope;
}

bool blocked_metering_enabled() {
  return tls_context.board != nullptr && tls_context.board->enabled();
}

void charge_blocked(std::uint64_t ns) {
  if (tls_context.board == nullptr) return;
  tls_context.board->add_blocked(tls_context.op, ns);
  tls_context.blocked_in_scope += ns;
}

void charge_blocked(std::uint64_t ns, OpIndex dest_op) {
  if (tls_context.board == nullptr) return;
  tls_context.board->add_blocked(tls_context.op, ns);
  tls_context.blocked_in_scope += ns;
  if (dest_op == kInvalidOp) return;
  if (BlockedEdgeSink* sink = tls_context.board->blocked_sink(); sink != nullptr) {
    sink->record_blocked_edge(tls_context.op, dest_op, ns);
  }
}

// ------------------------------------------------------------ metric table

namespace {

using V = const MetricView&;

template <class C>
double at(const std::vector<C>& column, std::size_t i) {
  return i < column.size() ? static_cast<double>(column[i]) : 0.0;
}

/// A CounterSnapshot column's delta per second over the window since prev.
template <class C>
double per_second(V v, std::vector<C> CounterSnapshot::*col) {
  const double d = at(v.now.counters.*col, v.index) - at(v.prev->counters.*col, v.index);
  const double window = v.now.counters.at_seconds - v.prev->counters.at_seconds;
  return std::max(d, 0.0) / (window > 1e-9 ? window : 1.0);
}

const ProfileEstimate& estimate(V v) { return v.now.profile[v.index]; }

// The presence rules: a row is left out of every sink when its rule fails.
bool always(V) { return true; }
bool metered(V v) { return v.index < v.now.counters.busy_ns.size(); }  // busy/blocked
bool windowed(V v) { return v.prev != nullptr; }
bool metered_window(V v) { return windowed(v) && metered(v); }
bool estimated(V v) { return v.index < v.now.profile.size() && estimate(v).estimated_rate > 0.0; }
bool cv2_measured(V v) { return estimated(v) && estimate(v).cv2 >= 0.0; }
bool op_timed(V v) {
  return v.index < v.now.latency.per_op.size() && v.now.latency.per_op[v.index].count > 0;
}
bool e2e_timed(V v) { return v.now.latency.end_to_end.count > 0; }
bool modelled(V v) { return v.now.predicted.valid; }
bool op_modelled(V v) {
  const PredictedLatency& p = v.now.predicted;
  return p.valid && v.index < p.op_response.size() && v.index < p.op_p99.size();
}
bool checkpointed(V v) { return v.now.checkpoints_written > 0 || v.now.recovered_from_epoch > 0; }

std::vector<MetricRow> build_metric_rows() {
  using enum MetricScope;
  using enum MetricType;
  using enum MetricUnit;
  std::vector<MetricRow> rows = {
      {kTop, "t", "ss_run_seconds", kGauge, kSeconds, "seconds since the run started",
       [](V v) { return v.now.counters.at_seconds; }, always},
      {kTop, "epoch", "ss_epoch", kGauge, kCount, "actor-graph epoch",
       [](V v) { return static_cast<double>(v.now.epoch); }, always},
      {kTop, "dropped", "ss_dropped_total", kCounter, kCount, "items lost to send timeouts",
       [](V v) { return static_cast<double>(v.now.dropped); }, always},
      {kOp, "processed", "ss_op_processed_total", kCounter, kCount, "input items consumed",
       [](V v) { return at(v.now.counters.processed, v.index); }, always},
      {kOp, "emitted", "ss_op_emitted_total", kCounter, kCount, "results produced",
       [](V v) { return at(v.now.counters.emitted, v.index); }, always},
      {kOp, "proc_rate", "", kGauge, kPerSecond, "input items per second over the window",
       [](V v) { return per_second(v, &CounterSnapshot::processed); }, windowed},
      {kOp, "emit_rate", "", kGauge, kPerSecond, "results per second over the window",
       [](V v) { return per_second(v, &CounterSnapshot::emitted); }, windowed},
      {kOp, "rho", "", kGauge, kRatio, "busy fraction of the window (measured utilization)",
       [](V v) { return per_second(v, &CounterSnapshot::busy_ns) * 1e-9; }, metered_window},
      {kOp, "blocked", "", kGauge, kRatio, "blocked-on-send fraction of the window",
       [](V v) { return per_second(v, &CounterSnapshot::blocked_ns) * 1e-9; }, metered_window},
      {kOp, "busy_s", "ss_op_busy_seconds_total", kCounter, kSeconds, "time in service",
       [](V v) { return at(v.now.counters.busy_ns, v.index) * 1e-9; }, metered},
      {kOp, "blocked_s", "ss_op_blocked_seconds_total", kCounter, kSeconds,
       "time blocked sending downstream",
       [](V v) { return at(v.now.counters.blocked_ns, v.index) * 1e-9; }, metered},
      {kOp, "queue", "ss_op_queue_depth", kGauge, kCount, "mailbox depth now",
       [](V v) { return at(v.now.counters.queue_depth, v.index); }, always},
      {kOp, "queue_peak", "ss_op_queue_peak", kGauge, kCount, "mailbox depth high-water mark",
       [](V v) { return at(v.now.counters.queue_peak, v.index); }, always},
      {kOp, "est_rate", "ss_op_estimated_service_rate", kGauge, kPerSecond,
       "profiled non-blocking service rate", [](V v) { return estimate(v).estimated_rate; },
       estimated},
      {kOp, "busy_rate", "ss_op_busy_service_rate", kGauge, kPerSecond, "busy-time service rate",
       [](V v) { return estimate(v).busy_rate; }, estimated},
      {kOp, "confidence", "ss_op_profile_confidence", kGauge, kRatio,
       "confidence in the estimate", [](V v) { return estimate(v).confidence; }, estimated},
      {kOp, "est_samples", "ss_op_profile_samples", kGauge, kCount, "items behind the estimate",
       [](V v) { return static_cast<double>(estimate(v).samples); }, estimated},
      {kOp, "cv2", "ss_op_service_cv2", kGauge, kRatio, "service-time squared CV",
       [](V v) { return estimate(v).cv2; }, cv2_measured},
      {kOp, "queue_full", "ss_op_queue_full_fraction", kGauge, kRatio,
       "share of probes that found the input buffer full",
       [](V v) { return estimate(v).queue_full_fraction; }, estimated},
      {kOp, "p50_ms", "ss_op_latency_seconds", kQuantile, kMillis, "source-to-operator delay",
       [](V v) { return v.now.latency.per_op[v.index].p50; }, op_timed, "0.5"},
      {kOp, "p95_ms", "ss_op_latency_seconds", kQuantile, kMillis, "source-to-operator delay",
       [](V v) { return v.now.latency.per_op[v.index].p95; }, op_timed, "0.95"},
      {kOp, "p99_ms", "ss_op_latency_seconds", kQuantile, kMillis, "source-to-operator delay",
       [](V v) { return v.now.latency.per_op[v.index].p99; }, op_timed, "0.99"},
      {kOp, "pred_ms", "ss_op_predicted_response_seconds", kGauge, kMillis,
       "model-predicted mean response time",
       [](V v) { return v.now.predicted.op_response[v.index]; }, op_modelled},
      {kOp, "pred_p99_ms", "ss_op_predicted_p99_seconds", kGauge, kMillis,
       "model-predicted p99 response time",
       [](V v) { return v.now.predicted.op_p99[v.index]; }, op_modelled},
      {kE2e, "count", "ss_e2e_samples_total", kCounter, kCount, "end-to-end latency samples",
       [](V v) { return static_cast<double>(v.now.latency.end_to_end.count); }, always},
      {kE2e, "p50_ms", "ss_e2e_latency_seconds", kQuantile, kMillis, "source stamp to a sink",
       [](V v) { return v.now.latency.end_to_end.p50; }, e2e_timed, "0.5"},
      {kE2e, "p95_ms", "ss_e2e_latency_seconds", kQuantile, kMillis, "source stamp to a sink",
       [](V v) { return v.now.latency.end_to_end.p95; }, e2e_timed, "0.95"},
      {kE2e, "p99_ms", "ss_e2e_latency_seconds", kQuantile, kMillis, "source stamp to a sink",
       [](V v) { return v.now.latency.end_to_end.p99; }, e2e_timed, "0.99"},
      {kE2e, "pred_p50_ms", "ss_e2e_predicted_latency_seconds", kQuantile, kMillis,
       "model-predicted end-to-end latency", [](V v) { return v.now.predicted.p50; }, modelled,
       "0.5"},
      {kE2e, "pred_p95_ms", "ss_e2e_predicted_latency_seconds", kQuantile, kMillis,
       "model-predicted end-to-end latency", [](V v) { return v.now.predicted.p95; }, modelled,
       "0.95"},
      {kE2e, "pred_p99_ms", "ss_e2e_predicted_latency_seconds", kQuantile, kMillis,
       "model-predicted end-to-end latency", [](V v) { return v.now.predicted.p99; }, modelled,
       "0.99"},
      {kE2e, "pred_mean_ms", "ss_e2e_predicted_mean_seconds", kGauge, kMillis,
       "model-predicted mean sojourn", [](V v) { return v.now.predicted.mean; }, modelled},
      {kCkpt, "written", "ss_checkpoints_written_total", kCounter, kCount, "snapshots persisted",
       [](V v) { return static_cast<double>(v.now.checkpoints_written); }, checkpointed},
      {kCkpt, "last_epoch", "ss_checkpoint_last_epoch", kGauge, kCount, "newest snapshot's epoch",
       [](V v) { return static_cast<double>(v.now.last_epoch_persisted); }, checkpointed},
      {kCkpt, "recovered_from", "ss_checkpoint_recovered_from_epoch", kGauge, kCount,
       "epoch restored from", [](V v) { return static_cast<double>(v.now.recovered_from_epoch); },
       checkpointed},
      {kBottleneck, "blame_s", "ss_op_bottleneck_blame_seconds", kGauge, kSeconds,
       "blocked time blamed on the operator",
       [](V v) { return v.now.bottlenecks[v.index].blame_seconds; }, always},
      {kBottleneck, "share", "ss_op_bottleneck_share", kGauge, kRatio, "share of blocked time",
       [](V v) { return v.now.bottlenecks[v.index].share; }, always},
  };
  for (const SchedulerCounterField& f : kSchedulerCounterFields) {
    const auto value = [m = f.member](V v) { return static_cast<double>(v.now.scheduler.*m); };
    rows.push_back({kSched, f.name, std::string("ss_sched_") + f.name + (f.is_max ? "" : "_total"),
                    f.is_max ? kGauge : kCounter, kCount, f.help, value, always});
  }
  return rows;
}

/// Entries of `scope` in `s`: one per operator or ranked bottleneck, else one.
std::size_t entries(MetricScope scope, const MetricsSample& s) {
  if (scope == MetricScope::kOp) return s.counters.processed.size();
  return scope == MetricScope::kBottleneck ? s.bottlenecks.size() : 1;
}

/// Operator name of entry `i` of the two per-operator scopes; empty elsewhere.
std::string op_name(MetricScope scope, const MetricsSample& s,
                    const std::vector<std::string>& names, std::size_t i) {
  if (scope != MetricScope::kOp && scope != MetricScope::kBottleneck) return {};
  const std::size_t op = scope == MetricScope::kOp ? i : s.bottlenecks[i].op;
  return op < names.size() ? names[op] : std::to_string(op);
}

/// Writes the row's value at `v`; ms rows scale from seconds only in JSON.
void put(std::ostream& out, const MetricRow& row, V v, bool json) {
  const double value = row.value(v);
  if (row.unit == MetricUnit::kCount) {
    out << static_cast<std::uint64_t>(value);
  } else {
    out << (json && row.unit == MetricUnit::kMillis ? value * 1e3 : value);
  }
}

/// `"key":value` pairs of the present rows of `scope` for one entry.
std::string json_fields(MetricScope scope, V v) {
  std::ostringstream out;
  out.precision(6);
  for (const MetricRow& row : metric_rows()) {
    if (row.scope != scope || !row.present(v)) continue;
    out << (out.tellp() > 0 ? ",\"" : "\"") << row.key << "\":";
    put(out, row, v, true);
  }
  return out.str();
}

/// The one Prometheus label writer: values escape backslash, quote and
/// newline; empty values are left out.
std::string prom_labels(const std::string& tenant, const std::string& op,
                        const std::string& quantile) {
  std::string out;
  const std::pair<const char*, const std::string*> labels[] = {
      {"tenant", &tenant}, {"op", &op}, {"quantile", &quantile}};
  for (const auto& [name, value] : labels) {
    if (value->empty()) continue;
    out += (out.empty() ? "{" : ",") + std::string(name) + "=\"";
    for (char c : *value) {
      if (c == '"' || c == '\\') out += '\\';
      out += c == '\n' ? std::string("\\n") : std::string(1, c);
    }
    out += '"';
  }
  return out.empty() ? out : out + "}";
}

}  // namespace

const std::vector<MetricRow>& metric_rows() {
  static const std::vector<MetricRow> rows = build_metric_rows();
  return rows;
}

std::string render_json(const MetricsSample& s, const std::vector<std::string>& op_names,
                        const MetricsSample* prev) {
  const auto fields = [&](MetricScope scope, std::size_t i) {
    return json_fields(scope, {s, prev, i});
  };
  // One object per operator / bottleneck, led by its operator's name.
  const auto list = [&](const char* key, const char* name_key, MetricScope scope) {
    std::string out = std::string(",\"") + key + "\":[";
    for (std::size_t i = 0; i < entries(scope, s); ++i) {
      const std::string f = fields(scope, i);
      out += (i > 0 ? ",{\"" : "{\"") + std::string(name_key) + "\":\"" +
             json_escape(op_name(scope, s, op_names, i)) + (f.empty() ? "\"" : "\",") + f + "}";
    }
    return out + "]";
  };
  std::string out = "{";
  if (!s.tenant.empty()) out += "\"tenant\":\"" + json_escape(s.tenant) + "\",";
  out += fields(MetricScope::kTop, 0) + list("ops", "name", MetricScope::kOp);
  out += ",\"e2e\":{" + fields(MetricScope::kE2e, 0) + "}";
  if (const std::string ckpt = fields(MetricScope::kCkpt, 0); !ckpt.empty()) {
    out += ",\"ckpt\":{" + ckpt + "}";
  }
  out += list("bottlenecks", "op", MetricScope::kBottleneck);
  return out + ",\"sched\":{" + fields(MetricScope::kSched, 0) + "}}\n";
}

std::string render_prometheus(const MetricsSample& s,
                              const std::vector<std::string>& op_names) {
  static constexpr const char* kTypeNames[] = {"counter", "gauge", "summary"};
  const std::vector<MetricRow>& rows = metric_rows();
  std::ostringstream out;
  out.precision(6);
  // The rows of one family are adjacent in the table: one block each.
  for (auto head = rows.begin(), next = head; head != rows.end(); head = next) {
    next = std::find_if(head, rows.end(),
                        [&head](const MetricRow& r) { return r.family != head->family; });
    if (head->family.empty()) continue;  // JSON-only (windowed) rows
    std::ostringstream series;
    series.precision(6);
    for (auto row = head; row != next; ++row) {
      for (std::size_t i = 0; i < entries(row->scope, s); ++i) {
        if (!row->present({s, nullptr, i})) continue;
        series << row->family
               << prom_labels(s.tenant, op_name(row->scope, s, op_names, i), row->quantile)
               << ' ';
        put(series, *row, {s, nullptr, i}, false);
        series << '\n';
      }
    }
    if (series.tellp() <= 0) continue;  // no value present: no family
    out << "# HELP " << head->family << ' ' << head->help << "\n# TYPE " << head->family << ' '
        << kTypeNames[static_cast<int>(head->type)] << '\n'
        << series.str();
  }
  return out.str();
}

// ---------------------------------------------------------------- exporter

struct MetricsExporter::Impl {
  std::ofstream out;
  std::mutex mu;
  std::condition_variable cv;  ///< wakes the loop early on stop()
};

MetricsExporter::MetricsExporter(std::function<MetricsSample()> sampler,
                                 std::vector<std::string> op_names,
                                 const std::string& path, double period_seconds)
    : sampler_(std::move(sampler)),
      op_names_(std::move(op_names)),
      period_(period_seconds > 0.0 ? period_seconds : 0.5),
      impl_(std::make_unique<Impl>()) {
  impl_->out.open(path, std::ios::trunc);
  require(impl_->out.good(), "cannot write metrics file: ", path);
}

MetricsExporter::~MetricsExporter() { stop(); }

void MetricsExporter::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { loop(); });
}

void MetricsExporter::stop() {
  if (!started_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    stop_.store(true, std::memory_order_relaxed);
  }
  impl_->cv.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MetricsExporter::loop() {
  const auto period = std::chrono::duration<double>(period_);
  std::unique_lock<std::mutex> lock(impl_->mu);
  while (!stop_.load(std::memory_order_relaxed)) {
    if (impl_->cv.wait_for(lock, period,
                           [this] { return stop_.load(std::memory_order_relaxed); })) {
      break;
    }
    lock.unlock();
    write_sample(sampler_());
    lock.lock();
  }
  lock.unlock();
  // Final sample so short runs always leave at least one line.
  write_sample(sampler_());
  impl_->out.flush();
}

void MetricsExporter::write_sample(const MetricsSample& s) {
  impl_->out << render_json(s, op_names_, &prev_);
  prev_ = s;
  ++lines_;
}

}  // namespace ss::runtime
