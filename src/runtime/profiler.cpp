#include "runtime/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "runtime/trace.hpp"

namespace ss::runtime {

ProfileEstimator::ProfileEstimator(std::size_t num_ops,
                                   const TelemetryBoard* telemetry,
                                   const StatsBoard* stats, ProfilerConfig config,
                                   std::function<void(std::vector<QueueProbe>&)> queue_probe)
    : num_ops_(num_ops),
      telemetry_(telemetry),
      stats_(stats),
      config_(config),
      queue_probe_(std::move(queue_probe)),
      cells_(num_ops),
      edge_ns_(num_ops * num_ops),
      smoothed_(num_ops),
      published_(num_ops) {}

ProfileEstimator::~ProfileEstimator() { stop(); }

void ProfileEstimator::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { loop(); });
}

void ProfileEstimator::stop() {
  if (started_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      stop_.store(true, std::memory_order_relaxed);
    }
    wake_cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    started_.store(false, std::memory_order_relaxed);
    stop_.store(false, std::memory_order_relaxed);
  }
  // Final fold so short runs (and stopped estimators queried afterwards)
  // always publish whatever was observed.
  fold_now();
}

void ProfileEstimator::record_blocked_edge(OpIndex from, OpIndex to,
                                           std::uint64_t ns) {
  if (from >= num_ops_ || to >= num_ops_) return;
  edge_ns_[from * num_ops_ + to].fetch_add(ns, std::memory_order_relaxed);
}

void ProfileEstimator::loop() {
  const auto period = std::chrono::duration<double>(
      config_.period_seconds > 0.0 ? config_.period_seconds : 0.25);
  std::unique_lock<std::mutex> lock(wake_mu_);
  while (!stop_.load(std::memory_order_relaxed)) {
    if (wake_cv_.wait_for(lock, period,
                          [this] { return stop_.load(std::memory_order_relaxed); })) {
      break;
    }
    lock.unlock();
    fold();
    lock.lock();
  }
}

void ProfileEstimator::fold_now() { fold(); }

void ProfileEstimator::fold() {
  // Queue-occupancy probe BEFORE taking mu_: the probe callback takes the
  // engine's epoch lock, and engine threads holding that lock may call
  // snapshot() (which takes mu_) — probing under mu_ would invert the
  // order and deadlock.
  std::vector<QueueProbe> probes;
  if (queue_probe_) {
    probes.assign(num_ops_, QueueProbe{});
    queue_probe_(probes);
  }

  std::lock_guard<std::mutex> lock(mu_);

  // One occupancy sample per op per fold, "full" when a push right now
  // would enter the blocking slow path.
  for (std::size_t i = 0; i < num_ops_ && i < probes.size(); ++i) {
    const QueueProbe& q = probes[i];
    if (!q.valid || q.capacity == 0) continue;
    ++smoothed_[i].probes;
    if (q.depth >= q.capacity) ++smoothed_[i].full_probes;
  }

  // One counter snapshot per fold feeds the busy-rate comparison column.
  CounterSnapshot counters;
  if (stats_ != nullptr) counters = stats_->snapshot(0.0);

  bool all_confident = true;
  for (std::size_t i = 0; i < num_ops_; ++i) {
    Cell& c = cells_[i];
    Smoothed& s = smoothed_[i];
    // Drain the accumulators (exchange keeps concurrent recorders safe).
    const std::uint64_t m_ns = c.multi_ns.exchange(0, std::memory_order_relaxed);
    const std::uint64_t m_items =
        c.multi_items.exchange(0, std::memory_order_relaxed);
    const double m_sq = c.multi_sq_ns2.exchange(0.0, std::memory_order_relaxed);
    const std::uint64_t s_ns = c.single_ns.exchange(0, std::memory_order_relaxed);
    const std::uint64_t s_slices =
        c.single_slices.exchange(0, std::memory_order_relaxed);
    const double s_sq = c.single_sq_ns2.exchange(0.0, std::memory_order_relaxed);
    c.multi_slices.exchange(0, std::memory_order_relaxed);

    // Fold-interval service estimate: multi-item gaps are the trusted
    // signal and the only one that raises confidence; singleton slices
    // only fill in (quarter weight) when the interval had no backlog burst
    // at all.  When both occur, the mean spans every item metered in the
    // interval: gaps alone are biased low wherever per-item time tracks
    // the backlog — a timed wait that overruns in a singleton slice builds
    // the very burst in which PacedWaiter repays the overrun.  The
    // variance fit stays on the burst gaps.
    double est_ns = 0.0;
    double var = 0.0;
    std::uint64_t weight = 0;
    if (m_items > 0) {
      const double gap_ns = static_cast<double>(m_ns) / static_cast<double>(m_items);
      est_ns = static_cast<double>(m_ns + s_ns) /
               static_cast<double>(m_items + s_slices);
      var = m_sq / static_cast<double>(m_items) - gap_ns * gap_ns;
      weight = m_items;
    } else if (s_slices > 0) {
      est_ns = static_cast<double>(s_ns) / static_cast<double>(s_slices);
      var = s_sq / static_cast<double>(s_slices) - est_ns * est_ns;
      weight = (s_slices + 3) / 4;
    }
    if (weight > 0 && est_ns > 0.0) {
      const double alpha =
          s.items == 0 ? 1.0 : std::clamp(config_.ewma_alpha, 0.0, 1.0);
      s.service_ns += alpha * (est_ns - s.service_ns);
      s.var_ns2 += alpha * (std::max(0.0, var) - s.var_ns2);
      s.items += m_items;  // singleton slices never raise confidence
    }
    const double half = static_cast<double>(config_.confidence_target) * 0.5;
    s.confidence =
        s.items == 0
            ? 0.0
            : static_cast<double>(s.items) / (static_cast<double>(s.items) + half);

    ProfileEstimate& p = published_[i];
    p.estimated_rate = s.service_ns > 0.0 ? 1e9 / s.service_ns : 0.0;
    p.cv2 = s.service_ns > 0.0 ? s.var_ns2 / (s.service_ns * s.service_ns) : -1.0;
    p.confidence = s.confidence;
    p.samples = s.items;
    p.queue_full_fraction =
        s.probes > 0
            ? static_cast<double>(s.full_probes) / static_cast<double>(s.probes)
            : 0.0;
    if (telemetry_ != nullptr && i < telemetry_->size() &&
        i < counters.processed.size()) {
      const double busy_s =
          static_cast<double>(telemetry_->busy_ns(static_cast<OpIndex>(i))) * 1e-9;
      p.busy_rate = busy_s > 0.0
                        ? static_cast<double>(counters.processed[i]) / busy_s
                        : 0.0;
    }
    // Only ops that actually processed something vote on arming: idle
    // operators (sources, cold branches) would pin the dense window open
    // forever.  An op seen only through singleton slices (service_ns set,
    // items still 0) is active but unconfident — it keeps the window armed.
    if (s.items > 0 && s.confidence < config_.arm_threshold) all_confident = false;
    if (s.items == 0 && (p.busy_rate > 0.0 || s.service_ns > 0.0)) {
      all_confident = false;
    }
  }
  armed_.store(!all_confident, std::memory_order_relaxed);

  compute_bottlenecks();

  trace::instant("profile_sample", "profiler", "armed",
                 armed_.load(std::memory_order_relaxed) ? 1 : 0);
  trace::instant("bottleneck_rank", "profiler", "top",
                 ranking_.empty() ? -1 : static_cast<std::int64_t>(ranking_[0].op));
}

void ProfileEstimator::compute_bottlenecks() {
  // Transitive blame propagation over the observed blocked-edge graph:
  // an edge (i → j, w) blames j for w, except for the fraction of time j
  // was itself blocked downstream — that share is passed along j's own
  // blocked edges proportionally.  Iterating num_ops rounds settles any
  // DAG (cycles would need damping; stream topologies here are acyclic).
  std::vector<double> blame(num_ops_, 0.0);
  std::vector<double> out_ns(num_ops_, 0.0);
  std::vector<std::pair<std::size_t, double>> edges;  // (from*n+to, ns)
  double total = 0.0;
  for (std::size_t f = 0; f < num_ops_; ++f) {
    for (std::size_t t = 0; t < num_ops_; ++t) {
      const double w = static_cast<double>(
          edge_ns_[f * num_ops_ + t].load(std::memory_order_relaxed));
      if (w <= 0.0) continue;
      edges.emplace_back(f * num_ops_ + t, w);
      out_ns[f] += w;
      total += w;
    }
  }
  ranking_.clear();
  if (edges.empty() || total <= 0.0) return;

  // pass_fraction[j]: how much of the blame arriving at j flows through
  // to j's own downstream blockers.  Normalized by j's busy + blocked-out
  // time — a j that mostly worked (not blocked) keeps the blame.
  std::vector<double> pass(num_ops_, 0.0);
  for (std::size_t j = 0; j < num_ops_; ++j) {
    if (out_ns[j] <= 0.0) continue;
    double busy_ns = 0.0;
    if (telemetry_ != nullptr && j < telemetry_->size()) {
      busy_ns = static_cast<double>(telemetry_->busy_ns(static_cast<OpIndex>(j)));
    }
    pass[j] = out_ns[j] / (out_ns[j] + std::max(busy_ns, 1.0));
  }

  // Seed: each edge's weight arrives at its destination.
  std::vector<double> incoming(num_ops_, 0.0);
  for (const auto& [key, w] : edges) incoming[key % num_ops_] += w;
  for (std::size_t round = 0; round < num_ops_; ++round) {
    std::vector<double> next(num_ops_, 0.0);
    bool moved = false;
    for (std::size_t j = 0; j < num_ops_; ++j) {
      if (incoming[j] <= 0.0) continue;
      const double keep = incoming[j] * (1.0 - pass[j]);
      blame[j] += keep;
      const double forward = incoming[j] - keep;
      if (forward <= 1e-9 || out_ns[j] <= 0.0) {
        blame[j] += forward;
        continue;
      }
      for (const auto& [key, w] : edges) {
        if (key / num_ops_ != j) continue;
        next[key % num_ops_] += forward * (w / out_ns[j]);
        moved = true;
      }
    }
    incoming.swap(next);
    if (!moved) break;
  }
  // Whatever is still in flight after the rounds settles where it is.
  for (std::size_t j = 0; j < num_ops_; ++j) blame[j] += incoming[j];

  for (std::size_t j = 0; j < num_ops_; ++j) {
    if (blame[j] <= 0.0) continue;
    BottleneckEntry e;
    e.op = static_cast<OpIndex>(j);
    e.blame_seconds = blame[j] * 1e-9;
    e.share = blame[j] / total;
    ranking_.push_back(e);
  }
  std::sort(ranking_.begin(), ranking_.end(),
            [](const BottleneckEntry& a, const BottleneckEntry& b) {
              return a.blame_seconds > b.blame_seconds;
            });
}

std::vector<ProfileEstimate> ProfileEstimator::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_;
}

std::vector<BottleneckEntry> ProfileEstimator::bottlenecks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ranking_;
}

}  // namespace ss::runtime
