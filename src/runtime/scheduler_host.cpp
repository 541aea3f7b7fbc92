// SchedulerHost implementation: the pooled dispatcher generalized to many
// tenants.  The per-actor mechanics are a claim slot around one engine step
// (source pump or serve batch — the steps thread-per-actor loops) plus
// requeue-on-race, parameterized by tenant; what is new is
// the cross-tenant layer — stride-weighted tenant selection, host-level
// parking keyed on the aggregate pending count, blocking compensation
// shared across tenants, and hot attach/detach under the tenant lock.
#include "runtime/scheduler_host.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

#include "runtime/trace.hpp"

namespace ss::runtime {

namespace {
/// Stride numerator: pass advances by kStrideScale/weight per dispatched
/// actor batch, so a weight-2 tenant is served twice as often as a
/// weight-1 neighbor when both stay ready.
constexpr std::uint64_t kStrideScale = 1 << 20;

thread_local SchedulerHost* tls_host = nullptr;

/// Best-effort degradation (--pin in restricted environments, e.g. CI
/// containers without CAP_SYS_NICE-adjacent affinity rights): warn once on
/// stderr, keep running unpinned.
void warn_pin_unavailable() {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "spinstreams: warning: --pin requested but CPU affinity is "
                 "unavailable here; continuing unpinned\n");
  }
}

#if defined(__linux__)
/// physical_package_id per CPU from sysfs; empty when the topology cannot
/// be read (then kSockets degrades to an all-CPU mask).
std::vector<int> cpu_packages(unsigned ncpu) {
  std::vector<int> packages(ncpu, -1);
  for (unsigned cpu = 0; cpu < ncpu; ++cpu) {
    std::ifstream in("/sys/devices/system/cpu/cpu" + std::to_string(cpu) +
                     "/topology/physical_package_id");
    if (!(in >> packages[cpu])) return {};
  }
  return packages;
}
#endif

/// Pins the calling worker thread per `mode`: kCores assigns worker
/// `self` → CPU (self mod N) round-robin — the hardware analogue of the
/// last_worker_ hint routing; kSockets confines the worker to every CPU of
/// one physical package (round-robin over packages), keeping the shared
/// L3 warm without forbidding intra-socket migration.
void apply_pinning(PinMode mode, std::size_t self) {
#if defined(__linux__)
  const unsigned ncpu = std::thread::hardware_concurrency();
  if (ncpu == 0) {
    warn_pin_unavailable();
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  if (mode == PinMode::kCores) {
    CPU_SET(self % ncpu, &set);
  } else {
    static const std::vector<int> packages = cpu_packages(ncpu);
    const int npkg =
        packages.empty() ? 0 : *std::max_element(packages.begin(), packages.end()) + 1;
    if (npkg <= 1) {
      // Single socket (or unreadable topology): every CPU is "the" socket.
      for (unsigned cpu = 0; cpu < ncpu; ++cpu) CPU_SET(cpu, &set);
    } else {
      const int pkg = static_cast<int>(self % static_cast<std::size_t>(npkg));
      for (unsigned cpu = 0; cpu < ncpu; ++cpu) {
        if (packages[cpu] == pkg) CPU_SET(cpu, &set);
      }
    }
  }
  if (sched_setaffinity(0, sizeof(set), &set) != 0) warn_pin_unavailable();
#else
  (void)mode;
  (void)self;
  warn_pin_unavailable();
#endif
}
}  // namespace

struct SchedulerHost::Tenant {
  EngineCore* core = nullptr;
  std::string label;
  const char* trace_label = nullptr;  ///< interned for Event tagging
  double weight = 1.0;
  std::uint64_t stride = kStrideScale;
  std::atomic<std::uint64_t> pass{0};

  struct ActorSlot {
    std::atomic<bool> running{false};  ///< claim: one worker per actor
    std::atomic<bool> done{false};
  };

  std::unique_ptr<WorkStealingQueues> queues;  ///< per-tenant ready hints
  std::vector<ActorSlot> slots;
  std::vector<std::atomic<std::size_t>> last_worker;  ///< affinity per actor

  std::size_t remaining = 0;  ///< actors not yet done (host mu_)
  std::atomic<bool> detached{false};

  /// Drain-batch telemetry.  One shard per tenant (not per worker): any
  /// worker index maps onto the tenant's queues by modulo, so the
  /// single-writer-per-shard assumption of the old per-worker layout does
  /// not survive multi-tenancy.  fetch_add + CAS-max keep it exact.
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batch_messages{0};
  std::atomic<std::uint64_t> max_batch{0};
};

SchedulerHost::SchedulerHost(int workers, int batch, PinMode pin)
    : target_(workers),
      batch_(batch > 0 ? static_cast<std::size_t>(batch) : kSliceItems),
      pin_(pin) {
  if (target_ <= 0) {
    target_ = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  max_threads_ = target_;
}

SchedulerHost::~SchedulerHost() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(park_mu_);
    park_cv_.notify_all();
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(mu_);
    threads.swap(threads_);
  }
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }
}

std::size_t SchedulerHost::num_tenants() const {
  std::shared_lock lock(tenants_mu_);
  return tenants_.size();
}

SchedulerHost::TenantId SchedulerHost::attach(EngineCore& core, std::string label,
                                              double weight) {
  auto t = std::make_shared<Tenant>();
  t->core = &core;
  t->label = std::move(label);
  if (!t->label.empty()) t->trace_label = trace::intern_label(t->label);
  t->weight = weight > 0.0 ? weight : 1.0;
  t->stride = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(kStrideScale) / t->weight));
  const std::size_t n = core.num_actors();
  // Same queue-count sizing as the single-tenant pooled scheduler: one
  // deque per potential worker of a dedicated pool.  Host workers whose
  // index exceeds it fold in by modulo (work_stealing.hpp).
  t->queues = std::make_unique<WorkStealingQueues>(static_cast<std::size_t>(target_) + n);
  t->slots = std::vector<Tenant::ActorSlot>(n);
  t->last_worker = std::vector<std::atomic<std::size_t>>(n);
  // A newcomer starts at the host's pass clock: it competes fairly from
  // now on instead of replaying credit for the time before it existed.
  t->pass.store(pass_clock_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  for (std::size_t id = 0; id < n; ++id) {
    t->last_worker[id].store(id % static_cast<std::size_t>(target_),
                             std::memory_order_relaxed);
    core.mailbox(id).set_on_ready([this, t, id] { enqueue(t, id); });
  }
  {
    std::unique_lock lock(tenants_mu_);
    tenants_.push_back(t);
  }
  {
    std::lock_guard lock(mu_);
    t->remaining = n;
    max_threads_ += static_cast<int>(n);
    ensure_started();
  }
  for (std::size_t id = 0; id < n; ++id) {
    if (core.is_source(id)) enqueue(t, id);
  }
  return t;
}

void SchedulerHost::wait_drained(const TenantId& tenant) {
  std::unique_lock lock(mu_);
  drained_cv_.wait(lock, [&] { return tenant->remaining == 0; });
}

void SchedulerHost::detach(const TenantId& tenant) {
  std::size_t actors = 0;
  {
    std::unique_lock lock(tenants_mu_);
    auto it = std::find(tenants_.begin(), tenants_.end(), tenant);
    if (it == tenants_.end()) return;
    tenants_.erase(it);
    tenant->detached.store(true, std::memory_order_release);
    actors = tenant->slots.size();
    // Residual ready-hints of the leaving tenant are stale (every actor is
    // done); deduct them from the park predicate so workers don't spin
    // hunting for work that no longer exists.  They stay in the tenant's
    // deques and are reported as `discarded`, exactly like the old pool's
    // shutdown path.
    const std::size_t residual = tenant->queues->pending();
    std::size_t pending = pending_.load(std::memory_order_relaxed);
    while (pending > 0 &&
           !pending_.compare_exchange_weak(pending, pending - std::min(pending, residual),
                                           std::memory_order_acq_rel)) {
    }
  }
  std::lock_guard lock(mu_);
  max_threads_ -= static_cast<int>(actors);
}

SchedulerCounters SchedulerHost::tenant_counters(const TenantId& tenant) const {
  SchedulerCounters c;
  const WorkStealingCounters q = tenant->queues->counters();
  c.pushes = q.pushes;
  c.local_pops = q.local_pops;
  c.steals = q.steals;
  c.discarded = q.discarded;
  c.parks = parks_.load(std::memory_order_relaxed);
  c.wakeups = wakeups_.load(std::memory_order_relaxed);
  c.batches = tenant->batches.load(std::memory_order_relaxed);
  c.batch_messages = tenant->batch_messages.load(std::memory_order_relaxed);
  c.max_batch = tenant->max_batch.load(std::memory_order_relaxed);
  return c;
}

void SchedulerHost::blocking_begin() {
  std::lock_guard lock(mu_);
  ++blocked_;
  if (pending_.load(std::memory_order_acquire) > 0 &&
      idle_.load(std::memory_order_acquire) == 0) {
    maybe_spawn_locked();
  }
}

void SchedulerHost::blocking_end() {
  std::lock_guard lock(mu_);
  --blocked_;
}

void SchedulerHost::ensure_started() {
  if (started_) return;
  started_ = true;
  for (int i = 0; i < target_; ++i) spawn_locked();
}

/// Compensation: keep `target_` runnable (non-blocked) workers as long as
/// ready work exists, up to the cap.
void SchedulerHost::maybe_spawn_locked() {
  if (spawned_ - blocked_ < target_ && spawned_ < max_threads_) spawn_locked();
}

void SchedulerHost::spawn_locked() {
  if (shutdown_.load(std::memory_order_acquire)) return;
  const std::size_t self = static_cast<std::size_t>(spawned_++);
  threads_.emplace_back([this, self] { worker_loop(self); });
}

void SchedulerHost::enqueue(const TenantId& t, std::size_t id) {
  {
    std::shared_lock lock(tenants_mu_);
    if (t->detached.load(std::memory_order_relaxed)) return;
    if (t->queues->pending() == 0) {
      // Idle → ready edge: clamp the tenant's pass up to the host clock so
      // the credit it "saved" while idle cannot buy a worker monopoly now.
      std::uint64_t clock = pass_clock_.load(std::memory_order_relaxed);
      std::uint64_t pass = t->pass.load(std::memory_order_relaxed);
      while (pass < clock &&
             !t->pass.compare_exchange_weak(pass, clock, std::memory_order_relaxed)) {
      }
    }
    // Route the hint to the actor's last worker (warm cache); any worker
    // can steal it, so a busy preferred worker never delays the actor.
    t->queues->push(id, t->last_worker[id].load(std::memory_order_relaxed));
    pending_.fetch_add(1, std::memory_order_release);
  }
  wake_or_spawn();
}

void SchedulerHost::wake_or_spawn() {
  // Check-then-notify is race-free against the park path: a worker only
  // parks after re-evaluating `pending_ > 0` under park_mu_, and the
  // fetch_add in enqueue() is ordered before this load.
  if (idle_.load(std::memory_order_acquire) > 0) {
    std::lock_guard lock(park_mu_);
    park_cv_.notify_one();
    return;
  }
  // Nobody parked: all workers are busy or blocked.  Compensate if the
  // runnable budget has room (workers inside a BlockingSection don't
  // count against K).
  std::lock_guard lock(mu_);
  maybe_spawn_locked();
}

void SchedulerHost::worker_loop(std::size_t self) {
  tls_host = this;
  trace::Tracer::instance().set_thread_name("worker-" + std::to_string(self));
  // Compensation workers (self >= target_) pin by the same modulo: they
  // substitute for a blocked worker, so they inherit a blocked worker's
  // placement rather than landing on an arbitrary core.
  if (pin_ != PinMode::kNone) apply_pinning(pin_, self);
  for (;;) {
    if (shutdown_.load(std::memory_order_acquire)) break;
    if (run_one(self)) continue;
    // Global miss: park until the next enqueue (or shutdown).  The
    // predicate re-check under park_mu_ closes the lost-wakeup window
    // with wake_or_spawn().
    std::unique_lock lock(park_mu_);
    idle_.fetch_add(1, std::memory_order_release);
    const auto runnable = [&] {
      return shutdown_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    };
    if (!runnable()) {
      parks_.fetch_add(1, std::memory_order_relaxed);
      trace::Span span("park", "sched");
      park_cv_.wait(lock, runnable);
      if (!shutdown_.load(std::memory_order_acquire)) {
        wakeups_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    idle_.fetch_sub(1, std::memory_order_release);
  }
  tls_host = nullptr;
}

bool SchedulerHost::run_one(std::size_t self) {
  TenantId chosen;
  std::size_t id = 0;
  {
    std::shared_lock lock(tenants_mu_);
    const std::size_t n = tenants_.size();
    if (n == 0) return false;
    if (n == 1) {
      // Single-tenant fast path: no selection — this *is* the pooled
      // scheduler.
      if (tenants_[0]->queues->try_acquire(self, id)) chosen = tenants_[0];
    } else {
      // Stride scheduling: serve ready tenants in ascending pass order.
      thread_local std::vector<std::pair<std::uint64_t, std::size_t>> order;
      order.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (tenants_[i]->queues->pending() == 0) continue;
        order.emplace_back(tenants_[i]->pass.load(std::memory_order_relaxed), i);
      }
      std::sort(order.begin(), order.end());
      for (const auto& [pass, i] : order) {
        if (tenants_[i]->queues->try_acquire(self, id)) {
          chosen = tenants_[i];
          break;
        }
      }
    }
    if (chosen) {
      pending_.fetch_sub(1, std::memory_order_release);
      const std::uint64_t next =
          chosen->pass.fetch_add(chosen->stride, std::memory_order_relaxed) +
          chosen->stride;
      std::uint64_t clock = pass_clock_.load(std::memory_order_relaxed);
      while (clock < next &&
             !pass_clock_.compare_exchange_weak(clock, next, std::memory_order_relaxed)) {
      }
    }
  }
  if (!chosen) return false;
  run_slot(chosen, self, id);
  return true;
}

void SchedulerHost::run_slot(const TenantId& t, std::size_t self, std::size_t id) {
  Tenant::ActorSlot& slot = t->slots[id];
  if (slot.done.load(std::memory_order_acquire)) return;
  if (slot.running.exchange(true, std::memory_order_acq_rel)) return;  // claimed elsewhere
  if (slot.done.load(std::memory_order_relaxed)) {  // finished before our claim
    slot.running.store(false, std::memory_order_release);
    return;
  }
  // Tag every event this slot records (spans, steals, operator logic) with
  // the tenant; cleared on all exit paths.
  struct TenantTagGuard {
    ~TenantTagGuard() { trace::set_thread_tenant(nullptr); }
  } tag_guard;
  trace::set_thread_tenant(t->trace_label);
  EngineCore* core = t->core;
  t->last_worker[id].store(self, std::memory_order_relaxed);
  const bool source = core->is_source(id);
  // One engine step.  It closes its busy slice and flushes its output
  // stage before returning (or unwinding), so nothing it staged can be
  // overtaken by the finish epilogue's tokens, and nothing touches the
  // engine after complete() lets the tenant's owner destroy it.
  ActorStep step = ActorStep::kMore;
  try {
    if (source) {
      trace::Span span("pump", "actor");
      span.set_arg("actor", static_cast<std::int64_t>(id));
      step = core->pump_source(id);
    } else {
      trace::Span span("batch", "actor");
      const ServeResult served = core->serve_batch(id, batch_);
      span.set_arg("n", static_cast<std::int64_t>(served.taken));
      if (served.taken > 0) {
        t->batches.fetch_add(1, std::memory_order_relaxed);
        t->batch_messages.fetch_add(served.taken, std::memory_order_relaxed);
        std::uint64_t prev = t->max_batch.load(std::memory_order_relaxed);
        while (prev < served.taken && !t->max_batch.compare_exchange_weak(
                                          prev, served.taken, std::memory_order_relaxed)) {
        }
      }
      step = served.step;
    }
  } catch (const std::exception& e) {
    core->report_failure(id, e.what());
    complete(*t, id, /*run_finish=*/false);
    return;
  }
  if (step != ActorStep::kMore) {
    complete(*t, id, /*run_finish=*/step == ActorStep::kFinished);
    return;
  }
  slot.running.store(false, std::memory_order_release);
  // Sources stay ready until exhausted.  A message that arrived during the
  // batch fired its readiness hint while we still held the claim (the hint
  // was discarded): re-check so nothing is stranded.
  if (source || core->mailbox(id).size() > 0) enqueue(t, id);
}

void SchedulerHost::complete(Tenant& t, std::size_t id, bool run_finish) {
  if (run_finish) {
    try {
      t.core->finish_actor(id);  // flush logic, propagate shutdown tokens
    } catch (const std::exception& e) {
      t.core->report_failure(id, e.what());
    }
  }
  Tenant::ActorSlot& slot = t.slots[id];
  slot.done.store(true, std::memory_order_release);
  slot.running.store(false, std::memory_order_release);
  t.core->actor_done(id);
  bool drained = false;
  {
    std::lock_guard lock(mu_);
    drained = (--t.remaining == 0);
  }
  if (drained) drained_cv_.notify_all();
}

// --------------------------------------------------------------------------
// BlockingSection: cooperative blocking compensation (scheduler.hpp).  The
// thread-local host pointer is set by worker_loop, so operator/engine code
// blocking on a non-worker thread is a no-op as before.

BlockingSection::BlockingSection() noexcept : pool_(tls_host) {
  if (pool_ != nullptr) static_cast<SchedulerHost*>(pool_)->blocking_begin();
}

BlockingSection::~BlockingSection() {
  if (pool_ != nullptr) static_cast<SchedulerHost*>(pool_)->blocking_end();
}

// --------------------------------------------------------------------------
// HostedScheduler: one engine epoch as a tenant of a SchedulerHost.

namespace {

class HostedScheduler final : public Scheduler {
 public:
  /// `owned` (may be null) gives the adapter a private host — the
  /// single-tenant pooled configuration; `host` points at it or at a
  /// shared multi-tenant host owned elsewhere.
  HostedScheduler(SchedulerHost* host, std::unique_ptr<SchedulerHost> owned,
                  std::string label, double weight)
      : host_(host), owned_(std::move(owned)), label_(std::move(label)), weight_(weight) {}

  void start(EngineCore& core) override {
    core_ = &core;
    tenant_ = host_->attach(core, label_, weight_);
  }

  bool deliver(std::size_t target, const Message& m,
               std::chrono::nanoseconds timeout) override {
    Mailbox& box = core_->mailbox(target);
    if (box.try_send(m)) return true;
    // Slow path: closed, or full.  Under shedding the drop was already
    // counted by try_send; under BAS block honestly — the BlockingSection
    // lends the core onward, so the host keeps draining the destination
    // and the send completes (backpressure without pool deadlock).
    if (box.closed() || box.policy() == OverflowPolicy::kShedNewest) return false;
    BlockingSection blocking;
    return box.send(m, timeout);
  }

  void join() override {
    if (joined_) return;
    host_->wait_drained(tenant_);
    saved_ = host_->tenant_counters(tenant_);
    host_->detach(tenant_);
    joined_ = true;
  }

  [[nodiscard]] SchedulerCounters counters() const override {
    if (joined_) return saved_;
    return tenant_ ? host_->tenant_counters(tenant_) : SchedulerCounters{};
  }

 private:
  SchedulerHost* host_;
  std::unique_ptr<SchedulerHost> owned_;
  std::string label_;
  double weight_;
  EngineCore* core_ = nullptr;
  SchedulerHost::TenantId tenant_;
  SchedulerCounters saved_;
  bool joined_ = false;
};

}  // namespace

std::unique_ptr<Scheduler> make_hosted_scheduler(SchedulerHost& host, std::string label,
                                                 double weight) {
  return std::make_unique<HostedScheduler>(&host, nullptr, std::move(label), weight);
}

std::unique_ptr<Scheduler> make_pooled_scheduler(int workers, int batch, PinMode pin);

std::unique_ptr<Scheduler> make_pooled_scheduler(int workers, int batch, PinMode pin) {
  auto host = std::make_unique<SchedulerHost>(workers, batch, pin);
  SchedulerHost* raw = host.get();
  return std::make_unique<HostedScheduler>(raw, std::move(host), std::string(), 1.0);
}

}  // namespace ss::runtime
