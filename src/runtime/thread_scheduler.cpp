// ThreadPerActorScheduler: one dedicated thread per actor, the §5.1
// configuration the paper evaluates and the engine's default.  Each thread
// loops the actor's engine step — the same pump and serve steps the pool
// runs — and waits on its own mailbox between batches; a full destination
// mailbox blocks the sending thread (Blocking-After-Service), which *is*
// the backpressure the cost models capture.
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "runtime/scheduler.hpp"

namespace ss::runtime {

namespace {

class ThreadPerActorScheduler final : public Scheduler {
 public:
  void start(EngineCore& core) override {
    core_ = &core;
    threads_.reserve(core.num_actors());
    for (std::size_t id = 0; id < core.num_actors(); ++id) {
      threads_.emplace_back([this, id] {
        try {
          if (run(id)) core_->finish_actor(id);
        } catch (const std::exception& e) {
          // No exception may cross a thread boundary: record the failure,
          // stop the run and unblock neighbours so the drain completes;
          // run_for()/run_until_complete() rethrow after join.
          core_->report_failure(id, e.what());
        }
        core_->actor_done(id);
      });
    }
  }

  bool deliver(std::size_t target, const Message& m,
               std::chrono::nanoseconds timeout) override {
    return core_->mailbox(target).send(m, timeout);
  }

  void join() override {
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    threads_.clear();
  }

 private:
  /// Steps actor `id` until it ends; true when the finish epilogue is due
  /// (end of stream), false when it retired at an epoch fence.
  bool run(std::size_t id) {
    if (core_->is_source(id)) {
      ActorStep step = ActorStep::kMore;
      while (step == ActorStep::kMore) step = core_->pump_source(id);
      return step == ActorStep::kFinished;
    }
    Mailbox& box = core_->mailbox(id);
    while (box.wait_nonempty()) {
      const ActorStep step = core_->serve_batch(id, kSliceItems).step;
      if (step != ActorStep::kMore) return step == ActorStep::kFinished;
    }
    return true;  // closed and drained
  }

  EngineCore* core_ = nullptr;
  std::vector<std::thread> threads_;
};

}  // namespace

SchedulerKind scheduler_kind_from_string(const std::string& name) {
  if (name == "threads") return SchedulerKind::kThreadPerActor;
  if (name == "pool") return SchedulerKind::kPooled;
  throw Error("unknown scheduler '" + name + "' (expected 'threads' or 'pool')");
}

const char* to_string(SchedulerKind kind) {
  return kind == SchedulerKind::kThreadPerActor ? "threads" : "pool";
}

PinMode pin_mode_from_string(const std::string& name) {
  if (name == "none") return PinMode::kNone;
  if (name == "cores") return PinMode::kCores;
  if (name == "sockets") return PinMode::kSockets;
  throw Error("unknown pin mode '" + name +
              "' (expected 'none', 'cores' or 'sockets')");
}

const char* to_string(PinMode mode) {
  switch (mode) {
    case PinMode::kCores:
      return "cores";
    case PinMode::kSockets:
      return "sockets";
    default:
      return "none";
  }
}

std::unique_ptr<Scheduler> make_thread_per_actor_scheduler();
std::unique_ptr<Scheduler> make_pooled_scheduler(int workers, int batch, PinMode pin);

std::unique_ptr<Scheduler> make_thread_per_actor_scheduler() {
  return std::make_unique<ThreadPerActorScheduler>();
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, int workers, int batch,
                                          PinMode pin) {
  if (kind == SchedulerKind::kPooled) return make_pooled_scheduler(workers, batch, pin);
  return make_thread_per_actor_scheduler();
}

}  // namespace ss::runtime
