// Execution scheduling behind the actor engine.
//
// The engine (engine.hpp) is the *actor core*: it owns the actor graph,
// message dispatch, routing, metering and the drain protocol.  How actors
// get CPU time is delegated to a Scheduler:
//
//   * ThreadPerActorScheduler — one dedicated thread per actor, blocking
//     mailbox waits.  This is the configuration the paper evaluates (§5.1,
//     one Akka actor per operator) and the default.  Each thread is a plain
//     loop over the same engine steps the pool runs: pump a source quantum,
//     or wait until the mailbox is non-empty and serve one batch.
//   * PooledScheduler — multiplexes N actors onto K worker threads with
//     work stealing.  Workers never park on a per-mailbox condition
//     variable: each mailbox routes its empty→non-empty readiness hint
//     (Mailbox::set_on_ready) to the per-worker deque of the worker that
//     last ran the actor (warm cache); owners pop LIFO, idle workers steal
//     FIFO, and ready actors are drained in bounded batches — one mailbox
//     lock acquisition per batch (Mailbox::drain) — through the
//     non-blocking try_send() send path.
//     Operator logic that parks its thread (timed-wait services, blocking
//     sends under backpressure) wraps the park in a BlockingSection so the
//     pool can lend the core to another worker meanwhile — K bounds the
//     number of *runnable* workers, not the number of sleepers, which is
//     what keeps wait-realized service times (clock.hpp) rate-faithful.
//
// Schedulers drive the engine through the narrow EngineCore interface so
// new policies (work stealing, NUMA-pinned pools) can be added without
// touching the actor core.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>

#include "runtime/mailbox.hpp"
#include "runtime/metrics.hpp"

namespace ss::runtime {

/// Which execution backend runs the actors of an Engine.
enum class SchedulerKind : std::uint8_t {
  kThreadPerActor,  ///< paper-faithful default: one thread per actor
  kPooled,          ///< N actors multiplexed onto K worker threads
};

/// Parses "threads"/"pool"; throws ss::Error otherwise.
SchedulerKind scheduler_kind_from_string(const std::string& name);
const char* to_string(SchedulerKind kind);

/// Worker-to-CPU pinning (--pin): extends the pool's last_worker_ affinity
/// hints (warm caches via hint routing) down to the hardware.  kCores pins
/// each worker to one CPU round-robin; kSockets confines each worker to
/// the CPUs of one physical package (cache locality without giving up
/// intra-socket migration).  When sched_setaffinity is unavailable (non-
/// Linux, or restricted CI containers) the runtime warns once and
/// continues unpinned.
enum class PinMode : std::uint8_t {
  kNone,
  kCores,
  kSockets,
};

/// Parses "none"/"cores"/"sockets"; throws ss::Error otherwise.
PinMode pin_mode_from_string(const std::string& name);
const char* to_string(PinMode mode);

/// Items one actor step handles at most: a source pump emits up to this
/// many tuples, a serve step takes up to this many messages (the pool's
/// serve batch unless EngineConfig::pool_batch sets another).
inline constexpr std::size_t kSliceItems = 64;

/// How an actor step ended.
enum class ActorStep : std::uint8_t {
  kMore,      ///< the actor stays live; step it again when it has work
  kFinished,  ///< end of stream: run finish_actor(), then actor_done()
  kRetired,   ///< passed an epoch fence: actor_done() WITHOUT finish_actor()
              ///< — its state stays alive for migration into the next epoch
};

/// Outcome of one serve step: messages taken from the mailbox, and how the
/// step ended.
struct ServeResult {
  std::size_t taken = 0;
  ActorStep step = ActorStep::kMore;
};

/// What a Scheduler needs from the engine: actor-graph shape and the actor
/// steps both backends run.  Implemented by Engine.  A step may throw (an
/// operator failed); the scheduler then calls report_failure() and
/// completes the actor without finish_actor().
class EngineCore {
 public:
  virtual ~EngineCore() = default;

  virtual std::size_t num_actors() const = 0;
  virtual bool is_source(std::size_t id) const = 0;
  virtual Mailbox& mailbox(std::size_t id) = 0;

  /// Emits up to kSliceItems source items as one busy slice and one output
  /// stage (flushed before returning).
  virtual ActorStep pump_source(std::size_t id) = 0;

  /// Drains up to `max` messages and serves them in FIFO order as one busy
  /// slice and one output stage, both closed before returning.  Each
  /// message's capacity slot is released as it enters service, so senders
  /// see exactly B; shutdown tokens are counted against the actor's input
  /// channels.  Never blocks on an empty mailbox (taken == 0).  The caller
  /// guarantees single-threaded access per actor.
  virtual ServeResult serve_batch(std::size_t id, std::size_t max) = 0;

  /// Flushes logic state and propagates end-of-stream tokens downstream.
  virtual void finish_actor(std::size_t id) = 0;

  /// Records the first failure, stops the run and unblocks neighbours so
  /// the drain completes; the engine rethrows after the run.
  virtual void report_failure(std::size_t id, const std::string& what) = 0;

  /// Actor `id` fully finished or retired; the engine's active-actor
  /// accounting and completion signalling live here.
  virtual void actor_done(std::size_t id) = 0;
};

/// Execution policy: owns the threads that run the actors.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Spawns execution resources.  Called exactly once; `core` outlives the
  /// scheduler.
  virtual void start(EngineCore& core) = 0;

  /// Delivers a data message to `target`'s mailbox with the backpressure
  /// behaviour appropriate to the scheduling model (blocking send for
  /// dedicated threads; try_send fast path + cooperative blocking for the
  /// pool).  Returns false when the item was dropped or the box closed.
  virtual bool deliver(std::size_t target, const Message& m,
                       std::chrono::nanoseconds timeout) = 0;

  /// Waits until every actor finished (the drain completed), then stops
  /// and joins all execution threads.  Idempotent.
  virtual void join() = 0;

  /// Telemetry counters of this scheduler's machinery (steals, parks,
  /// batch sizes).  All-zero for schedulers without such machinery (the
  /// thread-per-actor default).  Exact once the scheduler is quiescent.
  [[nodiscard]] virtual SchedulerCounters counters() const { return {}; }
};

/// `workers <= 0` means one worker per hardware thread; `batch` is the
/// number of messages a pooled worker drains per actor claim (both pooled
/// only, `batch <= 0` means kSliceItems); `pin` maps pooled workers
/// to CPUs (kNone for the thread-per-actor backend).
std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, int workers, int batch = 0,
                                          PinMode pin = PinMode::kNone);

/// RAII marker around a thread-parking section (timed wait, blocking send,
/// I/O) inside operator or engine code.  Under the pooled scheduler this
/// releases the caller's worker slot so another worker can keep draining —
/// the mechanism that makes K-worker pools throughput-equivalent to
/// thread-per-actor on wait-bound workloads and that guarantees
/// backpressure blocking can never deadlock the pool.  A no-op on
/// non-pooled threads.
class BlockingSection {
 public:
  BlockingSection() noexcept;
  ~BlockingSection();

  BlockingSection(const BlockingSection&) = delete;
  BlockingSection& operator=(const BlockingSection&) = delete;

 private:
  void* pool_;  ///< the worker's PooledScheduler, or nullptr
};

}  // namespace ss::runtime
