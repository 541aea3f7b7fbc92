// Bounded blocking mailbox with Blocking-After-Service semantics.
//
// This is the C++ equivalent of the Akka BoundedMailbox configuration the
// paper evaluates (§5.1): a fixed-capacity MPSC queue whose send() blocks
// the producer while the buffer is full — that blocking *is* the
// backpressure the cost models capture — and gives up after a timeout, in
// which case the item is dropped (the paper sets the timeout high enough,
// five seconds, that drops never happen in practice).
//
// Two interchangeable engines sit behind one API (MailboxKind):
//
//  - kRing (default): a bounded lock-free MPSC ring in the style of
//    Vyukov's bounded queue.  Producers claim slots with a CAS on
//    enqueue_pos_ and publish through per-cell sequence numbers; the single
//    consumer (the pooled scheduler's actor claim serializes consumers
//    across threads, and its acquire/release ordering publishes the ring
//    between them) advances dequeue_pos_ without any atomic RMW.  The
//    logical capacity is decoupled from the physical ring: a separate
//    credit counter (size_) enforces the BAS bound, so deferred release
//    (drain(..., release_now=false) + release()) keeps capacity exactly B.
//    Capacity-exempt sends (send_unbounded: shutdown/fence tokens) that
//    find the physical ring full spill into a mutex-guarded side queue;
//    once spilled, *all* later enqueues follow it until the consumer has
//    drained the spill, which preserves per-producer FIFO — the property
//    the scheduler's token counting relies on ("every channel's tokens
//    arrive after that channel's data").  Blocking (BAS), kShedNewest,
//    close and on_ready keep their exact mutex-path semantics as the slow
//    path: a full mailbox parks the sender on the old condition variable,
//    and that park is where blocked-on-send telemetry is charged.
//
//  - kMutex: the original two-queue (producer inbox / consumer-private
//    outbox) design, kept as the A/B baseline for `--mailbox=mutex`.
//    Producers append under the lock; the consumer refills its outbox by
//    swapping the whole inbox in one lock acquisition.
//
// Either way the mailbox stays MPSC: many producers, one consumer *at a
// time*.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "runtime/message.hpp"

namespace ss::runtime {

/// What a full mailbox does to a new item (paper §2): block the sender
/// (backpressure, the semantics the cost models capture) or discard the
/// item immediately (load shedding, which trades loss for liveness).
enum class OverflowPolicy : std::uint8_t {
  kBlockAfterService,
  kShedNewest,
};

/// Which queue engine backs the mailbox: the lock-free MPSC ring fast path
/// (default) or the original mutex-guarded two-queue baseline.
enum class MailboxKind : std::uint8_t {
  kMutex,
  kRing,
};

/// Parses "mutex" / "ring"; throws std::invalid_argument otherwise.
MailboxKind mailbox_kind_from_string(const std::string& name);
const char* to_string(MailboxKind kind);

class Mailbox {
 public:
  explicit Mailbox(std::size_t capacity,
                   OverflowPolicy policy = OverflowPolicy::kBlockAfterService,
                   MailboxKind kind = MailboxKind::kRing);

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues `m`.  Under kBlockAfterService, blocks while full (BAS) and
  /// returns false only if `timeout` expired or the mailbox was closed;
  /// under kShedNewest a full mailbox discards the item immediately.
  bool send(const Message& m, std::chrono::nanoseconds timeout);

  /// Non-blocking fast path: enqueues if a slot is free right now and
  /// returns true.  Returns false when the mailbox is closed or full; a
  /// full kShedNewest mailbox counts the drop (the item is shed), a full
  /// kBlockAfterService one does not — the caller decides whether to fall
  /// back to the blocking send() or to retry later.
  bool try_send(const Message& m);

  /// Non-blocking batched enqueue: accepts the longest prefix of
  /// `msgs[0..n)` that fits in free capacity right now and returns how many
  /// were taken (0 when closed or full).  On the ring this is one credit
  /// CAS plus one slot reservation for the whole prefix; on the mutex
  /// engine it is one lock acquisition.  Never counts drops — the caller
  /// falls back to send()/try_send() per remaining message, which applies
  /// the usual BAS/shed semantics.
  std::size_t try_send_batch(const Message* msgs, std::size_t n);

  /// Enqueues bypassing the capacity bound (used for shutdown tokens so a
  /// drain can never deadlock behind a full buffer).  A closed mailbox
  /// counts the item as dropped instead of enqueueing it.
  void send_unbounded(const Message& m);

  /// Dequeues into `out`, blocking while empty.  Returns false once the
  /// mailbox is closed *and* drained.
  bool receive(Message& out);

  /// Blocks until a message is ready to consume (true) or the mailbox is
  /// closed *and* drained (false).  Consumes nothing: the consumer follows
  /// up with try_receive() or drain().  receive()'s wait, for consumers
  /// that take whole batches.
  bool wait_nonempty();

  /// Non-blocking variant; returns false when empty right now.
  bool try_receive(Message& out);

  /// Batched dequeue: appends up to `max` messages to `out` in FIFO order
  /// and returns how many were taken (0 when empty right now).  With
  /// `release_now` (the default) the taken messages free their capacity
  /// slots immediately, exactly as if each had been try_receive()d before
  /// the batch ran; a consumer that processes the batch over time should
  /// pass false and call release() as each message enters service instead —
  /// releasing a whole batch up front would hand senders up to `max` extra
  /// slots and visibly weaken Blocking-After-Service backpressure (the
  /// cost models assume capacity B, not B + batch).
  std::size_t drain(std::vector<Message>& out, std::size_t max, bool release_now = true);

  /// Frees `n` capacity slots taken by drain(..., release_now=false) and
  /// wakes blocked senders if any — an atomic decrement unless senders are
  /// actually waiting.
  void release(std::size_t n) { release_slots(n); }

  /// Wakes all waiters; send() starts failing, receive() drains then stops.
  void close();

  /// Installs a readiness hook fired (outside the lock) whenever an enqueue
  /// turns the mailbox from empty to non-empty.  Pooled schedulers use it
  /// to learn that the owning actor has work without parking a worker on
  /// this mailbox's condition variable.  The installation is synchronized
  /// with concurrent senders (the hook is read and written under the
  /// mailbox lock), so it may be swapped while producers are live; an
  /// enqueue concurrent with the swap fires either the old or the new
  /// hook, never a torn one.  Pass nullptr to clear.
  void set_on_ready(std::function<void()> on_ready);

  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] OverflowPolicy policy() const { return policy_; }
  [[nodiscard]] MailboxKind kind() const { return kind_; }

  /// Items dropped on send timeout since construction.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Messages that took the lock-free ring fast path (0 on kMutex).  The
  /// scheduler folds these into its counter report so the ready-hint
  /// ledger can be read next to the enqueue volume that fed it.
  [[nodiscard]] std::uint64_t ring_enqueues() const {
    return ring_enqueues_.load(std::memory_order_relaxed);
  }
  /// Messages that overflowed the physical ring into the spill queue —
  /// capacity-exempt tokens beyond the ring's slack, or stragglers behind
  /// them.  Always 0 on kMutex.
  [[nodiscard]] std::uint64_t ring_spills() const {
    return ring_spills_.load(std::memory_order_relaxed);
  }

  /// Queue-depth high-water mark since construction or the last
  /// reset_depth_peak() — the sampled backpressure gauge the telemetry
  /// layer reports per steady-state window.
  [[nodiscard]] std::size_t depth_peak() const {
    return depth_peak_.load(std::memory_order_relaxed);
  }
  /// Restarts the high-water tracking at the current depth (window open).
  void reset_depth_peak() {
    depth_peak_.store(size_.load(std::memory_order_acquire),
                      std::memory_order_relaxed);
  }

  /// Logical operator that consumes from this mailbox.  The engine tags
  /// every actor's mailbox at epoch build; the blocking slow path passes
  /// it to charge_blocked so blocked-on-send time can be attributed per
  /// *edge* (sender → this op), not just per sender.  kInvalidOp (the
  /// default) degrades to the plain per-sender charge.
  void set_owner_op(OpIndex op) { owner_op_ = op; }
  [[nodiscard]] OpIndex owner_op() const { return owner_op_; }

 private:
  /// One ring slot: the per-cell sequence number is the publication
  /// protocol (seq == pos: free for the producer claiming pos; seq ==
  /// pos + 1: published, readable by the consumer).  Cache-line aligned so
  /// neighbouring publishes don't false-share.  The payload sits in a union
  /// and is not constructed with the cell: a producer constructs `msg` in
  /// place before it publishes the cell's seq, and the consumer reads it
  /// only after, so building a ring writes the sequence numbers alone.
  struct alignas(64) Cell {
    Cell() noexcept {}
    std::atomic<std::size_t> seq{0};
    union {
      Message msg;
    };
  };
  static_assert(std::is_trivially_copyable_v<Message>,
                "a ring cell constructs each payload over the last one, never destroying it");

  // --- shared helpers -----------------------------------------------------
  void release_slots(std::size_t n);
  static void fire(std::function<void()>& hook) {
    if (hook) hook();
  }
  void bump_peak(std::size_t depth) {
    std::size_t cur = depth_peak_.load(std::memory_order_relaxed);
    while (depth > cur &&
           !depth_peak_.compare_exchange_weak(cur, depth,
                                              std::memory_order_relaxed)) {
    }
  }

  // --- ring engine --------------------------------------------------------
  /// Claims one credit of logical capacity; returns false when full.
  /// `depth_out` is the post-claim depth (1 == empty→non-empty edge).
  bool acquire_credit(std::size_t& depth_out);
  /// Producer-side slot claim + publish; false when the physical ring is
  /// full (caller spills).
  bool ring_enqueue(const Message& m);
  /// Claims `k` contiguous slots with one CAS and publishes all of them;
  /// returns false (publishing nothing) when the ring lacks `k` free slots.
  bool ring_enqueue_many(const Message* msgs, std::size_t k);
  /// Routes one message into the ring or, after a spill, the side queue.
  void ring_publish(const Message& m);
  /// Consumer-side pop: ring first, spill queue once the ring is empty.
  bool ring_consume(Message& out);
  /// Consumer-side peek (only the consumer advances dequeue_pos_).
  [[nodiscard]] bool ring_ready() const;
  /// Post-publish notifications: wake a parked receive()r and fire the
  /// on_ready hook when this publish was the empty→non-empty edge.
  void after_publish(bool edge);
  bool send_ring(const Message& m, std::chrono::nanoseconds timeout);

  // --- mutex engine -------------------------------------------------------
  bool send_mutex(const Message& m, std::chrono::nanoseconds timeout);
  /// Pops one message from the consumer side; refills the outbox from the
  /// inbox (one lock) when needed.  Returns false when both are empty.
  bool consume(Message& out);
  /// Under mutex_: enqueue to the inbox and capture the hook to fire when
  /// this enqueue is the empty→non-empty edge.
  std::function<void()> push_locked(const Message& m);

  const std::size_t capacity_;
  const OverflowPolicy policy_;
  const MailboxKind kind_;

  /// Guards inbox_ (kMutex), overflow_ + spilled_ transitions (kRing),
  /// closed_ writes, on_ready_, and the condition variables.
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;

  // Ring storage (kRing only; empty allocation on kMutex).
  std::unique_ptr<Cell[]> cells_;
  std::size_t ring_mask_ = 0;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  /// True while overflow_ holds spilled messages; producers route every
  /// enqueue through the spill queue until the consumer drains it (FIFO).
  std::atomic<bool> spilled_{false};
  std::deque<Message> overflow_;  ///< spill queue, guarded by mutex_

  // Two-queue storage (kMutex only).
  std::deque<Message> inbox_;   ///< producer side, appended under mutex_
  std::deque<Message> outbox_;  ///< consumer-private, refilled by swap

  /// Unconsumed messages.  The empty→non-empty edge is a 0→1 transition of
  /// this counter; producers see capacity through it (the ring's credit
  /// counter — freed by release_slots, not by dequeue).
  alignas(64) std::atomic<std::size_t> size_{0};
  /// High-water mark of size_, maintained with a CAS max (ring producers
  /// race on it), read lock-free by telemetry samplers.
  std::atomic<std::size_t> depth_peak_{0};
  /// Senders currently blocked in send(); consumers take the lock before
  /// notifying not_full_ only when this is non-zero, keeping the consume
  /// fast path lock-free.
  std::atomic<int> waiting_senders_{0};
  /// Consumers parked in receive(); ring producers take the lock before
  /// notifying not_empty_ only when this is non-zero, keeping the publish
  /// fast path lock-free.
  std::atomic<int> waiting_consumers_{0};
  std::atomic<bool> closed_{false};  ///< written under mutex_
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> ring_enqueues_{0};
  std::atomic<std::uint64_t> ring_spills_{0};
  /// Consumer operator of this mailbox (set once at epoch build, before
  /// producers run; plain member, read from the blocking slow path only).
  OpIndex owner_op_ = kInvalidOp;
  std::function<void()> on_ready_;  ///< empty→non-empty edge notification
};

}  // namespace ss::runtime
