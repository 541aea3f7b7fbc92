#include "runtime/mailbox.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "runtime/clock.hpp"
#include "runtime/telemetry.hpp"

namespace ss::runtime {

namespace {

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Parked receive()rs re-poll at this period so a publish racing the very
/// first park can never strand a message behind a missed notify: the ring
/// fast path deliberately avoids a full fence between "publish" and "is a
/// consumer waiting?", and this bounds the cost of losing that race.
constexpr std::chrono::milliseconds kConsumerRepoll{10};

}  // namespace

MailboxKind mailbox_kind_from_string(const std::string& name) {
  if (name == "mutex") return MailboxKind::kMutex;
  if (name == "ring") return MailboxKind::kRing;
  throw std::invalid_argument("unknown mailbox kind: " + name +
                              " (expected mutex|ring)");
}

const char* to_string(MailboxKind kind) {
  return kind == MailboxKind::kRing ? "ring" : "mutex";
}

Mailbox::Mailbox(std::size_t capacity, OverflowPolicy policy, MailboxKind kind)
    : capacity_(capacity == 0 ? 1 : capacity), policy_(policy), kind_(kind) {
  if (kind_ == MailboxKind::kRing) {
    // Physical ring ≥ 2× the logical capacity: the slack absorbs
    // capacity-exempt tokens (send_unbounded) so spills stay rare.
    const std::size_t slots = next_pow2(std::max<std::size_t>(capacity_ * 2, 16));
    cells_ = std::make_unique<Cell[]>(slots);
    for (std::size_t i = 0; i < slots; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    ring_mask_ = slots - 1;
  }
}

// ---------------------------------------------------------------------------
// Ring engine.  Producers claim a capacity credit (size_), then a physical
// slot; the 0→1 transition of the credit counter is the empty→non-empty
// edge.  The hook is *captured* under the lock (so set_on_ready can swap it
// concurrently) but *fired* outside it — same contract as the mutex engine.

bool Mailbox::acquire_credit(std::size_t& depth_out) {
  std::size_t cur = size_.load(std::memory_order_relaxed);
  do {
    if (cur >= capacity_) return false;
  } while (!size_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed));
  depth_out = cur + 1;
  return true;
}

bool Mailbox::ring_enqueue(const Message& m) {
  std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & ring_mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const auto dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
    if (dif == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        std::construct_at(&cell.msg, m);
        cell.seq.store(pos + 1, std::memory_order_release);
        ring_enqueues_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // CAS failure reloaded pos; retry with the fresh value.
    } else if (dif < 0) {
      return false;  // physically full (a lap behind): caller spills
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

bool Mailbox::ring_enqueue_many(const Message* msgs, std::size_t k) {
  for (;;) {
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    // The consumer recycles cells strictly in order and producers only
    // claim at enqueue_pos_, so "the last slot of the range is free"
    // implies the whole range is free.
    Cell& last = cells_[(pos + k - 1) & ring_mask_];
    if (last.seq.load(std::memory_order_acquire) != pos + k - 1) return false;
    if (enqueue_pos_.compare_exchange_weak(pos, pos + k,
                                           std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < k; ++i) {
        Cell& cell = cells_[(pos + i) & ring_mask_];
        std::construct_at(&cell.msg, msgs[i]);
        cell.seq.store(pos + i + 1, std::memory_order_release);
      }
      ring_enqueues_.fetch_add(k, std::memory_order_relaxed);
      return true;
    }
  }
}

void Mailbox::ring_publish(const Message& m) {
  if (!spilled_.load(std::memory_order_acquire) && ring_enqueue(m)) return;
  // Spill slow path.  Once one message lands in the side queue, every
  // later enqueue (from producers that observe the spill — which includes
  // every producer whose own earlier message spilled) follows it until the
  // consumer drains the queue, preserving per-producer FIFO.
  std::lock_guard lock(mutex_);
  if (!spilled_.load(std::memory_order_relaxed) && ring_enqueue(m)) return;
  spilled_.store(true, std::memory_order_release);
  overflow_.push_back(m);
  ring_spills_.fetch_add(1, std::memory_order_relaxed);
}

bool Mailbox::ring_ready() const {
  const std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  return cells_[pos & ring_mask_].seq.load(std::memory_order_acquire) == pos + 1;
}

bool Mailbox::ring_consume(Message& out) {
  const std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  Cell& cell = cells_[pos & ring_mask_];
  if (cell.seq.load(std::memory_order_acquire) == pos + 1) {
    out = cell.msg;
    cell.seq.store(pos + ring_mask_ + 1, std::memory_order_release);  // recycle
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }
  if (!spilled_.load(std::memory_order_acquire)) return false;
  std::lock_guard lock(mutex_);
  if (overflow_.empty()) {
    // A racing producer re-entered the ring after the spill drained.
    spilled_.store(false, std::memory_order_release);
    return false;
  }
  out = overflow_.front();
  overflow_.pop_front();
  if (overflow_.empty()) spilled_.store(false, std::memory_order_release);
  return true;
}

void Mailbox::after_publish(bool edge) {
  if (waiting_consumers_.load(std::memory_order_acquire) > 0) {
    // Order our publish with the parked consumer's predicate check (the
    // empty lock scope is intentional; see release_slots).
    { std::lock_guard lock(mutex_); }
    not_empty_.notify_all();
  }
  if (edge) {
    std::function<void()> hook;
    {
      std::lock_guard lock(mutex_);
      hook = on_ready_;
    }
    fire(hook);
  }
}

bool Mailbox::send_ring(const Message& m, std::chrono::nanoseconds timeout) {
  bool deadline_set = false;
  Clock::time_point deadline{};
  for (;;) {
    if (closed_.load(std::memory_order_acquire)) return false;
    std::size_t depth = 0;
    if (acquire_credit(depth)) {
      bump_peak(depth);
      ring_publish(m);
      after_publish(depth == 1);
      return true;
    }
    if (policy_ == OverflowPolicy::kShedNewest) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // Backpressure slow path — the ring's park path.  This wait *is* the
    // blocked-on-send time the cost models capture, so charge it to the
    // sending operator's telemetry context.  Clock reads happen only when
    // actually blocking.  A single deadline spans every park episode: a
    // woken sender that loses the credit race to a lock-free try_send
    // re-parks with the remaining budget, never a fresh one.
    if (!deadline_set) {
      deadline = Clock::now() + timeout;
      deadline_set = true;
    }
    const bool meter = blocked_metering_enabled();
    const auto blocked_from = meter ? metering_now() : Clock::time_point{};
    bool freed;
    {
      std::unique_lock lock(mutex_);
      waiting_senders_.fetch_add(1, std::memory_order_acq_rel);
      freed = not_full_.wait_until(lock, deadline, [&] {
        return closed_.load(std::memory_order_relaxed) ||
               size_.load(std::memory_order_acquire) < capacity_;
      });
      waiting_senders_.fetch_sub(1, std::memory_order_acq_rel);
    }
    if (meter) {
      charge_blocked(static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             metering_now() - blocked_from)
                             .count()),
                     owner_op_);
    }
    if (!freed) {
      dropped_.fetch_add(1, std::memory_order_relaxed);  // timed out (§5.1)
      return false;
    }
  }
}

// ---------------------------------------------------------------------------
// Mutex engine (the original two-queue design, kept for --mailbox=mutex).

std::function<void()> Mailbox::push_locked(const Message& m) {
  inbox_.push_back(m);
  const std::size_t depth = size_.fetch_add(1, std::memory_order_acq_rel) + 1;
  bump_peak(depth);
  return depth == 1 ? on_ready_ : std::function<void()>{};
}

bool Mailbox::send_mutex(const Message& m, std::chrono::nanoseconds timeout) {
  std::function<void()> ready;
  {
    std::unique_lock lock(mutex_);
    const bool was_closed = closed_.load(std::memory_order_relaxed);
    if (policy_ == OverflowPolicy::kShedNewest) {
      if (!was_closed && size_.load(std::memory_order_relaxed) >= capacity_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);  // shed, no backpressure
        return false;
      }
    } else if (size_.load(std::memory_order_relaxed) >= capacity_ && !was_closed) {
      const bool meter = blocked_metering_enabled();
      const auto blocked_from = meter ? metering_now() : Clock::time_point{};
      waiting_senders_.fetch_add(1, std::memory_order_acq_rel);
      const bool freed = not_full_.wait_for(lock, timeout, [&] {
        return closed_.load(std::memory_order_relaxed) ||
               size_.load(std::memory_order_acquire) < capacity_;
      });
      waiting_senders_.fetch_sub(1, std::memory_order_acq_rel);
      if (meter) {
        charge_blocked(static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               metering_now() - blocked_from)
                               .count()),
                       owner_op_);
      }
      if (!freed) {
        dropped_.fetch_add(1, std::memory_order_relaxed);  // timed out (§5.1)
        return false;
      }
    }
    if (closed_.load(std::memory_order_relaxed)) return false;
    ready = push_locked(m);
  }
  not_empty_.notify_one();
  fire(ready);
  return true;
}

bool Mailbox::consume(Message& out) {
  if (outbox_.empty()) {
    std::lock_guard lock(mutex_);
    if (inbox_.empty()) return false;
    outbox_.swap(inbox_);  // the whole backlog for one lock acquisition
  }
  out = outbox_.front();
  outbox_.pop_front();
  release_slots(1);
  return true;
}

// ---------------------------------------------------------------------------
// Public API: thin dispatch over the two engines.

bool Mailbox::send(const Message& m, std::chrono::nanoseconds timeout) {
  return kind_ == MailboxKind::kRing ? send_ring(m, timeout)
                                     : send_mutex(m, timeout);
}

bool Mailbox::try_send(const Message& m) {
  if (kind_ == MailboxKind::kRing) {
    if (closed_.load(std::memory_order_acquire)) return false;
    std::size_t depth = 0;
    if (!acquire_credit(depth)) {
      if (policy_ == OverflowPolicy::kShedNewest) {
        dropped_.fetch_add(1, std::memory_order_relaxed);  // shed, like send()
      }
      return false;
    }
    bump_peak(depth);
    ring_publish(m);
    after_publish(depth == 1);
    return true;
  }
  std::function<void()> ready;
  {
    std::lock_guard lock(mutex_);
    if (closed_.load(std::memory_order_relaxed)) return false;
    if (size_.load(std::memory_order_relaxed) >= capacity_) {
      if (policy_ == OverflowPolicy::kShedNewest) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
    ready = push_locked(m);
  }
  not_empty_.notify_one();
  fire(ready);
  return true;
}

std::size_t Mailbox::try_send_batch(const Message* msgs, std::size_t n) {
  if (n == 0) return 0;
  if (kind_ == MailboxKind::kRing) {
    if (closed_.load(std::memory_order_acquire)) return 0;
    // One CAS claims credits for the longest prefix that fits.
    std::size_t cur = size_.load(std::memory_order_relaxed);
    std::size_t k = 0;
    do {
      if (cur >= capacity_) return 0;
      k = std::min(n, capacity_ - cur);
    } while (!size_.compare_exchange_weak(cur, cur + k,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed));
    bump_peak(cur + k);
    std::size_t published = 0;
    if (!spilled_.load(std::memory_order_acquire) &&
        ring_enqueue_many(msgs, k)) {
      published = k;
    }
    for (; published < k; ++published) ring_publish(msgs[published]);
    after_publish(cur == 0);
    return k;
  }
  std::function<void()> ready;
  std::size_t accepted = 0;
  {
    std::lock_guard lock(mutex_);
    if (closed_.load(std::memory_order_relaxed)) return 0;
    while (accepted < n && size_.load(std::memory_order_relaxed) < capacity_) {
      auto hook = push_locked(msgs[accepted]);
      if (hook) ready = std::move(hook);
      ++accepted;
    }
  }
  if (accepted > 0) {
    not_empty_.notify_one();
    fire(ready);
  }
  return accepted;
}

void Mailbox::send_unbounded(const Message& m) {
  if (kind_ == MailboxKind::kRing) {
    if (closed_.load(std::memory_order_acquire)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);  // never drained again
      return;
    }
    const std::size_t depth = size_.fetch_add(1, std::memory_order_acq_rel) + 1;
    bump_peak(depth);
    ring_publish(m);
    after_publish(depth == 1);
    return;
  }
  std::function<void()> ready;
  {
    std::lock_guard lock(mutex_);
    if (closed_.load(std::memory_order_relaxed)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ready = push_locked(m);
  }
  not_empty_.notify_one();
  fire(ready);
}

void Mailbox::release_slots(std::size_t n) {
  size_.fetch_sub(n, std::memory_order_acq_rel);
  if (waiting_senders_.load(std::memory_order_acquire) > 0) {
    // A sender may be between its predicate check and the wait; taking the
    // lock here orders our size_ decrement with that check so the notify
    // cannot be lost.  The empty lock scope is intentional.
    { std::lock_guard lock(mutex_); }
    not_full_.notify_all();
  }
}

bool Mailbox::receive(Message& out) {
  while (!try_receive(out)) {
    if (!wait_nonempty()) return false;  // closed and drained
  }
  return true;
}

bool Mailbox::wait_nonempty() {
  if (kind_ == MailboxKind::kRing) {
    for (;;) {
      if (ring_ready() || spilled_.load(std::memory_order_acquire)) return true;
      std::unique_lock lock(mutex_);
      if (ring_ready() || spilled_.load(std::memory_order_relaxed)) return true;
      if (closed_.load(std::memory_order_relaxed)) return false;
      waiting_consumers_.fetch_add(1, std::memory_order_acq_rel);
      // Bounded waits, not one indefinite one: combined with kConsumerRepoll
      // this makes a publish that raced the registration self-healing.
      not_empty_.wait_for(lock, kConsumerRepoll, [&] {
        return closed_.load(std::memory_order_relaxed) || ring_ready() ||
               spilled_.load(std::memory_order_relaxed);
      });
      waiting_consumers_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  if (!outbox_.empty()) return true;
  std::unique_lock lock(mutex_);
  not_empty_.wait(lock, [&] {
    return closed_.load(std::memory_order_relaxed) || !inbox_.empty();
  });
  return !inbox_.empty();  // false: closed and drained
}

bool Mailbox::try_receive(Message& out) {
  if (kind_ == MailboxKind::kRing) {
    if (!ring_consume(out)) return false;
    release_slots(1);
    return true;
  }
  return consume(out);
}

std::size_t Mailbox::drain(std::vector<Message>& out, std::size_t max, bool release_now) {
  std::size_t taken = 0;
  if (kind_ == MailboxKind::kRing) {
    Message m;
    while (taken < max && ring_consume(m)) {
      out.push_back(m);
      ++taken;
    }
    if (release_now && taken > 0) release_slots(taken);
    return taken;
  }
  const auto take = [&] {
    while (taken < max && !outbox_.empty()) {
      out.push_back(outbox_.front());
      outbox_.pop_front();
      ++taken;
    }
  };
  take();  // leftovers of an earlier swap first: FIFO across refills
  if (taken < max) {
    {
      std::lock_guard lock(mutex_);
      if (outbox_.empty() && !inbox_.empty()) outbox_.swap(inbox_);
    }
    take();
  }
  if (release_now && taken > 0) release_slots(taken);
  return taken;
}

void Mailbox::close() {
  {
    std::lock_guard lock(mutex_);
    closed_.store(true, std::memory_order_release);
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

void Mailbox::set_on_ready(std::function<void()> on_ready) {
  std::lock_guard lock(mutex_);
  on_ready_ = std::move(on_ready);
}

}  // namespace ss::runtime
