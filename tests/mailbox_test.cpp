// Unit tests for the bounded blocking mailbox (BAS semantics, send timeout,
// shutdown tokens bypassing the bound, close/drain behaviour).
#include "runtime/mailbox.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace ss::runtime {
namespace {

using namespace std::chrono_literals;

Message data_msg(std::int64_t id) {
  Tuple t;
  t.id = id;
  return Message::data(t, 0, 1);
}

TEST(Mailbox, SendReceiveRoundTrip) {
  Mailbox box(4);
  EXPECT_TRUE(box.send(data_msg(7), 1s));
  Message out;
  ASSERT_TRUE(box.receive(out));
  EXPECT_EQ(out.tuple.id, 7);
  EXPECT_EQ(out.kind, Message::Kind::kData);
}

TEST(Mailbox, PreservesFifoOrder) {
  Mailbox box(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(box.send(data_msg(i), 1s));
  Message out;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(box.receive(out));
    EXPECT_EQ(out.tuple.id, i);
  }
}

TEST(Mailbox, SendTimesOutWhenFull) {
  Mailbox box(2);
  ASSERT_TRUE(box.send(data_msg(0), 10ms));
  ASSERT_TRUE(box.send(data_msg(1), 10ms));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(box.send(data_msg(2), 50ms));  // full: blocks then drops
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, 45ms);
  EXPECT_EQ(box.dropped(), 1u);
  EXPECT_EQ(box.size(), 2u);
}

TEST(Mailbox, BlockedSenderResumesWhenSlotFrees) {
  Mailbox box(1);
  ASSERT_TRUE(box.send(data_msg(0), 1s));
  std::thread producer([&] { EXPECT_TRUE(box.send(data_msg(1), 5s)); });
  std::this_thread::sleep_for(20ms);  // let the producer block (BAS)
  Message out;
  ASSERT_TRUE(box.receive(out));
  EXPECT_EQ(out.tuple.id, 0);
  producer.join();
  ASSERT_TRUE(box.receive(out));
  EXPECT_EQ(out.tuple.id, 1);
  EXPECT_EQ(box.dropped(), 0u);
}

TEST(Mailbox, UnboundedSendBypassesCapacity) {
  Mailbox box(1);
  ASSERT_TRUE(box.send(data_msg(0), 10ms));
  box.send_unbounded(Message::shutdown());  // must not block even when full
  EXPECT_EQ(box.size(), 2u);
}

TEST(Mailbox, ReceiverBlocksUntilMessageArrives) {
  Mailbox box(4);
  Message out;
  std::thread producer([&] {
    std::this_thread::sleep_for(20ms);
    EXPECT_TRUE(box.send(data_msg(42), 1s));
  });
  ASSERT_TRUE(box.receive(out));  // blocks until the producer delivers
  EXPECT_EQ(out.tuple.id, 42);
  producer.join();
}

TEST(Mailbox, CloseDrainsThenStops) {
  Mailbox box(4);
  ASSERT_TRUE(box.send(data_msg(1), 1s));
  ASSERT_TRUE(box.send(data_msg(2), 1s));
  box.close();
  Message out;
  EXPECT_TRUE(box.receive(out));
  EXPECT_TRUE(box.receive(out));
  EXPECT_FALSE(box.receive(out));  // closed and drained
}

TEST(Mailbox, CloseRejectsFurtherSends) {
  Mailbox box(4);
  box.close();
  EXPECT_FALSE(box.send(data_msg(1), 10ms));
}

TEST(Mailbox, CloseWakesBlockedSender) {
  Mailbox box(1);
  ASSERT_TRUE(box.send(data_msg(0), 1s));
  std::thread producer([&] { EXPECT_FALSE(box.send(data_msg(1), 5s)); });
  std::this_thread::sleep_for(20ms);
  box.close();
  producer.join();  // returns promptly rather than waiting the 5s timeout
}

TEST(Mailbox, ConcurrentProducersDeliverEverything) {
  Mailbox box(8);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(box.send(data_msg(p * kPerProducer + i), std::chrono::seconds(10)));
      }
    });
  }
  std::vector<bool> seen(kProducers * kPerProducer, false);
  Message out;
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    ASSERT_TRUE(box.receive(out));
    seen[static_cast<std::size_t>(out.tuple.id)] = true;
  }
  for (std::thread& t : producers) t.join();
  for (bool b : seen) EXPECT_TRUE(b);
  EXPECT_EQ(box.dropped(), 0u);
}

TEST(Mailbox, TryReceiveNonBlocking) {
  Mailbox box(4);
  Message out;
  EXPECT_FALSE(box.try_receive(out));
  ASSERT_TRUE(box.send(data_msg(5), 1s));
  EXPECT_TRUE(box.try_receive(out));
  EXPECT_EQ(out.tuple.id, 5);
}

TEST(Mailbox, ZeroCapacityIsClampedToOne) {
  Mailbox box(0);
  EXPECT_EQ(box.capacity(), 1u);
  EXPECT_TRUE(box.send(data_msg(1), 10ms));
  EXPECT_FALSE(box.send(data_msg(2), 10ms));
}

TEST(Mailbox, TrySendSucceedsWhileFree) {
  Mailbox box(2);
  EXPECT_TRUE(box.try_send(data_msg(1)));
  EXPECT_TRUE(box.try_send(data_msg(2)));
  EXPECT_EQ(box.size(), 2u);
  EXPECT_EQ(box.dropped(), 0u);
}

TEST(Mailbox, TrySendFullUnderBasDoesNotCountADrop) {
  // BAS: the caller is expected to fall back to the blocking send(), so a
  // failed try_send is not a loss.
  Mailbox box(1, OverflowPolicy::kBlockAfterService);
  ASSERT_TRUE(box.try_send(data_msg(0)));
  EXPECT_FALSE(box.try_send(data_msg(1)));
  EXPECT_EQ(box.dropped(), 0u);
  EXPECT_EQ(box.size(), 1u);
}

TEST(Mailbox, TrySendFullUnderSheddingCountsTheDrop) {
  Mailbox box(1, OverflowPolicy::kShedNewest);
  ASSERT_TRUE(box.try_send(data_msg(0)));
  EXPECT_FALSE(box.try_send(data_msg(1)));  // shed, exactly like send()
  EXPECT_EQ(box.dropped(), 1u);
}

TEST(Mailbox, TrySendClosedFailsWithoutCounting) {
  Mailbox box(4);
  box.close();
  EXPECT_FALSE(box.try_send(data_msg(1)));
  EXPECT_EQ(box.dropped(), 0u);
}

TEST(Mailbox, UnboundedSendOnClosedBoxCountsTheDrop) {
  Mailbox box(4);
  box.close();
  box.send_unbounded(Message::shutdown());
  EXPECT_EQ(box.size(), 0u);  // nothing enqueued behind a closed box
  EXPECT_EQ(box.dropped(), 1u);
}

TEST(MailboxDrain, TakesUpToBatchInFifoOrder) {
  Mailbox box(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(box.send(data_msg(i), 1s));
  std::vector<Message> batch;
  EXPECT_EQ(box.drain(batch, 4), 4u);
  EXPECT_EQ(box.drain(batch, 64), 6u);  // appends the remainder
  ASSERT_EQ(batch.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(batch[static_cast<std::size_t>(i)].tuple.id, i);
  EXPECT_EQ(box.size(), 0u);
}

TEST(MailboxDrain, InterleavedWithSendsNeverReorders) {
  // Producer bursts interleaved with partial drains: the two-queue swap
  // must still present a single FIFO stream across refills.
  Mailbox box(64);
  std::vector<Message> batch;
  std::int64_t next_in = 0;
  std::int64_t next_out = 0;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(box.try_send(data_msg(next_in++)));
    batch.clear();
    box.drain(batch, 3);  // partial: leaves messages behind in the outbox
    if ((round % 2) != 0) box.send_unbounded(Message::shutdown());
    for (const Message& m : batch) {
      if (m.kind == Message::Kind::kData) EXPECT_EQ(m.tuple.id, next_out++);
    }
  }
  batch.clear();
  box.drain(batch, 1024);
  for (const Message& m : batch) {
    if (m.kind == Message::Kind::kData) EXPECT_EQ(m.tuple.id, next_out++);
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(MailboxDrain, EmptyBoxYieldsNothing) {
  Mailbox box(4);
  std::vector<Message> batch;
  EXPECT_EQ(box.drain(batch, 64), 0u);
  EXPECT_TRUE(batch.empty());
}

TEST(MailboxDrain, CloseThenDrainReturnsRemainderThenNothing) {
  Mailbox box(8);
  ASSERT_TRUE(box.send(data_msg(1), 1s));
  ASSERT_TRUE(box.send(data_msg(2), 1s));
  box.close();
  std::vector<Message> batch;
  EXPECT_EQ(box.drain(batch, 64), 2u);  // close drains, it does not discard
  EXPECT_EQ(box.drain(batch, 64), 0u);
  EXPECT_EQ(box.dropped(), 0u);
}

TEST(MailboxDrain, SendAfterCloseIsCountedNotDrained) {
  Mailbox box(8);
  box.close();
  box.send_unbounded(Message::shutdown());  // exact closed-drop accounting
  EXPECT_FALSE(box.try_send(data_msg(1)));
  std::vector<Message> batch;
  EXPECT_EQ(box.drain(batch, 64), 0u);
  EXPECT_EQ(box.dropped(), 1u);  // only the unbounded send counts a loss
}

TEST(MailboxDrain, FreesCapacitySoBlockedSenderResumes) {
  Mailbox box(2);
  ASSERT_TRUE(box.send(data_msg(0), 1s));
  ASSERT_TRUE(box.send(data_msg(1), 1s));
  std::thread producer([&] { EXPECT_TRUE(box.send(data_msg(2), 5s)); });
  std::this_thread::sleep_for(20ms);  // let the producer block (BAS)
  std::vector<Message> batch;
  EXPECT_EQ(box.drain(batch, 64), 2u);  // releases both slots at once
  producer.join();
  batch.clear();
  ASSERT_EQ(box.drain(batch, 64), 1u);
  EXPECT_EQ(batch[0].tuple.id, 2);
  EXPECT_EQ(box.dropped(), 0u);
}

TEST(MailboxDrain, DeferredReleaseHoldsCapacityUntilReleased) {
  Mailbox box(2);
  ASSERT_TRUE(box.send(data_msg(0), 1s));
  ASSERT_TRUE(box.send(data_msg(1), 1s));
  std::vector<Message> batch;
  // release_now=false: messages leave the queue but keep their slots, so
  // BAS still sees a full box (capacity B, not B + batch).
  EXPECT_EQ(box.drain(batch, 64, /*release_now=*/false), 2u);
  EXPECT_EQ(box.size(), 2u);
  EXPECT_FALSE(box.try_send(data_msg(2)));
  box.release(1);  // first message enters service
  EXPECT_EQ(box.size(), 1u);
  EXPECT_TRUE(box.try_send(data_msg(3)));
  EXPECT_FALSE(box.try_send(data_msg(4)));  // back at capacity
  box.release(1);
  EXPECT_EQ(box.size(), 1u);
}

TEST(MailboxDrain, ReleaseWakesSenderBlockedAcrossDeferredDrain) {
  Mailbox box(1);
  ASSERT_TRUE(box.send(data_msg(0), 1s));
  std::thread producer([&] { EXPECT_TRUE(box.send(data_msg(1), 5s)); });
  std::this_thread::sleep_for(20ms);  // let the producer block (BAS)
  std::vector<Message> batch;
  ASSERT_EQ(box.drain(batch, 64, /*release_now=*/false), 1u);
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(box.size(), 1u);  // still blocked: slot not freed yet
  box.release(1);             // frees the slot and wakes the sender
  producer.join();
  batch.clear();
  ASSERT_EQ(box.drain(batch, 64), 1u);
  EXPECT_EQ(batch[0].tuple.id, 1);
  EXPECT_EQ(box.dropped(), 0u);
}

TEST(MailboxDrain, ConcurrentProducersLoseNothing) {
  Mailbox box(8);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(box.send(data_msg(p * kPerProducer + i), std::chrono::seconds(10)));
      }
    });
  }
  std::vector<bool> seen(kProducers * kPerProducer, false);
  std::vector<Message> batch;
  int received = 0;
  while (received < kProducers * kPerProducer) {
    batch.clear();
    const std::size_t n = box.drain(batch, 16);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(batch[i].tuple.id)]) << "duplicate";
      seen[static_cast<std::size_t>(batch[i].tuple.id)] = true;
    }
    received += static_cast<int>(n);
    if (n == 0) std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  for (bool b : seen) EXPECT_TRUE(b);
  EXPECT_EQ(box.dropped(), 0u);
}

TEST(Mailbox, OnReadyFiresOnlyOnEmptyToNonEmptyEdge) {
  Mailbox box(4);
  int readies = 0;
  box.set_on_ready([&] { ++readies; });
  ASSERT_TRUE(box.send(data_msg(1), 1s));  // empty -> non-empty: fires
  ASSERT_TRUE(box.try_send(data_msg(2)));  // non-empty: silent
  box.send_unbounded(Message::shutdown());
  EXPECT_EQ(readies, 1);
  Message out;
  ASSERT_TRUE(box.receive(out));
  ASSERT_TRUE(box.receive(out));
  ASSERT_TRUE(box.receive(out));  // drained again
  ASSERT_TRUE(box.try_send(data_msg(3)));  // new edge: fires again
  EXPECT_EQ(readies, 2);
}

TEST(Mailbox, OnReadyFiresForEveryEnqueuePath) {
  Mailbox box(4);
  int readies = 0;
  box.set_on_ready([&] { ++readies; });
  Message out;
  ASSERT_TRUE(box.send(data_msg(1), 1s));
  ASSERT_TRUE(box.receive(out));
  ASSERT_TRUE(box.try_send(data_msg(2)));
  ASSERT_TRUE(box.receive(out));
  box.send_unbounded(Message::shutdown());
  EXPECT_EQ(readies, 3);
}

TEST(Mailbox, OnReadyEdgeFiresExactlyOnceAcrossQueueSwap) {
  // After a partial drain the remaining messages sit in the consumer-side
  // outbox; a new send must NOT look like an empty->non-empty edge (the
  // box never emptied), and a full drain must re-arm the edge.
  Mailbox box(8);
  int readies = 0;
  box.set_on_ready([&] { ++readies; });
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(box.send(data_msg(i), 1s));
  EXPECT_EQ(readies, 1);
  std::vector<Message> batch;
  ASSERT_EQ(box.drain(batch, 1), 1u);  // 2 left, now held in the outbox
  ASSERT_TRUE(box.try_send(data_msg(3)));  // inbox empty but box is not
  EXPECT_EQ(readies, 1);
  batch.clear();
  ASSERT_EQ(box.drain(batch, 64), 3u);  // fully drained: edge re-armed
  ASSERT_TRUE(box.try_send(data_msg(4)));
  EXPECT_EQ(readies, 2);
}

TEST(Mailbox, SetOnReadyIsSafeWhileProducersAreLive) {
  // The scheduler installs its hand-off hook while senders may already be
  // running; swapping the hook mid-stream must never tear (the TSAN CI
  // job runs this) and every edge must land on whichever hook is current.
  Mailbox box(4096);
  std::atomic<int> a_fires{0};
  std::atomic<int> b_fires{0};
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    std::int64_t id = 0;
    while (!stop.load(std::memory_order_acquire)) {
      box.send_unbounded(data_msg(id++));
      Message out;
      (void)box.try_receive(out);  // keep crossing the empty edge
    }
  });
  for (int i = 0; i < 20000; ++i) {
    box.set_on_ready([&a_fires] { a_fires.fetch_add(1, std::memory_order_relaxed); });
    box.set_on_ready([&b_fires] { b_fires.fetch_add(1, std::memory_order_relaxed); });
  }
  stop.store(true, std::memory_order_release);
  producer.join();
  // Deterministic tail: with the box drained and the hook settled, the
  // next edge must land on exactly the current hook.
  Message out;
  while (box.try_receive(out)) {
  }
  const int before = b_fires.load();
  box.send_unbounded(data_msg(-1));
  EXPECT_EQ(b_fires.load(), before + 1);
  EXPECT_EQ(box.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Engine parity: the mailbox contract must hold identically on the lock-free
// ring (the default) and the mutex two-queue baseline `--mailbox=mutex` keeps
// alive.  Value-parameterized so neither engine loses coverage.

class MailboxBothKinds : public ::testing::TestWithParam<MailboxKind> {
 protected:
  [[nodiscard]] MailboxKind kind() const { return GetParam(); }
};

TEST_P(MailboxBothKinds, PreservesFifoOrder) {
  Mailbox box(16, OverflowPolicy::kBlockAfterService, kind());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(box.send(data_msg(i), 1s));
  Message out;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(box.receive(out));
    EXPECT_EQ(out.tuple.id, i);
  }
}

TEST_P(MailboxBothKinds, SendTimesOutWhenFullAndCountsTheDrop) {
  Mailbox box(2, OverflowPolicy::kBlockAfterService, kind());
  ASSERT_TRUE(box.send(data_msg(0), 10ms));
  ASSERT_TRUE(box.send(data_msg(1), 10ms));
  EXPECT_FALSE(box.send(data_msg(2), 50ms));
  EXPECT_EQ(box.dropped(), 1u);
  EXPECT_EQ(box.size(), 2u);
}

TEST_P(MailboxBothKinds, BlockedSenderResumesWhenSlotFrees) {
  Mailbox box(1, OverflowPolicy::kBlockAfterService, kind());
  ASSERT_TRUE(box.send(data_msg(0), 1s));
  std::thread producer([&] { EXPECT_TRUE(box.send(data_msg(1), 5s)); });
  std::this_thread::sleep_for(20ms);  // let the producer block (BAS)
  Message out;
  ASSERT_TRUE(box.receive(out));
  EXPECT_EQ(out.tuple.id, 0);
  ASSERT_TRUE(box.receive(out));
  EXPECT_EQ(out.tuple.id, 1);
  producer.join();
  EXPECT_EQ(box.dropped(), 0u);
}

TEST_P(MailboxBothKinds, ShedNewestDropsWhenFull) {
  Mailbox box(2, OverflowPolicy::kShedNewest, kind());
  ASSERT_TRUE(box.send(data_msg(0), 1s));
  ASSERT_TRUE(box.send(data_msg(1), 1s));
  EXPECT_FALSE(box.send(data_msg(2), 1s));  // shed immediately, no blocking
  EXPECT_FALSE(box.try_send(data_msg(3)));
  EXPECT_EQ(box.dropped(), 2u);
  EXPECT_EQ(box.size(), 2u);
}

TEST_P(MailboxBothKinds, CloseDrainsThenStops) {
  Mailbox box(8, OverflowPolicy::kBlockAfterService, kind());
  ASSERT_TRUE(box.send(data_msg(0), 1s));
  ASSERT_TRUE(box.send(data_msg(1), 1s));
  box.close();
  Message out;
  ASSERT_TRUE(box.receive(out));
  ASSERT_TRUE(box.receive(out));
  EXPECT_FALSE(box.receive(out));  // closed and drained
  EXPECT_FALSE(box.send(data_msg(2), 1s));
}

TEST_P(MailboxBothKinds, TrySendBatchTakesExactlyTheFittingPrefix) {
  Mailbox box(8, OverflowPolicy::kBlockAfterService, kind());
  ASSERT_TRUE(box.send(data_msg(100), 1s));  // one slot already used
  Message msgs[12];
  for (int i = 0; i < 12; ++i) msgs[i] = data_msg(i);
  EXPECT_EQ(box.try_send_batch(msgs, 12), 7u);  // 8 - 1 slots free
  EXPECT_EQ(box.size(), 8u);
  EXPECT_EQ(box.try_send_batch(msgs, 12), 0u);  // full now
  Message out;
  ASSERT_TRUE(box.receive(out));
  EXPECT_EQ(out.tuple.id, 100);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(box.receive(out));
    EXPECT_EQ(out.tuple.id, i);  // batch preserved FIFO
  }
  EXPECT_EQ(box.dropped(), 0u);  // rejected suffix is the caller's problem
}

TEST_P(MailboxBothKinds, DeferredDrainHoldsCapacityUntilRelease) {
  Mailbox box(4, OverflowPolicy::kBlockAfterService, kind());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(box.send(data_msg(i), 1s));
  std::vector<Message> batch;
  EXPECT_EQ(box.drain(batch, 4, /*release_now=*/false), 4u);
  EXPECT_FALSE(box.try_send(data_msg(9)));  // capacity still held (BAS: B, not B+batch)
  box.release(1);
  EXPECT_TRUE(box.try_send(data_msg(9)));
  box.release(3);
  EXPECT_EQ(box.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Engines, MailboxBothKinds,
                         ::testing::Values(MailboxKind::kMutex, MailboxKind::kRing),
                         [](const ::testing::TestParamInfo<MailboxKind>& info) {
                           return std::string(to_string(info.param));
                         });

// ---------------------------------------------------------------------------
// Ring-specific stress: wraparound, the blocking fallback, spills, shedding
// under contention.  These are the cases the TSAN/ASan CI jobs rerun.

TEST(MailboxRingStress, MultiProducerWraparoundKeepsPerProducerFifo) {
  // 6000 messages through a 16-slot physical ring: hundreds of laps, four
  // producers racing on the slot CAS.  Per-producer order must survive and
  // every message must take the lock-free fast path (capacity credits keep
  // occupancy below the physical slack, so nothing spills).
  constexpr int kProducers = 4;
  constexpr std::int64_t kPerProducer = 1500;
  Mailbox box(8, OverflowPolicy::kBlockAfterService, MailboxKind::kRing);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::int64_t i = 0; i < kPerProducer; ++i) {
        Tuple t;
        t.id = i;
        ASSERT_TRUE(box.send(Message::data(t, static_cast<OpIndex>(p), 1), 30s));
      }
    });
  }
  std::int64_t next_id[kProducers] = {};
  Message out;
  for (std::int64_t n = 0; n < kProducers * kPerProducer; ++n) {
    ASSERT_TRUE(box.receive(out));
    const int p = static_cast<int>(out.from);
    ASSERT_LT(p, kProducers);
    EXPECT_EQ(out.tuple.id, next_id[p]++) << "producer " << p << " reordered";
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(box.size(), 0u);
  EXPECT_EQ(box.dropped(), 0u);
  EXPECT_EQ(box.ring_enqueues(), static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(box.ring_spills(), 0u);
}

TEST(MailboxRingStress, FullRingFallsBackToBlockingSendAndLosesNothing) {
  // Tiny capacity forces every producer through the BAS park/wake slow path
  // over and over; the consumer paces itself so the box is full most of the
  // time.  Nothing may be lost or duplicated.
  constexpr int kProducers = 3;
  constexpr std::int64_t kPerProducer = 400;
  Mailbox box(2, OverflowPolicy::kBlockAfterService, MailboxKind::kRing);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::int64_t i = 0; i < kPerProducer; ++i) {
        Tuple t;
        t.id = i;
        ASSERT_TRUE(box.send(Message::data(t, static_cast<OpIndex>(p), 1), 30s));
      }
    });
  }
  std::int64_t seen[kProducers] = {};
  Message out;
  for (std::int64_t n = 0; n < kProducers * kPerProducer; ++n) {
    ASSERT_TRUE(box.receive(out));
    ++seen[static_cast<int>(out.from)];
    if (n % 64 == 0) std::this_thread::yield();  // keep senders parking
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(seen[p], kPerProducer);
  EXPECT_EQ(box.dropped(), 0u);
}

TEST(MailboxRingStress, CloseWhileFullFailsBlockedSenderAndDrainsBacklog) {
  Mailbox box(1, OverflowPolicy::kBlockAfterService, MailboxKind::kRing);
  ASSERT_TRUE(box.send(data_msg(0), 1s));
  std::atomic<bool> send_result{true};
  std::thread blocked([&] { send_result.store(box.send(data_msg(1), 30s)); });
  std::this_thread::sleep_for(20ms);  // let the sender park on not_full_
  box.close();
  blocked.join();
  EXPECT_FALSE(send_result.load());  // woken by close, not by capacity
  Message out;
  ASSERT_TRUE(box.receive(out));  // the backlog still drains
  EXPECT_EQ(out.tuple.id, 0);
  EXPECT_FALSE(box.receive(out));
}

TEST(MailboxRingStress, ShedAccountingBalancesUnderContention) {
  // kShedNewest with a hot box: delivered + dropped must equal sent exactly
  // — the ledger the scheduler's invariant report builds on.
  constexpr int kProducers = 4;
  constexpr std::int64_t kPerProducer = 2000;
  Mailbox box(4, OverflowPolicy::kShedNewest, MailboxKind::kRing);
  std::atomic<std::int64_t> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::int64_t i = 0; i < kPerProducer; ++i) {
        Tuple t;
        t.id = i;
        if (box.send(Message::data(t, static_cast<OpIndex>(p), 1), 1s)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Drain concurrently so producers keep finding free slots *sometimes* —
  // the interesting interleaving is accept/drop racing the consumer.
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> received{0};
  std::thread consumer([&] {
    Message out;
    while (!stop.load(std::memory_order_acquire)) {
      if (box.try_receive(out)) {
        received.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  consumer.join();
  Message out;
  while (box.try_receive(out)) received.fetch_add(1, std::memory_order_relaxed);
  EXPECT_EQ(received.load(), accepted.load());
  EXPECT_EQ(received.load() + static_cast<std::int64_t>(box.dropped()),
            kProducers * kPerProducer);
}

TEST(MailboxRingStress, SpilledUnboundedTokensStayFifoWithLaterSends) {
  // Flood a ring whose physical slots (16 for capacity 2) cannot hold the
  // capacity-exempt burst: the overflow spills to the side queue, and once
  // spilled *every* later enqueue must follow it so per-producer FIFO holds.
  Mailbox box(2, OverflowPolicy::kBlockAfterService, MailboxKind::kRing);
  constexpr std::int64_t kBurst = 40;  // > 16 physical slots
  for (std::int64_t i = 0; i < kBurst; ++i) box.send_unbounded(data_msg(i));
  EXPECT_GT(box.ring_spills(), 0u);
  // A later bounded try_send must queue *behind* the spill, not jump it.
  // (Capacity 2 with 40 unbounded items in flight: the credit counter is
  // far above capacity, so bounded sends are rejected — use unbounded.)
  box.send_unbounded(data_msg(kBurst));
  Message out;
  for (std::int64_t i = 0; i <= kBurst; ++i) {
    ASSERT_TRUE(box.receive(out));
    EXPECT_EQ(out.tuple.id, i);
  }
  EXPECT_EQ(box.size(), 0u);
}

TEST(MailboxRingStress, SpillDrainReopensTheFastPath) {
  Mailbox box(2, OverflowPolicy::kBlockAfterService, MailboxKind::kRing);
  for (std::int64_t i = 0; i < 40; ++i) box.send_unbounded(data_msg(i));
  const std::uint64_t spilled = box.ring_spills();
  EXPECT_GT(spilled, 0u);
  Message out;
  for (std::int64_t i = 0; i < 40; ++i) ASSERT_TRUE(box.receive(out));
  // Spill queue empty again: new traffic goes back to the lock-free ring.
  const std::uint64_t fast_before = box.ring_enqueues();
  ASSERT_TRUE(box.try_send(data_msg(99)));
  EXPECT_EQ(box.ring_enqueues(), fast_before + 1);
  EXPECT_EQ(box.ring_spills(), spilled);
  ASSERT_TRUE(box.receive(out));
  EXPECT_EQ(out.tuple.id, 99);
}

TEST(MailboxRingStress, PayloadsWrittenBeforePublishReadBackAcrossLaps) {
  // The ring's cells hold unconstructed payloads until a producer first
  // publishes into them.  Forty rounds of data batches, single sends and
  // capacity-exempt control tokens lap the 16-cell ring about fifteen
  // times, the first lap on cells nothing has written yet; every message
  // must come back whole and in FIFO order, without a spill.
  Mailbox box(8, OverflowPolicy::kBlockAfterService, MailboxKind::kRing);
  std::int64_t next = 0;
  std::uint64_t published = 0;
  std::vector<Message> want;
  std::vector<Message> got;
  for (int round = 0; round < 40; ++round) {
    want.clear();
    const std::size_t batch = 1 + static_cast<std::size_t>(round % 7);
    for (std::size_t i = 0; i < batch; ++i) {
      Tuple t;
      t.id = next;
      t.key = -next;
      t.ts = 0.5 * static_cast<double>(next);
      t.f = {1.0 * next, 2.0 * next, 3.0 * next, 4.0 * next};
      Message m = Message::data(t, static_cast<OpIndex>(round), static_cast<OpIndex>(i));
      m.seq = next++;
      want.push_back(m);
    }
    ASSERT_EQ(box.try_send_batch(want.data(), batch), batch);
    Message single = data_msg(next++);
    ASSERT_TRUE(box.try_send(single));
    want.push_back(single);
    for (int tok = 0; tok <= round % 3; ++tok) {
      const Message token = tok == 0   ? Message::fence()
                            : tok == 1 ? Message::seq_mark(next++)
                                       : Message::shutdown();
      box.send_unbounded(token);
      want.push_back(token);
    }
    published += want.size();
    got.clear();
    ASSERT_EQ(box.drain(got, 64), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE("round " + std::to_string(round) + ", message " + std::to_string(i));
      EXPECT_EQ(got[i].kind, want[i].kind);
      EXPECT_EQ(got[i].tuple.id, want[i].tuple.id);
      EXPECT_EQ(got[i].tuple.key, want[i].tuple.key);
      EXPECT_EQ(got[i].tuple.ts, want[i].tuple.ts);
      EXPECT_EQ(got[i].tuple.f, want[i].tuple.f);
      EXPECT_EQ(got[i].from, want[i].from);
      EXPECT_EQ(got[i].target, want[i].target);
      EXPECT_EQ(got[i].seq, want[i].seq);
    }
  }
  EXPECT_GE(published, 15u * 16u);
  EXPECT_EQ(box.ring_enqueues(), published);
  EXPECT_EQ(box.ring_spills(), 0u);
  EXPECT_EQ(box.size(), 0u);
}

}  // namespace
}  // namespace ss::runtime
