// Failure-injection tests: operator logic that throws, sources that throw,
// and engine behaviour under very small buffers and timeouts — no exception
// may cross a thread boundary, runs must drain, and the error must surface
// on the caller's thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "core/error.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/engine.hpp"
#include "runtime/synthetic.hpp"

namespace ss::runtime {
namespace {

using std::chrono::duration;

class ThrowingLogic final : public OperatorLogic {
 public:
  explicit ThrowingLogic(std::int64_t after) : after_(after) {}
  void process(const Tuple& item, OpIndex, Collector& out) override {
    if (item.id >= after_) throw Error("synthetic operator failure");
    out.emit(item);
  }
  std::unique_ptr<OperatorLogic> clone() const override {
    return std::make_unique<ThrowingLogic>(after_);
  }

 private:
  std::int64_t after_;
};

class CountingSource final : public SourceLogic {
 public:
  explicit CountingSource(std::int64_t n, bool throw_at_end = false)
      : n_(n), throw_at_end_(throw_at_end) {}
  bool next(Tuple& out) override {
    if (i_ >= n_) {
      if (throw_at_end_) throw Error("source failure");
      return false;
    }
    out = Tuple{};
    out.id = i_++;
    return true;
  }

 private:
  std::int64_t n_;
  bool throw_at_end_;
  std::int64_t i_ = 0;
};

Topology pipeline3() {
  Topology::Builder b;
  b.add_operator("src", 1e-6);
  b.add_operator("mid", 1e-6);
  b.add_operator("sink", 1e-6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  return b.build();
}

TEST(FaultInjection, OperatorExceptionSurfacesOnCallerThread) {
  AppFactory factory;
  factory.source = [](OpIndex, const OperatorSpec&) {
    return std::make_unique<CountingSource>(100000);
  };
  factory.logic = [](OpIndex op, const OperatorSpec&) -> std::unique_ptr<OperatorLogic> {
    if (op == 1) return std::make_unique<ThrowingLogic>(500);
    return std::make_unique<ThrowingLogic>(1'000'000'000);
  };
  Engine engine(pipeline3(), Deployment{}, factory, {});
  try {
    (void)engine.run_until_complete(duration<double>(20.0));
    FAIL() << "expected ss::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("mid"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("synthetic operator failure"), std::string::npos);
  }
}

TEST(FaultInjection, SourceExceptionSurfaces) {
  AppFactory factory;
  factory.source = [](OpIndex, const OperatorSpec&) {
    return std::make_unique<CountingSource>(100, /*throw_at_end=*/true);
  };
  factory.logic = [](OpIndex, const OperatorSpec&) {
    return std::make_unique<ThrowingLogic>(1'000'000'000);
  };
  Engine engine(pipeline3(), Deployment{}, factory, {});
  EXPECT_THROW((void)engine.run_until_complete(duration<double>(20.0)), Error);
}

TEST(FaultInjection, ReplicaExceptionAlsoDrains) {
  AppFactory factory;
  factory.source = [](OpIndex, const OperatorSpec&) {
    return std::make_unique<CountingSource>(50000);
  };
  factory.logic = [](OpIndex op, const OperatorSpec&) -> std::unique_ptr<OperatorLogic> {
    if (op == 1) return std::make_unique<ThrowingLogic>(100);
    return std::make_unique<ThrowingLogic>(1'000'000'000);
  };
  Deployment d;
  d.replication.replicas = {1, 3, 1};
  Engine engine(pipeline3(), d, factory, {});
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)engine.run_until_complete(duration<double>(20.0)), Error);
  // The run must not hang anywhere near the 20 s watchdog.
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(),
            15.0);
}

TEST(FaultInjection, TinyBuffersAndTimeoutsStillDrain) {
  // Capacity-1 mailboxes with a very short send timeout: heavy drops, but
  // the topology must still run, measure, and drain cleanly.
  Topology::Builder b;
  b.add_operator("src", 0.2e-3);
  b.add_operator("slow", 2e-3);
  b.add_edge(0, 1);
  EngineConfig config;
  config.mailbox_capacity = 1;
  config.send_timeout = duration<double>(0.001);
  Engine engine(b.build(), Deployment{}, synthetic_factory(), config);
  const RunStats stats = engine.run_for(duration<double>(0.8));
  EXPECT_GT(stats.dropped, 0u);             // the short timeout really dropped items
  EXPECT_GT(stats.ops[1].processed, 0u);    // but the consumer kept working
}

// ---------------------------------------------------------------------------
// Checkpoint write failures (runtime/checkpoint.hpp fault seam).

std::atomic<std::int64_t> g_generated{0};
std::atomic<std::int64_t> g_sunk{0};

/// Wall-clock paced source so the periodic checkpointer gets a chance to
/// fire mid-stream; counts what it hands to the engine.
class PacedCountingSource final : public SourceLogic {
 public:
  explicit PacedCountingSource(std::int64_t n) : n_(n) {}
  bool next(Tuple& out) override {
    if (i_ >= n_) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    out = Tuple{};
    out.id = i_++;
    g_generated.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

 private:
  std::int64_t n_;
  std::int64_t i_ = 0;
};

class CountingSink final : public OperatorLogic {
 public:
  void process(const Tuple& item, OpIndex, Collector& out) override {
    g_sunk.fetch_add(1, std::memory_order_relaxed);
    out.emit(item);
  }
  std::unique_ptr<OperatorLogic> clone() const override {
    return std::make_unique<CountingSink>();
  }
};

class CheckpointFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/ckpt_fault_" + info->name();
    std::filesystem::remove_all(dir_);
    FaultInjector::instance().reset();
    g_generated.store(0);
    g_sunk.store(0);
  }
  void TearDown() override {
    FaultInjector::instance().reset();
    std::filesystem::remove_all(dir_);
  }

  Engine make_engine(std::int64_t items, double period,
                     SchedulerKind kind = SchedulerKind::kThreadPerActor) {
    AppFactory factory;
    factory.source = [items](OpIndex, const OperatorSpec&) {
      return std::make_unique<PacedCountingSource>(items);
    };
    factory.logic = [](OpIndex, const OperatorSpec&) {
      return std::make_unique<CountingSink>();
    };
    EngineConfig config;
    config.checkpoint_dir = dir_;
    config.checkpoint_period = period;
    config.scheduler = kind;
    return Engine(pipeline3(), Deployment{}, factory, config);
  }

  /// The first periodic snapshot throws.  The fence must still complete and
  /// the pipeline drain — the failure stops the run early and surfaces on
  /// the caller's thread (same contract as ThrowingLogic), never as a hang.
  /// The stop lands while the source holds fence-buffered items, so this
  /// checks the source step's stop/fence-buffer drain.
  void expect_write_failure_surfaces_without_loss(SchedulerKind kind) {
    FaultInjector::instance().fail_write_on(1);
    Engine engine = make_engine(1'000'000, /*period=*/0.05, kind);
    const auto start = std::chrono::steady_clock::now();
    try {
      (void)engine.run_until_complete(duration<double>(60.0));
      FAIL() << "expected ss::Error from the failed snapshot write";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("checkpoint"), std::string::npos) << e.what();
    }
    // Far below the watchdog: the failed write aborted the run, no stall.
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(),
              30.0);
    EXPECT_EQ(engine.checkpoints_written(), 0u);
    // Nothing generated before the failure was lost: every tuple the source
    // handed over was drained through to the sink (both stages process it).
    EXPECT_EQ(g_sunk.load(), 2 * g_generated.load());
  }

  std::string dir_;
};

TEST_F(CheckpointFaultTest, SnapshotWriteFailureSurfacesWithoutStallingOrLosingTuples) {
  expect_write_failure_surfaces_without_loss(SchedulerKind::kThreadPerActor);
}

TEST_F(CheckpointFaultTest, SnapshotWriteFailureSurfacesWithoutStallingOrLosingTuplesOnPool) {
  expect_write_failure_surfaces_without_loss(SchedulerKind::kPooled);
}

TEST_F(CheckpointFaultTest, TornSnapshotDoesNotFailTheRunAndIsSkippedOnLoad) {
  // A torn write is invisible at run time (the file lands truncated, as
  // after a power loss) — the run completes, and only the recovery scan
  // discards the damaged snapshot.
  FaultInjector::instance().tear_write_on(1);
  Engine engine = make_engine(3000, /*period=*/0.06);
  const RunStats stats = engine.run_until_complete(duration<double>(60.0));
  EXPECT_GE(stats.checkpoints_written, 1u);
  EXPECT_EQ(stats.ops[0].processed, 3000u);

  Checkpoint torn;
  EXPECT_FALSE(CheckpointManager::read_file(dir_ + "/ckpt-00000001.bin", torn));
  CheckpointManager mgr(dir_);
  Checkpoint latest;
  ASSERT_TRUE(mgr.load_latest(latest));  // final.bin (and later snapshots) survive
  EXPECT_GT(latest.sequence, 1u);
}

TEST(FaultInjection, EngineSurvivesImmediateSourceEnd) {
  AppFactory factory;
  factory.source = [](OpIndex, const OperatorSpec&) {
    return std::make_unique<CountingSource>(0);  // empty stream
  };
  factory.logic = [](OpIndex, const OperatorSpec&) {
    return std::make_unique<ThrowingLogic>(1'000'000'000);
  };
  Engine engine(pipeline3(), Deployment{}, factory, {});
  const RunStats stats = engine.run_until_complete(duration<double>(10.0));
  EXPECT_EQ(stats.ops[0].processed, 0u);
  EXPECT_EQ(stats.dropped, 0u);
}

}  // namespace
}  // namespace ss::runtime
