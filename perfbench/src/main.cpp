// The repository benchmark: one binary, three workloads, every layer of the
// program driven through its public API and timed from outside.
//
//   perfbench --workload chain_hop|testbed_paced|keyed_control --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
// (and writes the span log).  Human-readable lines come first; the last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// See perfbench/README.md for the workloads, the metrics and how to read
// the traced run.
#include <benchmark/benchmark.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/latency.hpp"
#include "core/optimizer.hpp"
#include "core/steady_state.hpp"
#include "gen/workload.hpp"
#include "gen/zipf.hpp"
#include "harness.hpp"
#include "ops/keyed.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/engine.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/routing.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/synthetic.hpp"
#include "runtime/wire.hpp"
#include "xmlio/topology_xml.hpp"

namespace perfbench {
namespace {

using ss::Deployment;
using ss::OperatorSpec;
using ss::OpIndex;
using ss::Topology;
using ss::runtime::Engine;
using ss::runtime::EngineConfig;
using ss::runtime::OperatorLogic;
using ss::runtime::RunStats;
using ss::runtime::SchedulerCounters;
using ss::runtime::SchedulerKind;
using ss::runtime::Tuple;

using LogicMaker = std::function<std::unique_ptr<OperatorLogic>(OpIndex, const OperatorSpec&)>;

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_out;
};

// ------------------------------------------------------------------- source

/// What the benchmark's source logged while the engine ran.  Written only
/// by the single source actor; read after the engine joined its threads.
struct IngestLog {
  explicit IngestLog(OpenLoopSchedule s) : schedule(std::move(s)) {
    // Uninitialized on purpose: pages are touched only as items enter, so
    // a generous schedule bound does not inflate the measured RSS.
    late.reset(new float[static_cast<std::size_t>(std::max<std::int64_t>(schedule.total(), 1))]);
  }
  OpenLoopSchedule schedule;
  const std::vector<std::int32_t>* keys = nullptr;  ///< per-item key, or id
  std::unique_ptr<float[]> late;  ///< generator lateness per entered item (s)
  std::atomic<std::int64_t> entered{0};             ///< items next() returned
  std::atomic<double> t0{-1.0};                     ///< first next() call
  std::atomic<bool> stop{false};                    ///< end the stream early
  double last_entry = 0.0;                          ///< when the last item entered
};

int g_sample_every = 0;  ///< traced run: 1-in-N tuples get spans (0 = none)

/// The source releases due items on a 100-us tick: it sleeps (lending a
/// pooled worker's core back, as the runtime's own paced source does) until
/// the tick at or after an item's due time.  A source that spins to hit
/// every due time exactly burns a core the graph needs and, on a 4-core
/// host, turns the latency tail into scheduler noise; the tick costs each
/// item at most 0.1 ms of its latency, measured like any other delay.
constexpr double kReleaseTick = 100e-6;

void wait_until(double when) {
  const double remaining = when - now_s();
  if (remaining <= 0.0) return;
  ss::runtime::BlockingSection lend;
  std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
}

/// Open-loop source following a precomputed schedule: item i is due at
/// t0 + offset(i), where t0 is the first call.  The due time is stamped
/// into a tuple attribute the benchmark owns (kDueField).
class PacedSource final : public ss::runtime::SourceLogic {
 public:
  explicit PacedSource(std::shared_ptr<IngestLog> log) : log_(std::move(log)) {}

  bool next(Tuple& out) override {
    IngestLog& log = *log_;
    if (next_ >= log.schedule.total() || log.stop.load(std::memory_order_relaxed)) return false;
    const double called = now_s();
    double t0 = log.t0.load(std::memory_order_relaxed);
    if (t0 < 0.0) {
      t0 = called;
      log.t0.store(t0, std::memory_order_release);
    }
    const std::int64_t i = next_;
    const double offset = log.schedule.offset(i);
    const double due = offset < 0.0 ? called : t0 + offset;
    if (called < due) wait_until(t0 + std::ceil(offset / kReleaseTick - 1e-9) * kReleaseTick);
    const double entered = called < due ? now_s() : called;
    log.late[static_cast<std::size_t>(i)] = static_cast<float>(lateness(due, called));
    out = Tuple{};
    out.id = i;
    out.key = log.keys != nullptr ? (*log.keys)[static_cast<std::size_t>(i) % log.keys->size()] : i;
    out.f[0] = static_cast<double>(i % 7);
    out.f[kEnteredField] = entered;
    out.f[kDueField] = due;
    ++next_;
    log.last_entry = entered;
    log.entered.store(next_, std::memory_order_release);
    if (g_sample_every > 0 && i % g_sample_every == 0) {
      SpanLog::instance().add("tuple.ingest", "source", due, entered, Lane::kSource, i);
    }
    return true;
  }

 private:
  std::shared_ptr<IngestLog> log_;
  std::int64_t next_ = 0;
};

/// Sink-side span of a sampled tuple: entered -> delivered, same tuple id
/// as its "tuple.ingest" span.
void deliver_hook(const Tuple& t, double delivered) {
  if (g_sample_every <= 0 || t.id % g_sample_every != 0) return;
  SpanLog::instance().add("tuple.deliver", "sink", t.f[kEnteredField], delivered, Lane::kSink,
                          t.id);
}

/// Identity logic for the keyed pipeline's sink.
class PassThrough final : public OperatorLogic {
 public:
  void process(const Tuple& item, OpIndex, ss::runtime::Collector& out) override {
    out.emit(item);
  }
  [[nodiscard]] std::unique_ptr<OperatorLogic> clone() const override {
    return std::make_unique<PassThrough>();
  }
  [[nodiscard]] bool save_state(std::string&) const override { return true; }
  bool restore_state(const std::string& bytes) override { return bytes.empty(); }
};

// ---------------------------------------------------------------- workloads

/// One topology of a workload, imported and optimized.
struct Graph {
  std::string xml;  ///< the generated input, as the program receives it
  Topology topo;
  ss::AutoOptimizeResult opt;
  Deployment dep;
  Deployment alt;  ///< control plane: the replica-count toggle target
  double ref_rate = 0.0;
  LogicMaker logic;
};

struct Workload {
  std::string name;
  std::vector<Graph> graphs;
  ss::AutoOptimizeOptions optimize;
  bool assign_keys_at_emitter = true;
  bool one_to_one = false;  ///< every item reaches a sink exactly once
  bool keyed = false;       ///< keyed_control checks and checkpoint state
  std::vector<std::int32_t> keys;
  std::int64_t peak_items = 0;  ///< per graph and rep
  int peak_reps = 1;
  double limit_ms = 0.0;  ///< latency limit of sustainable_tps
  // ladder of the sustainable-rate sweep, in multiples of ref_rate
  double ladder_start = 0.5;
  double ladder_ratio = 1.1;
  int ladder_steps = 8;
  double step_seconds = 0.3;    ///< at --seconds 20
  double warmup_seconds = 0.3;  ///< unscored first step at the first rate
  int sweep_reps = 1;           ///< sweeps per graph; the median is reported
  // reference-rate runs, seconds at --seconds 20: per graph and repetition
  double latency_seconds = 1.0;
  double threads_seconds = 0.5;
  int latency_reps = 1;
  int control_calls = 100;     ///< reconfigure and checkpoint calls each
  double control_gap = 0.005;  ///< pause between control calls (s)
};

OperatorSpec spec(std::string name, double service_time,
                  ss::StateKind state = ss::StateKind::kStateless) {
  OperatorSpec s;
  s.name = std::move(name);
  s.service_time = service_time;
  s.state = state;
  return s;
}

std::string to_xml(const Topology& t, const std::string& name) {
  return ss::xml::save_topology(t, name);
}

/// Toggle target for reconfigure(): `dep` with one more replica of `op`.
Deployment with_extra_replica(const Topology& t, const Deployment& dep, OpIndex op) {
  Deployment alt = dep;
  if (op == ss::kInvalidOp) return alt;  // nothing may grow: the fence alone
  alt.replication.replicas.resize(t.num_operators(), 1);
  for (auto& r : alt.replication.replicas) r = std::max(r, 1);
  alt.replication.replicas[op] += 1;
  alt.partitions.clear();
  return alt;
}

LogicMaker synthetic_logic(std::uint64_t seed, double time_scale) {
  return [seed, time_scale](OpIndex op, const OperatorSpec& s) -> std::unique_ptr<OperatorLogic> {
    return std::make_unique<ss::runtime::SyntheticOperator>(s, seed * 1000003ULL + op, time_scale);
  };
}

Workload make_chain_hop(std::uint64_t seed) {
  Workload w;
  w.name = "chain_hop";
  ss::Topology::Builder b;
  b.add_operator(spec("source", 1e-6));
  for (int i = 0; i < 8; ++i) {
    b.add_operator(spec("stage" + std::to_string(i), 1e-7));
    b.add_edge(static_cast<OpIndex>(i), static_cast<OpIndex>(i + 1));
  }
  Graph g;
  g.xml = to_xml(b.build(), "chain_hop");
  // Light load: each hop's park/wake round trip sets the latency; at 5x
  // this rate the tail is set by host scheduling noise instead.
  g.ref_rate = 20e3;
  g.logic = synthetic_logic(seed, 0.0);  // zero service: pure hop overhead
  w.graphs.push_back(std::move(g));
  w.optimize.enable_fusion = false;  // every hop stays an actor
  w.one_to_one = true;
  w.peak_items = 200000;
  w.peak_reps = 5;
  w.latency_seconds = 0.8;
  w.threads_seconds = 0.5;
  w.latency_reps = 4;
  w.limit_ms = 20.0;
  w.ladder_start = 10.0;
  w.ladder_ratio = 1.1;
  w.ladder_steps = 14;
  w.step_seconds = 0.2;
  w.sweep_reps = 3;
  w.control_calls = 100;
  w.control_gap = 0.004;
  return w;
}

/// Topologies of the paper's Alg. 5 testbed.  The graphs are the first two
/// of the fixed testbed seed, so every run measures the same graphs; the
/// run seed drives stream contents, routing and selectivity draws.
constexpr std::uint64_t kTestbedSeed = 2018;
constexpr int kTestbedGraphs = 2;

Workload make_testbed_paced(std::uint64_t seed) {
  Workload w;
  w.name = "testbed_paced";
  const auto testbed = ss::make_testbed(kTestbedSeed, kTestbedGraphs);
  for (std::size_t i = 0; i < testbed.size(); ++i) {
    Graph g;
    g.xml = to_xml(testbed[i], "testbed" + std::to_string(i));
    // Offered load is half the declared source rate: an input property,
    // fixed by the topology, never derived from a measurement.
    g.ref_rate = 0.5 / testbed[i].op(testbed[i].source()).service_time;
    g.logic = synthetic_logic(seed + i, 1.0);
    w.graphs.push_back(std::move(g));
  }
  w.peak_items = 0;  // per graph: one second's worth at the declared rate
  w.peak_reps = 1;
  w.limit_ms = 200.0;
  w.ladder_start = 1.0;
  w.ladder_ratio = 1.15;
  w.ladder_steps = 8;
  w.step_seconds = 0.3;
  w.latency_seconds = 1.5;
  w.threads_seconds = 0.75;
  w.latency_reps = 2;
  w.control_calls = 12;  // per graph: the pauses of both graphs pool
  w.control_gap = 0.01;
  return w;
}

constexpr std::size_t kKeyedKeys = 100000;
constexpr double kKeyedAlpha = 0.8;

Workload make_keyed_control(std::uint64_t seed) {
  Workload w;
  w.name = "keyed_control";
  const ss::KeyDistribution keys = ss::KeyDistribution::zipf(kKeyedKeys, kKeyedAlpha);
  ss::Topology::Builder b;
  const double ref_rate = 50e3;
  b.add_operator(spec("source", 1.0 / ref_rate));
  OperatorSpec sum = spec("running_sum", 2e-6, ss::StateKind::kPartitionedStateful);
  sum.impl = "keyed_running_sum";
  sum.keys = keys;
  OperatorSpec count = spec("counter", 2e-6, ss::StateKind::kPartitionedStateful);
  count.impl = "keyed_counter";
  count.keys = keys;
  b.add_operator(sum);
  b.add_operator(count);
  b.add_operator(spec("sink", 1e-6));
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3);
  Graph g;
  g.xml = to_xml(b.build(), "keyed_control");
  g.ref_rate = ref_rate;
  g.logic = [](OpIndex, const OperatorSpec& s) -> std::unique_ptr<OperatorLogic> {
    if (s.impl == "keyed_running_sum") return std::make_unique<ss::ops::KeyedRunningSum>();
    if (s.impl == "keyed_counter") return std::make_unique<ss::ops::KeyedCounter>();
    return std::make_unique<PassThrough>();
  };
  w.graphs.push_back(std::move(g));
  w.optimize.enable_fusion = false;  // the keyed operators stay replicable
  w.assign_keys_at_emitter = false;  // tuples carry their own keys
  w.one_to_one = true;
  w.keyed = true;
  w.peak_items = 300000;
  w.peak_reps = 5;
  w.latency_seconds = 0.6;
  w.threads_seconds = 0.4;
  w.latency_reps = 3;
  w.limit_ms = 20.0;
  w.ladder_start = 4.0;
  w.ladder_ratio = 1.15;
  w.ladder_steps = 12;
  w.step_seconds = 0.2;
  w.warmup_seconds = 0.6;  // long enough to insert the whole key space
  w.sweep_reps = 3;
  w.control_calls = 100;
  w.control_gap = 0.02;
  // The key stream: Zipf over the declared key space, drawn from the seed.
  // Sized for the longest run; shorter runs use a prefix.
  ss::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  const ss::ZipfSampler zipf(kKeyedKeys, kKeyedAlpha);
  w.keys.resize(4000000);
  for (auto& k : w.keys) k = static_cast<std::int32_t>(zipf.sample(rng));
  return w;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "chain_hop") return make_chain_hop(seed);
  if (name == "testbed_paced") return make_testbed_paced(seed);
  if (name == "keyed_control") return make_keyed_control(seed);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (chain_hop, testbed_paced, keyed_control)");
}

// ------------------------------------------------------------ engine runs

std::atomic<int> g_dir_counter{0};

/// Seconds of set-up repetitions per slice (three slices per run).
constexpr double kSetupBudget = 0.3;

/// Upper bound of a run that drives the control plane (seconds of stream);
/// the stream ends as soon as the calls are done.
constexpr double kControlRunCap = 60.0;

/// The control cadence of a probe run; the stream ends when it is done.
struct Control {
  int calls = 0;      ///< reconfigure and checkpoint calls each
  double gap = 0.01;  ///< seconds between calls
};

struct ControlOutcome {
  std::vector<double> reconfig_ms;
  std::vector<double> checkpoint_ms;
  std::vector<double> reoptimize_ms;
  int refused = 0;
  int calls = 0;
  int checks_failed = 0;
  std::string error;  ///< exception thrown by a control call
  std::optional<ss::runtime::Checkpoint> last_checkpoint;
};

struct RunSpec {
  const Workload* w = nullptr;
  const Graph* g = nullptr;
  OpenLoopSchedule schedule;
  SchedulerKind kind = SchedulerKind::kPooled;
  int workers = 0;
  std::uint64_t seed = 1;
  std::optional<Control> control;
  double lag_cap = 0.0;  ///< > 0: stop the stream once the source is this far behind
  const char* span = "run";
};

struct RunOutcome {
  RunStats stats;
  std::shared_ptr<IngestLog> ingest;
  std::shared_ptr<DeliveryLog> deliveries;
  ControlOutcome control;
  double t0 = 0.0;
  double wall = 0.0;  ///< first due -> last delivery
  std::int64_t entered = 0;
  std::string error;
};

EngineConfig engine_config(const Workload& w, SchedulerKind kind, int workers,
                           std::uint64_t seed) {
  EngineConfig c;
  c.scheduler = kind;
  c.workers = workers;
  c.seed = seed;
  c.assign_keys_at_emitter = w.assign_keys_at_emitter;
  return c;
}

ss::runtime::AppFactory make_factory(const Graph& g, std::shared_ptr<IngestLog> ingest,
                                     std::shared_ptr<DeliveryLog> deliveries) {
  ss::runtime::AppFactory f;
  f.source = [ingest](OpIndex, const OperatorSpec&) {
    return std::make_unique<PacedSource>(ingest);
  };
  const Topology* topo = &g.topo;
  LogicMaker logic = g.logic;
  f.logic = [topo, logic, deliveries](OpIndex op,
                                      const OperatorSpec& s) -> std::unique_ptr<OperatorLogic> {
    auto inner = logic(op, s);
    if (topo->role(op) != ss::OpRole::kSink) return inner;
    return std::make_unique<RecordingLogic>(std::move(inner), deliveries, &deliver_hook);
  };
  return f;
}

/// True when the keyed counter's per-key counts in a checkpoint sum to the
/// items the source had delivered before the cut (and, with `expected`
/// >= 0, that this is exactly `expected` items).
bool keyed_checkpoint_consistent(const Topology& t, const ss::runtime::Checkpoint& cp,
                                 std::int64_t expected = -1) {
  const auto counter = t.find("counter");
  if (!counter) return false;
  std::uint64_t total = 0;
  for (const auto& a : cp.actors) {
    if (a.op != *counter || !a.has_state) continue;
    ss::runtime::wire::Reader in(a.state);
    std::uint64_t n = 0;
    if (!in.u64(n)) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::int64_t key = 0;
      std::uint64_t c = 0;
      if (!in.i64(key) || !in.u64(c)) return false;
      total += c;
    }
  }
  std::uint64_t offered = 0;
  for (const auto& s : cp.sources) offered += s.offset;
  return total == offered && (expected < 0 || offered == static_cast<std::uint64_t>(expected));
}

std::vector<ss::MeasuredOperator> measured_between(const ss::runtime::CounterSnapshot& a,
                                                   const ss::runtime::CounterSnapshot& b) {
  const double dt = std::max(1e-6, b.at_seconds - a.at_seconds);
  std::vector<ss::MeasuredOperator> m(b.processed.size());
  for (std::size_t i = 0; i < m.size(); ++i) {
    const auto dp = b.processed[i] - (i < a.processed.size() ? a.processed[i] : 0);
    const auto de = b.emitted[i] - (i < a.emitted.size() ? a.emitted[i] : 0);
    m[i].processed_rate = static_cast<double>(dp) / dt;
    m[i].emitted_rate = static_cast<double>(de) / dt;
    m[i].samples = dp;
    if (i < b.busy_ns.size() && i < a.busy_ns.size() && dp > 0) {
      m[i].service_time = static_cast<double>(b.busy_ns[i] - a.busy_ns[i]) * 1e-9 /
                          static_cast<double>(dp);
    }
  }
  return m;
}

/// The control plane driven from outside: alternating reconfigure() (to
/// the replica toggle and back, so keys migrate) and checkpoint_now(),
/// each timed as the caller sees it, plus one reoptimize() per step on
/// sample() data.
void drive_control_steps(Engine& engine, const RunSpec& spec, IngestLog& ingest,
                         const std::atomic<bool>& done, ControlOutcome& out) {
  const Control& c = *spec.control;
  while (ingest.t0.load(std::memory_order_acquire) < 0.0) {
    if (done.load()) return;  // the run ended before the stream started
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let the graph fill
  ss::runtime::CounterSnapshot prev = engine.sample();
  bool toggled = false;
  const double reserve = 0.2;  // never race the end of the stream
  for (int k = 0; k < 2 * c.calls && !done.load(); ++k) {
    const double t0 = ingest.t0.load();
    if (now_s() > t0 + ingest.schedule.end_offset() - reserve) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(c.gap));
    ++out.calls;
    if (k % 2 == 0) {
      const Deployment& next = toggled ? spec.g->dep : spec.g->alt;
      const double start = now_s();
      const bool ok = engine.reconfigure(next);
      const double end = now_s();
      SpanLog::instance().add("reconfigure", "fence", start, end, Lane::kControl);
      if (ok) {
        out.reconfig_ms.push_back((end - start) * 1e3);
        toggled = !toggled;
      } else {
        ++out.refused;
      }
    } else {
      const double start = now_s();
      const bool ok = engine.checkpoint_now();
      const double end = now_s();
      SpanLog::instance().add("checkpoint_now", "checkpoint", start, end, Lane::kControl);
      if (!ok) {
        ++out.refused;
        continue;
      }
      out.checkpoint_ms.push_back((end - start) * 1e3);
      ss::runtime::Checkpoint cp;
      const auto* mgr = engine.checkpoint_manager();
      if (mgr == nullptr || !mgr->load_latest(cp) ||
          (spec.w->keyed && !keyed_checkpoint_consistent(spec.g->topo, cp))) {
        ++out.checks_failed;
      }
      out.last_checkpoint = std::move(cp);
    }
    const ss::runtime::CounterSnapshot now = engine.sample();
    const auto measured = measured_between(prev, now);
    prev = now;
    const double start = now_s();
    ss::ReoptimizeOptions ro;
    ro.optimize = spec.w->optimize;
    (void)ss::reoptimize(spec.g->topo, engine.deployment(), measured, ro);
    const double end = now_s();
    SpanLog::instance().add("reoptimize", "core", start, end, Lane::kControl);
    out.reoptimize_ms.push_back((end - start) * 1e3);
  }
}

void drive_control(Engine& engine, const RunSpec& spec, IngestLog& ingest,
                   const std::atomic<bool>& done, ControlOutcome& out) {
  try {
    drive_control_steps(engine, spec, ingest, done, out);
  } catch (const std::exception& e) {
    ++out.checks_failed;
    out.error = e.what();
  }
  ingest.stop.store(true);
}

/// Stops the stream once the source falls `cap` seconds behind schedule
/// past the warm-up step (sustainable-rate sweep: the steps beyond are
/// overloaded anyway).
void watch_lag(const IngestLog& ingest, double cap, const std::atomic<bool>& done,
               std::atomic<bool>& stop) {
  const std::int64_t scored = ingest.schedule.steps().size() > 1 ? ingest.schedule.first_item(1) : 0;
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const double t0 = ingest.t0.load(std::memory_order_acquire);
    if (t0 < 0.0) continue;
    const std::int64_t e = ingest.entered.load(std::memory_order_acquire);
    if (e >= ingest.schedule.total()) return;
    if (e < scored) continue;
    const double off = ingest.schedule.offset(e);
    if (off >= 0.0 && now_s() - (t0 + off) > cap) {
      stop.store(true);
      return;
    }
  }
}

RunOutcome run_engine(const RunSpec& spec) {
  RunOutcome r;
  r.ingest = std::make_shared<IngestLog>(spec.schedule);
  if (spec.w->keyed) r.ingest->keys = &spec.w->keys;
  r.deliveries = std::make_shared<DeliveryLog>(static_cast<std::size_t>(
      std::min<std::int64_t>(spec.schedule.total(), 4000000)));
  EngineConfig config = engine_config(*spec.w, spec.kind, spec.workers, spec.seed);
  std::string ckpt_dir;
  if (spec.control) {
    ckpt_dir = (std::filesystem::path(".bench_build") / "work" /
                ("ckpt-" + std::to_string(::getpid()) + "-" + std::to_string(g_dir_counter++)))
                   .string();
    config.checkpoint_dir = ckpt_dir;
    config.checkpoint_period = 1e9;  // only the benchmark's own calls
  }
  const double start = now_s();
  try {
    Engine engine(spec.g->topo, spec.g->dep, make_factory(*spec.g, r.ingest, r.deliveries),
                  config);
    std::thread control;
    std::atomic<bool> done{false};
    if (spec.control) {
      control = std::thread([&] { drive_control(engine, spec, *r.ingest, done, r.control); });
    } else if (spec.lag_cap > 0.0) {
      control = std::thread([&] { watch_lag(*r.ingest, spec.lag_cap, done, r.ingest->stop); });
    }
    try {
      r.stats = engine.run_until_complete(std::chrono::duration<double>(kControlRunCap + 10.0));
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    done.store(true);
    r.ingest->stop.store(true);
    if (control.joinable()) control.join();
    if (spec.w->keyed && spec.control && r.error.empty()) {
      // final.bin: the end-of-run cut must hold every item exactly once.
      ss::runtime::Checkpoint final_cp;
      if (!ss::runtime::CheckpointManager::read_file(ckpt_dir + "/final.bin", final_cp) ||
          !keyed_checkpoint_consistent(spec.g->topo, final_cp, r.ingest->entered.load())) {
        ++r.control.checks_failed;
      }
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  if (!ckpt_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir, ec);
  }
  r.t0 = r.ingest->t0.load();
  r.entered = r.ingest->entered.load();
  r.wall = r.deliveries->last_delivery() - r.t0;
  SpanLog::instance().add(spec.span, "runtime", start, now_s());
  return r;
}

// ------------------------------------------------------------- bookkeeping

struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;

  void check(bool ok, const std::string& what, std::int64_t weight = 1) {
    if (ok) return;
    failed += weight;
    problems.push_back(what);
  }
};

/// Delivery accounting of one run: exactly-once for one-to-one workloads,
/// sink records == engine-counted sink emissions otherwise.  Returns the
/// latency samples keyed by due time; missing items become +inf samples
/// (they miss every limit).
std::vector<LatencySample> account(const Workload& w, const Graph& g, const RunOutcome& r,
                                   Ledger& ledger, const std::string& label) {
  ledger.attempted += r.entered;
  ledger.check(r.error.empty(), label + ": engine error: " + r.error);
  ledger.check(r.stats.dropped == 0, label + ": dropped " + std::to_string(r.stats.dropped),
               static_cast<std::int64_t>(r.stats.dropped));
  const auto records = r.deliveries->merged();
  const OpenLoopSchedule& sched = r.ingest->schedule;
  std::vector<LatencySample> samples;
  samples.reserve(records.size());
  for (const auto& rec : records) {
    samples.push_back({sched.offset(rec.id), static_cast<double>(rec.latency_s) * 1e3});
  }
  if (w.one_to_one) {
    const auto counts = r.deliveries->counts(r.entered);
    std::int64_t missing = 0;
    std::int64_t duplicated = 0;
    for (std::size_t id = 0; id < counts.size(); ++id) {
      if (counts[id] > 1) ++duplicated;
      if (counts[id] != 0) continue;
      ++missing;
      samples.push_back({sched.offset(static_cast<std::int64_t>(id)),
                         std::numeric_limits<double>::infinity()});
    }
    ledger.check(missing == 0, label + ": " + std::to_string(missing) + " items lost", missing);
    ledger.check(duplicated == 0, label + ": " + std::to_string(duplicated) + " items duplicated",
                 duplicated);
  } else {
    std::uint64_t sink_emitted = 0;
    for (OpIndex s : g.topo.sinks()) {
      if (s < r.stats.ops.size()) sink_emitted += r.stats.ops[s].emitted;
    }
    const auto recorded = static_cast<std::uint64_t>(records.size());
    const auto diff = static_cast<std::int64_t>(
        recorded > sink_emitted ? recorded - sink_emitted : sink_emitted - recorded);
    ledger.check(diff == 0,
                 label + ": sink records " + std::to_string(recorded) +
                     " != engine sink emissions " + std::to_string(sink_emitted),
                 diff);
  }
  std::sort(samples.begin(), samples.end(),
            [](const LatencySample& a, const LatencySample& b) { return a.due < b.due; });
  return samples;
}

void account_control(const ControlOutcome& c, Ledger& ledger, const std::string& label) {
  ledger.attempted += c.calls;
  ledger.check(c.refused == 0, label + ": " + std::to_string(c.refused) + " control calls refused",
               c.refused);
  ledger.check(c.checks_failed == 0,
               label + ": " + std::to_string(c.checks_failed) + " control checks failed " + c.error,
               c.checks_failed);
}

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count etc., printed only
};

using Metrics = std::map<std::string, Metric>;

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string windows_note(const WindowedSummary& s) {
  std::string note = "median of " + std::to_string(s.windows) + " windows, n=" +
                     std::to_string(s.pooled.n) + ", pooled p50=" + fmt(s.pooled.p50) +
                     " p99=" + fmt(s.pooled.p99);
  if (!s.pooled.p99_ok) note += " (fewer than 10 samples beyond p99)";
  return note;
}

std::string samples_note(const Summary& s, bool p90) {
  std::string note = "n=" + std::to_string(s.n);
  const bool ok = p90 ? s.p90_ok : s.p99_ok;
  if (!ok) note += " (fewer than 10 samples beyond the percentile)";
  return note;
}

// ------------------------------------------------------------------- phases

/// Set-up samples, gathered in slices spread over the run so that a slow
/// spell of the host does not set the whole figure.
struct Setup {
  std::vector<double> total_s, import_ms, optimize_ms, estimate_ms;

  [[nodiscard]] int reps() const { return static_cast<int>(total_s.size()); }
  [[nodiscard]] std::string note() const { return "median of " + std::to_string(reps()); }
};

/// Workload start -> first item due: XML import, auto_optimize and engine
/// construction of every graph, repeated for about `budget` seconds (at
/// least `min_reps` times, at most 25).  The very first repetition's
/// results are the graphs the runs use.
void measure_setup(Workload& w, std::uint64_t seed, double budget, int min_reps, Setup& out) {
  const double begin = now_s();
  for (int rep = 0; rep < 25 && (rep < min_reps || now_s() - begin < budget); ++rep) {
    const bool keep = out.total_s.empty();
    ScopedSpan span("setup", "setup");
    double import_s = 0.0;
    double optimize_s = 0.0;
    const double start = now_s();
    for (Graph& g : w.graphs) {
      const double a = now_s();
      Topology topo = ss::xml::load_topology(g.xml);
      const double b = now_s();
      ss::AutoOptimizeResult opt = ss::auto_optimize(topo, w.optimize);
      const double c = now_s();
      SpanLog::instance().add("xml.load_topology", "xmlio", a, b);
      SpanLog::instance().add("auto_optimize", "core", b, c);
      import_s += b - a;
      optimize_s += c - b;
      if (keep) {
        g.topo = std::move(topo);
        g.opt = std::move(opt);
        g.dep = ss::deployment_of(g.opt);
      }
      auto ingest = std::make_shared<IngestLog>(OpenLoopSchedule::closed(1));
      auto deliveries = std::make_shared<DeliveryLog>();
      const double d = now_s();
      Engine engine(g.topo, g.dep, make_factory(g, ingest, deliveries),
                    engine_config(w, SchedulerKind::kPooled, 0, seed));
      SpanLog::instance().add("engine.construct", "runtime", d, now_s());
    }
    out.total_s.push_back(now_s() - start);
    out.import_ms.push_back(import_s * 1e3);
    out.optimize_ms.push_back(optimize_s * 1e3);
    for (const Graph& g : w.graphs) {
      const double a = now_s();
      const auto rates = ss::steady_state(g.topo, g.opt.plan);
      (void)ss::estimate_latency(g.topo, rates, g.opt.plan, 64);
      const double b = now_s();
      SpanLog::instance().add("estimate_latency", "core", a, b);
      out.estimate_ms.push_back((b - a) * 1e3);
    }
  }
}

/// The replica toggle of the control plane, chosen from the graph alone.
void choose_toggles(Workload& w) {
  for (Graph& g : w.graphs) {
    const Topology& t = g.topo;
    std::vector<bool> fused(t.num_operators(), false);
    for (const auto& f : g.dep.fusions) {
      for (OpIndex m : f.members) fused[m] = true;
    }
    OpIndex pick = ss::kInvalidOp;
    if (w.keyed) {
      g.alt = g.dep;
      g.alt.replication.replicas.resize(t.num_operators(), 1);
      for (OpIndex op = 0; op < t.num_operators(); ++op) {
        if (t.op(op).state == ss::StateKind::kPartitionedStateful) {
          g.alt.replication.replicas[op] += 1;
        }
      }
      g.alt.partitions.clear();
      continue;
    }
    // The most replicated operator that may take one more replica.
    int best = 0;
    for (OpIndex op = 0; op < t.num_operators(); ++op) {
      if (op == t.source() || fused[op] || t.op(op).state == ss::StateKind::kStateful) continue;
      const int r = op < g.dep.replication.replicas.size() ? g.dep.replication.replicas[op] : 1;
      if (r > best) {
        best = r;
        pick = op;
      }
    }
    g.alt = with_extra_replica(t, g.dep, pick);
  }
}

std::int64_t peak_items_for(const Workload& w, const Graph& g, double scale) {
  if (w.peak_items > 0) return static_cast<std::int64_t>(static_cast<double>(w.peak_items) * scale);
  const double declared = 1.0 / g.topo.op(g.topo.source()).service_time;
  return static_cast<std::int64_t>(0.75 * declared * scale);  // 0.75 s of the declared rate
}

struct PeakResult {
  double tps = 0.0;      ///< sum over graphs of items / (first due -> last delivery)
  double hop_ns = 0.0;   ///< wall ns per operator-processed message
};

PeakResult peak_once(const Workload& w, SchedulerKind kind, int workers, std::uint64_t seed,
                     double scale, Ledger& ledger, const char* span) {
  PeakResult p;
  double wall = 0.0;
  double msgs = 0.0;
  for (const Graph& g : w.graphs) {
    RunSpec spec;
    spec.w = &w;
    spec.g = &g;
    spec.schedule = OpenLoopSchedule::closed(peak_items_for(w, g, scale));
    spec.kind = kind;
    spec.workers = workers;
    spec.seed = seed;
    spec.span = span;
    RunOutcome r = run_engine(spec);
    account(w, g, r, ledger, span);
    if (r.wall > 0.0) p.tps += static_cast<double>(r.entered) / r.wall;
    wall += r.wall;
    for (std::size_t op = 0; op < r.stats.ops.size(); ++op) {
      if (op != g.topo.source()) msgs += static_cast<double>(r.stats.ops[op].processed);
    }
  }
  p.hop_ns = msgs > 0.0 ? wall * 1e9 / msgs : 0.0;
  return p;
}

/// Latency windows hold >= 1000 samples, so every window's p99 has ten
/// samples beyond it.  Short windows keep a host stall (a descheduled
/// vCPU) inside a few of them; runs that drive the control plane use
/// windows of >= 0.25 s instead, so that every window spans several
/// control calls and the pauses show in all of them.
constexpr std::size_t kWindowSamples = 1000;
constexpr double kControlWindowSeconds = 0.25;

/// Everything the open-loop runs at the reference rate measure, folded
/// over graphs and repetitions.
struct LatencyAcc {
  std::vector<LatencySample> samples;
  std::vector<double> lag_ms;
  double due_base = 0.0;  ///< runs follow each other: keep due times increasing
  double entered = 0.0;
  double due = 0.0;
  std::vector<double> self_p99_ms;  ///< the engine's own RunStats p99, per run
  SchedulerCounters sched;
  double busy_max = 0.0;
  double blocked_sum = 0.0;
  double blocked_n = 0.0;
  std::size_t queue_peak = 0;
  std::uint64_t dropped = 0;
  ControlOutcome control;
  std::uint64_t keys_migrated = 0;
  int reconfigurations = 0;
  std::vector<double> predicted_p99_ms;

  void add(const Graph& g, const RunSpec& spec, RunOutcome& r,
           const std::vector<LatencySample>& l) {
    for (const auto& x : l) samples.push_back({due_base + x.due, x.latency_ms});
    due_base += spec.schedule.end_offset() + 1.0;
    for (std::int64_t i = 0; i < r.entered; ++i) lag_ms.push_back(r.ingest->late[i] * 1e3);
    entered += static_cast<double>(r.entered);
    // Items due by the time the last one entered: the source kept up when
    // it let in all of them.
    const double horizon = r.ingest->last_entry - r.t0;
    std::int64_t n_due = 0;
    while (n_due < spec.schedule.total() && spec.schedule.offset(n_due) <= horizon) ++n_due;
    due += static_cast<double>(std::max<std::int64_t>(n_due, 1));
    self_p99_ms.push_back(r.stats.end_to_end.p99 * 1e3);
    sched += r.stats.scheduler;
    dropped += r.stats.dropped;
    for (std::size_t op = 0; op < r.stats.ops.size(); ++op) {
      if (op == g.topo.source()) continue;
      const auto& o = r.stats.ops[op];
      busy_max = std::max(busy_max, o.busy_fraction);
      blocked_sum += std::max(0.0, o.blocked_fraction);
      blocked_n += 1.0;
      queue_peak = std::max(queue_peak, o.queue_peak);
    }
    keys_migrated += r.stats.keys_migrated;
    reconfigurations += r.stats.reconfigurations;
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(control.reconfig_ms, r.control.reconfig_ms);
    append(control.checkpoint_ms, r.control.checkpoint_ms);
    append(control.reoptimize_ms, r.control.reoptimize_ms);
    control.refused += r.control.refused;
    control.calls += r.control.calls;
    if (r.control.last_checkpoint) control.last_checkpoint = std::move(r.control.last_checkpoint);
    predicted_p99_ms.push_back(predicted_p99_at(g, g.ref_rate));
  }

  [[nodiscard]] WindowedSummary latency() const {
    return windowed_summary(samples, control.calls > 0 ? kControlWindowSeconds : 0.0,
                            kWindowSamples);
  }
  [[nodiscard]] double achieved() const { return due > 0.0 ? entered / due : 0.0; }

  /// Latency model: predicted end-to-end p99 at the offered rate for the
  /// deployed plan (the graph re-annotated with the offered source rate).
  static double predicted_p99_at(const Graph& g, double rate) {
    std::vector<OperatorSpec> ops = g.topo.operators();
    ss::Topology::Builder b;
    for (OpIndex op = 0; op < ops.size(); ++op) {
      if (op == g.topo.source()) ops[op].service_time = 1.0 / rate;
      b.add_operator(ops[op]);
    }
    for (const auto& e : g.topo.edges()) b.add_edge(e.from, e.to, e.probability);
    const Topology at_rate = b.build();
    const auto rates = ss::steady_state(at_rate, g.opt.plan);
    return ss::estimate_latency(at_rate, rates, g.opt.plan, 64).sojourn.p99 * 1e3;
  }
};

/// One open-loop run per graph at its reference rate, `seconds` long (an
/// upper bound with `control`: the stream ends once the calls are done).
void latency_run(const Workload& w, SchedulerKind kind, std::uint64_t seed, double seconds,
                 std::optional<Control> control, Ledger& ledger, const char* span,
                 LatencyAcc& acc) {
  for (const Graph& g : w.graphs) {
    RunSpec spec;
    spec.w = &w;
    spec.g = &g;
    spec.schedule = OpenLoopSchedule::constant(g.ref_rate, control ? kControlRunCap : seconds);
    spec.kind = kind;
    spec.seed = seed;
    spec.control = control;
    spec.span = span;
    RunOutcome r = run_engine(spec);
    const auto l = account(w, g, r, ledger, span);
    if (control) account_control(r.control, ledger, span);
    acc.add(g, spec, r, l);
  }
}

/// Highest fixed offered rate that keeps p99 within the limit without the
/// generator falling behind by more than the limit, for one graph: a
/// ladder of rates fixed in the workload definition walked by one engine
/// run (see sustainable_rate for the rule).
double sweep_once(const Workload& w, const Graph& g, std::uint64_t seed, double scale,
                  Ledger& ledger) {
  const double limit_s = w.limit_ms * 1e-3;
  // Step 0 warms the graph up at the first rate and is not scored.
  std::vector<OpenLoopSchedule::Step> steps;
  std::vector<double> rates;
  for (int k = -1; k < w.ladder_steps; ++k) {
    const double rate = g.ref_rate * w.ladder_start * std::pow(w.ladder_ratio, std::max(k, 0));
    const double seconds = k < 0 ? w.warmup_seconds : w.step_seconds;
    rates.push_back(rate);
    steps.push_back({rate, static_cast<std::int64_t>(rate * seconds * scale)});
  }
  RunSpec spec;
  spec.w = &w;
  spec.g = &g;
  spec.schedule = OpenLoopSchedule(steps);
  spec.seed = seed;
  spec.lag_cap = std::max(5.0 * limit_s, 0.05);
  spec.span = "sustainable_sweep";
  RunOutcome r = run_engine(spec);
  account(w, g, r, ledger, "sustainable_sweep");
  // Per-step score: max(p99, end-of-step generator lag) / limit.
  std::vector<std::vector<double>> per_step(steps.size());
  for (const auto& rec : r.deliveries->merged()) {
    if (static_cast<std::int64_t>(rec.id) >= r.entered) continue;
    per_step[spec.schedule.step_of(rec.id)].push_back(rec.latency_s);
  }
  rates.erase(rates.begin());
  std::vector<double> score;
  for (std::size_t s = 1; s < steps.size(); ++s) {
    const std::int64_t last = spec.schedule.first_item(s) + steps[s].items - 1;
    if (last >= r.entered || per_step[s].empty()) {
      score.push_back(std::numeric_limits<double>::infinity());
      break;
    }
    const double p99 = summarize(per_step[s]).p99;
    const double lag = r.ingest->late[static_cast<std::size_t>(last)];
    score.push_back(std::max(p99, lag) / limit_s);
    const std::size_t n = score.size();
    if (n >= 2 && score[n - 1] > 1.0 && score[n - 2] > 1.0) break;
  }
  return sustainable_rate(rates, score);
}

/// Sum over graphs of each graph's best of `sweep_reps` sweeps (see
/// Throughput below).
double sustainable_run(const Workload& w, std::uint64_t seed, double scale, Ledger& ledger) {
  double total = 0.0;
  for (const Graph& g : w.graphs) {
    double best = 0.0;
    for (int rep = 0; rep < w.sweep_reps; ++rep) {
      best = std::max(best, sweep_once(w, g, seed, scale, ledger));
    }
    total += best;
  }
  return total;
}

// ------------------------------------------------------- standalone layers

/// Median over `reps` of the per-operation cost (ns) of `body`, which
/// performs `ops` operations per call.
double per_op_ns(int reps, double ops, const std::function<void()>& body, const char* name,
                 const char* cat) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const double a = now_s();
    body();
    const double b = now_s();
    SpanLog::instance().add(name, cat, a, b);
    v.push_back((b - a) * 1e9 / ops);
  }
  return median(v);
}

void standalone_layers(Metrics& m, const std::optional<ss::runtime::Checkpoint>& cp,
                       std::uint64_t seed) {
  using ss::runtime::Mailbox;
  using ss::runtime::Message;
  using ss::runtime::MessageBatch;
  using ss::runtime::OverflowPolicy;
  constexpr int kIters = 20000;
  const Message msg = Message::data(Tuple{}, 0, 1);
  {
    Mailbox box(64, OverflowPolicy::kBlockAfterService);
    Message batch[MessageBatch::kCapacity];
    for (auto& b : batch) b = msg;
    std::vector<Message> out;
    out.reserve(64);
    // try_send_batch: time only the enqueue; drain outside the clock.
    std::vector<double> v;
    for (int rep = 0; rep < 5; ++rep) {
      double ns = 0.0;
      double n = 0.0;
      for (int i = 0; i < kIters; ++i) {
        const auto a = Clock::now();
        const std::size_t k = box.try_send_batch(batch, MessageBatch::kCapacity);
        ns += static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                      Clock::now() - a)
                                      .count());
        n += static_cast<double>(k);
        out.clear();
        box.drain(out, 64);
      }
      v.push_back(ns / std::max(n, 1.0));
    }
    m["mailbox.try_send_batch_ns"] = {median(v), "ns", "per message, 16-message batches"};
    v.clear();
    for (int rep = 0; rep < 5; ++rep) {
      double ns = 0.0;
      double n = 0.0;
      for (int i = 0; i < kIters / 4; ++i) {
        for (int j = 0; j < 4; ++j) (void)box.try_send_batch(batch, MessageBatch::kCapacity);
        out.clear();
        const auto a = Clock::now();
        const std::size_t k = box.drain(out, 64);
        ns += static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                      Clock::now() - a)
                                      .count());
        n += static_cast<double>(k);
      }
      v.push_back(ns / std::max(n, 1.0));
    }
    m["mailbox.drain_ns"] = {median(v), "ns", "per message, 64-message drains"};
  }
  {
    Mailbox request(64, OverflowPolicy::kBlockAfterService);
    Mailbox response(64, OverflowPolicy::kBlockAfterService);
    std::thread echo([&] {
      Message in;
      while (request.receive(in)) {
        if (in.kind == Message::Kind::kShutdown) break;
        response.send_unbounded(in);
      }
    });
    Message back;
    m["mailbox.pingpong_ns"] = {
        per_op_ns(5, 5000,
                  [&] {
                    for (int i = 0; i < 5000; ++i) {
                      (void)request.send(msg, std::chrono::seconds(1));
                      (void)response.receive(back);
                    }
                  },
                  "mailbox.pingpong", "mailbox"),
        "ns", "per round trip between two threads"};
    request.send_unbounded(Message::shutdown());
    echo.join();
  }
  {
    ss::Topology::Builder b;
    b.add_operator("src", 1e-3);
    const auto probs = ss::zipf_probabilities(4, 1.5);
    for (int i = 0; i < 4; ++i) {
      b.add_operator("d" + std::to_string(i), 1e-3);
      b.add_edge(0, static_cast<OpIndex>(i + 1), probs[static_cast<std::size_t>(i)]);
    }
    const Topology t = b.normalize_probabilities().build();
    const ss::runtime::EdgeRouter router(t, 0);
    ss::Rng rng(seed);
    OpIndex sink = 0;
    m["routing.choose_ns"] = {per_op_ns(5, 1e6,
                                        [&] {
                                          for (int i = 0; i < 1000000; ++i) sink += router.choose(rng);
                                        },
                                        "routing.choose", "routing"),
                              "ns", "4-way Zipf fan-out"};
    benchmark::DoNotOptimize(sink);
  }
  ss::Rng key_rng(seed + 1);
  const ss::ZipfSampler zipf(kKeyedKeys, kKeyedAlpha);
  std::vector<std::int64_t> keys(1 << 20);
  for (auto& k : keys) k = static_cast<std::int64_t>(zipf.sample(key_rng));
  {
    auto selector = ss::runtime::ReplicaSelector::by_key(
        ss::partition_keys(ss::KeyDistribution::zipf(kKeyedKeys, kKeyedAlpha), 4));
    ss::Rng rng(seed);
    int acc = 0;
    m["routing.select_by_key_ns"] = {
        per_op_ns(5, static_cast<double>(keys.size()),
                  [&] {
                    for (std::int64_t k : keys) acc += selector.select(k, rng);
                  },
                  "routing.select_by_key", "routing"),
        "ns", "4 replicas, 100k Zipf keys"};
    benchmark::DoNotOptimize(acc);
  }
  {
    struct Count final : ss::runtime::Collector {
      double sum = 0.0;
      void emit(const Tuple& t) override { sum += t.f[1]; }
      void emit_to(OpIndex, const Tuple& t) override { sum += t.f[1]; }
    } out;
    ss::ops::KeyedRunningSum op;
    Tuple t;
    t.f[0] = 1.0;
    m["ops.keyed_running_sum_ns"] = {per_op_ns(5, static_cast<double>(keys.size()),
                                               [&] {
                                                 for (std::int64_t k : keys) {
                                                   t.key = k;
                                                   op.process(t, 0, out);
                                                 }
                                               },
                                               "ops.keyed_running_sum", "ops"),
                                     "ns", "process() per item, 100k Zipf keys"};
    benchmark::DoNotOptimize(out.sum);
  }
  if (cp) {
    const std::string bytes = ss::runtime::checkpoint_file_bytes(*cp);
    const double kb = static_cast<double>(bytes.size()) / 1024.0;
    m["checkpoint.bytes"] = {static_cast<double>(bytes.size()), "bytes", "last captured snapshot"};
    std::size_t sink = 0;
    const int reps = std::clamp(static_cast<int>(20000.0 / std::max(kb, 1.0)), 3, 2000);
    m["checkpoint.encode_ns_per_kb"] = {
        per_op_ns(5, reps * kb,
                  [&] {
                    for (int i = 0; i < reps; ++i) sink += ss::runtime::encode_checkpoint(*cp).size();
                  },
                  "encode_checkpoint", "checkpoint"),
        "ns/KB", ""};
    m["checkpoint.decode_ns_per_kb"] = {
        per_op_ns(5, reps * kb,
                  [&] {
                    for (int i = 0; i < reps; ++i) {
                      ss::runtime::Checkpoint out;
                      sink += ss::runtime::parse_checkpoint_file(bytes, out) ? 1 : 0;
                    }
                  },
                  "parse_checkpoint_file", "checkpoint"),
        "ns/KB", ""};
    benchmark::DoNotOptimize(sink);
  }
}

// ------------------------------------------------------------- fingerprint

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

bool gbench_debug() {
  benchmark::BenchmarkReporter::Context context;
  std::ostringstream out;
  benchmark::BenchmarkReporter::PrintBasicContext(&out, context);
  return out.str().find("DEBUG") != std::string::npos;
}

std::string fingerprint(bool& optimized) {
#ifdef __OPTIMIZE__
  optimized = true;
#else
  optimized = false;
#endif
  std::ostringstream s;
  s << "nproc=" << std::thread::hardware_concurrency() << " compiler=\"" << __VERSION__
    << "\" build_type=" << PERFBENCH_BUILD_TYPE << " optimized=" << (optimized ? "yes" : "no")
#ifdef NDEBUG
    << " asserts=off"
#else
    << " asserts=on"
#endif
    << " gbench_library_debug=" << (gbench_debug() ? "yes" : "no");
  return s.str();
}

/// Jiffies of (all, stolen) CPU time from /proc/stat; zeros where absent.
std::pair<double, double> cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double all = 0.0;
  double steal = 0.0;
  if (stat >> cpu && cpu == "cpu") {
    for (int field = 0; field < 8; ++field) {
      double v = 0.0;
      if (!(stat >> v)) break;
      all += v;
      if (field == 7) steal = v;
    }
  }
  return {all, steal};
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

// -------------------------------------------------------------------- main

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--trace-out") o.trace_out = value();
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  if (o.trace_out.empty()) {
    o.trace_out = ".bench_build/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
  }
  return o;
}

/// The open-loop runs at the reference rate: `reps` rounds, each a pool
/// run then a thread-per-actor run, so slow spells of the host land on
/// both backends.  No control call runs here.
void reference_runs(const Workload& w, std::uint64_t seed, double scale, int reps,
                    bool with_threads, Ledger& ledger, LatencyAcc& pool, LatencyAcc& threads) {
  for (int rep = 0; rep < reps; ++rep) {
    latency_run(w, SchedulerKind::kPooled, seed, w.latency_seconds * scale, std::nullopt, ledger,
                "latency.pool", pool);
    if (with_threads) {
      latency_run(w, SchedulerKind::kThreadPerActor, seed, w.threads_seconds * scale,
                  std::nullopt, ledger, "latency.threads", threads);
    }
  }
}

/// The control-plane probe: a pool run at the reference rate that
/// alternates reconfigure() and checkpoint_now() on a fixed cadence.
void control_probe(const Workload& w, std::uint64_t seed, Ledger& ledger, LatencyAcc& probe) {
  latency_run(w, SchedulerKind::kPooled, seed, 0.0, Control{w.control_calls, w.control_gap},
              ledger, "control.probe", probe);
}

/// What the stream saw during the probe, due-based and the engine's own:
/// the engine stamps tuples when next() returns, so its p99 misses the
/// time items wait behind a fence.
std::string probe_note(const LatencyAcc& probe) {
  const WindowedSummary l = probe.latency();
  return "stream during the probe: p99 " + fmt(l.pooled.p99) + " ms, engine.self_p99_ms " +
         fmt(median(probe.self_p99_ms));
}

/// Phase order: set-up slices between the phases, peak runs around the
/// reference runs, the control probe, then the sweep, which overloads the
/// graph, last.
/// Peak throughput, pool and thread-per-actor repetitions alternating, in
/// rounds spread over the run.  Throughput is reported as the best
/// repetition: interference from the rest of the host only ever slows a
/// repetition down, so the best one is the closest to the program's own
/// capacity, and a slow spell of the host costs one repetition, not the
/// figure.
struct Throughput {
  std::vector<double> pool, threads;

  void round(const Workload& w, const Options& o, double scale, int reps, Ledger& ledger) {
    for (int rep = 0; rep < reps; ++rep) {
      pool.push_back(peak_once(w, SchedulerKind::kPooled, 0, o.seed, scale, ledger, "peak.pool").tps);
      threads.push_back(
          peak_once(w, SchedulerKind::kThreadPerActor, 0, o.seed, scale, ledger, "peak.threads")
              .tps);
    }
  }
  static Metric best(const std::vector<double>& v) {
    return {*std::max_element(v.begin(), v.end()), "tuples/s",
            "best of " + std::to_string(v.size()) + ", median " + fmt(median(v))};
  }
};

void end_to_end_metrics(Workload& w, const Options& o, double scale, Setup& setup,
                        Ledger& ledger, Metrics& m) {
  Throughput peak;
  const int first_round = (w.peak_reps + 1) / 2;
  peak.round(w, o, scale, first_round, ledger);
  measure_setup(w, o.seed, kSetupBudget * scale, 3, setup);
  LatencyAcc pool, threads, probe;
  reference_runs(w, o.seed, scale, w.latency_reps, true, ledger, pool, threads);
  peak.round(w, o, scale, w.peak_reps - first_round, ledger);
  m["peak_tps"] = Throughput::best(peak.pool);
  m["peak_tps.threads"] = Throughput::best(peak.threads);
  const WindowedSummary lp = pool.latency();
  const WindowedSummary lt = threads.latency();
  m["latency_p50_ms"] = {lp.p50, "ms", windows_note(lp)};
  m["latency_p99_ms"] = {lp.p99, "ms",
                         "engine.self_p99_ms=" + fmt(median(pool.self_p99_ms)) + "; " +
                             windows_note(lp)};
  m["latency_p99_ms.threads"] = {lt.p99, "ms", windows_note(lt)};
  // Peak RSS before the probe and the sweep: how long those run (and so
  // how much the benchmark itself records) depends on pause lengths and
  // on how far the sweep gets.
  m["peak_rss_mb"] = {peak_rss_mb(), "MB", "process peak before the control probe"};
  control_probe(w, o.seed, ledger, probe);
  const ControlOutcome& control = probe.control;
  const Summary rc = summarize(control.reconfig_ms);
  const Summary ck = summarize(control.checkpoint_ms);
  m["reconfig_pause_p50_ms"] = {rc.p50, "ms", samples_note(rc, true) + "; " + probe_note(probe)};
  m["reconfig_pause_p90_ms"] = {rc.p90, "ms", samples_note(rc, true)};
  m["checkpoint_pause_p50_ms"] = {ck.p50, "ms", samples_note(ck, true)};
  m["checkpoint_pause_p90_ms"] = {ck.p90, "ms", samples_note(ck, true)};
  measure_setup(w, o.seed, kSetupBudget * scale, 3, setup);
  m["setup_s"] = {median(setup.total_s), "s", setup.note()};
  m["sustainable_tps"] = {sustainable_run(w, o.seed, scale, ledger), "tuples/s",
                          "limit p99 " + fmt(w.limit_ms) + " ms, best of " +
                              std::to_string(w.sweep_reps) + " sweeps"};
}

/// Alg. 1 capacity of the deployed plans with the source unthrottled, as
/// in the peak runs.
double alg1_capacity(const Workload& w) {
  double total = 0.0;
  for (const Graph& g : w.graphs) {
    std::vector<OperatorSpec> ops = g.topo.operators();
    ss::Topology::Builder b;
    for (OpIndex op = 0; op < ops.size(); ++op) {
      if (op == g.topo.source()) ops[op].service_time = 1e-9;
      b.add_operator(ops[op]);
    }
    for (const auto& e : g.topo.edges()) b.add_edge(e.from, e.to, e.probability);
    total += ss::steady_state(b.build(), g.opt.plan).throughput();
  }
  return total;
}

void per_layer_metrics(Workload& w, const Options& o, double scale, const Setup& setup,
                       Ledger& ledger, Metrics& m) {
  m["xmlio.import_ms"] = {median(setup.import_ms), "ms", setup.note()};
  m["core.auto_optimize_ms"] = {median(setup.optimize_ms), "ms", setup.note()};
  m["core.estimate_latency_ms"] = {median(setup.estimate_ms), "ms", setup.note()};
  // Tracing overhead: the same peak run with the span log off and on,
  // alternating; the traced runs also give the per-hop cost.
  std::vector<double> untraced, traced, hop;
  const int sample_every = g_sample_every;
  for (int rep = 0; rep < w.peak_reps; ++rep) {
    SpanLog::instance().disable();
    g_sample_every = 0;
    untraced.push_back(
        peak_once(w, SchedulerKind::kPooled, 0, o.seed, scale, ledger, "peak.pool.untraced").tps);
    SpanLog::instance().enable();
    g_sample_every = sample_every;
    const PeakResult p = peak_once(w, SchedulerKind::kPooled, 0, o.seed, scale, ledger, "peak.pool");
    traced.push_back(p.tps);
    hop.push_back(p.hop_ns);
  }
  const double peak = median(traced);
  m["trace.overhead_pct"] = {(median(untraced) / std::max(peak, 1e-9) - 1.0) * 100.0, "%",
                             "untraced vs traced peak_tps"};
  m["engine.hop_ns"] = {median(hop), "ns", "pool, one worker per cpu"};
  m["engine.hop_ns.w1"] = {
      peak_once(w, SchedulerKind::kPooled, 1, o.seed, scale, ledger, "peak.pool.w1").hop_ns, "ns",
      "pool, 1 worker"};
  m["engine.hop_ns.threads"] = {
      peak_once(w, SchedulerKind::kThreadPerActor, 0, o.seed, scale, ledger, "peak.threads").hop_ns,
      "ns", "thread-per-actor"};

  LatencyAcc pool, threads, probe;
  reference_runs(w, o.seed, scale, 1, false, ledger, pool, threads);
  control_probe(w, o.seed, ledger, probe);
  const ControlOutcome& control = probe.control;
  const LatencyAcc& fenced = probe;
  const WindowedSummary lp = pool.latency();
  const auto& s = pool.sched;
  const double msgs = static_cast<double>(s.batch_messages);
  const double pops = static_cast<double>(s.local_pops + s.steals);
  const Summary lag = summarize(pool.lag_ms);
  const double predicted = median(pool.predicted_p99_ms);
  const double capacity = alg1_capacity(w);
  m["engine.self_p99_ms"] = {median(pool.self_p99_ms), "ms",
                             "engine's own RunStats p99; latency_p99_ms here " + fmt(lp.p99)};
  m["engine.dropped"] = {static_cast<double>(pool.dropped), "count", ""};
  m["mailbox.spill_frac"] = {
      s.ring_enqueues > 0 ? static_cast<double>(s.ring_spills) / s.ring_enqueues : 0.0, "ratio",
      ""};
  m["mailbox.queue_peak_max"] = {static_cast<double>(pool.queue_peak), "count", ""};
  m["scheduler.msgs_per_batch"] = {s.batches > 0 ? msgs / s.batches : 0.0, "count", ""};
  m["scheduler.parks_per_kmsg"] = {msgs > 0 ? 1000.0 * s.parks / msgs : 0.0, "count", ""};
  m["scheduler.wakeups_per_park"] = {s.parks > 0 ? static_cast<double>(s.wakeups) / s.parks : 0.0,
                                     "ratio", ""};
  m["scheduler.steal_frac"] = {pops > 0 ? s.steals / pops : 0.0, "ratio", ""};
  m["operator.busy_frac_max"] = {pool.busy_max, "ratio", ""};
  m["operator.blocked_frac_mean"] = {pool.blocked_n > 0 ? pool.blocked_sum / pool.blocked_n : 0.0,
                                     "ratio", ""};
  m["source.lag_p99_ms"] = {lag.p99, "ms", samples_note(lag, false)};
  m["source.achieved_frac"] = {pool.achieved(), "ratio", ""};
  m["fence.keys_migrated_per_reconfig"] = {
      fenced.reconfigurations > 0
          ? static_cast<double>(fenced.keys_migrated) / fenced.reconfigurations
          : 0.0,
      "count", ""};
  m["fence.refused_frac"] = {
      control.calls > 0 ? static_cast<double>(control.refused) / control.calls : 0.0, "ratio", ""};
  m["core.reoptimize_ms"] = {median(control.reoptimize_ms), "ms",
                             "n=" + std::to_string(control.reoptimize_ms.size())};
  m["core.alg1_error_pct"] = {std::abs(peak - capacity) / std::max(capacity, 1e-9) * 100.0, "%",
                              "|peak_tps - Alg. 1 capacity " + fmt(capacity) + "|"};
  m["core.p99_model_error_pct"] = {std::abs(lp.p99 - predicted) / std::max(predicted, 1e-9) * 100.0,
                                   "%", "|latency_p99_ms - predicted " + fmt(predicted) + " ms|"};
  standalone_layers(m, control.last_checkpoint, o.seed);
  ledger.check(m.count("checkpoint.bytes") == 1,
               "no checkpoint captured for the codec measurements");
}

int run(const Options& o) {
  bool optimized = false;
  const std::string host = fingerprint(optimized);
  std::cout << "# host: " << host << "\n";
  if (!optimized) std::cout << "# WARNING: the code under test was built without optimization\n";
  std::cout << "# workload=" << o.workload << " seed=" << o.seed << " seconds=" << o.seconds
            << " trace=" << (o.trace ? 1 : 0) << "\n";
  std::filesystem::create_directories(".bench_build/work");
  if (o.trace) {
    SpanLog::instance().enable();
    g_sample_every = 256;
  }
  const auto jiffies_start = cpu_jiffies();
  const double scale = o.seconds / 20.0;  // phase lengths are set for --seconds 20
  const double workload_start = now_s();
  Workload w = make_workload(o.workload, o.seed);
  SpanLog::instance().add("generate_inputs", "bench", workload_start, now_s());
  Ledger ledger;
  Metrics m;
  Setup setup;
  measure_setup(w, o.seed, kSetupBudget * scale, 3, setup);
  choose_toggles(w);
  if (o.trace) {
    per_layer_metrics(w, o, scale, setup, ledger, m);
  } else {
    end_to_end_metrics(w, o, scale, setup, ledger, m);
  }

  const auto jiffies_end = cpu_jiffies();
  const double all = jiffies_end.first - jiffies_start.first;
  if (all > 0.0) {
    std::cout << "# host noise: cpu steal "
              << fmt(100.0 * (jiffies_end.second - jiffies_start.second) / all)
              << "% of the machine's cpu time during the run\n";
  }
  const bool correct = ledger.problems.empty();
  for (const auto& p : ledger.problems) std::cout << "# CHECK FAILED: " << p << "\n";
  const double failed_frac =
      static_cast<double>(ledger.failed) / static_cast<double>(std::max<std::int64_t>(ledger.attempted, 1));
  std::cout << "# failed_frac=" << fmt(failed_frac) << " (" << ledger.failed << " of "
            << ledger.attempted << " items and control calls)\n";
  for (const auto& [name, metric] : m) {
    std::printf("%-34s %14s %-9s %s\n", name.c_str(), fmt(metric.value).c_str(),
                metric.unit.c_str(), metric.note.c_str());
  }
  std::fflush(stdout);
  if (o.trace) {
    SpanLog::instance().add("workload", "bench", workload_start, now_s());
    std::cout << "# trace: " << SpanLog::instance().size() << " spans -> " << o.trace_out << "\n";
    if (!SpanLog::instance().write_chrome(o.trace_out)) {
      std::cout << "# could not write " << o.trace_out << "\n";
    }
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
       << ledger.attempted << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << metric.value
         << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
