// Opt-in event tracing: lock-free per-thread ring buffers flushed at
// shutdown as Chrome trace-event JSON (load the file in Perfetto or
// chrome://tracing).  The runtime records *spans* — a pooled worker
// draining one mailbox batch, a source pump quantum, the fence/drain
// phases of an epoch switch-over, a worker parking — and *instants*
// (steals, epoch swaps), which makes the reconfiguration protocol and the
// scheduler's load balance visually debuggable for the first time.
//
// Cost model: tracing off (the default) is one relaxed atomic load per
// potential event.  Tracing on appends one 48-byte record to a per-thread
// ring (single-writer, no locks, no allocation); when a ring wraps, the
// oldest events are overwritten and counted as dropped.  Event names and
// categories must be string literals (the ring stores the pointers).
//
// Flush discipline: stop_and_flush() first disables recording, then reads
// the rings.  Readers and writers are not otherwise synchronized, so flush
// only after the traced threads quiesced (the engine joins its scheduler
// before the CLI flushes) — the price of a wait-free record() path.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace ss::runtime {

/// JSON string escaping shared by every JSON sink (trace, metrics JSONL,
/// /stats.json): quote, backslash and the short escapes, other control
/// characters as \u00XX — operator and tenant names are user strings.
std::string json_escape(std::string_view s);

}  // namespace ss::runtime

namespace ss::runtime::trace {

/// One recorded event.  `phase` follows the trace-event format: 'X' is a
/// complete span (ts + dur), 'i' an instant.
struct Event {
  const char* name = nullptr;      ///< string literal
  const char* cat = nullptr;       ///< string literal ("sched", "fence", ...)
  const char* arg_name = nullptr;  ///< optional numeric payload key
  /// Tenant tag (multi-tenant runs): interned label (intern_label) or
  /// nullptr.  Stamped automatically from the calling thread's tag
  /// (set_thread_tenant) when record() sees it unset.
  const char* tenant = nullptr;
  std::uint64_t ts_ns = 0;         ///< nanoseconds since Tracer start
  std::uint64_t dur_ns = 0;        ///< span length ('X' only)
  std::int64_t arg = 0;
  char phase = 'X';
};

/// Process-global tracer.  start() arms it, record() appends to the
/// calling thread's ring, stop_and_flush() writes the JSON.
class Tracer {
 public:
  static Tracer& instance();

  /// Arms recording; timestamps are relative to this call.  Returns false
  /// (and does nothing) if already armed — the first starter owns the
  /// trace and its flush.
  bool start();

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since start(); 0 when not armed.
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Appends one event to the calling thread's ring (no-op when off).
  void record(const Event& e);

  /// Names the calling thread's lane in the trace viewer ("worker-3",
  /// "actor-7-map").  No-op when off.
  void set_thread_name(const std::string& name);

  /// Disarms recording, writes every surviving event as Chrome trace-event
  /// JSON to `path` and resets the rings (a later start() begins a fresh
  /// trace).  Returns the number of events written; throws ss::Error when
  /// the file cannot be written.  Call only after traced threads quiesced.
  std::size_t stop_and_flush(const std::string& path);

  /// Events lost to ring wrap-around in the trace just flushed.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  struct Ring;  ///< per-thread ring buffer (defined in trace.cpp)

 private:
  Tracer() = default;
  Ring& local_ring();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> start_ns_{0};  ///< steady-clock origin
};

/// True when the process-global tracer is armed (one relaxed load — the
/// whole cost of an untraced call site).
inline bool enabled() { return Tracer::instance().enabled(); }

/// Interns `label` in process-lifetime storage and returns a stable
/// pointer, so dynamically named tenants can tag Events (which store raw
/// pointers).  Idempotent per distinct string.
const char* intern_label(const std::string& label);

/// Tags every event the calling thread records from now on with `tenant`
/// (an interned label or a string literal); nullptr clears the tag.
/// Scheduler workers set it around each tenant's actor slot; engine-owned
/// threads (run loop, controller, exporter) set it once at entry.
void set_thread_tenant(const char* tenant);

/// The calling thread's current tenant tag (nullptr when untagged).
const char* thread_tenant();

/// Out-of-line armed path of instant() below.
void instant_armed(const char* name, const char* cat, const char* arg_name,
                   std::int64_t arg);

/// Records an instant event ('i') at the current time.  Inline disarmed
/// fast path: one relaxed load + branch — cheap enough for scheduler hot
/// loops that fire per drained batch.
inline void instant(const char* name, const char* cat, const char* arg_name = nullptr,
                    std::int64_t arg = 0) {
  if (enabled()) instant_armed(name, cat, arg_name, arg);
}

/// RAII complete-event span: captures the start time on construction (when
/// tracing is armed) and records one 'X' event on destruction.  Like
/// instant(), the disarmed cost is a relaxed load + branch per end.
class Span {
 public:
  Span(const char* name, const char* cat) noexcept : name_(name), cat_(cat) {
    if (enabled()) arm();
  }
  ~Span() {
    if (active_) finish();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric payload shown in the viewer's args pane.
  void set_arg(const char* key, std::int64_t value) {
    arg_name_ = key;
    arg_ = value;
  }

 private:
  void arm() noexcept;   ///< captures the start stamp (tracing armed)
  void finish();         ///< records the 'X' event

  const char* name_;
  const char* cat_;
  const char* arg_name_ = nullptr;
  std::int64_t arg_ = 0;
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace ss::runtime::trace
