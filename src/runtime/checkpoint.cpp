#include "runtime/checkpoint.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "core/error.hpp"
#include "runtime/engine.hpp"
#include "runtime/wire.hpp"

namespace ss::runtime {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'S', 'S', 'C', 'K'};
constexpr std::uint32_t kVersion = 1;
/// magic + version + payload length up front, CRC in the footer.
constexpr std::size_t kHeaderSize = 4 + 4 + 8;
constexpr std::size_t kFooterSize = 4;

constexpr const char* kFinalName = "final.bin";

std::string checkpoint_name(std::uint64_t sequence) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%08llu.bin",
                static_cast<unsigned long long>(sequence));
  return buf;
}

void encode_deployment(std::string& out, const Deployment& d) {
  wire::put_u64(out, d.replication.replicas.size());
  for (int r : d.replication.replicas) wire::put_i32(out, r);
  wire::put_u64(out, d.replication.max_share.size());
  for (double s : d.replication.max_share) wire::put_f64(out, s);
  wire::put_u64(out, d.partitions.size());
  for (const auto& p : d.partitions) {
    wire::put_u64(out, p.replica_of_key.size());
    for (int r : p.replica_of_key) wire::put_i32(out, r);
    wire::put_i32(out, p.replicas);
    wire::put_f64(out, p.max_share);
  }
  wire::put_u64(out, d.fusions.size());
  for (const auto& f : d.fusions) {
    wire::put_u64(out, f.members.size());
    for (OpIndex m : f.members) wire::put_u32(out, m);
    wire::put_bytes(out, f.fused_name);
  }
}

bool decode_deployment(wire::Reader& in, Deployment& d) {
  std::uint64_t n = 0;
  if (!in.u64(n)) return false;
  d.replication.replicas.resize(n);
  for (auto& r : d.replication.replicas) {
    std::int32_t v;
    if (!in.i32(v)) return false;
    r = v;
  }
  if (!in.u64(n)) return false;
  d.replication.max_share.resize(n);
  for (auto& s : d.replication.max_share) {
    if (!in.f64(s)) return false;
  }
  if (!in.u64(n)) return false;
  d.partitions.resize(n);
  for (auto& p : d.partitions) {
    std::uint64_t m = 0;
    if (!in.u64(m)) return false;
    p.replica_of_key.resize(m);
    for (auto& r : p.replica_of_key) {
      std::int32_t v;
      if (!in.i32(v)) return false;
      r = v;
    }
    if (!in.i32(p.replicas) || !in.f64(p.max_share)) return false;
  }
  if (!in.u64(n)) return false;
  d.fusions.resize(n);
  for (auto& f : d.fusions) {
    std::uint64_t m = 0;
    if (!in.u64(m)) return false;
    f.members.resize(m);
    for (auto& member : f.members) {
      if (!in.u32(member)) return false;
    }
    if (!in.bytes(f.fused_name)) return false;
  }
  return true;
}

}  // namespace

// --- codec -----------------------------------------------------------------

std::uint32_t crc32(std::string_view data, std::uint32_t seed) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  for (char ch : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

std::string encode_checkpoint(const Checkpoint& cp) {
  std::string out;
  wire::put_u64(out, cp.sequence);
  wire::put_u64(out, cp.epoch);
  wire::put_bytes(out, cp.tenant);
  encode_deployment(out, cp.deployment);
  wire::put_u64(out, cp.sources.size());
  for (const auto& s : cp.sources) {
    wire::put_u32(out, s.op);
    wire::put_u64(out, s.offset);
  }
  wire::put_u64(out, cp.actors.size());
  for (const auto& a : cp.actors) {
    wire::put_u32(out, a.op);
    wire::put_u8(out, static_cast<std::uint8_t>(a.role));
    wire::put_i32(out, a.replica);
    for (std::uint64_t lane : a.rng) wire::put_u64(out, lane);
    wire::put_i32(out, a.rr_cursor);
    wire::put_u8(out, a.has_state ? 1 : 0);
    wire::put_bytes(out, a.state);
  }
  return out;
}

bool decode_checkpoint(std::string_view payload, Checkpoint& out) {
  wire::Reader in(payload);
  Checkpoint cp;
  if (!in.u64(cp.sequence) || !in.u64(cp.epoch) || !in.bytes(cp.tenant)) return false;
  if (!decode_deployment(in, cp.deployment)) return false;
  std::uint64_t n = 0;
  if (!in.u64(n)) return false;
  cp.sources.resize(n);
  for (auto& s : cp.sources) {
    if (!in.u32(s.op) || !in.u64(s.offset)) return false;
  }
  if (!in.u64(n)) return false;
  cp.actors.resize(n);
  for (auto& a : cp.actors) {
    std::uint8_t role = 0, has_state = 0;
    if (!in.u32(a.op) || !in.u8(role) || !in.i32(a.replica)) return false;
    if (role > static_cast<std::uint8_t>(CheckpointRole::kMember)) return false;
    a.role = static_cast<CheckpointRole>(role);
    for (auto& lane : a.rng) {
      if (!in.u64(lane)) return false;
    }
    if (!in.i32(a.rr_cursor) || !in.u8(has_state) || !in.bytes(a.state)) return false;
    a.has_state = has_state != 0;
  }
  if (!in.ok() || in.remaining() != 0) return false;
  out = std::move(cp);
  return true;
}

std::string checkpoint_file_bytes(const Checkpoint& cp) {
  const std::string payload = encode_checkpoint(cp);
  std::string out;
  out.reserve(kHeaderSize + payload.size() + kFooterSize);
  out.append(kMagic, sizeof(kMagic));
  wire::put_u32(out, kVersion);
  wire::put_u64(out, payload.size());
  out += payload;
  wire::put_u32(out, crc32(payload));
  return out;
}

bool parse_checkpoint_file(std::string_view bytes, Checkpoint& out) {
  if (bytes.size() < kHeaderSize + kFooterSize) return false;
  if (bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) return false;
  wire::Reader head(bytes.substr(sizeof(kMagic)));
  std::uint32_t version = 0;
  std::uint64_t payload_len = 0;
  if (!head.u32(version) || !head.u64(payload_len) || version != kVersion) return false;
  if (payload_len != bytes.size() - kHeaderSize - kFooterSize) return false;
  const std::string_view payload = bytes.substr(kHeaderSize, payload_len);
  wire::Reader foot(bytes.substr(kHeaderSize + payload_len));
  std::uint32_t stored_crc = 0;
  if (!foot.u32(stored_crc) || stored_crc != crc32(payload)) return false;
  return decode_checkpoint(payload, out);
}

// --- fault injection -------------------------------------------------------

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::FaultInjector() {
  const auto arm = [](const char* var, std::atomic<int>& counter) {
    if (const char* value = std::getenv(var)) {
      const int n = std::atoi(value);
      if (n > 0) counter.store(n, std::memory_order_relaxed);
    }
  };
  arm("SS_CHECKPOINT_FAIL_WRITE", fail_write_in_);
  arm("SS_CHECKPOINT_TORN_WRITE", torn_write_in_);
  arm("SS_CRASH_AFTER_CHECKPOINTS", crash_in_);
}

void FaultInjector::reset() {
  fail_write_in_.store(0, std::memory_order_relaxed);
  torn_write_in_.store(0, std::memory_order_relaxed);
  crash_in_.store(0, std::memory_order_relaxed);
}

void FaultInjector::fail_write_on(int nth) {
  fail_write_in_.store(nth, std::memory_order_relaxed);
}
void FaultInjector::tear_write_on(int nth) {
  torn_write_in_.store(nth, std::memory_order_relaxed);
}
void FaultInjector::crash_after_writes(int nth) {
  crash_in_.store(nth, std::memory_order_relaxed);
}

namespace {
/// Counts an armed countdown one step down; true exactly when it hits 0.
bool tick(std::atomic<int>& counter) {
  int current = counter.load(std::memory_order_relaxed);
  while (current > 0) {
    if (counter.compare_exchange_weak(current, current - 1, std::memory_order_relaxed)) {
      return current == 1;
    }
  }
  return false;
}
}  // namespace

bool FaultInjector::take_fail_write() { return tick(fail_write_in_); }
bool FaultInjector::take_torn_write() { return tick(torn_write_in_); }

void FaultInjector::note_write_success() {
  if (tick(crash_in_)) {
    // kill -9 stand-in: no destructors, no flushes — the process vanishes
    // at a known checkpoint boundary.
    std::_Exit(kCrashExitCode);
  }
}

// --- manager ---------------------------------------------------------------

CheckpointManager::CheckpointManager(std::string dir, int retain)
    : dir_(std::move(dir)), retain_(retain < 1 ? 1 : retain) {
  require(!dir_.empty(), "checkpoint: directory must not be empty");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  require(!ec && fs::is_directory(dir_, ec),
          "checkpoint: cannot create directory: ", dir_);
  // Probe writability now so a bad --checkpoint-dir fails at startup, the
  // same contract as the --trace/--metrics-out path checks.
  const std::string probe_path = (fs::path(dir_) / ".probe").string();
  {
    std::ofstream probe(probe_path, std::ios::binary | std::ios::trunc);
    require(probe.good(), "checkpoint: directory not writable: ", dir_);
  }
  fs::remove(probe_path, ec);
  // Continue the sequence from whatever is already on disk.
  Checkpoint existing;
  for (const auto& path : list()) {
    if (read_file(path, existing) && existing.sequence >= next_sequence_) {
      next_sequence_ = existing.sequence + 1;
    }
  }
}

std::string CheckpointManager::write_file(const std::string& name, Checkpoint& cp,
                                          bool injectable) {
  cp.sequence = next_sequence_++;
  std::string bytes = checkpoint_file_bytes(cp);
  auto& injector = FaultInjector::instance();
  if (injectable && injector.take_fail_write()) {
    throw Error("checkpoint: injected snapshot write failure (sequence " +
                std::to_string(cp.sequence) + ")");
  }
  if (injectable && injector.take_torn_write()) {
    // Torn-write simulation: the file lands under its final name but stops
    // mid-payload, as after power loss between rename and data flush.
    bytes.resize(bytes.size() / 2);
  }
  const fs::path path = fs::path(dir_) / name;
  const fs::path tmp = fs::path(dir_) / (name + ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      throw Error("checkpoint: write failed: " + tmp.string());
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw Error("checkpoint: rename failed: " + path.string());
  }
  if (injectable) injector.note_write_success();
  return path.string();
}

std::string CheckpointManager::write(Checkpoint& cp) {
  std::string path = write_file(checkpoint_name(next_sequence_), cp, true);
  prune();
  return path;
}

std::string CheckpointManager::write_final(Checkpoint& cp) {
  return write_file(kFinalName, cp, false);
}

std::vector<std::string> CheckpointManager::list() const {
  std::vector<std::string> paths;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end; it.increment(ec)) {
    const fs::path& p = it->path();
    if (p.extension() != ".bin") continue;
    const std::string stem = p.filename().string();
    if (stem.rfind("ckpt-", 0) == 0 || stem == kFinalName) paths.push_back(p.string());
  }
  return paths;
}

bool CheckpointManager::read_file(const std::string& path, Checkpoint& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return parse_checkpoint_file(bytes, out);
}

bool CheckpointManager::load_latest(Checkpoint& out) const {
  bool found = false;
  Checkpoint best;
  Checkpoint candidate;
  for (const auto& path : list()) {
    if (!read_file(path, candidate)) continue;  // torn or corrupt: skip
    if (!found || candidate.sequence > best.sequence) {
      best = std::move(candidate);
      found = true;
    }
  }
  if (found) out = std::move(best);
  return found;
}

void CheckpointManager::prune() const {
  // Keep the newest `retain_` periodic snapshots (final.bin is outside the
  // rotation).  Sequence numbers are zero-padded, so the lexicographic
  // order of names is the write order.
  std::vector<std::string> periodic;
  for (auto& path : list()) {
    if (fs::path(path).filename().string() != kFinalName) periodic.push_back(std::move(path));
  }
  if (periodic.size() <= static_cast<std::size_t>(retain_)) return;
  std::sort(periodic.begin(), periodic.end());
  std::error_code ec;
  for (std::size_t i = 0; i + static_cast<std::size_t>(retain_) < periodic.size(); ++i) {
    fs::remove(periodic[i], ec);
  }
}

// --- periodic driver -------------------------------------------------------

CheckpointController::CheckpointController(Engine& engine, double period)
    : engine_(engine), period_(period) {}

CheckpointController::~CheckpointController() { stop(); }

void CheckpointController::start() {
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] { loop(); });
}

void CheckpointController::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void CheckpointController::loop() {
  const auto period = std::chrono::duration<double>(period_);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, period, [this] { return stop_; })) break;
    lock.unlock();
    // checkpoint_now() returns false only in terminal states: the run is
    // stopping, the source finished, or the snapshot write failed (which
    // records the failure and stops the run) — no point ticking further.
    const bool ok = engine_.checkpoint_now();
    lock.lock();
    if (!ok) break;
  }
}

}  // namespace ss::runtime
