#pragma once
// In-process sampling profiler — the fourth observability pillar next to
// metrics (metrics.h), tracing (trace.h) and logging (log.h). Answers
// the question the other three cannot: *where inside a span* is the time
// going, without recompiling or attaching an external tool.
//
// Capture model (docs/profiling.md):
//  * a POSIX interval timer (`timer_create`) delivers SIGPROF at a fixed
//    rate — against the process CPU clock by default (samples land on
//    whichever thread is burning CPU), or the monotonic wall clock for
//    latency-shaped investigations;
//  * the signal handler takes the interrupted PC from its ucontext_t,
//    calls `backtrace()`, drops the frames above that PC (handler and
//    signal trampoline) and pushes the rest into a pre-allocated
//    per-thread lock-free ring. Every
//    handler-side operation is async-signal-safe: no allocation, no
//    locks, no formatting — claiming a ring is one CAS against a fixed
//    pool, recording a sample is a memcpy plus one release store;
//  * a collector thread drains the rings every ~50 ms so long captures
//    do not overflow them; overflowed samples are *counted*, never
//    silently lost — the dropped total surfaces in the report;
//  * symbolization (`dladdr` + demangling) happens entirely off-signal,
//    at stop time, over the set of unique PCs.
//
// The profiler follows the registry's zero-cost-when-off contract: while
// no capture is active there are no signals at all, and the only hook a
// cold path ever pays is profileSetThreadName() at thread start (a
// thread-local strcpy). profilingActive() is one relaxed atomic load.
//
// Output: a folded-stack report — flamegraph.pl-compatible collapsed
// text plus an "ahfic-profile-v1" JSON document carried in the standard
// "ahfic-bench-v1" envelope (obs/bench.h), so profiles travel through
// the same artifact plumbing as every bench result.
//
// One capture at a time: startProfiling() returns false while another
// capture is running (the serve layer maps that to HTTP 409).
//
// Usage:
//   obs::ProfileOptions opts;            // 197 Hz, CPU clock
//   if (obs::startProfiling(opts)) {
//     ... workload ...
//     obs::ProfileReport rep = obs::stopProfiling();
//     obs::writeProfileFiles(rep, "profile.json");  // + profile.json.folded
//   }
// or, flag-shaped (what --profile FILE does):
//   obs::ScopedProfile prof("profile.json");

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace ahfic::obs {

struct ProfileOptions {
  /// Sampling rate. A prime-ish default avoids lockstep with periodic
  /// work (history samplers, 100 Hz schedulers).
  double hz = 197.0;
  /// false = CLOCK_PROCESS_CPUTIME_ID (samples attribute to running
  /// threads); true = CLOCK_MONOTONIC (samples fire in wall time and
  /// land on one signal-designated thread — use for single-threaded
  /// latency questions).
  bool wallClock = false;
};

/// True while a capture is running. One relaxed atomic load.
bool profilingActive();

/// Starts a capture. Returns false — without touching the running
/// capture — when one is already active, and throws ahfic::Error when
/// the OS timer cannot be created.
bool startProfiling(const ProfileOptions& opts = {});

/// Aggregated result of one capture.
struct ProfileReport {
  std::string clock;      ///< "cpu" or "wall"
  double hz = 0.0;
  double durationSec = 0.0;  ///< wall-clock capture length
  long long samples = 0;     ///< stacks recorded and aggregated
  long long dropped = 0;     ///< lost to ring overflow / pool exhaustion
  int threads = 0;           ///< distinct sampled threads
  /// Folded stacks, root-first ("thread;outer;...;leaf"), sorted by
  /// count descending then name — deterministic for identical input.
  std::vector<std::pair<std::string, long long>> stacks;

  /// flamegraph.pl collapsed format: one "stack count" line per entry.
  std::string collapsed() const;
  /// "ahfic-profile-v1" payload (wrap with benchEnvelope for transport).
  util::JsonValue toJson() const;
};

/// Stops the running capture and returns its report. Returns an empty
/// report (samples == 0, clock == "") when no capture is active.
ProfileReport stopProfiling();

/// Writes the enveloped JSON document to `jsonPath` and the collapsed
/// text to `jsonPath + ".folded"`. Throws ahfic::Error on I/O failure.
void writeProfileFiles(const ProfileReport& report,
                       const std::string& jsonPath);

/// Names the calling thread in profile output ("worker-3", "http-1").
/// Cheap thread-local copy; safe to call whether or not a capture is
/// running (threads are usually named once at start, before any
/// capture). Unnamed threads report as "thread".
void profileSetThreadName(const char* name);

/// Envelope JSON of the most recent completed capture in this process
/// ("" when none yet) — what GET /v1/profile/latest serves.
std::string latestProfileJson();

/// Summary of the most recent capture for dashboards (/debug).
struct LatestProfileInfo {
  bool present = false;
  std::string timestamp;  ///< ISO-8601 UTC of capture end
  double durationSec = 0.0;
  long long samples = 0;
};
LatestProfileInfo latestProfileInfo();

/// RAII start/stop + file emission, for the --profile flag. When another
/// capture is already active the scope is inert (active() == false) —
/// flags must not fight the daemon endpoint.
class ScopedProfile {
 public:
  explicit ScopedProfile(std::string jsonPath, ProfileOptions opts = {});
  ~ScopedProfile();

  ScopedProfile(const ScopedProfile&) = delete;
  ScopedProfile& operator=(const ScopedProfile&) = delete;

  bool active() const { return active_; }

 private:
  std::string jsonPath_;
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// Internals, exposed for tests (tests/obs_prof_test.cpp). Not part of
// the stable surface.

namespace prof {

inline constexpr int kMaxFrames = 48;      ///< deepest stack recorded
inline constexpr int kRingCapacity = 512;  ///< samples buffered per thread
inline constexpr int kMaxRings = 32;       ///< concurrent sampled threads
inline constexpr int kThreadNameMax = 32;  ///< incl. terminating NUL

/// One raw sample: leaf-first program counters, as backtrace() returns.
struct RawSample {
  int depth = 0;
  void* pc[kMaxFrames];
};

/// Single-producer single-consumer ring. The producer is the signal
/// handler on the owning thread (push: memcpy + one release store); the
/// consumer is the collector thread (drain). A full ring counts the
/// sample as dropped instead of blocking — a profiler must never stall
/// the profiled thread.
class SampleRing {
 public:
  /// Producer side; async-signal-safe. False when full (counted).
  bool push(void* const* pcs, int depth) {
    const unsigned h = head_.load(std::memory_order_relaxed);
    const unsigned t = tail_.load(std::memory_order_acquire);
    if (h - t >= static_cast<unsigned>(kRingCapacity)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    RawSample& slot = slots_[h % kRingCapacity];
    slot.depth = depth < kMaxFrames ? depth : kMaxFrames;
    std::memcpy(slot.pc, pcs,
                sizeof(void*) * static_cast<size_t>(slot.depth));
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: appends every buffered sample to `out` and frees
  /// the slots. Returns the number drained.
  size_t drain(std::vector<RawSample>& out) {
    const unsigned t = tail_.load(std::memory_order_relaxed);
    const unsigned h = head_.load(std::memory_order_acquire);
    for (unsigned i = t; i != h; ++i)
      out.push_back(slots_[i % kRingCapacity]);
    tail_.store(h, std::memory_order_release);
    return h - t;
  }

  long long dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Consumer-side reset between capture sessions (no producer active).
  void reset() {
    head_.store(0, std::memory_order_relaxed);
    tail_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
    owner.store(0, std::memory_order_release);
    name[0] = '\0';
  }

  /// Session id of the claiming capture; 0 = free. Claimed by the first
  /// signal that lands on a thread (CAS 0 -> session).
  std::atomic<unsigned> owner{0};
  char name[kThreadNameMax] = {0};  ///< claiming thread's profile name

 private:
  std::atomic<unsigned> head_{0};
  std::atomic<unsigned> tail_{0};
  std::atomic<long long> dropped_{0};
  RawSample slots_[kRingCapacity];
};

/// Folded-stack accumulator: "a;b;c" -> count. Deterministic: sorted()
/// orders by count descending, ties by stack string ascending, so two
/// aggregations of the same samples — in any arrival order, through any
/// merge() grouping — produce identical output.
class FoldedStacks {
 public:
  void add(const std::string& stack, long long count = 1) {
    counts_[stack] += count;
  }
  void merge(const FoldedStacks& other) {
    for (const auto& [stack, n] : other.counts_) counts_[stack] += n;
  }
  long long total() const {
    long long t = 0;
    for (const auto& [stack, n] : counts_) t += n;
    return t;
  }
  size_t size() const { return counts_.size(); }
  std::vector<std::pair<std::string, long long>> sorted() const;

 private:
  std::map<std::string, long long> counts_;
};

/// Best-effort symbol for one return address: demangled function name,
/// else "module+0xoffset", else the raw address. Off-signal only.
std::string symbolizePc(void* pc);

}  // namespace prof

}  // namespace ahfic::obs
