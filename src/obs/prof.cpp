#include "obs/prof.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/bench.h"
#include "util/error.h"
#include "util/mutex.h"

namespace ahfic::obs {

namespace {

using prof::kMaxFrames;
using prof::kMaxRings;
using prof::kThreadNameMax;
using prof::RawSample;
using prof::SampleRing;

/// The fixed ring pool, allocated once at the first capture and leaked
/// (rings hold atomics a late signal may still touch at exit). ~6.5 MB.
struct RingPool {
  SampleRing rings[kMaxRings];
};

std::atomic<RingPool*> gPool{nullptr};

/// True while a capture records samples. Acquire/release pairs with the
/// start/stop sequencing below; the handler's load is the only hot read.
std::atomic<bool> gActive{false};
/// Monotonic capture id (never 0) — rings are claimed per session so a
/// stale thread-local ring pointer from a previous capture is never
/// written into a ring the pool has since recycled.
std::atomic<unsigned> gSession{0};
/// Samples that found no free ring (pool exhausted); counted as dropped.
std::atomic<long long> gUnassignedDrops{0};
/// Serializes start/stop against each other (never touched by handlers).
std::atomic<bool> gBusy{false};

thread_local char tProfName[kThreadNameMax] = {0};
thread_local SampleRing* tRing = nullptr;
thread_local unsigned tRingSession = 0;

/// Claims a free ring for the calling thread. Async-signal-safe: a scan
/// plus one CAS per candidate, and a fixed-size name copy.
SampleRing* claimRing(unsigned session) {
  RingPool* pool = gPool.load(std::memory_order_acquire);
  if (pool == nullptr) return nullptr;
  for (int i = 0; i < kMaxRings; ++i) {
    SampleRing& r = pool->rings[i];
    unsigned expected = 0;
    if (r.owner.load(std::memory_order_relaxed) == 0 &&
        r.owner.compare_exchange_strong(expected, session,
                                        std::memory_order_acq_rel)) {
      // The name write is ordered before the first sample's release
      // store in push(), so the collector's acquire of head sees it.
      std::memcpy(r.name, tProfName, kThreadNameMax);
      r.name[kThreadNameMax - 1] = '\0';
      return &r;
    }
  }
  gUnassignedDrops.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

/// The PC the signal interrupted, read from the handler's ucontext_t;
/// null on an architecture this does not know.
void* interruptedPc(void* uctx) {
  const auto* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return nullptr;
#endif
}

/// Leaf-first stack of the interrupted code. backtrace() starts inside
/// this handler and walks through the kernel's signal trampoline, so the
/// frames up to the interrupted PC are dropped; when the unwinder did
/// not reach it, the sample keeps the PC alone rather than the handler.
int captureStack(void* uctx, void** pcs) {
  void* pc = interruptedPc(uctx);
  const int depth = ::backtrace(pcs, kMaxFrames);
  if (pc == nullptr) return depth;
  for (int i = 0; i < depth; ++i) {
    if (pcs[i] != pc) continue;
    for (int k = i; k < depth; ++k) pcs[k - i] = pcs[k];
    return depth - i;
  }
  pcs[0] = pc;
  return 1;
}

void profSignalHandler(int, siginfo_t*, void* uctx) {
  // Everything here is async-signal-safe: atomics, backtrace() (the
  // unwinder is preheated at start so it allocates nothing here), and a
  // ring push. errno is preserved for the interrupted code.
  const int savedErrno = errno;
  if (gActive.load(std::memory_order_acquire)) {
    const unsigned session = gSession.load(std::memory_order_relaxed);
    SampleRing* ring = tRing;
    if (ring == nullptr || tRingSession != session) {
      ring = claimRing(session);
      tRing = ring;
      tRingSession = session;
    }
    if (ring != nullptr) {
      void* pcs[kMaxFrames];
      const int depth = captureStack(uctx, pcs);
      if (depth > 0) ring->push(pcs, depth);
    }
  }
  errno = savedErrno;
}

/// Raw aggregation key while the capture runs: thread name + leaf-first
/// PCs. Symbolization waits until stop so the collector stays cheap.
struct RawKey {
  std::string thread;
  std::vector<void*> pcs;
  bool operator<(const RawKey& o) const {
    if (thread != o.thread) return thread < o.thread;
    return pcs < o.pcs;
  }
};

/// Everything one capture owns; guarded by gBusy sequencing (only
/// start/stop/collector touch it, never the signal handler).
struct CaptureState {
  ProfileOptions opts;
  unsigned session = 0;
  timer_t timer{};
  std::chrono::steady_clock::time_point startedAt;
  std::thread collector;
  // Collector wakeup for prompt shutdown.
  util::Mutex mu;
  util::CondVar cv;
  bool stopping AHFIC_GUARDED_BY(mu) = false;
  // Drained-but-unsymbolized samples (collector thread only, then the
  // stopping thread after join — never concurrent).
  std::map<RawKey, long long> raw;
};

CaptureState* gCapture = nullptr;  // non-null only between start and stop

/// Latest completed capture, for /v1/profile/latest and /debug.
struct LatestState {
  util::Mutex mu;
  std::string json AHFIC_GUARDED_BY(mu);
  LatestProfileInfo info AHFIC_GUARDED_BY(mu);
};

LatestState& latestState() {
  static LatestState* s = new LatestState;  // leaked: outlives everything
  return *s;
}

/// Drains every ring of `session` into the capture's raw map.
void drainSession(CaptureState& cap) {
  RingPool* pool = gPool.load(std::memory_order_acquire);
  if (pool == nullptr) return;
  std::vector<RawSample> batch;
  for (int i = 0; i < kMaxRings; ++i) {
    SampleRing& r = pool->rings[i];
    if (r.owner.load(std::memory_order_acquire) != cap.session) continue;
    batch.clear();
    if (r.drain(batch) == 0) continue;
    const char* name = r.name[0] != '\0' ? r.name : "thread";
    for (const RawSample& s : batch) {
      RawKey key;
      key.thread = name;
      key.pcs.assign(s.pc, s.pc + s.depth);
      ++cap.raw[key];
    }
  }
}

void collectorLoop(CaptureState& cap) {
  // Periodic drain keeps 30 s captures from overflowing 512-slot rings
  // (at 197 Hz a ring fills in ~2.6 s).
  for (;;) {
    {
      util::MutexLock lock(&cap.mu);
      if (cap.stopping) break;
      cap.cv.waitFor(&cap.mu, std::chrono::milliseconds(50));
      if (cap.stopping) break;
    }
    drainSession(cap);
  }
  drainSession(cap);  // final sweep after the timer is gone
}

/// Resolved symbol cache for one stop() pass.
std::string cachedSymbol(std::map<void*, std::string>& cache, void* pc) {
  auto it = cache.find(pc);
  if (it != cache.end()) return it->second;
  std::string sym = prof::symbolizePc(pc);
  cache.emplace(pc, sym);
  return sym;
}

}  // namespace

namespace prof {

std::vector<std::pair<std::string, long long>> FoldedStacks::sorted()
    const {
  std::vector<std::pair<std::string, long long>> out(counts_.begin(),
                                                     counts_.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

std::string symbolizePc(void* pc) {
  // Return addresses point one past the call; step back one byte so a
  // call that ends a function does not resolve to its neighbour.
  void* lookup = static_cast<char*>(pc) - 1;
  Dl_info info{};
  if (dladdr(lookup, &info) != 0 && info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) {
      std::string out = demangled;
      std::free(demangled);
      // Strip the argument list: flamegraph frames read better as
      // plain qualified names, and template arguments stay intact
      // because only the *trailing* top-level parens are cut.
      if (!out.empty() && out.back() == ')') {
        int depth = 0;
        for (size_t i = out.size(); i-- > 0;) {
          if (out[i] == ')') ++depth;
          if (out[i] == '(') {
            --depth;
            if (depth == 0) {
              out.resize(i);
              break;
            }
          }
        }
      }
      return out;
    }
    return info.dli_sname;
  }
  char buf[64];
  if (info.dli_fname != nullptr) {
    const char* base = std::strrchr(info.dli_fname, '/');
    base = base != nullptr ? base + 1 : info.dli_fname;
    std::snprintf(buf, sizeof buf, "%s+0x%zx", base,
                  static_cast<size_t>(static_cast<char*>(pc) -
                                      static_cast<char*>(info.dli_fbase)));
    return buf;
  }
  std::snprintf(buf, sizeof buf, "0x%zx",
                reinterpret_cast<size_t>(pc));
  return buf;
}

}  // namespace prof

bool profilingActive() {
  return gActive.load(std::memory_order_relaxed);
}

void profileSetThreadName(const char* name) {
  if (name == nullptr) {
    tProfName[0] = '\0';
    return;
  }
  std::strncpy(tProfName, name, kThreadNameMax - 1);
  tProfName[kThreadNameMax - 1] = '\0';
}

bool startProfiling(const ProfileOptions& opts) {
  if (opts.hz <= 0.0 || opts.hz > 10000.0)
    throw Error("prof: hz must be in (0, 10000]");
  bool expected = false;
  if (!gBusy.compare_exchange_strong(expected, true)) return false;
  if (gActive.load(std::memory_order_relaxed)) {
    gBusy.store(false);
    return false;
  }

  if (gPool.load(std::memory_order_acquire) == nullptr)
    gPool.store(new RingPool, std::memory_order_release);

  // Preheat the unwinder: the first backtrace() call loads libgcc_s
  // (malloc, dlopen) — unacceptable inside a signal handler, fine here.
  {
    void* scratch[4];
    ::backtrace(scratch, 4);
  }

  static bool handlerInstalled = false;
  if (!handlerInstalled) {
    struct sigaction sa{};
    sa.sa_sigaction = &profSignalHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
      gBusy.store(false);
      throw Error("prof: sigaction(SIGPROF) failed");
    }
    handlerInstalled = true;
  }

  auto* cap = new CaptureState;
  cap->opts = opts;
  cap->session = gSession.fetch_add(1, std::memory_order_relaxed) + 1;
  cap->startedAt = std::chrono::steady_clock::now();
  gUnassignedDrops.store(0, std::memory_order_relaxed);

  sigevent sev{};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  const clockid_t clock =
      opts.wallClock ? CLOCK_MONOTONIC : CLOCK_PROCESS_CPUTIME_ID;
  if (timer_create(clock, &sev, &cap->timer) != 0) {
    delete cap;
    gBusy.store(false);
    throw Error("prof: timer_create failed");
  }

  gCapture = cap;
  cap->collector = std::thread([cap] {
    profileSetThreadName("prof-collector");
    collectorLoop(*cap);
  });

  // Publish *before* arming the timer: the first signal must see the
  // active flag and the session id.
  gActive.store(true, std::memory_order_release);

  const long long periodNs = static_cast<long long>(1e9 / opts.hz);
  itimerspec its{};
  its.it_interval.tv_sec = periodNs / 1000000000;
  its.it_interval.tv_nsec = periodNs % 1000000000;
  its.it_value = its.it_interval;
  if (timer_settime(cap->timer, 0, &its, nullptr) != 0) {
    gActive.store(false, std::memory_order_release);
    timer_delete(cap->timer);
    {
      util::MutexLock lock(&cap->mu);
      cap->stopping = true;
    }
    cap->cv.notifyAll();
    cap->collector.join();
    gCapture = nullptr;
    delete cap;
    gBusy.store(false);
    throw Error("prof: timer_settime failed");
  }

  gBusy.store(false);
  return true;
}

ProfileReport stopProfiling() {
  bool expected = false;
  if (!gBusy.compare_exchange_strong(expected, true)) return {};
  if (!gActive.load(std::memory_order_relaxed) || gCapture == nullptr) {
    gBusy.store(false);
    return {};
  }
  CaptureState* cap = gCapture;

  // Order matters: silence the handler first, then disarm the timer, a
  // short grace so any handler already past the flag check finishes its
  // push (SPSC drains are safe against a concurrent push; ring *reset*
  // below is not), then drain.
  gActive.store(false, std::memory_order_release);
  timer_delete(cap->timer);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  {
    util::MutexLock lock(&cap->mu);
    cap->stopping = true;
  }
  cap->cv.notifyAll();
  cap->collector.join();  // runs the final drain

  const double durationSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    cap->startedAt)
          .count();

  // Off-signal symbolization over unique PCs, then fold.
  std::map<void*, std::string> symbols;
  prof::FoldedStacks folded;
  long long samples = 0;
  for (const auto& [key, count] : cap->raw) {
    samples += count;
    std::string stack = key.thread;
    // Stacks are leaf-first; collapsed stacks are root-first. The leaf
    // is the exact interrupted PC, not a return address, so it is
    // looked up one byte on (symbolizePc steps back one).
    for (size_t i = key.pcs.size(); i-- > 0;) {
      char* pc = static_cast<char*>(key.pcs[i]);
      stack += ';';
      stack += cachedSymbol(symbols, i == 0 ? pc + 1 : pc);
    }
    folded.add(stack, count);
  }

  ProfileReport report;
  report.clock = cap->opts.wallClock ? "wall" : "cpu";
  report.hz = cap->opts.hz;
  report.durationSec = durationSec;
  report.samples = samples;
  report.dropped = gUnassignedDrops.load(std::memory_order_relaxed);
  report.stacks = folded.sorted();

  // Recycle the session's rings for the next capture. No producer can
  // touch them any more: the flag is down and the grace period passed.
  RingPool* pool = gPool.load(std::memory_order_acquire);
  if (pool != nullptr) {
    for (int i = 0; i < kMaxRings; ++i) {
      SampleRing& r = pool->rings[i];
      if (r.owner.load(std::memory_order_acquire) != cap->session) continue;
      ++report.threads;
      report.dropped += r.dropped();
      r.reset();
    }
  }

  gCapture = nullptr;
  delete cap;

  // Remember the capture for /v1/profile/latest and /debug.
  {
    const std::string ts = benchTimestampUtc();
    util::JsonValue envelope =
        benchEnvelope("profile", report.toJson(), ts);
    LatestState& latest = latestState();
    util::MutexLock lock(&latest.mu);
    latest.json = envelope.dump(2) + "\n";
    latest.info.present = true;
    latest.info.timestamp = ts;
    latest.info.durationSec = report.durationSec;
    latest.info.samples = report.samples;
  }

  gBusy.store(false);
  return report;
}

std::string ProfileReport::collapsed() const {
  std::string out;
  for (const auto& [stack, count] : stacks) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

util::JsonValue ProfileReport::toJson() const {
  util::JsonValue doc = util::JsonValue::object();
  doc.set("schema", "ahfic-profile-v1");
  doc.set("clock", clock);
  doc.set("hz", hz);
  doc.set("durationSec", durationSec);
  doc.set("samples", static_cast<double>(samples));
  doc.set("dropped", static_cast<double>(dropped));
  doc.set("threads", static_cast<double>(threads));
  util::JsonValue arr = util::JsonValue::array();
  for (const auto& [stack, count] : stacks) {
    util::JsonValue entry = util::JsonValue::object();
    entry.set("stack", stack);
    entry.set("count", static_cast<double>(count));
    arr.push(std::move(entry));
  }
  doc.set("stacks", std::move(arr));
  // Self-time ranking (leaf frame of every stack): the quick "what is
  // hot" read without reconstructing the flame graph.
  std::map<std::string, long long> self;
  for (const auto& [stack, count] : stacks) {
    const size_t semi = stack.rfind(';');
    self[semi == std::string::npos ? stack : stack.substr(semi + 1)] +=
        count;
  }
  std::vector<std::pair<std::string, long long>> ranked(self.begin(),
                                                        self.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  util::JsonValue top = util::JsonValue::array();
  const size_t cap = std::min<size_t>(ranked.size(), 20);
  for (size_t i = 0; i < cap; ++i) {
    util::JsonValue entry = util::JsonValue::object();
    entry.set("symbol", ranked[i].first);
    entry.set("count", static_cast<double>(ranked[i].second));
    top.push(std::move(entry));
  }
  doc.set("topSelf", std::move(top));
  return doc;
}

void writeProfileFiles(const ProfileReport& report,
                       const std::string& jsonPath) {
  util::JsonValue envelope =
      benchEnvelope("profile", report.toJson(), benchTimestampUtc());
  {
    FILE* f = std::fopen(jsonPath.c_str(), "w");
    if (f == nullptr)
      throw Error("prof: cannot open '" + jsonPath + "'");
    const std::string text = envelope.dump(2) + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  const std::string foldedPath = jsonPath + ".folded";
  FILE* f = std::fopen(foldedPath.c_str(), "w");
  if (f == nullptr)
    throw Error("prof: cannot open '" + foldedPath + "'");
  const std::string text = report.collapsed();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

std::string latestProfileJson() {
  LatestState& latest = latestState();
  util::MutexLock lock(&latest.mu);
  return latest.json;
}

LatestProfileInfo latestProfileInfo() {
  LatestState& latest = latestState();
  util::MutexLock lock(&latest.mu);
  return latest.info;
}

ScopedProfile::ScopedProfile(std::string jsonPath, ProfileOptions opts)
    : jsonPath_(std::move(jsonPath)) {
  active_ = startProfiling(opts);
}

ScopedProfile::~ScopedProfile() {
  if (!active_) return;
  try {
    writeProfileFiles(stopProfiling(), jsonPath_);
  } catch (const Error&) {
    // Destructor: an unwritable path must not terminate the tool.
  }
}

}  // namespace ahfic::obs
