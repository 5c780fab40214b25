// Sampling-profiler internals (obs/prof.h): folded-stack determinism,
// ring overflow accounting, symbolization, and the end-to-end
// start/capture/stop path. The start/stop-under-load torture test lives
// in concurrency_load_test.cpp (it runs under TSan in CI).

#include "obs/prof.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "util/error.h"
#include "util/json.h"

namespace obs = ahfic::obs;
namespace prof = ahfic::obs::prof;
namespace u = ahfic::util;

// Symbolization anchor: extern "C" (stable name) and address-taken, so
// it survives the linker and resolves via dladdr under -rdynamic
// (CMAKE_ENABLE_EXPORTS).
extern "C" __attribute__((noinline)) void ahficProfTestAnchor() {
  asm volatile("");
}

// Profiling target: exported like the anchor, and its loop makes no
// calls, so a CPU-clock sample taken while it runs interrupts this very
// function.
extern "C" __attribute__((noipa)) double ahficProfBusyLoop(long iters) {
  volatile double acc = 1.0;
  for (long i = 0; i < iters; ++i) acc = acc * 1.0000001 + 1e-9;
  return acc;
}

namespace {

TEST(ObsProf, FoldedStacksAggregatesAndSortsDeterministically) {
  prof::FoldedStacks a;
  a.add("main;solve;lu", 3);
  a.add("main;solve;assemble", 5);
  a.add("main;solve;lu", 2);  // merges with the first add
  EXPECT_EQ(a.total(), 10);
  EXPECT_EQ(a.size(), 2u);

  const auto sorted = a.sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].first, "main;solve;assemble");  // count desc
  EXPECT_EQ(sorted[0].second, 5);
  EXPECT_EQ(sorted[1].second, 5);
}

TEST(ObsProf, FoldedStacksMergeIsOrderIndependent) {
  // Same samples through two different merge groupings must fold to
  // byte-identical output — the determinism the regression gate and the
  // tests themselves rely on.
  prof::FoldedStacks left, right, wholeA, wholeB;
  const std::vector<std::pair<std::string, long long>> samples = {
      {"t;a;b", 4}, {"t;a;c", 4}, {"t;d", 1}, {"t;a;b", 2}};
  for (size_t i = 0; i < samples.size(); ++i) {
    (i % 2 == 0 ? left : right).add(samples[i].first, samples[i].second);
    wholeA.add(samples[i].first, samples[i].second);
    wholeB.add(samples[samples.size() - 1 - i].first,
               samples[samples.size() - 1 - i].second);
  }
  prof::FoldedStacks merged;
  merged.merge(left);
  merged.merge(right);
  EXPECT_EQ(merged.sorted(), wholeA.sorted());
  EXPECT_EQ(wholeA.sorted(), wholeB.sorted());  // arrival-order invariant

  // Ties sort by stack name ascending.
  const auto sorted = merged.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].first, "t;a;b");  // 6
  EXPECT_EQ(sorted[1].first, "t;a;c");  // 4
  EXPECT_EQ(sorted[2].first, "t;d");    // 1
}

TEST(ObsProf, SampleRingCountsOverflowInsteadOfBlocking) {
  auto ring = std::make_unique<prof::SampleRing>();
  void* pcs[2] = {reinterpret_cast<void*>(0x1000),
                  reinterpret_cast<void*>(0x2000)};
  for (int i = 0; i < prof::kRingCapacity; ++i)
    EXPECT_TRUE(ring->push(pcs, 2));
  // Full: the producer must not block; the loss must be accounted.
  EXPECT_FALSE(ring->push(pcs, 2));
  EXPECT_FALSE(ring->push(pcs, 2));
  EXPECT_EQ(ring->dropped(), 2);

  std::vector<prof::RawSample> out;
  EXPECT_EQ(ring->drain(out), static_cast<size_t>(prof::kRingCapacity));
  ASSERT_EQ(out.size(), static_cast<size_t>(prof::kRingCapacity));
  EXPECT_EQ(out[0].depth, 2);
  EXPECT_EQ(out[0].pc[0], pcs[0]);

  // Space again after the drain; dropped stays a cumulative session
  // counter until reset().
  EXPECT_TRUE(ring->push(pcs, 2));
  EXPECT_EQ(ring->dropped(), 2);
  ring->reset();
  EXPECT_EQ(ring->dropped(), 0);
  EXPECT_EQ(ring->owner.load(), 0u);
}

TEST(ObsProf, SampleRingClampsDepthToMaxFrames) {
  auto ring = std::make_unique<prof::SampleRing>();
  std::vector<void*> deep(prof::kMaxFrames + 8,
                          reinterpret_cast<void*>(0x42));
  EXPECT_TRUE(ring->push(deep.data(), static_cast<int>(deep.size())));
  std::vector<prof::RawSample> out;
  ring->drain(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].depth, prof::kMaxFrames);
}

TEST(ObsProf, DroppedCountSurfacesInProfileDocument) {
  obs::ProfileReport report;
  report.clock = "cpu";
  report.hz = 197.0;
  report.samples = 10;
  report.dropped = 7;
  report.threads = 2;
  report.stacks = {{"main;hot", 8}, {"worker-0;cold", 2}};

  const u::JsonValue doc = report.toJson();
  EXPECT_EQ(doc.get("schema").asString(), "ahfic-profile-v1");
  EXPECT_EQ(doc.get("dropped").asNumber(), 7.0);
  EXPECT_EQ(doc.get("samples").asNumber(), 10.0);
  EXPECT_EQ(doc.get("stacks").size(), 2u);
  EXPECT_EQ(doc.get("stacks").at(0).get("stack").asString(), "main;hot");
  // topSelf ranks leaf frames.
  ASSERT_GE(doc.get("topSelf").size(), 1u);
  EXPECT_EQ(doc.get("topSelf").at(0).get("symbol").asString(), "hot");

  EXPECT_EQ(report.collapsed(), "main;hot 8\nworker-0;cold 2\n");
}

TEST(ObsProf, SymbolizeResolvesExportedFunction) {
  // +1 mimics a return address (symbolizePc steps back one byte).
  void* pc = reinterpret_cast<void*>(
      reinterpret_cast<char*>(&ahficProfTestAnchor) + 1);
  const std::string sym = prof::symbolizePc(pc);
  EXPECT_NE(sym.find("ahficProfTestAnchor"), std::string::npos)
      << "got '" << sym << "' — is -rdynamic (CMAKE_ENABLE_EXPORTS) on?";
}

TEST(ObsProf, StartRejectsBadRate) {
  obs::ProfileOptions opts;
  opts.hz = 0.0;
  EXPECT_THROW(obs::startProfiling(opts), ahfic::Error);
  opts.hz = 20000.0;
  EXPECT_THROW(obs::startProfiling(opts), ahfic::Error);
}

TEST(ObsProf, StopWithoutStartReturnsEmptyReport) {
  ASSERT_FALSE(obs::profilingActive());
  const obs::ProfileReport report = obs::stopProfiling();
  EXPECT_EQ(report.samples, 0);
  EXPECT_EQ(report.clock, "");
}

TEST(ObsProf, ZeroCostWhenOff) {
  // The disabled-path contract: profilingActive() is one relaxed atomic
  // load. The bound is deliberately loose (1 us/call) — it cannot flake
  // on a busy runner, but a syscall, lock, or allocation sneaking into
  // the hot guard would blow straight through it.
  ASSERT_FALSE(obs::profilingActive());
  const int iters = 2'000'000;
  const auto t0 = std::chrono::steady_clock::now();
  int active = 0;
  for (int i = 0; i < iters; ++i)
    if (obs::profilingActive()) ++active;
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(active, 0);
  EXPECT_LT(sec, 2.0);
}

/// Burns CPU so the process-CPU-clock timer fires.
__attribute__((noinline)) double burnCpu(double seconds) {
  const auto t0 = std::chrono::steady_clock::now();
  volatile double acc = 1.0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
             .count() < seconds)
    for (int i = 0; i < 1000; ++i) acc = acc * 1.0000001 + 1e-9;
  return acc;
}

TEST(ObsProf, EndToEndCaptureProducesSamplesAndFiles) {
  obs::profileSetThreadName("main");
  ASSERT_TRUE(obs::startProfiling());
  EXPECT_TRUE(obs::profilingActive());
  // Second capture must be refused without disturbing the running one.
  EXPECT_FALSE(obs::startProfiling());
  EXPECT_TRUE(obs::profilingActive());

  burnCpu(0.5);

  const obs::ProfileReport report = obs::stopProfiling();
  EXPECT_FALSE(obs::profilingActive());
  EXPECT_EQ(report.clock, "cpu");
  EXPECT_EQ(report.hz, 197.0);
  EXPECT_GT(report.durationSec, 0.0);
  // 0.5 s of CPU at 197 Hz is ~98 samples; even a heavily loaded or
  // virtualized runner lands well above 1.
  EXPECT_GE(report.samples, 1);
  EXPECT_GE(report.threads, 1);
  ASSERT_FALSE(report.stacks.empty());
  // Stacks are rooted at the thread name set above.
  EXPECT_EQ(report.stacks[0].first.rfind("main;", 0), 0u)
      << report.stacks[0].first;

  // Counts in the document and the collapsed text agree with the report.
  const u::JsonValue doc = report.toJson();
  EXPECT_EQ(doc.get("schema").asString(), "ahfic-profile-v1");
  EXPECT_EQ(doc.get("samples").asNumber(),
            static_cast<double>(report.samples));

  // File emission: envelope + .folded sibling.
  const std::string path = ::testing::TempDir() + "ahfic_prof_test.json";
  obs::writeProfileFiles(report, path);
  {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text(1 << 20, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), f));
    std::fclose(f);
    const u::JsonValue env = u::parseJson(text);
    EXPECT_EQ(env.get("schema").asString(), "ahfic-bench-v1");
    EXPECT_EQ(env.get("name").asString(), "profile");
    EXPECT_EQ(env.get("payload").get("schema").asString(),
              "ahfic-profile-v1");
  }
  std::FILE* folded = std::fopen((path + ".folded").c_str(), "r");
  ASSERT_NE(folded, nullptr);
  std::fclose(folded);
  std::remove(path.c_str());
  std::remove((path + ".folded").c_str());

  // The capture is remembered for /v1/profile/latest.
  const std::string latest = obs::latestProfileJson();
  ASSERT_FALSE(latest.empty());
  EXPECT_EQ(u::parseJson(latest).get("name").asString(), "profile");
  const obs::LatestProfileInfo info = obs::latestProfileInfo();
  EXPECT_TRUE(info.present);
  EXPECT_EQ(info.samples, report.samples);

  // A fresh capture works after stop (sessions recycle rings).
  ASSERT_TRUE(obs::startProfiling());
  burnCpu(0.05);
  const obs::ProfileReport second = obs::stopProfiling();
  EXPECT_EQ(second.clock, "cpu");
  EXPECT_FALSE(obs::profilingActive());
}

TEST(ObsProf, TopSelfFrameIsTheInterruptedFunction) {
  // Each sample's leaf is the code the signal interrupted, not the
  // handler or the kernel's signal trampoline, so a busy loop profiled
  // on the CPU clock ranks first among self frames.
  ASSERT_TRUE(obs::startProfiling());
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < 0.4)
    ahficProfBusyLoop(1'000'000);
  const obs::ProfileReport report = obs::stopProfiling();
  ASSERT_GE(report.samples, 10);
  const u::JsonValue top = report.toJson().get("topSelf");
  ASSERT_GE(top.size(), 1u);
  EXPECT_EQ(top.at(0).get("symbol").asString(), "ahficProfBusyLoop")
      << report.collapsed();
}

TEST(ObsProf, ScopedProfileWritesOnDestruction) {
  const std::string path = ::testing::TempDir() + "ahfic_scoped_prof.json";
  {
    obs::ScopedProfile scope(path);
    ASSERT_TRUE(scope.active());
    // Nested scope is inert while the first runs — flags must not fight
    // the daemon's /v1/profile endpoint.
    obs::ScopedProfile nested(::testing::TempDir() + "never_written.json");
    EXPECT_FALSE(nested.active());
    burnCpu(0.05);
  }
  EXPECT_FALSE(obs::profilingActive());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
  std::remove((path + ".folded").c_str());
}

}  // namespace
