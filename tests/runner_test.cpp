// Batch runner: determinism across worker counts, retry escalation,
// cache behaviour (in-memory and on-disk), and manifest accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bjtgen/generator.h"
#include "bjtgen/montecarlo.h"
#include "runner/engine.h"
#include "runner/workloads.h"
#include "spice/bjt.h"
#include "spice/circuit.h"
#include "spice/sources.h"
#include "util/error.h"
#include "util/json.h"

namespace bg = ahfic::bjtgen;
namespace rn = ahfic::runner;
namespace sp = ahfic::spice;

namespace {

/// The Monte-Carlo workload of the acceptance criteria: >= 64 dies, one
/// cheap analytic-fT job each, all randomness from the job seed.
std::vector<rn::Job> mcJobs(int dies) {
  return rn::monteCarloFtJobs(bg::defaultTechnology(),
                              bg::ProcessVariation{}, dies, "N1.2-12D",
                              3e-3);
}

rn::BatchResult runWithThreads(const std::vector<rn::Job>& jobs,
                               int threads, bool useCache = false) {
  rn::RunnerOptions opts;
  opts.threads = threads;
  opts.baseSeed = 42;
  opts.useCache = useCache;
  rn::BatchRunner runner(opts);
  return runner.run(jobs);
}

void expectIdenticalBatches(const rn::BatchResult& a,
                            const rn::BatchResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t k = 0; k < a.outcomes.size(); ++k) {
    SCOPED_TRACE("job " + a.outcomes[k].record.key);
    EXPECT_EQ(a.outcomes[k].record.status, b.outcomes[k].record.status);
    ASSERT_EQ(a.outcomes[k].result.metrics.size(),
              b.outcomes[k].result.metrics.size());
    for (size_t m = 0; m < a.outcomes[k].result.metrics.size(); ++m) {
      EXPECT_EQ(a.outcomes[k].result.metrics[m].first,
                b.outcomes[k].result.metrics[m].first);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(a.outcomes[k].result.metrics[m].second,
                b.outcomes[k].result.metrics[m].second);
    }
  }
}

}  // namespace

TEST(RunnerSeeds, DerivedSeedsAreStableAndDecorrelated) {
  EXPECT_EQ(rn::deriveJobSeed(1, 0), rn::deriveJobSeed(1, 0));
  EXPECT_NE(rn::deriveJobSeed(1, 0), rn::deriveJobSeed(1, 1));
  EXPECT_NE(rn::deriveJobSeed(1, 0), rn::deriveJobSeed(2, 0));
}

TEST(RunnerDeterminism, MonteCarlo64DiesIdenticalAcross1And2And8Threads) {
  const auto jobs = mcJobs(64);
  const auto serial = runWithThreads(jobs, 1);
  const auto two = runWithThreads(jobs, 2);
  const auto eight = runWithThreads(jobs, 8);

  ASSERT_EQ(serial.outcomes.size(), 64u);
  EXPECT_EQ(serial.manifest.threads, 1);
  EXPECT_EQ(two.manifest.threads, 2);
  EXPECT_EQ(eight.manifest.threads, 8);
  expectIdenticalBatches(serial, two);
  expectIdenticalBatches(serial, eight);

  // The dies genuinely differ from each other (the variation model is on).
  const double f0 = serial.outcomes[0].result.get("ft");
  const double f1 = serial.outcomes[1].result.get("ft");
  EXPECT_GT(f0, 1e9);
  EXPECT_NE(f0, f1);
}

TEST(RunnerDeterminism, Fig9SweepIdenticalAcrossThreadCounts) {
  const auto gen = bg::ModelGenerator::withDefaultTechnology();
  const auto jobs =
      rn::fig9SweepJobs(gen, bg::fig9Shapes(), {0.5e-3, 2e-3, 8e-3});
  const auto serial = runWithThreads(jobs, 1);
  const auto four = runWithThreads(jobs, 4);
  expectIdenticalBatches(serial, four);
  // Spot-check physics: fT at 2 mA is in the GHz range for every shape.
  for (size_t s = 0; s < bg::fig9Shapes().size(); ++s)
    EXPECT_GT(serial.outcomes[s * 3 + 1].result.get("ft"), 1e9);
}

TEST(RunnerRetry, HardOpRecoversOnLadderAndFailureStaysContained) {
  // A real circuit job that genuinely fails at rung 0: with a single
  // Newton iteration per solve, no nonlinear circuit can ever satisfy the
  // (converged && iter > 0) acceptance rule, so plain Newton, gmin
  // stepping, and source stepping all exhaust. The standard options of
  // the next rung solve it.
  sp::AnalysisOptions strangled;
  strangled.maxNewtonIters = 1;
  rn::RetryLadder ladder({{"strangled", strangled},
                          {"standard", sp::AnalysisOptions{}}});

  auto makeOpJob = [](const std::string& key) {
    rn::Job job;
    job.key = key;
    job.run = [](rn::JobContext& ctx) {
      sp::Circuit ckt;
      const int c = ckt.node("c"), b = ckt.node("b");
      ckt.add<sp::VSource>("VB", b, 0, 0.85);
      ckt.add<sp::VSource>("VC", c, 0, 2.0);
      ckt.add<sp::Bjt>("Q1", ckt, c, b, 0, sp::BjtModel{});
      sp::Analyzer an(ckt, ctx.options);
      const auto x = an.op();
      ctx.noteStats(an.stats());
      rn::JobResult r;
      r.set("vc", x[static_cast<size_t>(c - 1)]);
      return r;
    };
    return job;
  };

  // One recoverable job, one unconditionally-failing job, one easy job:
  // the batch must complete with per-job statuses, no exception escaping.
  rn::Job doomed;
  doomed.key = "doomed";
  doomed.run = [](rn::JobContext&) -> rn::JobResult {
    throw ahfic::ConvergenceError("synthetic: never converges");
  };
  rn::Job broken;
  broken.key = "broken";
  broken.run = [](rn::JobContext&) -> rn::JobResult {
    throw ahfic::Error("synthetic: bad input");  // non-retryable
  };

  rn::RunnerOptions opts;
  opts.threads = 2;
  opts.ladder = ladder;
  opts.useCache = false;
  rn::BatchRunner runner(opts);
  const auto batch =
      runner.run({makeOpJob("hard-op"), doomed, broken,
                  makeOpJob("hard-op-2")});

  const auto& hard = batch.outcomes[0];
  EXPECT_EQ(hard.record.status, rn::JobStatus::kRecovered);
  EXPECT_EQ(hard.record.rung, 1);
  EXPECT_EQ(hard.record.rungName, "standard");
  EXPECT_EQ(hard.record.attempts, 2);
  EXPECT_GT(hard.record.newtonIterations, 0);
  EXPECT_NEAR(hard.result.get("vc"), 2.0, 1e-9);

  const auto& d = batch.outcomes[1];
  EXPECT_EQ(d.record.status, rn::JobStatus::kFailed);
  EXPECT_EQ(d.record.attempts, 2);  // tried every rung
  EXPECT_NE(d.record.error.find("never converges"), std::string::npos);

  const auto& b = batch.outcomes[2];
  EXPECT_EQ(b.record.status, rn::JobStatus::kFailed);
  EXPECT_EQ(b.record.attempts, 1);  // no pointless escalation

  EXPECT_EQ(batch.manifest.countWithStatus(rn::JobStatus::kRecovered), 2);
  EXPECT_EQ(batch.manifest.countWithStatus(rn::JobStatus::kFailed), 2);
  EXPECT_EQ(batch.manifest.totalRetries(), 3);
}

TEST(RunnerCache, RepeatedBatchHitsWithoutRecomputing) {
  // Execution counter shared by every job body: cache hits must not
  // re-enter the lambdas.
  auto counter = std::make_shared<std::atomic<int>>(0);
  std::vector<rn::Job> jobs;
  for (int k = 0; k < 6; ++k) {
    rn::Job job;
    job.key = "count/" + std::to_string(k % 3);  // 3 distinct keys
    job.run = [counter, k](rn::JobContext&) {
      ++*counter;
      rn::JobResult r;
      r.set("value", (k % 3) * 10.0);
      return r;
    };
    jobs.push_back(std::move(job));
  }

  rn::RunnerOptions opts;
  opts.threads = 1;  // serial: duplicate keys hit within the batch too
  rn::BatchRunner runner(opts);
  const auto first = runner.run(jobs);
  EXPECT_EQ(counter->load(), 3);
  EXPECT_EQ(first.manifest.cacheHits(), 3);

  const auto second = runner.run(jobs);
  EXPECT_EQ(counter->load(), 3);  // nothing recomputed
  EXPECT_EQ(second.manifest.cacheHits(), 6);
  for (size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_TRUE(second.outcomes[k].record.cacheHit);
    EXPECT_EQ(second.outcomes[k].result.get("value"),
              first.outcomes[k].result.get("value"));
  }
}

TEST(RunnerCache, SeededJobsDoNotAliasAcrossBaseSeeds) {
  const auto jobs = mcJobs(4);
  rn::RunnerOptions opts;
  opts.threads = 1;
  opts.baseSeed = 1;
  rn::BatchRunner r1(opts);
  const auto a = r1.run(jobs);
  opts.baseSeed = 2;
  rn::BatchRunner r2(opts);
  const auto b = r2.run(jobs);
  // Different base seed -> different dies; a shared cache must not serve
  // seed-1 results for seed-2 (distinct effective keys).
  EXPECT_NE(a.outcomes[0].result.get("ft"), b.outcomes[0].result.get("ft"));
}

TEST(RunnerCache, DiskRoundTripReproducesBitIdenticalResults) {
  const std::string path = "runner_test_cache.json";
  std::remove(path.c_str());

  const auto jobs = mcJobs(8);
  rn::RunnerOptions opts;
  opts.threads = 2;
  opts.baseSeed = 7;
  opts.cacheFile = path;
  rn::BatchRunner writer(opts);
  const auto computed = writer.run(jobs);

  // A fresh runner process loads the file and serves every job from it.
  rn::BatchRunner reader(opts);
  const auto cached = reader.run(jobs);
  EXPECT_EQ(cached.manifest.cacheHits(), 8);
  expectIdenticalBatches(computed, cached);
  std::remove(path.c_str());
}

TEST(RunnerManifest, JsonExportIsParseableAndAccurate) {
  const auto jobs = mcJobs(5);
  const auto batch = runWithThreads(jobs, 2);
  const auto doc = ahfic::util::parseJson(batch.manifest.toJsonString());

  EXPECT_EQ(doc.get("schema").asString(), "ahfic-run-manifest-v1");
  EXPECT_EQ(doc.get("threads").asNumber(), 2.0);
  EXPECT_EQ(doc.get("jobs").size(), 5u);
  EXPECT_EQ(doc.get("aggregate").get("jobs").asNumber(), 5.0);
  EXPECT_EQ(doc.get("aggregate").get("ok").asNumber(), 5.0);
  EXPECT_EQ(doc.get("aggregate").get("failed").asNumber(), 0.0);
  EXPECT_GT(doc.get("aggregate").get("newtonIterations").asNumber(), 0.0);
  EXPECT_GT(doc.get("wallMs").asNumber(), 0.0);
  const auto& job0 = doc.get("jobs").at(0);
  EXPECT_EQ(job0.get("status").asString(), "ok");
  EXPECT_GT(job0.get("newtonIterations").asNumber(), 0.0);
  EXPECT_NE(job0.get("key").asString().find("mc-ft/die0"),
            std::string::npos);

  // First-try successes still carry explicit retry fields, so downstream
  // parsers never need null-handling.
  for (size_t k = 0; k < doc.get("jobs").size(); ++k) {
    const auto& j = doc.get("jobs").at(k);
    ASSERT_TRUE(j.has("retries"));
    ASSERT_TRUE(j.has("rungName"));
    EXPECT_EQ(j.get("retries").asNumber(), 0.0);
    EXPECT_EQ(j.get("rungName").asString(), "default");
  }
}

TEST(RunnerWorkloads, IrrYieldChunkingMatchesLayoutAndIsDeterministic) {
  const std::vector<rn::IrrYieldCorner> corners = {{1.0, 0.01},
                                                   {4.0, 0.04}};
  const auto jobs = rn::irrYieldJobs(corners, 30.0, 1000, 4);
  ASSERT_EQ(jobs.size(), 8u);

  const auto serial = runWithThreads(jobs, 1);
  const auto parallel = runWithThreads(jobs, 8);
  expectIdenticalBatches(serial, parallel);

  const auto yields = rn::reduceIrrYield(serial.outcomes, 2, 4);
  ASSERT_EQ(yields.size(), 2u);
  EXPECT_EQ(yields[0].samples, 1000);
  EXPECT_EQ(yields[1].samples, 1000);
  // Tighter mismatch -> better yield, by a wide margin.
  EXPECT_GT(yields[0].yield(), yields[1].yield());
  EXPECT_GT(yields[0].yield(), 0.9);
}

TEST(RunnerWorkloads, CornerJobsBracketTypical) {
  const auto jobs = rn::cornerFtJobs(bg::defaultTechnology(),
                                     bg::ProcessVariation{}, "N1.2-12D",
                                     3e-3);
  ASSERT_EQ(jobs.size(), 3u);
  const auto batch = runWithThreads(jobs, 2);
  ASSERT_TRUE(batch.outcomes[0].ok());
  ASSERT_TRUE(batch.outcomes[1].ok());
  ASSERT_TRUE(batch.outcomes[2].ok());
  const double slow = batch.outcomes[0].result.get("ft");
  const double typical = batch.outcomes[1].result.get("ft");
  const double fast = batch.outcomes[2].result.get("ft");
  EXPECT_LT(slow, typical);
  EXPECT_LT(typical, fast);
}

TEST(RunnerWorkloads, BatchedMonteCarloFtMatchesScalarUnderDefaults) {
  // The batched data plane and the scalar one-job-per-die pipeline must
  // report hex-float-identical per-die fT and VBE with nothing but the
  // shared base seed configured: the scalar jobs' Analyzers and the
  // ReplicaBatch run the same solver under default options.
  const int dies = 10;
  const rn::RunnerOptions opts;
  const auto scalarJobs =
      rn::monteCarloFtJobs(bg::defaultTechnology(), bg::ProcessVariation{},
                           dies, "N1.2-12D", 3e-3);
  const auto batchJobs = rn::monteCarloFtBatchJobs(
      bg::defaultTechnology(), bg::ProcessVariation{}, dies, "N1.2-12D",
      3e-3, 4, opts.baseSeed);
  const auto scalar = rn::BatchRunner(opts).run(scalarJobs);
  const auto batched = rn::BatchRunner(opts).run(batchJobs);
  ASSERT_EQ(scalar.outcomes.size(), static_cast<size_t>(dies));
  ASSERT_EQ(batched.outcomes.size(), 3u);

  const auto hex = [](double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return std::string(buf);
  };
  for (int d = 0; d < dies; ++d) {
    SCOPED_TRACE("die " + std::to_string(d));
    const auto& s = scalar.outcomes[static_cast<size_t>(d)];
    const auto& b = batched.outcomes[static_cast<size_t>(d / 4)];
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(b.ok());
    const std::string tag = "die" + std::to_string(d);
    ASSERT_TRUE(b.result.has(tag + "/ft"));
    EXPECT_EQ(hex(s.result.get("ft")), hex(b.result.get(tag + "/ft")));
    EXPECT_EQ(hex(s.result.get("vbe")), hex(b.result.get(tag + "/vbe")));
  }
}
