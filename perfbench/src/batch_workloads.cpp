// The two batch workloads, table1_ring and ft_montecarlo, plus the
// reference generator for their accuracy metric.
//
// A pass is one complete study: build the job list with the library's
// own job builders, run it on a fresh BatchRunner (default options),
// reduce. Traced passes run the same jobs, each wrapped in a span named
// after the layer call it makes, with the libraries' own tracer and
// metrics switched on: their spice and bjtgen spans are adopted into the
// pass's span tree (spans.h), and the batch's metrics window gives the
// factor counts.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bjtgen/generator.h"
#include "bjtgen/montecarlo.h"
#include "bjtgen/process.h"
#include "bjtgen/ringosc.h"
#include "bjtgen/shape.h"
#include "common.h"
#include "obs/metrics.h"
#include "runner/engine.h"
#include "runner/workloads.h"
#include "spans.h"
#include "spice/bjt.h"
#include "spice/sources.h"
#include "util/error.h"
#include "util/json.h"

namespace perfbench {

namespace {

namespace bg = ahfic::bjtgen;
namespace rn = ahfic::runner;
namespace sp = ahfic::spice;
namespace u = ahfic::util;

// table1_ring: the Table 1 transient settings of bench_table1_ring_osc.
constexpr double kWindowNs = 10.0;
constexpr double kStepPs = 3.0;
constexpr int kRingDies = 2;
constexpr int kRingThreads = 1;
// ft_montecarlo: Fig. 9 grid and peak scan of bench_fig9_ft_vs_ic, then
// the VAR1 die population at 3 mA.
constexpr double kPeakIcMin = 0.05e-3;
constexpr double kPeakIcMax = 40e-3;
constexpr int kPeakPoints = 19;
constexpr int kFtDies = 300;
constexpr double kFtDieIc = 3e-3;
constexpr int kFtThreads = 2;
// Reference settings (reference.json). The die-mean check uses one
// fixed population, so its error does not depend on --seed.
constexpr double kRefStepPs = 0.375;
constexpr int kRefPeakPoints = 73;
constexpr std::uint64_t kRefDieSeed = 1;

/// Tight solver tolerances for the accuracy references.
sp::AnalysisOptions tightOptions() {
  sp::AnalysisOptions o;
  o.reltol = 1e-6;
  o.vntol = 1e-9;
  o.abstol = 1e-15;
  return o;
}

std::vector<double> fig9Currents() {
  std::vector<double> currents;
  for (double ic = 0.05e-3; ic <= 20.001e-3; ic *= std::pow(10.0, 0.125))
    currents.push_back(ic);
  return currents;
}

rn::BatchResult runBatch(const std::vector<rn::Job>& jobs, int threads,
                         std::uint64_t seed, double* runSeconds) {
  rn::RunnerOptions ro;
  ro.threads = threads;
  ro.baseSeed = seed;
  rn::BatchRunner runner(ro);
  const double t0 = nowSeconds();
  rn::BatchResult batch = runner.run(jobs);
  *runSeconds = nowSeconds() - t0;
  return batch;
}

/// Wraps a job body in a span named after the layer call it makes.
/// `parentSlot` holds the id of the runner.run span once it is open.
void wrapJobs(std::vector<rn::Job>& jobs, const char* name,
              const int* parentSlot) {
  for (rn::Job& job : jobs) {
    job.run = [inner = std::move(job.run), name,
               parentSlot](rn::JobContext& ctx) {
      Span span(name, *parentSlot);
      return inner(ctx);
    };
  }
}

/// Counter delta over a batch; 0 when metrics were off during it.
long batchCounter(const rn::BatchResult& batch, const char* name) {
  const u::JsonValue& m = batch.manifest.metrics;
  if (!m.isObject() || !m.has("counters") || !m.get("counters").has(name))
    return 0;
  return static_cast<long>(m.get("counters").get(name).asNumber());
}

/// Work counts of one pass, from the runner's JobRecords and, on traced
/// passes, the batch's metrics window.
struct PassWork {
  long jobs = 0;
  long newton = 0;
  long accepted = 0;
  long rejected = 0;
  long retries = 0;
  long cacheHits = 0;
  long notOk = 0;
  long matrixSolves = 0;
  long refactors = 0;
  double jobWallMs = 0.0;
  std::vector<double> jobWalls;
};

PassWork passWork(const rn::BatchResult& batch) {
  PassWork w;
  for (const rn::JobOutcome& o : batch.outcomes) {
    const rn::JobRecord& r = o.record;
    ++w.jobs;
    w.newton += r.newtonIterations;
    w.accepted += r.acceptedSteps;
    w.rejected += r.rejectedSteps;
    w.retries += r.retries();
    w.cacheHits += r.cacheHit ? 1 : 0;
    w.notOk += o.ok() ? 0 : 1;
    w.jobWallMs += r.wallMs;
    w.jobWalls.push_back(r.wallMs);
  }
  w.matrixSolves = batchCounter(batch, "spice.matrix_solves");
  w.refactors = batchCounter(batch, "spice.sparse.refactors");
  return w;
}

/// Everything a workload's measured passes produce. Job statistics
/// come from untraced passes only; the traced run interleaves both.
struct Measured {
  std::vector<double> walls;        // untraced pass walls [s]
  std::vector<double> tracedWalls;  // traced pass walls [s]
  double runSeconds = 0.0;          // summed BatchRunner::run walls
  std::vector<double> bestJobMs;    // per job: fastest JobRecord.wallMs
  double jobWallMsSum = 0.0;
  long jobs = 0;
  long cacheHits = 0;
  long attempted = 0;
  long failed = 0;
  std::optional<PassWork> tracedWork;  // first traced pass
};

struct PassResult {
  rn::BatchResult batch;
  double runSeconds = 0.0;
};

bool sameResults(const std::vector<rn::JobOutcome>& a,
                 const std::vector<rn::JobOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (!(a[i].result == b[i].result)) return false;
  return true;
}

/// Runs passes until the time budget is spent (at least two). Untraced
/// runs measure every pass. The traced run alternates untraced and
/// traced passes, so both see the same machine state and their ratio is
/// the tracing overhead. Every pass must reproduce `warm` bit for bit.
Measured measurePasses(const Options& opts, Report& report,
                       const std::function<PassResult(bool traced)>& pass,
                       const std::vector<rn::JobOutcome>& warm) {
  Measured m;
  const double t0 = nowSeconds();
  for (long index = 0; index < 2 || nowSeconds() - t0 < opts.seconds;
       ++index) {
    const bool traced = opts.trace && index % 2 == 1;
    setTracing(traced, /*library=*/true);
    ahfic::obs::setMetricsEnabled(traced);
    const double p0 = nowSeconds();
    PassResult res;
    {
      Span root("bench.pass", -1, index);
      res = pass(traced);
    }
    const double wall = nowSeconds() - p0;
    setTracing(false);
    ahfic::obs::setMetricsEnabled(false);
    if (traced) adoptLibrarySpans();
    const PassWork w = passWork(res.batch);
    m.attempted += w.jobs;
    m.failed += w.notOk;
    if (!sameResults(res.batch.outcomes, warm))
      report.fail("pass " + std::to_string(index) +
                  " results differ from the warm-up pass");
    if (traced) {
      m.tracedWalls.push_back(wall);
      if (!m.tracedWork) m.tracedWork = w;
      continue;
    }
    m.walls.push_back(wall);
    m.runSeconds += res.runSeconds;
    if (m.bestJobMs.empty()) m.bestJobMs = w.jobWalls;
    for (size_t j = 0; j < m.bestJobMs.size() && j < w.jobWalls.size(); ++j)
      m.bestJobMs[j] = std::min(m.bestJobMs[j], w.jobWalls[j]);
    m.jobWallMsSum += w.jobWallMs;
    m.jobs += w.jobs;
    m.cacheHits += w.cacheHits;
  }
  return m;
}

/// Times are best-of-K over the run's passes: the fastest pass, and each
/// job's fastest execution, so a slow phase of a shared host does not
/// decide the figure (see README.md).
void reportEndToEnd(Report& report, const Measured& m,
                    const std::vector<double>& setups, double errPctValue) {
  const double best = *std::min_element(m.walls.begin(), m.walls.end());
  report.set("setup_s", median(setups));
  report.set("study_s", best);
  report.set("requests_per_s",
             static_cast<double>(m.bestJobMs.size()) / best);
  report.set("latency_p50_ms", median(m.bestJobMs));
  const TailPercentile tail = tailPercentile(m.bestJobMs);
  report.set("latency_p99_ms", tail.value);
  report.set("result_err_pct", errPctValue);
  report.set("peak_rss_mb", peakRssMb());
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "passes: %zu, fastest %.4f s, median %.4f s; latency over "
                "%zu jobs' best walls, tail percentile p%.2f",
                m.walls.size(), best, median(m.walls), m.bestJobMs.size(),
                tail.percentile);
  report.note(buf);
}

/// The per-layer figures both batch workloads share: layer self times
/// per traced pass, trace overhead, runner figures and the solver's work
/// counts of one traced pass.
void reportLayers(Report& report, const Measured& m, int threads,
                  const std::vector<SpanRecord>& spans) {
  const LayerBreakdown lb = reportSelfTimes(report, spans, "bench.pass");
  const double passes = static_cast<double>(lb.roots);
  report.set("obs.trace_overhead_pct",
             100.0 * (median(m.tracedWalls) / median(m.walls) - 1.0));
  report.set("runner.run_ms",
             spanTotals(spans)["runner.run"].seconds / passes * 1e3);
  report.set("runner.overhead_pct",
             100.0 * (1.0 - m.jobWallMsSum / 1e3 / (m.runSeconds * threads)));
  report.set("runner.cache_hit_ratio",
             static_cast<double>(m.cacheHits) / static_cast<double>(m.jobs));
  report.set("bench.latency_samples", static_cast<double>(m.bestJobMs.size()));
  report.set("bench.latency_tail_pct", tailPercentile(m.bestJobMs).percentile);

  const PassWork& w = *m.tracedWork;
  report.set("runner.retries", static_cast<double>(w.retries));
  report.set("spice.newton_iters", static_cast<double>(w.newton));
  // A solve that does not reuse a recorded factorization factors from
  // scratch (every dense solve, every pivoting sparse one).
  report.set("spice.full_factors",
             static_cast<double>(w.matrixSolves - w.refactors));
  report.set("spice.refactor_ratio",
             w.matrixSolves > 0 ? static_cast<double>(w.refactors) /
                                      static_cast<double>(w.matrixSolves)
                                : 0.0);
  const auto spice = lb.selfSeconds.find("spice");
  if (spice == lb.selfSeconds.end() || w.newton == 0) {
    report.fail("the traced passes recorded no solver time");
    return;
  }
  report.set("spice.ns_per_newton_iter",
             spice->second / passes * 1e9 / static_cast<double>(w.newton));
}

/// Mean duration of the spans named `name` [s]; fails the run when the
/// traced passes recorded none.
double meanSpanSeconds(Report& report,
                       std::map<std::string, SpanTotal>& totals,
                       const char* name) {
  const SpanTotal t = totals[name];
  if (t.count == 0) {
    report.fail(std::string("the traced passes recorded no ") + name +
                " span");
    return 0.0;
  }
  return t.seconds / static_cast<double>(t.count);
}

// ---------------------------------------------------------------- ring

/// The Table 1 inputs: generator, Table 1 base spec (followers fixed at
/// N1.2-6D) and the nominal VAR1 spec (N1.2-12D pairs).
struct RingInputs {
  bg::ModelGenerator gen;
  bg::RingOscillatorSpec base;
  bg::RingOscillatorSpec nominal;
};

RingInputs makeRingInputs() {
  RingInputs in{bg::ModelGenerator::withDefaultTechnology(), {}, {}};
  in.base.followerModel = in.gen.generate("N1.2-6D");
  in.nominal = in.base;
  in.nominal.diffPairModel = in.gen.generate("N1.2-12D");
  return in;
}

/// The six Table 1 shapes (their cards generated here) and the VAR1 dies.
std::vector<rn::Job> libraryRingJobs(const RingInputs& in) {
  std::vector<rn::Job> jobs;
  {
    Span span("bjtgen.generate");
    jobs = rn::ringShapeJobs(in.gen, bg::fig8Shapes(), in.base, kWindowNs,
                             kStepPs);
  }
  for (rn::Job& j : rn::monteCarloRingJobs(
           bg::defaultTechnology(), bg::ProcessVariation{}, kRingDies,
           in.nominal, "N1.2-12D", "N1.2-6D", kWindowNs, kStepPs))
    jobs.push_back(std::move(j));
  return jobs;
}

}  // namespace

Report runTable1Ring(const Options& opts) {
  Report report(opts.trace);
  const auto shapes = bg::fig8Shapes();

  // Setup: generator construction plus one warm-up pass, five times.
  std::vector<double> setups;
  std::vector<rn::JobOutcome> warm;
  std::optional<RingInputs> inputs;
  for (int k = 0; k < 5; ++k) {
    const double t0 = nowSeconds();
    inputs.emplace(makeRingInputs());
    double runSeconds = 0.0;
    warm = runBatch(libraryRingJobs(*inputs), kRingThreads, opts.seed,
                    &runSeconds)
               .outcomes;
    setups.push_back(nowSeconds() - t0);
  }

  int runSpan = -1;
  auto pass = [&](bool traced) {
    PassResult res;
    std::vector<rn::Job> jobs = libraryRingJobs(*inputs);
    // Die draws and waveform reduction are bjtgen work around the
    // library's bjtgen.ring_measure span.
    if (traced) wrapJobs(jobs, "bjtgen.ring_job", &runSpan);
    Span span("runner.run");
    runSpan = span.id();
    res.batch = runBatch(jobs, kRingThreads, opts.seed, &res.runSeconds);
    return res;
  };
  Measured m = measurePasses(opts, report, pass, warm);

  // Output checks on the warm-up pass (measured passes equal it).
  std::string best;
  double bestFreq = 0.0, worstErr = 0.0;
  long sixNewton = 0;
  for (size_t s = 0; s < shapes.size(); ++s) {
    const rn::JobOutcome& o = warm[s];
    sixNewton += o.record.newtonIterations;
    const double f = o.result.get("frequency");
    if (!o.ok() || o.result.get("oscillating") < 0.5) {
      report.fail("shape " + shapes[s].name() + " does not oscillate");
      continue;
    }
    if (f > bestFreq) {
      bestFreq = f;
      best = shapes[s].name();
    }
    const double ref =
        referenceValue(opts.referencePath, "table1_ring", shapes[s].name());
    worstErr = std::max(worstErr, errPct(f, ref));
    char buf[120];
    std::snprintf(buf, sizeof buf, "table1: %-10s %.6f GHz (reference %.6f)",
                  shapes[s].name().c_str(), f / 1e9, ref / 1e9);
    report.note(buf);
  }
  for (size_t d = shapes.size(); d < warm.size(); ++d)
    if (!warm[d].ok() || warm[d].result.get("oscillating") < 0.5)
      report.fail("Monte-Carlo die " + std::to_string(d - shapes.size()) +
                  " does not oscillate");
  if (best != "N1.2-12D")
    report.fail("best shape is '" + best + "', expected N1.2-12D");
  report.note("table1: best shape " + best + "; six Table 1 shapes: " +
              std::to_string(sixNewton) + " Newton iterations");

  report.attempted = m.attempted;
  report.failed = m.failed;
  if (!opts.trace) {
    reportEndToEnd(report, m, setups, worstErr);
    return report;
  }
  const std::vector<SpanRecord> spans = recordedSpans();
  auto totals = spanTotals(spans);
  const PassWork& w = *m.tracedWork;
  // The library's spans around Analyzer::transient and around the whole
  // measureRingFrequency call.
  const double tran = meanSpanSeconds(report, totals, "spice.transient");
  const double ring = meanSpanSeconds(report, totals, "bjtgen.ring_measure");
  report.set("spice.tran_ms", tran * 1e3);
  report.set("bjtgen.ring_measure_ms", (ring - tran) * 1e3);
  report.set("bjtgen.generate_us",
             meanSpanSeconds(report, totals, "bjtgen.generate") /
                 static_cast<double>(shapes.size()) * 1e6);
  report.set("spice.steps_accepted", static_cast<double>(w.accepted));
  report.set("spice.steps_rejected", static_cast<double>(w.rejected));
  report.set("spice.step_accept_ratio",
             static_cast<double>(w.accepted) / (w.accepted + w.rejected));
  report.set("spice.newton_per_step",
             static_cast<double>(w.newton) / (w.accepted + w.rejected));
  reportLayers(report, m, kRingThreads, spans);
  writeSpans(opts.spansDir + "/spans-table1_ring-" +
             std::to_string(opts.seed) + ".jsonl");
  return report;
}

// ------------------------------------------------------------------ fT

namespace {

struct FtInputs {
  bg::ModelGenerator gen;
  std::vector<bg::TransistorShape> shapes;
  std::vector<double> currents;
};

/// Job layout: Fig. 9 sweep (shape-major), peak per shape, dies,
/// corners (slow, typical, fast).
struct FtLayout {
  size_t sweep = 0;
  size_t peaks = 0;
  size_t dies = 0;
  size_t corners = 0;
};

std::vector<rn::Job> ftJobs(const FtInputs& in, FtLayout& layout,
                            const int* parentSlot) {
  const bool traced = parentSlot != nullptr;
  std::vector<rn::Job> sweep, peaks;
  {
    Span span("bjtgen.generate");
    sweep = rn::fig9SweepJobs(in.gen, in.shapes, in.currents);
    peaks = rn::ftPeakJobs(in.gen, in.shapes, kPeakIcMin, kPeakIcMax,
                           kPeakPoints);
  }
  std::vector<rn::Job> dies, corners;
  {
    Span span("runner.build_jobs");
    dies = rn::monteCarloFtJobs(bg::defaultTechnology(), bg::ProcessVariation{},
                                kFtDies, "N1.2-12D", kFtDieIc);
    corners = rn::cornerFtJobs(bg::defaultTechnology(), bg::ProcessVariation{},
                               "N1.2-12D", kFtDieIc);
  }
  if (traced) {
    wrapJobs(sweep, "bjtgen.ft_point", parentSlot);
    wrapJobs(peaks, "bjtgen.ft_peak", parentSlot);
    wrapJobs(dies, "bjtgen.ft_analytic", parentSlot);
    wrapJobs(corners, "bjtgen.ft_analytic", parentSlot);
  }
  layout = {sweep.size(), peaks.size(), dies.size(), corners.size()};
  std::vector<rn::Job> jobs;
  for (auto* part : {&sweep, &peaks, &dies, &corners})
    for (rn::Job& j : *part) jobs.push_back(std::move(j));
  return jobs;
}

/// Re-solves every Fig. 9 point with the benchmark's own Analyzer calls:
/// the voltage-driven bias cell at the reported Vbe must carry the
/// requested current, and the current-driven cell's AC h21 at ft/8 must
/// follow the single-pole roll-off the extraction assumes. An output
/// check only; it runs after the passes, untraced.
void probeFig9(const FtInputs& in, const std::vector<rn::JobOutcome>& outs,
               Report& report) {
  for (size_t s = 0; s < in.shapes.size(); ++s) {
    const sp::BjtModel card = in.gen.generate(in.shapes[s]);
    for (size_t k = 0; k < in.currents.size(); ++k) {
      const rn::JobOutcome& o = outs[s * in.currents.size() + k];
      if (o.result.has("skipped")) continue;
      const double ic = o.result.get("ic");
      const double vbe = o.result.get("vbe");
      const double ft = o.result.get("ft");
      double ib = 0.0;
      {
        sp::Circuit ckt;
        const int c = ckt.node("c"), b = ckt.node("b");
        auto& vb = ckt.add<sp::VSource>("VB", b, 0, vbe);
        auto& vc = ckt.add<sp::VSource>("VC", c, 0, 2.0);
        ckt.add<sp::Bjt>("Q1", ckt, c, b, 0, card);
        sp::Analyzer an(ckt);
        const std::vector<double> x = an.op();
        const sp::Solution sol(&x);
        if (errPct(-sol.at(vc.branchId()), ic) > 0.2)
          report.fail("Fig. 9 point " + in.shapes[s].name() + " #" +
                      std::to_string(k) + " is not at its bias current");
        ib = -sol.at(vb.branchId());
      }
      sp::Circuit ckt;
      const int c = ckt.node("c"), b = ckt.node("b");
      ckt.add<sp::ISource>("IB", 0, b, ib, /*acMag=*/1.0);
      auto& vc = ckt.add<sp::VSource>("VC", c, 0, 2.0);
      ckt.add<sp::Bjt>("Q1", ckt, c, b, 0, card);
      sp::Analyzer an(ckt);
      const std::vector<double> x = an.op();
      const sp::AcResult ac = an.ac({ft / 8.0}, x);
      const double h21 = std::abs(ac.unknown(0, vc.branchId()));
      if (errPct(h21 * ft / 8.0, ft) > 25.0)
        report.fail("Fig. 9 point " + in.shapes[s].name() + " #" +
                    std::to_string(k) + " fT disagrees with AC h21");
    }
  }
}

/// Mean fT of the reference die population solved with `options`;
/// throws when a die fails.
double monteCarloMeanFt(const sp::AnalysisOptions& options) {
  rn::RunnerOptions ro;
  ro.threads = kFtThreads;
  ro.baseSeed = kRefDieSeed;
  ro.ladder = rn::RetryLadder::none(options);
  rn::BatchRunner runner(ro);
  const auto batch = runner.run(rn::monteCarloFtJobs(
      bg::defaultTechnology(), bg::ProcessVariation{}, kFtDies, "N1.2-12D",
      kFtDieIc));
  double sum = 0.0;
  for (const rn::JobOutcome& o : batch.outcomes) {
    if (!o.ok()) throw ahfic::Error("reference die " + o.record.key + " failed");
    sum += o.result.get("ft");
  }
  return sum / static_cast<double>(batch.outcomes.size());
}

}  // namespace

Report runFtMonteCarlo(const Options& opts) {
  Report report(opts.trace);

  std::vector<double> setups;
  std::vector<rn::JobOutcome> warm;
  std::optional<FtInputs> inputs;
  FtLayout layout;
  // Setup as for table1_ring; a pass is short, so more repetitions.
  for (int k = 0; k < 21; ++k) {
    const double t0 = nowSeconds();
    inputs.emplace(FtInputs{bg::ModelGenerator::withDefaultTechnology(),
                            bg::fig9Shapes(), fig9Currents()});
    double runSeconds = 0.0;
    warm = runBatch(ftJobs(*inputs, layout, nullptr), kFtThreads, opts.seed,
                    &runSeconds)
               .outcomes;
    setups.push_back(nowSeconds() - t0);
  }

  int runSpan = -1;
  auto pass = [&](bool traced) {
    PassResult res;
    FtLayout l;
    std::vector<rn::Job> jobs =
        ftJobs(*inputs, l, traced ? &runSpan : nullptr);
    Span span("runner.run");
    runSpan = span.id();
    res.batch = runBatch(jobs, kFtThreads, opts.seed, &res.runSeconds);
    return res;
  };
  Measured m = measurePasses(opts, report, pass, warm);

  // Output checks on the warm-up pass.
  for (size_t i = 0; i < warm.size(); ++i)
    if (!warm[i].ok())
      report.fail("fT job " + warm[i].record.key + " failed");
  double worstErr = 0.0;
  std::vector<double> icPeaks;
  for (size_t s = 0; s < layout.peaks; ++s) {
    const rn::JobOutcome& o = warm[layout.sweep + s];
    const std::string name = inputs->shapes[s].name();
    const double ftPeak = o.result.get("ftPeak");
    const double ref = referenceValue(opts.referencePath, "fig9_peak", name);
    worstErr = std::max(worstErr, errPct(ftPeak, ref));
    icPeaks.push_back(o.result.get("icPeak"));
    char buf[140];
    std::snprintf(buf, sizeof buf,
                  "fig9: %-10s peak fT %.6f GHz (reference %.6f) at %.4f mA",
                  name.c_str(), ftPeak / 1e9, ref / 1e9,
                  icPeaks.back() * 1e3);
    report.note(buf);
  }
  for (size_t s = 1; s < icPeaks.size(); ++s) {
    const double ratio = icPeaks[s] / icPeaks[s - 1];
    if (ratio < 1.5 || ratio > 2.6)
      report.fail("peak-fT current of " + inputs->shapes[s].name() +
                  " is not ~2x the previous shape's");
  }
  const size_t dieFrom = layout.sweep + layout.peaks;
  const size_t cornerFrom = dieFrom + layout.dies;
  const double ftSlow = warm[cornerFrom].result.get("ft");
  const double ftTyp = warm[cornerFrom + 1].result.get("ft");
  const double ftFast = warm[cornerFrom + 2].result.get("ft");
  if (!(ftSlow < ftTyp && ftTyp < ftFast))
    report.fail("corner fT is not ordered slow < typical < fast");
  probeFig9(*inputs, warm, report);

  // The die mean of the fixed reference population against its
  // tight-tolerance value.
  {
    const double meanFt = monteCarloMeanFt(sp::AnalysisOptions{});
    const double ref = referenceValue(opts.referencePath, "mc_ft_mean",
                                      "N1.2-12D@3mA");
    worstErr = std::max(worstErr, errPct(meanFt, ref));
    char buf[120];
    std::snprintf(buf, sizeof buf,
                  "mc: reference population mean fT %.6f GHz (reference "
                  "%.6f)",
                  meanFt / 1e9, ref / 1e9);
    report.note(buf);
  }

  report.attempted = m.attempted;
  report.failed = m.failed;
  if (!opts.trace) {
    reportEndToEnd(report, m, setups, worstErr);
    return report;
  }
  const std::vector<SpanRecord> spans = recordedSpans();
  auto totals = spanTotals(spans);
  // The library's spans around Analyzer::op and Analyzer::ac, inside the
  // jobs' FtExtractor calls.
  report.set("spice.op_us", meanSpanSeconds(report, totals, "spice.op") * 1e6);
  report.set("spice.ac_us", meanSpanSeconds(report, totals, "spice.ac") * 1e6);
  // Sweep and peak jobs generate one card per shape each.
  report.set("bjtgen.generate_us",
             meanSpanSeconds(report, totals, "bjtgen.generate") /
                 (2.0 * static_cast<double>(inputs->shapes.size())) * 1e6);
  report.set("bjtgen.ft_point_us",
             meanSpanSeconds(report, totals, "bjtgen.ft_point") * 1e6);
  report.set("bjtgen.ft_peak_ms",
             meanSpanSeconds(report, totals, "bjtgen.ft_peak") * 1e3);
  report.set("bjtgen.ft_analytic_us",
             meanSpanSeconds(report, totals, "bjtgen.ft_analytic") * 1e6);
  reportLayers(report, m, kFtThreads, spans);
  writeSpans(opts.spansDir + "/spans-ft_montecarlo-" +
             std::to_string(opts.seed) + ".jsonl");
  return report;
}

// ------------------------------------------------------------ reference

int writeReference(const std::string& path) {
  const sp::AnalysisOptions tight = tightOptions();
  u::JsonValue doc = u::JsonValue::object();
  doc.set("schema", "ahfic-perfbench-reference-v1");
  doc.set("note",
          "The synthetic process is not validated against silicon: these "
          "values are the simulator's own refined solutions, so the "
          "benchmark's error metrics measure discretisation and tolerance "
          "error, not model error.");
  doc.set("command",
          "python3 perfbench/run.py --make-reference perfbench/reference.json");

  {
    const RingInputs in = makeRingInputs();
    rn::RunnerOptions ro;
    ro.threads = 4;
    rn::BatchRunner runner(ro);
    const auto shapes = bg::fig8Shapes();
    const auto batch = runner.run(
        rn::ringShapeJobs(in.gen, shapes, in.base, kWindowNs, kRefStepPs));
    u::JsonValue values = u::JsonValue::object();
    for (size_t s = 0; s < shapes.size(); ++s)
      values.set(shapes[s].name(), batch.outcomes[s].result.get("frequency"));
    u::JsonValue sec = u::JsonValue::object();
    sec.set("what", "Table 1 free-running frequency [Hz], six Fig. 8 shapes");
    sec.set("window_ns", kWindowNs);
    sec.set("step_cap_ps", kRefStepPs);
    sec.set("benchmark_step_cap_ps", kStepPs);
    sec.set("values", std::move(values));
    doc.set("table1_ring", std::move(sec));
  }
  {
    const auto gen = bg::ModelGenerator::withDefaultTechnology();
    const auto shapes = bg::fig9Shapes();
    rn::RunnerOptions ro;
    ro.threads = 4;
    ro.ladder = rn::RetryLadder::none(tight);
    rn::BatchRunner runner(ro);
    const auto batch = runner.run(
        rn::ftPeakJobs(gen, shapes, kPeakIcMin, kPeakIcMax, kRefPeakPoints));
    u::JsonValue values = u::JsonValue::object();
    for (size_t s = 0; s < shapes.size(); ++s)
      values.set(shapes[s].name(), batch.outcomes[s].result.get("ftPeak"));
    u::JsonValue sec = u::JsonValue::object();
    sec.set("what", "Fig. 9 peak fT [Hz] per shape");
    sec.set("scan_points", kRefPeakPoints);
    sec.set("benchmark_scan_points", kPeakPoints);
    sec.set("reltol", tight.reltol);
    sec.set("vntol", tight.vntol);
    sec.set("abstol", tight.abstol);
    sec.set("values", std::move(values));
    doc.set("fig9_peak", std::move(sec));
  }
  {
    u::JsonValue values = u::JsonValue::object();
    values.set("N1.2-12D@3mA", monteCarloMeanFt(tight));
    u::JsonValue sec = u::JsonValue::object();
    sec.set("what", "mean analytic fT [Hz] of 300 N1.2-12D dies at 3 mA, "
                    "runner base seed 1");
    sec.set("reltol", tight.reltol);
    sec.set("vntol", tight.vntol);
    sec.set("abstol", tight.abstol);
    sec.set("values", std::move(values));
    doc.set("mc_ft_mean", std::move(sec));
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  const std::string text = doc.dump(2) + "\n";
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace perfbench
