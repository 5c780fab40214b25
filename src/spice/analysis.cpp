#include "spice/analysis.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spice/forensics.h"
#include "spice/sources.h"
#include "util/error.h"

namespace ahfic::spice {

std::vector<double> TranResult::voltage(int node) const {
  return unknown(node);
}

std::vector<double> TranResult::unknown(int id) const {
  std::vector<double> out(values.size());
  for (size_t k = 0; k < values.size(); ++k)
    out[k] = (id <= 0) ? 0.0 : values[k][static_cast<size_t>(id - 1)];
  return out;
}

std::complex<double> AcResult::voltage(size_t point, int node) const {
  return unknown(point, node);
}

std::complex<double> AcResult::unknown(size_t point, int id) const {
  if (id <= 0) return {0.0, 0.0};
  return values[point][static_cast<size_t>(id - 1)];
}

double AcResult::magnitudeDb(size_t point, int node) const {
  const double mag = std::abs(voltage(point, node));
  return mag < 1e-300 ? -6000.0 : 20.0 * std::log10(mag);
}

double DcSweepResult::voltage(size_t point, int node) const {
  return unknown(point, node);
}

double DcSweepResult::unknown(size_t point, int id) const {
  if (id <= 0) return 0.0;
  return values[point][static_cast<size_t>(id - 1)];
}

std::vector<double> logspace(double fStart, double fStop,
                             int pointsPerDecade) {
  if (fStart <= 0.0 || fStop <= fStart || pointsPerDecade < 1)
    throw Error("logspace: bad range");
  std::vector<double> out;
  const double decades = std::log10(fStop / fStart);
  const int n = std::max(1, static_cast<int>(
                                std::ceil(decades * pointsPerDecade)));
  for (int i = 0; i <= n; ++i)
    out.push_back(fStart * std::pow(10.0, decades * i / n));
  return out;
}

std::vector<double> linspace(double start, double stop, int points) {
  if (points < 2) return {start};
  std::vector<double> out(static_cast<size_t>(points));
  for (int i = 0; i < points; ++i)
    out[static_cast<size_t>(i)] =
        start + (stop - start) * i / (points - 1);
  return out;
}

Analyzer::~Analyzer() = default;

Analyzer::Analyzer(Circuit& ckt, AnalysisOptions opts)
    : ckt_(ckt), opts_(opts), core_(ckt) {
  if (opts_.forensics) {
    fx_ = std::make_unique<ForensicsRecorder>(opts_.forensicsDepth);
    // Any diag report born from this analyzer names its request.
    if (!opts_.traceId.empty()) fx_->setContext("trace_id", opts_.traceId);
  }
  const auto states = static_cast<size_t>(core_.stateCount());
  state_.assign(states, 0.0);
  statePrev_.assign(states, 0.0);
  dstatePrev_.assign(states, 0.0);
}

bool Analyzer::sparseIterate(const Solution& x, const LoadContext& ctx,
                             std::vector<double>& xNew) {
  ++stats_.matrixSolves;
  const bool timed = obs::metricsEnabled();
  const double tAssemble = timed ? MnaCore::nowNs() : 0.0;
  double deviceNs = 0.0;
  for (;;) {
    // Static baseline (linear-device matrix stamps) lands via memcpy;
    // linear devices with RHS or state work then contribute only that
    // (matrix-only ones are done), and nonlinear devices restamp in full
    // through their slot memos.
    stats_.sparsePatternInserts += core_.prepareStatic(x, ctx);
    vals_ = core_.staticValues();
    rhs_.assign(static_cast<size_t>(unknownCount()), 0.0);
    const double tDevice = timed ? MnaCore::nowNs() : 0.0;
    RhsOnlyStamper rhsOnly(rhs_);
    for (Device* dev : core_.rhsDevices()) dev->load(rhsOnly, x, ctx);
    CsrStamper cs(core_.pattern(), vals_, rhs_, &pending_);
    for (Device* dev : core_.nonlinearDevices()) dev->load(cs, x, ctx);
    if (timed) deviceNs += MnaCore::nowNs() - tDevice;
    if (pending_.empty()) break;
    stats_.sparsePatternInserts += core_.grow(pending_);
  }
  const double tFactor = timed ? MnaCore::nowNs() : 0.0;
  SparseLU<double>& lu = core_.lu();
  switch (lu.factor(vals_)) {
    case SparseLU<double>::FactorOutcome::kSingular:
      lastSingularUnknown_ = lu.lastSingularColumn() >= 0
                                 ? lu.lastSingularColumn() + 1
                                 : 0;
      return false;
    case SparseLU<double>::FactorOutcome::kFullFactor:
      ++stats_.sparseFullFactors;
      break;
    case SparseLU<double>::FactorOutcome::kRefactor:
      ++stats_.sparseRefactors;
      break;
  }
  const double tSolve = timed ? MnaCore::nowNs() : 0.0;
  lu.solve(rhs_, xNew);
  if (timed) {
    static const obs::Histogram hAssemble =
        obs::histogram("spice.sparse.assemble_ns");
    static const obs::Histogram hFactor =
        obs::histogram("spice.sparse.factor_ns");
    static const obs::Histogram hSolve =
        obs::histogram("spice.sparse.solve_ns");
    static const obs::Histogram hDevice =
        obs::histogram("spice.newton.device_eval_ns");
    const double tEnd = MnaCore::nowNs();
    hAssemble.observe(tFactor - tAssemble);
    hFactor.observe(tSolve - tFactor);
    hSolve.observe(tEnd - tSolve);
    hDevice.observe(deviceNs);
  }
  return true;
}

void Analyzer::beginCall() {
  // Device values may have changed since the last call (e.g.
  // Resistor::setResistance), so the linear baseline is rebuilt.
  core_.invalidateStatic();
  stats_ = AnalyzerStats{};
  published_ = AnalyzerStats{};
  lastSingularUnknown_ = 0;
  if (fx_) fx_->reset();
}

void Analyzer::throwConvergence(const char* stage, double stageValue,
                                const std::string& message) {
  // Single chokepoint for every convergence failure in the analyzer —
  // one log line per failure, carrying the stage and the correlation id
  // when the solve was daemon-born.
  static const obs::LogSite sFail =
      obs::logSite(obs::LogLevel::kWarn, "spice.convergence_failure", 50);
  if (sFail) {
    obs::LogLine line = sFail.log("analysis did not converge");
    line.str("analysis", analysisLabel_)
        .str("stage", stage)
        .num("stageValue", stageValue);
    if (!opts_.traceId.empty()) line.str("request_id", opts_.traceId);
  }
  if (!fx_) throw ConvergenceError(message);
  const DiagReport report =
      buildDiagReport(ckt_, *fx_, analysisLabel_, stage, stageValue, message,
                      unknownCount(), lastSingularUnknown_);
  if (obs::metricsEnabled()) {
    static const obs::Counter cReports = obs::counter("diag.reports");
    cReports.add(1);
  }
  throw ConvergenceError(
      message, std::make_shared<const std::string>(report.toJson().dump(2)));
}

void Analyzer::publishStats(const char* analysis) {
  const AnalyzerStats delta{
      stats_.newtonIterations - published_.newtonIterations,
      stats_.matrixSolves - published_.matrixSolves,
      stats_.acceptedSteps - published_.acceptedSteps,
      stats_.rejectedSteps - published_.rejectedSteps,
      stats_.gminSteps - published_.gminSteps,
      stats_.sourceSteps - published_.sourceSteps,
      stats_.sparsePatternInserts - published_.sparsePatternInserts,
      stats_.sparseFullFactors - published_.sparseFullFactors,
      stats_.sparseRefactors - published_.sparseRefactors,
  };
  published_ = stats_;
  if (!obs::metricsEnabled()) return;
  static const obs::Counter cNewton =
      obs::counter("spice.newton_iterations");
  static const obs::Counter cSolves = obs::counter("spice.matrix_solves");
  static const obs::Counter cAccepted =
      obs::counter("spice.transient.steps_accepted");
  static const obs::Counter cRejected =
      obs::counter("spice.transient.steps_rejected");
  static const obs::Counter cGmin = obs::counter("spice.gmin_steps");
  static const obs::Counter cSource = obs::counter("spice.source_steps");
  static const obs::Counter cInserts =
      obs::counter("spice.sparse.pattern_inserts");
  static const obs::Counter cFull =
      obs::counter("spice.sparse.full_factors");
  static const obs::Counter cRefactor =
      obs::counter("spice.sparse.refactors");
  cNewton.add(delta.newtonIterations);
  cSolves.add(delta.matrixSolves);
  cAccepted.add(delta.acceptedSteps);
  cRejected.add(delta.rejectedSteps);
  cGmin.add(delta.gminSteps);
  cSource.add(delta.sourceSteps);
  cInserts.add(delta.sparsePatternInserts);
  cFull.add(delta.sparseFullFactors);
  cRefactor.add(delta.sparseRefactors);
  // Entry points are cold; a registry lookup per call is fine here. A
  // full registry must never fail the analysis itself.
  try {
    obs::counter(std::string("spice.analyses.") + analysis).add(1);
  } catch (const Error&) {
  }
}

Analyzer::NewtonOutcome Analyzer::newton(std::vector<double>& x,
                                         LoadContext& ctx) {
  // Runs once per solve (hundreds of times per transient): one combined
  // check before any span/handle setup keeps the disabled path flat.
  if (!obs::tracingEnabled() && !obs::metricsEnabled())
    return newtonInner(x, ctx);
  obs::ScopedSpan span("spice.newton", "spice");
  const bool timed = obs::metricsEnabled();
  const double tStart = timed ? MnaCore::nowNs() : 0.0;
  const NewtonOutcome out = newtonInner(x, ctx);
  span.note("iters", out.iterations);
  span.note("converged", out.converged ? 1.0 : 0.0);
  static const obs::Histogram hIters =
      obs::histogram("spice.newton.iterations");
  hIters.observe(out.iterations);
  if (timed) {
    // Whole-solve wall time: the denominator that makes the
    // device_eval_ns histogram a *share* (ahfic_client watch, /debug).
    static const obs::Histogram hWall =
        obs::histogram("spice.newton.wall_ns");
    hWall.observe(MnaCore::nowNs() - tStart);
  }
  return out;
}

Analyzer::NewtonOutcome Analyzer::newtonInner(std::vector<double>& x,
                                              LoadContext& ctx) {
  NewtonOutcome out;
  // The solve overwrites every entry of xNew, so the buffer is reused
  // across solves and swapped with x instead of copied.
  std::vector<double>& xNew = xNew_;
  xNew.resize(static_cast<size_t>(unknownCount()));

  {
    Solution sx(&x);
    for (const auto& dev : ckt_.devices()) dev->beginSolve(sx);
  }

  for (int iter = 0; iter < opts_.maxNewtonIters; ++iter) {
    ++stats_.newtonIterations;
    out.iterations = iter + 1;

    bool anyLimited = false;
    ctx.limited = &anyLimited;
    if (fx_) {
      fx_->limitScratch()->clear();
      ctx.limitLog = fx_->limitScratch();
    }
    const bool solved = sparseIterate(Solution(&x), ctx, xNew);
    ctx.limited = nullptr;
    ctx.limitLog = nullptr;

    if (!solved) {
      // Singular system: record the failing pivot's unknown so the
      // report can name the floating node, then give up on this solve.
      if (fx_)
        fx_->recordIteration(0.0, 0.0, lastSingularUnknown_, anyLimited,
                             /*singular=*/true);
      return out;
    }

    // Convergence: every unknown moved less than its tolerance, and no
    // device had to limit its junction voltage this iteration. The
    // forensics path scans every unknown so the worst-offender
    // attribution covers them all; the regular path exits early.
    bool converged = !anyLimited;
    if (fx_ == nullptr) {
      converged = converged && core_.converged(opts_, x, xNew);
    } else {
      const MnaCore::ConvergenceScan scan =
          core_.scanConvergence(opts_, x, xNew);
      converged = converged && scan.converged;
      fx_->recordIteration(scan.maxDelta, scan.worstRatio, scan.worstUnknown,
                           anyLimited, /*singular=*/false);
    }
    x.swap(xNew);
    // Linear circuits (no nonlinear devices) converge in one iteration.
    if (converged && (iter > 0 || core_.nonlinearDevices().empty())) {
      out.converged = true;
      return out;
    }
  }
  return out;
}

std::vector<double> Analyzer::opWithContext(LoadContext& ctx) {
  std::vector<double> x(static_cast<size_t>(unknownCount()), 0.0);
  // The last continuation stage that failed, for the diag report.
  const char* failStage = "newton";
  double failValue = opts_.gmin;

  // 1. Plain Newton from zero.
  ctx.gmin = opts_.gmin;
  ctx.srcScale = 1.0;
  {
    const NewtonOutcome nw = newton(x, ctx);
    if (fx_)
      fx_->recordContinuation("newton", opts_.gmin, nw.converged,
                              nw.iterations);
    if (nw.converged) return x;
  }

  // 2. Gmin stepping: solve with a large junction shunt, then relax it.
  {
    std::vector<double> xg(static_cast<size_t>(unknownCount()), 0.0);
    bool ok = true;
    for (double g = 1e-2; g >= opts_.gmin * 0.99; g /= 10.0) {
      ctx.gmin = g;
      ++stats_.gminSteps;
      const NewtonOutcome nw = newton(xg, ctx);
      if (fx_)
        fx_->recordContinuation("gmin-step", g, nw.converged, nw.iterations);
      if (!nw.converged) {
        failStage = "gmin-step";
        failValue = g;
        ok = false;
        break;
      }
    }
    ctx.gmin = opts_.gmin;
    if (ok) {
      const NewtonOutcome nw = newton(xg, ctx);
      if (fx_)
        fx_->recordContinuation("gmin-step", opts_.gmin, nw.converged,
                                nw.iterations);
      if (nw.converged) return xg;
      failStage = "gmin-step";
      failValue = opts_.gmin;
    }
  }

  // 3. Source stepping: ramp all independent sources from zero.
  {
    std::vector<double> xs(static_cast<size_t>(unknownCount()), 0.0);
    ctx.gmin = opts_.gmin;
    bool ok = true;
    for (double scale : {0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0}) {
      ctx.srcScale = scale;
      ++stats_.sourceSteps;
      const NewtonOutcome nw = newton(xs, ctx);
      if (fx_)
        fx_->recordContinuation("source-step", scale, nw.converged,
                                nw.iterations);
      if (!nw.converged) {
        failStage = "source-step";
        failValue = scale;
        ok = false;
        break;
      }
    }
    ctx.srcScale = 1.0;
    if (ok) return xs;
  }

  throwConvergence(failStage, failValue, "operating point did not converge");
}

std::vector<double> Analyzer::op() {
  obs::ScopedSpan span("spice.op", "spice");
  span.annotate("request_id", opts_.traceId);
  beginCall();
  analysisLabel_ = "op";
  // Open with a pivoting factorization, as a fresh Analyzer does, so a
  // reused Analyzer's op() reproduces a fresh one bit for bit.
  core_.lu().resetNumeric();
  LoadContext ctx;
  ctx.mode = AnalysisMode::kDcOp;
  ctx.c0 = 0.0;
  ctx.state = &state_;
  ctx.prevState = &statePrev_;
  ctx.prevDstate = &dstatePrev_;

  std::vector<double> x = opWithContext(ctx);

  // One extra load pass so the recorded charge states match the
  // converged solution (transient starts from these). Only the
  // integrate() side effects matter, so the stamps themselves are
  // discarded.
  {
    StateOnlyStamper st;
    const Solution sx(&x);
    for (const auto& dev : ckt_.devices()) dev->load(st, sx, ctx);
  }
  statePrev_ = state_;
  std::fill(dstatePrev_.begin(), dstatePrev_.end(), 0.0);
  publishStats("op");
  return x;
}

DcSweepResult Analyzer::dcSweep(const std::string& sourceName, double start,
                                double stop, double step) {
  if (step == 0.0 || (stop - start) * step < 0.0)
    throw Error("dcSweep: inconsistent range/step");
  Device* dev = ckt_.findDevice(sourceName);
  if (dev == nullptr)
    throw Error("dcSweep: no source named '" + sourceName + "'");
  auto* vs = dynamic_cast<VSource*>(dev);
  auto* is = dynamic_cast<ISource*>(dev);
  if (vs == nullptr && is == nullptr)
    throw Error("dcSweep: '" + sourceName + "' is not a V or I source");

  obs::ScopedSpan span("spice.dc_sweep", "spice");
  span.annotate("request_id", opts_.traceId);
  beginCall();
  analysisLabel_ = "dc_sweep";
  if (fx_) fx_->setContext("sweepSource", sourceName);
  LoadContext ctx;
  ctx.mode = AnalysisMode::kDcOp;
  ctx.state = &state_;
  ctx.prevState = &statePrev_;
  ctx.prevDstate = &dstatePrev_;

  DcSweepResult result;
  std::vector<double> x(static_cast<size_t>(unknownCount()), 0.0);
  bool first = true;
  const int nPoints =
      static_cast<int>(std::floor((stop - start) / step + 1.5));
  for (int k = 0; k < nPoints; ++k) {
    const double v = start + step * k;
    if (vs != nullptr)
      vs->setWaveform(std::make_unique<DcWaveform>(v));
    else
      is->setWaveform(std::make_unique<DcWaveform>(v));
    if (fx_) fx_->setContext("sweepValue", std::to_string(v));

    if (first) {
      x = opWithContext(ctx);
      first = false;
    } else {
      ctx.gmin = opts_.gmin;
      ctx.srcScale = 1.0;
      if (!newton(x, ctx).converged) {
        // Cold restart with full homotopy at this point.
        x = opWithContext(ctx);
      }
    }
    result.sweep.push_back(v);
    result.values.push_back(x);
  }
  span.note("points", static_cast<double>(result.sweep.size()));
  publishStats("dc_sweep");
  return result;
}

AcResult Analyzer::ac(const std::vector<double>& frequencies) {
  // The internal op() publishes its own slice; acLinear publishes the
  // sweep's. stats() afterwards covers both (one window, no reset
  // between them).
  const std::vector<double> xop = op();
  return acLinear(frequencies, xop, /*freshWindow=*/false);
}

AcResult Analyzer::ac(const std::vector<double>& frequencies,
                      const std::vector<double>& opSolution) {
  return acLinear(frequencies, opSolution, /*freshWindow=*/true);
}

void Analyzer::primeAcSparsePattern(const Solution& op) {
  if (patternAcPrimed_) return;
  // One structural pass at a representative frequency: every AC stamp is
  // either frequency-independent or scales with omega, so the touched
  // positions are the same at any omega > 0.
  std::vector<std::pair<int, int>> entries;
  AcPatternStamper ps(entries);
  for (const auto& dev : ckt_.devices()) dev->loadAc(ps, op, 1.0);
  patAc_.build(unknownCount(), std::move(entries));
  patternAcPrimed_ = true;
}

void Analyzer::acSparseFactor(const Solution& op, double omega,
                              const char* what) {
  primeAcSparsePattern(op);
  for (;;) {
    valsAc_.assign(patAc_.nonzeros(), {0.0, 0.0});
    rhsAc_.assign(static_cast<size_t>(unknownCount()), {0.0, 0.0});
    pendingAc_.clear();
    CsrAcStamper st(patAc_, valsAc_, rhsAc_, &pendingAc_);
    for (const auto& dev : ckt_.devices()) dev->loadAc(st, op, omega);
    if (pendingAc_.empty()) break;
    stats_.sparsePatternInserts += static_cast<long>(patAc_.grow(pendingAc_));
    pendingAc_.clear();
  }
  if (!luAc_.analyzedFor(patAc_.epoch())) luAc_.analyze(patAc_);
  switch (luAc_.factor(valsAc_)) {
    case SparseLU<std::complex<double>>::FactorOutcome::kSingular:
      throw Error(std::string(what) +
                  ": singular system at f = " +
                  std::to_string(omega / (2.0 * 3.14159265358979323846)));
    case SparseLU<std::complex<double>>::FactorOutcome::kFullFactor:
      ++stats_.sparseFullFactors;
      break;
    case SparseLU<std::complex<double>>::FactorOutcome::kRefactor:
      ++stats_.sparseRefactors;
      break;
  }
}

AcResult Analyzer::acLinear(const std::vector<double>& frequencies,
                            const std::vector<double>& opSolution,
                            bool freshWindow) {
  obs::ScopedSpan span("spice.ac", "spice");
  span.annotate("request_id", opts_.traceId);
  span.note("points", static_cast<double>(frequencies.size()));
  if (freshWindow) beginCall();
  analysisLabel_ = "ac";
  AcResult result;
  const Solution sop(&opSolution);
  // Pattern and ordering are computed once; every frequency point is a
  // refactorization + solve against the cached structure.
  for (double f : frequencies) {
    ++stats_.matrixSolves;
    const double omega = 2.0 * 3.14159265358979323846 * f;
    acSparseFactor(sop, omega, "ac");
    std::vector<std::complex<double>> x;
    luAc_.solve(rhsAc_, x);
    result.frequency.push_back(f);
    result.values.push_back(std::move(x));
  }
  publishStats("ac");
  return result;
}

double NoiseResult::totalVariance() const {
  double v = 0.0;
  for (size_t k = 1; k < frequency.size(); ++k)
    v += 0.5 * (outputPsd[k] + outputPsd[k - 1]) *
         (frequency[k] - frequency[k - 1]);
  return v;
}

double NoiseResult::rmsVoltage() const { return std::sqrt(totalVariance()); }

NoiseResult Analyzer::noise(const std::vector<double>& frequencies,
                            const std::string& outputNode,
                            const std::vector<double>& opSolution) {
  const int out = ckt_.findNode(outputNode);
  if (out <= 0)
    throw Error("noise: output node '" + outputNode + "' not found");
  if (frequencies.empty()) throw Error("noise: empty frequency list");

  obs::ScopedSpan span("spice.noise", "spice");
  span.annotate("request_id", opts_.traceId);
  span.note("points", static_cast<double>(frequencies.size()));
  beginCall();
  analysisLabel_ = "noise";

  Solution sop(&opSolution);
  const double tempK = ckt_.temperatureC() + 273.15;
  std::vector<NoiseSourceDesc> sources;
  for (const auto& dev : ckt_.devices())
    dev->appendNoise(sources, sop, tempK);

  NoiseResult result;
  result.frequency = frequencies;
  result.outputPsd.assign(frequencies.size(), 0.0);
  std::vector<double> perSourcePsd(sources.size());
  std::vector<double> perSourceVar(sources.size(), 0.0);
  std::vector<double> prevPerSourcePsd(sources.size(), 0.0);

  // The per-frequency factorization reuses the cached pattern and
  // ordering.
  const auto n = static_cast<size_t>(unknownCount());
  std::vector<std::complex<double>> rhs(n), x(n);
  for (size_t k = 0; k < frequencies.size(); ++k) {
    ++stats_.matrixSolves;
    const double f = frequencies[k];
    const double omega = 2.0 * 3.14159265358979323846 * f;
    acSparseFactor(sop, omega, "noise");

    // Transfer impedance from each source to the output, reusing the
    // factorisation.
    for (size_t si = 0; si < sources.size(); ++si) {
      const auto& src = sources[si];
      std::fill(rhs.begin(), rhs.end(), std::complex<double>{0.0, 0.0});
      if (src.a > 0) rhs[static_cast<size_t>(src.a - 1)] += 1.0;
      if (src.b > 0) rhs[static_cast<size_t>(src.b - 1)] -= 1.0;
      luAc_.solve(rhs, x);
      const double h2 = std::norm(x[static_cast<size_t>(out - 1)]);
      const double psd = h2 * src.psdAt(f);
      perSourcePsd[si] = psd;
      result.outputPsd[k] += psd;
    }
    if (k > 0) {
      const double df = frequencies[k] - frequencies[k - 1];
      for (size_t si = 0; si < sources.size(); ++si)
        perSourceVar[si] +=
            0.5 * (perSourcePsd[si] + prevPerSourcePsd[si]) * df;
    }
    prevPerSourcePsd = perSourcePsd;
  }
  // Single-point analyses cannot integrate; rank by spot PSD instead
  // (reported "variance" is then PSD * 1 Hz).
  if (frequencies.size() == 1) perSourceVar = perSourcePsd;

  for (size_t si = 0; si < sources.size(); ++si)
    result.contributions.push_back(
        {sources[si].label, perSourceVar[si]});
  std::sort(result.contributions.begin(), result.contributions.end(),
            [](const NoiseContribution& x, const NoiseContribution& y) {
              return x.variance > y.variance;
            });
  publishStats("noise");
  return result;
}

TranResult Analyzer::transient(double tstop, double maxStep,
                               double recordFrom) {
  if (tstop <= 0.0 || maxStep <= 0.0)
    throw Error("transient: tstop and maxStep must be > 0");
  obs::ScopedSpan span("spice.transient", "spice");
  span.annotate("request_id", opts_.traceId);

  // Initial condition: DC operating point (records charge states). op()
  // resets the stats window, so the whole transient — OP included — is
  // counted as one call. (It also labels the window "op": a failure
  // during the initial OP genuinely is an OP failure.)
  std::vector<double> x = op();
  analysisLabel_ = "transient";

  LoadContext ctx;
  ctx.mode = AnalysisMode::kTransient;
  ctx.state = &state_;
  ctx.prevState = &statePrev_;
  ctx.prevDstate = &dstatePrev_;
  ctx.gmin = opts_.gmin;

  const bool trap = (opts_.method == IntegMethod::kTrapezoidal);

  TranResult result;
  if (recordFrom <= 0.0) {
    result.time.push_back(0.0);
    result.values.push_back(x);
  }

  double t = 0.0;
  double h = maxStep * opts_.tranInitialStepFraction;
  const double hMin = maxStep * 1e-9;
  bool firstStep = true;

  std::vector<double> dstate(static_cast<size_t>(core_.stateCount()), 0.0);

  while (t < tstop - 1e-18) {
    h = std::min(h, tstop - t);
    bool accepted = false;
    int retries = 0;
    while (!accepted) {
      const double tNew = t + h;
      // First step is backward Euler (no dq/dt history yet beyond the
      // OP's zero, which BE does not need). Later steps use damped
      // trapezoidal: d = 0 is pure trap, d = 1 is BE.
      const bool useTrap = trap && !firstStep;
      const double d = std::clamp(opts_.trapDamping, 0.0, 1.0);
      ctx.time = tNew;
      ctx.c0 = (useTrap ? 2.0 / (1.0 + d) : 1.0) / h;
      ctx.trapFactor = useTrap ? (1.0 - d) / (1.0 + d) : 0.0;

      xTry_ = x;  // predictor: previous value
      const NewtonOutcome nw = newton(xTry_, ctx);
      if (fx_) fx_->recordStep(tNew, h, nw.converged, nw.iterations);
      if (nw.converged) {
        accepted = true;
        ++stats_.acceptedSteps;
        // Differentiate states under the accepted rule.
        for (int i = 0; i < core_.stateCount(); ++i) {
          const auto si = static_cast<size_t>(i);
          dstate[si] = ctx.c0 * (state_[si] - statePrev_[si]) -
                       ctx.trapFactor * dstatePrev_[si];
        }
        statePrev_ = state_;
        dstatePrev_ = dstate;
        x.swap(xTry_);  // the next attempt overwrites xTry_ from x
        t = tNew;
        firstStep = false;
        if (t >= recordFrom) {
          result.time.push_back(t);
          result.values.push_back(x);
        }
        // Step growth on easy convergence.
        if (nw.iterations <= 5)
          h = std::min(h * 1.4, maxStep);
        else if (nw.iterations > opts_.maxNewtonIters / 2)
          h = std::max(h * 0.6, hMin);
      } else {
        ++stats_.rejectedSteps;
        h *= 0.5;
        if (h < hMin || ++retries > opts_.maxStepRetries)
          throwConvergence(
              "transient-step", t,
              "transient: step rejected below minimum step at t = " +
                  std::to_string(t));
      }
    }
  }
  span.note("accepted", static_cast<double>(stats_.acceptedSteps));
  span.note("rejected", static_cast<double>(stats_.rejectedSteps));
  publishStats("transient");
  return result;
}

}  // namespace ahfic::spice
