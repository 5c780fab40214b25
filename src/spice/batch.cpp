#include "spice/batch.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "obs/metrics.h"
#include "spice/bjt.h"
#include "spice/diode.h"
#include "spice/gummel.h"
#include "spice/junction.h"
#include "spice/stamp.h"
#include "util/error.h"

namespace {

double nowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

namespace ahfic::spice {

// One Gummel-Poon transistor position shared by every replica: its node
// ids, replica 0's recorded DC stamp plan (valid for the shared pattern)
// and one row per replica of parameters, limiting history and the
// phase-1 stamp scalars phase 2 writes.
struct ReplicaBatch::BjtTable {
  BjtNodes nodes;
  StampPlan plan;
  struct Replica {
    GummelPoonParams gp;
    double pol, vcritE, vcritC, grc, gre;
    double vbeLim, vbcLim;  ///< reset to the x = 0 seed at each op()
    GummelPoonStamp out;
  };
  std::vector<Replica> rep;
};

struct ReplicaBatch::DiodeTable {
  int a, c, aInt;
  StampPlan plan;
  struct Replica {
    double isArea, vte, vcrit, grs;
    double vLim;
    DiodeStamp out;
  };
  std::vector<Replica> rep;
};

ReplicaBatch::~ReplicaBatch() = default;

void ReplicaBatch::buildLayoutFor(Circuit& ckt, std::vector<Device*>& linear,
                                  std::vector<Device*>& rhs,
                                  std::vector<Device*>& nonlinear,
                                  int& unknowns, int& states) const {
  // Mirrors Analyzer::buildLayout exactly: branch/state bases assigned in
  // device order, ground excluded from the unknown count.
  int nextBranch = ckt.nodeCount();
  int nextState = 0;
  for (const auto& dev : ckt.devices()) {
    if (dev->branchCount() > 0) {
      dev->assignBranchBase(nextBranch);
      nextBranch += dev->branchCount();
    }
    if (dev->stateCount() > 0) {
      dev->assignStateBase(nextState);
      nextState += dev->stateCount();
    }
    if (dev->isNonlinear()) {
      nonlinear.push_back(dev.get());
    } else {
      linear.push_back(dev.get());
      if (!dev->matrixOnly()) rhs.push_back(dev.get());
    }
  }
  unknowns = nextBranch - 1;
  states = nextState;
}

void ReplicaBatch::primePatternFor(Circuit& ckt, CsrPattern& pat,
                                   int unknowns, int states) const {
  // Mirrors Analyzer::primeSparsePattern: every device recorded under a
  // DC and a transient context, so the pattern (and hence the symbolic
  // analysis and its pivot choices) is identical to the scalar path's.
  std::vector<std::pair<int, int>> entries;
  PatternStamper ps(entries);
  std::vector<double> zeros(static_cast<size_t>(unknowns), 0.0);
  Solution sx(&zeros);
  std::vector<double> st(static_cast<size_t>(states), 0.0);
  std::vector<double> stPrev(static_cast<size_t>(states), 0.0);
  std::vector<double> dstPrev(static_cast<size_t>(states), 0.0);
  LoadContext ctx;
  ctx.state = &st;
  ctx.prevState = &stPrev;
  ctx.prevDstate = &dstPrev;
  ctx.mode = AnalysisMode::kDcOp;
  ctx.c0 = 0.0;
  for (const auto& dev : ckt.devices()) dev->load(ps, sx, ctx);
  ctx.mode = AnalysisMode::kTransient;
  ctx.c0 = 1.0;
  for (const auto& dev : ckt.devices()) dev->load(ps, sx, ctx);
  pat.build(unknowns, std::move(entries));
}

ReplicaBatch::ReplicaBatch(std::vector<std::unique_ptr<Circuit>> replicas,
                           Options opts)
    : opts_(opts), circuits_(std::move(replicas)) {
  if (circuits_.empty()) throw Error("ReplicaBatch: no replicas");
  if (opts_.analysis.forensics)
    throw Error("ReplicaBatch: convergence forensics is not supported");

  const size_t R = circuits_.size();
  linearDevs_.resize(R);
  rhsDevs_.resize(R);
  nonlinearDevs_.resize(R);
  for (size_t r = 0; r < R; ++r) {
    int unknowns = 0, states = 0;
    buildLayoutFor(*circuits_[r], linearDevs_[r], rhsDevs_[r],
                   nonlinearDevs_[r], unknowns, states);
    if (r == 0) {
      unknownCount_ = unknowns;
      stateCount_ = states;
    } else if (unknowns != unknownCount_ || states != stateCount_ ||
               linearDevs_[r].size() != linearDevs_[0].size() ||
               nonlinearDevs_[r].size() != nonlinearDevs_[0].size()) {
      throw Error("ReplicaBatch: replica " + std::to_string(r) +
                  " topology differs from replica 0 (layout)");
    }
  }

  // Shared pattern from replica 0; every other replica's primed pattern
  // must match it structurally — this is the topology-epoch check.
  primePatternFor(*circuits_[0], pat_, unknownCount_, stateCount_);
  for (size_t r = 1; r < R; ++r) {
    CsrPattern other;
    primePatternFor(*circuits_[r], other, unknownCount_, stateCount_);
    if (other.rowPtr() != pat_.rowPtr() || other.colIdx() != pat_.colIdx())
      throw Error("ReplicaBatch: replica " + std::to_string(r) +
                  " topology differs from replica 0 (sparsity pattern)");
  }

  // One symbolic analysis, shared; numeric state stays per replica.
  lu_.reserve(R);
  for (size_t r = 0; r < R; ++r)
    lu_.push_back(std::make_unique<SparseLU<double>>());
  lu_[0]->analyze(pat_);
  for (size_t r = 1; r < R; ++r) lu_[r]->adoptAnalysis(*lu_[0]);

  buildTables();
  computeStaticBaselines();

  x_.assign(R, std::vector<double>(static_cast<size_t>(unknownCount_), 0.0));
  xNew_ = x_;
  vals_.assign(pat_.nonzeros(), 0.0);
  rhs_.assign(static_cast<size_t>(unknownCount_), 0.0);
  stateScratch_.assign(static_cast<size_t>(stateCount_), 0.0);
  statePrevZero_ = stateScratch_;
  dstatePrevZero_ = stateScratch_;
}

void ReplicaBatch::buildTables() {
  const size_t R = circuits_.size();
  for (size_t j = 0; j < nonlinearDevs_[0].size(); ++j) {
    Device* d0 = nonlinearDevs_[0][j];
    const auto mismatch = [&](size_t r) {
      return Error("ReplicaBatch: replica " + std::to_string(r) +
                   " topology differs from replica 0 (device " + d0->name() +
                   ")");
    };
    if (auto* q0 = dynamic_cast<Bjt*>(d0)) {
      BjtTable t;
      t.nodes = q0->stampNodes();
      t.rep.resize(R);
      for (size_t r = 0; r < R; ++r) {
        auto* q = dynamic_cast<Bjt*>(nonlinearDevs_[r][j]);
        if (q == nullptr || q->stampNodes() != t.nodes) throw mismatch(r);
        t.rep[r] = {q->params(),        q->polarity(),      q->vcritE(),
                    q->vcritC(),        q->rcConductance(), q->reConductance(),
                    0.0,                0.0,                {}};
      }
      nonlinearOrder_.emplace_back(0, static_cast<int>(bjts_.size()));
      bjts_.push_back(std::move(t));
    } else if (auto* dd0 = dynamic_cast<Diode*>(d0)) {
      DiodeTable t;
      t.a = dd0->nodes()[0];
      t.c = dd0->nodes()[1];
      t.aInt = dd0->internalAnode();
      t.rep.resize(R);
      for (size_t r = 0; r < R; ++r) {
        auto* d = dynamic_cast<Diode*>(nonlinearDevs_[r][j]);
        if (d == nullptr || d->nodes() != dd0->nodes() ||
            d->internalAnode() != t.aInt)
          throw mismatch(r);
        t.rep[r] = {d->saturationCurrent(), d->vte(), d->vcrit(),
                    d->rsConductance(), 0.0, {}};
      }
      nonlinearOrder_.emplace_back(1, static_cast<int>(diodes_.size()));
      diodes_.push_back(std::move(t));
    } else {
      throw Error("ReplicaBatch: unsupported nonlinear device '" +
                  d0->name() + "' (only Bjt and Diode are batched)");
    }
  }
}

void ReplicaBatch::computeStaticBaselines() {
  // Mirrors Analyzer::prepareSparseStatic: linear-device matrix stamps
  // are candidate- and source-value-independent in DC, so one pass at
  // x = 0 per replica yields the baseline every Newton iteration
  // memcpy-restores. A pending (pattern-miss) position here would mean
  // the priming pass failed — that is a bug, not a growth event, because
  // the pattern is shared.
  const size_t R = circuits_.size();
  staticVals_.resize(R);
  std::vector<double> zeros(static_cast<size_t>(unknownCount_), 0.0);
  Solution sx(&zeros);
  std::vector<double> st(static_cast<size_t>(stateCount_), 0.0);
  std::vector<double> stPrev(static_cast<size_t>(stateCount_), 0.0);
  std::vector<double> dstPrev(static_cast<size_t>(stateCount_), 0.0);
  std::vector<double> scratchRhs(static_cast<size_t>(unknownCount_), 0.0);
  std::vector<std::pair<int, int>> pending;
  LoadContext ctx;
  ctx.mode = AnalysisMode::kDcOp;
  ctx.c0 = 0.0;
  ctx.gmin = opts_.analysis.gmin;
  ctx.state = &st;
  ctx.prevState = &stPrev;
  ctx.prevDstate = &dstPrev;
  for (size_t r = 0; r < R; ++r) {
    staticVals_[r].assign(pat_.nonzeros(), 0.0);
    scratchRhs.assign(static_cast<size_t>(unknownCount_), 0.0);
    pending.clear();
    CsrStamper cs(pat_, staticVals_[r], scratchRhs, &pending);
    for (Device* dev : linearDevs_[r]) dev->load(cs, sx, ctx);
    if (!pending.empty())
      throw Error("ReplicaBatch: linear device stamped outside the primed "
                  "pattern (replica " +
                  std::to_string(r) + ")");
  }

  // One DC load of replica 0's nonlinear devices records their DC stamp
  // plans on the shared pattern; phase 2 replays them for every replica
  // (all share replica 0's topology).
  std::vector<double> scratchVals(pat_.nonzeros(), 0.0);
  CsrStamper cs(pat_, scratchVals, scratchRhs, &pending);
  for (Device* dev : nonlinearDevs_[0]) dev->load(cs, sx, ctx);
  if (!pending.empty())
    throw Error("ReplicaBatch: nonlinear device stamped outside the primed "
                "pattern");
  for (size_t j = 0; j < nonlinearOrder_.size(); ++j) {
    const auto [kind, idx] = nonlinearOrder_[j];
    const auto i = static_cast<size_t>(idx);
    (kind == 0 ? bjts_[i].plan : diodes_[i].plan) =
        nonlinearDevs_[0][j]->stampPlan(Device::StampVariant::kDc);
  }
}

namespace {

inline double solutionAt(const double* x, int id) {
  return id <= 0 ? 0.0 : x[id - 1];
}

}  // namespace

ReplicaBatch::OpResult ReplicaBatch::op() {
  const size_t R = circuits_.size();
  const int n = unknownCount_;
  const AnalysisOptions& ao = opts_.analysis;
  const double t0 = obs::metricsEnabled() ? nowNs() : 0.0;
  ++stats_.ops;

  OpResult out;
  out.iterations.assign(R, 0);
  out.fellBack.assign(R, 0);
  std::vector<char> active(R, 1);
  std::vector<char> needFallback(R, 0);

  // Per-op reset: x = 0 start, numeric factorizations discarded so the
  // first iteration full-factors (the fresh-Analyzer pivot sequence),
  // limiting histories seeded from x = 0 (all junction voltages 0).
  for (size_t r = 0; r < R; ++r) {
    std::fill(x_[r].begin(), x_[r].end(), 0.0);
    std::fill(xNew_[r].begin(), xNew_[r].end(), 0.0);
    lu_[r]->resetNumeric();
    Solution sx(&x_[r]);
    for (const auto& dev : circuits_[r]->devices()) dev->beginSolve(sx);
  }
  for (auto& t : bjts_)
    for (auto& q : t.rep) q.vbeLim = q.vbcLim = 0.0;
  for (auto& t : diodes_)
    for (auto& d : t.rep) d.vLim = 0.0;

  LoadContext ctx;
  ctx.mode = AnalysisMode::kDcOp;
  ctx.c0 = 0.0;
  ctx.gmin = ao.gmin;
  ctx.srcScale = 1.0;
  ctx.state = &stateScratch_;
  ctx.prevState = &statePrevZero_;
  ctx.prevDstate = &dstatePrevZero_;

  std::vector<char> limited(R, 0);
  const int nodeCount = circuits_[0]->nodeCount();
  bool anyActive = true;

  for (int iter = 0; iter < ao.maxNewtonIters && anyActive; ++iter) {
    // --- Phase 1: evaluate every nonlinear device across all active
    // replicas: the scalar devices' limiting, then the shared
    // spice/gummel.h evaluation and linearization, so each replica's
    // arithmetic is the exact scalar sequence.
    std::fill(limited.begin(), limited.end(), 0);
    for (auto& t : bjts_) {
      for (size_t r = 0; r < R; ++r) {
        if (!active[r]) continue;
        BjtTable::Replica& q = t.rep[r];
        const double* xr = x_[r].data();
        const double vbeCand =
            q.pol * (solutionAt(xr, t.nodes.bi) - solutionAt(xr, t.nodes.ei));
        const double vbcCand =
            q.pol * (solutionAt(xr, t.nodes.bi) - solutionAt(xr, t.nodes.ci));
        const double vbe = pnjlim(vbeCand, q.vbeLim, q.gp.nfvt, q.vcritE);
        const double vbc = pnjlim(vbcCand, q.vbcLim, q.gp.nrvt, q.vcritC);
        if (vbe != vbeCand || vbc != vbcCand) limited[r] = 1;
        q.vbeLim = vbe;
        q.vbcLim = vbc;
        const GummelPoonEval ev = gummelEvaluate(q.gp, vbe, vbc, ao.gmin);
        q.out = gummelLinearize(q.gp, ev, q.pol, vbe, vbc, ao.gmin);
      }
    }
    for (auto& t : diodes_) {
      for (size_t r = 0; r < R; ++r) {
        if (!active[r]) continue;
        DiodeTable::Replica& d = t.rep[r];
        const double* xr = x_[r].data();
        const double vCand = solutionAt(xr, t.aInt) - solutionAt(xr, t.c);
        const double v = pnjlim(vCand, d.vLim, d.vte, d.vcrit);
        if (v != vCand) limited[r] = 1;
        d.vLim = v;
        d.out = diodeLinearize(junctionIV(v, d.isArea, d.vte), v, ao.gmin);
      }
    }

    // --- Phase 2: per-replica assemble (baseline memcpy + linear RHS +
    // the devices' own stamp functions over replica 0's DC plans),
    // refactor replay, solve, convergence.
    anyActive = false;
    for (size_t r = 0; r < R; ++r) {
      if (!active[r]) continue;
      ++stats_.newtonIterations;
      out.iterations[r] = iter + 1;
      ++stats_.matrixSolves;

      vals_ = staticVals_[r];
      std::fill(rhs_.begin(), rhs_.end(), 0.0);
      RhsOnlyStamper rhsOnly(rhs_);
      Solution sx(&x_[r]);
      for (Device* dev : rhsDevs_[r]) dev->load(rhsOnly, sx, ctx);

      for (const auto& [kind, idx] : nonlinearOrder_) {
        if (kind == 0) {
          const BjtTable& t = bjts_[static_cast<size_t>(idx)];
          const BjtTable::Replica& q = t.rep[r];
          SlotWriter w(t.plan, vals_.data(), rhs_.data());
          stampGummelPoon(w, t.nodes, q.grc, q.gre, q.out, nullptr);
        } else {
          const DiodeTable& t = diodes_[static_cast<size_t>(idx)];
          const DiodeTable::Replica& d = t.rep[r];
          SlotWriter w(t.plan, vals_.data(), rhs_.data());
          stampDiode(w, t.a, t.aInt, t.c, d.grs, d.out, nullptr);
        }
      }

      if (opts_.forceFullFactor) lu_[r]->resetNumeric();
      const bool hadReplay = lu_[r]->hasRecordedFactorization();
      switch (lu_[r]->factor(vals_)) {
        case SparseLU<double>::FactorOutcome::kSingular:
          active[r] = 0;
          needFallback[r] = 1;
          continue;
        case SparseLU<double>::FactorOutcome::kFullFactor:
          ++stats_.fullFactors;
          if (hadReplay) ++stats_.pivotCollapses;
          break;
        case SparseLU<double>::FactorOutcome::kRefactor:
          ++stats_.refactors;
          break;
      }
      lu_[r]->solve(rhs_, xNew_[r]);

      // Convergence: mirrors Analyzer::newtonInner (non-forensics path).
      bool converged = !limited[r];
      if (converged) {
        for (int i = 0; i < n; ++i) {
          const double oldV = x_[r][static_cast<size_t>(i)];
          const double newV = xNew_[r][static_cast<size_t>(i)];
          const bool isVoltage = (i + 1) < nodeCount;
          const double tol =
              (isVoltage ? ao.vntol : ao.abstol) +
              ao.reltol * std::max(std::fabs(oldV), std::fabs(newV));
          if (std::fabs(newV - oldV) > tol) {
            converged = false;
            break;
          }
        }
      }
      x_[r] = xNew_[r];
      if ((converged && iter > 0) ||
          (converged && iter == 0 && nonlinearOrder_.empty())) {
        active[r] = 0;
        continue;
      }
      anyActive = true;
    }
  }

  // Replicas that went singular or ran out of iterations take the full
  // scalar path — a fresh Analyzer on their own circuit runs the same
  // plain Newton again, then gmin and source stepping, exactly what a
  // scalar caller would have experienced.
  for (size_t r = 0; r < R; ++r) {
    if (!active[r] && !needFallback[r]) continue;
    Analyzer an(*circuits_[r], opts_.analysis);
    x_[r] = an.op();
    out.fellBack[r] = 1;
    out.iterations[r] = static_cast<int>(an.stats().newtonIterations);
    ++stats_.fallbacks;
  }

  out.x = x_;
  if (obs::metricsEnabled()) {
    static const obs::Histogram hOp = obs::histogram("spice.batch.solve_ns");
    hOp.observe(nowNs() - t0);
  }
  publishStats();
  return out;
}

void ReplicaBatch::publishStats() {
  const BatchStats d{
      stats_.ops - published_.ops,
      stats_.newtonIterations - published_.newtonIterations,
      stats_.matrixSolves - published_.matrixSolves,
      stats_.fullFactors - published_.fullFactors,
      stats_.refactors - published_.refactors,
      stats_.pivotCollapses - published_.pivotCollapses,
      stats_.fallbacks - published_.fallbacks,
      stats_.patternInserts - published_.patternInserts,
  };
  published_ = stats_;
  if (!obs::metricsEnabled()) return;
  static const obs::Counter cReplicas = obs::counter("spice.batch.replicas");
  static const obs::Counter cNewton =
      obs::counter("spice.batch.newton_iterations");
  static const obs::Counter cFull = obs::counter("spice.batch.full_factors");
  static const obs::Counter cRefactor = obs::counter("spice.batch.refactors");
  static const obs::Counter cCollapse =
      obs::counter("spice.batch.pivot_collapses");
  static const obs::Counter cFallback = obs::counter("spice.batch.fallbacks");
  cReplicas.add(d.ops * static_cast<long>(circuits_.size()));
  cNewton.add(d.newtonIterations);
  cFull.add(d.fullFactors);
  cRefactor.add(d.refactors);
  cCollapse.add(d.pivotCollapses);
  cFallback.add(d.fallbacks);
}

}  // namespace ahfic::spice
