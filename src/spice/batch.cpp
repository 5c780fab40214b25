#include "spice/batch.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "spice/bjt.h"
#include "spice/diode.h"
#include "spice/gummel.h"
#include "spice/stamp.h"
#include "util/error.h"

namespace ahfic::spice {

namespace {

Error topologyMismatch(size_t r, const std::string& what) {
  return Error("ReplicaBatch: replica " + std::to_string(r) +
               " topology differs from replica 0 (" + what + ")");
}

}  // namespace

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

ReplicaBatch::ReplicaBatch(std::vector<std::unique_ptr<Circuit>> replicas,
                           Options opts)
    : opts_(opts), circuits_(std::move(replicas)) {
  if (circuits_.empty()) throw Error("ReplicaBatch: no replicas");
  if (opts_.analysis.forensics)
    throw Error("ReplicaBatch: convergence forensics is not supported");

  const size_t R = circuits_.size();
  cores_.reserve(R);
  for (size_t r = 0; r < R; ++r) {
    cores_.emplace_back(*circuits_[r]);
    if (!cores_[r].sameLayout(cores_[0])) throw topologyMismatch(r, "layout");
  }

  const auto n = static_cast<size_t>(unknownCount());
  x_.assign(R, std::vector<double>(n, 0.0));
  xNew_ = x_;
  rhs_.assign(n, 0.0);
  stateScratch_.assign(static_cast<size_t>(cores_[0].stateCount()), 0.0);
  statePrevZero_ = stateScratch_;
  dstatePrevZero_ = stateScratch_;

  // Linear-device matrix stamps are candidate- and source-value-
  // independent in DC, so one baseline per replica at x = 0 serves every
  // Newton iteration of every op().
  const Solution zero(&x_[0]);
  LoadContext ctx;
  ctx.mode = AnalysisMode::kDcOp;
  ctx.c0 = 0.0;
  ctx.gmin = opts_.analysis.gmin;
  ctx.state = &stateScratch_;
  ctx.prevState = &statePrevZero_;
  ctx.prevDstate = &dstatePrevZero_;
  for (MnaCore& core : cores_)
    stats_.patternInserts += core.prepareStatic(zero, ctx);

  // One symbolic analysis, shared; numeric state stays per replica.
  for (size_t r = 1; r < R; ++r) {
    if (!cores_[r].samePattern(cores_[0]))
      throw topologyMismatch(r, "sparsity pattern");
    cores_[r].adoptAnalysis(cores_[0]);
  }

  buildTables(zero, ctx);
}

void ReplicaBatch::buildTables(const Solution& x, const LoadContext& ctx) {
  const size_t R = circuits_.size();
  const std::vector<Device*>& devs0 = cores_[0].nonlinearDevices();
  for (size_t j = 0; j < devs0.size(); ++j) {
    Device* d0 = devs0[j];
    if (auto* q0 = dynamic_cast<Bjt*>(d0)) {
      BjtTable t;
      t.nodes = q0->stampNodes();
      t.rep.resize(R);
      for (size_t r = 0; r < R; ++r) {
        auto* q = dynamic_cast<Bjt*>(cores_[r].nonlinearDevices()[j]);
        if (q == nullptr || q->stampNodes() != t.nodes)
          throw topologyMismatch(r, "device " + d0->name());
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
        auto* d = dynamic_cast<Diode*>(cores_[r].nonlinearDevices()[j]);
        if (d == nullptr || d->nodes() != dd0->nodes() ||
            d->internalAnode() != t.aInt)
          throw topologyMismatch(r, "device " + d0->name());
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

  // One DC load of replica 0's nonlinear devices records their DC stamp
  // plans on replica 0's pattern; phase 2 replays them for every replica,
  // whose patterns all equal it. A position outside the pattern here
  // means priming missed a stamp the shared analysis never saw.
  std::vector<double> scratchVals(cores_[0].pattern().nonzeros(), 0.0);
  std::vector<double> scratchRhs(static_cast<size_t>(unknownCount()), 0.0);
  std::vector<std::pair<int, int>> pending;
  CsrStamper cs(cores_[0].pattern(), scratchVals, scratchRhs, &pending);
  for (Device* dev : devs0) dev->load(cs, x, ctx);
  if (!pending.empty())
    throw Error("ReplicaBatch: nonlinear device stamped outside the primed "
                "pattern");
  for (size_t j = 0; j < nonlinearOrder_.size(); ++j) {
    const auto [kind, idx] = nonlinearOrder_[j];
    const auto i = static_cast<size_t>(idx);
    (kind == 0 ? bjts_[i].plan : diodes_[i].plan) =
        devs0[j]->stampPlan(Device::StampVariant::kDc);
  }
}

ReplicaBatch::OpResult ReplicaBatch::op() {
  const size_t R = circuits_.size();
  const AnalysisOptions& ao = opts_.analysis;
  const double t0 = obs::metricsEnabled() ? MnaCore::nowNs() : 0.0;
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
    cores_[r].lu().resetNumeric();
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
  bool anyActive = true;

  for (int iter = 0; iter < ao.maxNewtonIters && anyActive; ++iter) {
    // --- Phase 1: evaluate every nonlinear device across all active
    // replicas through the spice/gummel.h limiting, evaluation and
    // linearization the scalar devices call, so each replica's
    // arithmetic is the exact scalar sequence.
    std::fill(limited.begin(), limited.end(), 0);
    for (auto& t : bjts_) {
      for (size_t r = 0; r < R; ++r) {
        if (!active[r]) continue;
        BjtTable::Replica& q = t.rep[r];
        const Solution sx(&x_[r]);
        const double vbeCand = q.pol * sx.diff(t.nodes.bi, t.nodes.ei);
        const double vbcCand = q.pol * sx.diff(t.nodes.bi, t.nodes.ci);
        const double vbe =
            limitJunction(vbeCand, q.vbeLim, q.gp.nfvt, q.vcritE);
        const double vbc =
            limitJunction(vbcCand, q.vbcLim, q.gp.nrvt, q.vcritC);
        if (vbe != vbeCand || vbc != vbcCand) limited[r] = 1;
        const GummelPoonEval ev = gummelEvaluate(q.gp, vbe, vbc, ao.gmin);
        q.out = gummelLinearize(q.gp, ev, q.pol, vbe, vbc, ao.gmin);
      }
    }
    for (auto& t : diodes_) {
      for (size_t r = 0; r < R; ++r) {
        if (!active[r]) continue;
        DiodeTable::Replica& d = t.rep[r];
        const double vCand = Solution(&x_[r]).diff(t.aInt, t.c);
        const double v = limitJunction(vCand, d.vLim, d.vte, d.vcrit);
        if (v != vCand) limited[r] = 1;
        d.out = diodeLinearize(junctionIV(v, d.isArea, d.vte), v, ao.gmin);
      }
    }

    // --- Phase 2: per-replica assemble (the core's baseline + linear
    // RHS + the devices' own stamp functions over replica 0's DC plans),
    // refactor replay, solve, the core's convergence test.
    anyActive = false;
    for (size_t r = 0; r < R; ++r) {
      if (!active[r]) continue;
      MnaCore& core = cores_[r];
      ++stats_.newtonIterations;
      out.iterations[r] = iter + 1;
      ++stats_.matrixSolves;

      vals_ = core.staticValues();
      std::fill(rhs_.begin(), rhs_.end(), 0.0);
      RhsOnlyStamper rhsOnly(rhs_);
      Solution sx(&x_[r]);
      for (Device* dev : core.rhsDevices()) dev->load(rhsOnly, sx, ctx);

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

      SparseLU<double>& lu = core.lu();
      const bool hadReplay = lu.hasRecordedFactorization();
      switch (lu.factor(vals_)) {
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
      lu.solve(rhs_, xNew_[r]);

      const bool converged = !limited[r] && core.converged(ao, x_[r], xNew_[r]);
      x_[r] = xNew_[r];
      if (converged && (iter > 0 || nonlinearOrder_.empty())) {
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
    hOp.observe(MnaCore::nowNs() - t0);
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
