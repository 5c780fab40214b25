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
#include "util/restrict.h"

namespace {

double nowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

namespace ahfic::spice {

// One Gummel-Poon transistor position shared by every replica: node ids
// and value-array slots resolved once from the shared pattern (the batch
// analogue of the per-device StampMemo), plus replica-strided SoA
// parameter tables and the per-iteration evaluation outputs the scatter
// pass consumes. Slot quads are in addConductance order — (a,a), (b,b),
// (a,b), (b,a) — with -1 marking ground-touching entries that the
// CsrStamper would drop.
struct ReplicaBatch::BjtPlan {
  int c, b, e, ci, bi, ei;
  bool hasRc, hasRe, hasRb;
  int rcQuad[4], reQuad[4], rbQuad[4], beQuad[4], bcQuad[4];
  int tr6[6];  ///< transport addA slots, in Bjt::load() order
  int rhsBi, rhsEi, rhsCi;

  // SoA parameter tables (one value per replica).
  std::vector<double> is, nfvt, nrvt, ise, nevt, isc, ncvt, vaf, var, ikf,
      ikr, bf, br, rb, rbm, irb, vcritE, vcritC, pol, grc, gre;

  // Junction-limiting history, reset to the x = 0 seed at each op().
  std::vector<double> vbeLim, vbcLim;

  // Phase-1 outputs: the exact scalars Bjt::load() stamps.
  std::vector<double> oGrb, oGbe, oIeqBe, oGbc, oIeqBc, oGmf, oGmr, oIeqT;
};

struct ReplicaBatch::DiodePlan {
  int a, cNode, aInt;
  bool hasRs;
  int rsQuad[4], jQuad[4];
  int rhsA, rhsC;

  std::vector<double> isArea, vte, vcrit, grs;
  std::vector<double> vLim;
  std::vector<double> oGd, oIeq;
};

ReplicaBatch::~ReplicaBatch() = default;

int ReplicaBatch::resolveSlot(int row, int col) const {
  if (row <= 0 || col <= 0) return -1;
  const int slot = pat_.slot(row - 1, col - 1);
  if (slot < 0)
    throw Error("ReplicaBatch: stamp position (" + std::to_string(row) +
                ", " + std::to_string(col) + ") missing from primed pattern");
  return slot;
}

void ReplicaBatch::resolveQuad(int a, int b, int* quad) const {
  quad[0] = resolveSlot(a, a);
  quad[1] = resolveSlot(b, b);
  quad[2] = resolveSlot(a, b);
  quad[3] = resolveSlot(b, a);
}

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

  buildPlans();
  computeStaticBaselines();

  x_.assign(R, std::vector<double>(static_cast<size_t>(unknownCount_), 0.0));
  xNew_ = x_;
  vals_.assign(pat_.nonzeros(), 0.0);
  rhs_.assign(static_cast<size_t>(unknownCount_), 0.0);
  stateScratch_.assign(static_cast<size_t>(stateCount_), 0.0);
  statePrevZero_ = stateScratch_;
  dstatePrevZero_ = stateScratch_;
}

void ReplicaBatch::buildPlans() {
  const size_t R = circuits_.size();
  for (size_t j = 0; j < nonlinearDevs_[0].size(); ++j) {
    Device* d0 = nonlinearDevs_[0][j];
    if (auto* q0 = dynamic_cast<Bjt*>(d0)) {
      BjtPlan p;
      p.c = q0->nodes()[0];
      p.b = q0->nodes()[1];
      p.e = q0->nodes()[2];
      p.ci = q0->internalCollector();
      p.bi = q0->internalBase();
      p.ei = q0->internalEmitter();
      const BjtModel& m0 = q0->scaledModel();
      p.hasRc = m0.rc > 0.0;
      p.hasRe = m0.re > 0.0;
      p.hasRb = m0.rb > 0.0;
      resolveQuad(p.c, p.ci, p.rcQuad);
      resolveQuad(p.e, p.ei, p.reQuad);
      resolveQuad(p.b, p.bi, p.rbQuad);
      resolveQuad(p.bi, p.ei, p.beQuad);
      resolveQuad(p.bi, p.ci, p.bcQuad);
      p.tr6[0] = resolveSlot(p.ci, p.bi);
      p.tr6[1] = resolveSlot(p.ci, p.ei);
      p.tr6[2] = resolveSlot(p.ci, p.ci);
      p.tr6[3] = resolveSlot(p.ei, p.bi);
      p.tr6[4] = resolveSlot(p.ei, p.ei);
      p.tr6[5] = resolveSlot(p.ei, p.ci);
      p.rhsBi = p.bi > 0 ? p.bi - 1 : -1;
      p.rhsEi = p.ei > 0 ? p.ei - 1 : -1;
      p.rhsCi = p.ci > 0 ? p.ci - 1 : -1;
      for (auto* v : {&p.is, &p.nfvt, &p.nrvt, &p.ise, &p.nevt, &p.isc,
                      &p.ncvt, &p.vaf, &p.var, &p.ikf, &p.ikr, &p.bf, &p.br,
                      &p.rb, &p.rbm, &p.irb, &p.vcritE, &p.vcritC, &p.pol,
                      &p.grc, &p.gre, &p.vbeLim, &p.vbcLim, &p.oGrb, &p.oGbe,
                      &p.oIeqBe, &p.oGbc, &p.oIeqBc, &p.oGmf, &p.oGmr,
                      &p.oIeqT})
        v->assign(R, 0.0);
      for (size_t r = 0; r < R; ++r) {
        auto* q = dynamic_cast<Bjt*>(nonlinearDevs_[r][j]);
        if (q == nullptr || q->nodes() != q0->nodes() ||
            q->internalCollector() != p.ci || q->internalBase() != p.bi ||
            q->internalEmitter() != p.ei ||
            q->substrateNode() != q0->substrateNode())
          throw Error("ReplicaBatch: replica " + std::to_string(r) +
                      " topology differs from replica 0 (device " +
                      d0->name() + ")");
        const BjtModel& m = q->scaledModel();
        if ((m.rc > 0.0) != p.hasRc || (m.re > 0.0) != p.hasRe ||
            (m.rb > 0.0) != p.hasRb)
          throw Error("ReplicaBatch: replica " + std::to_string(r) +
                      " parasitic topology differs (device " + d0->name() +
                      ")");
        const GummelPoonParams gp = gummelParams(m, q->vt());
        p.is[r] = gp.is;
        p.nfvt[r] = gp.nfvt;
        p.nrvt[r] = gp.nrvt;
        p.ise[r] = gp.ise;
        p.nevt[r] = gp.nevt;
        p.isc[r] = gp.isc;
        p.ncvt[r] = gp.ncvt;
        p.vaf[r] = gp.vaf;
        p.var[r] = gp.var;
        p.ikf[r] = gp.ikf;
        p.ikr[r] = gp.ikr;
        p.bf[r] = gp.bf;
        p.br[r] = gp.br;
        p.rb[r] = gp.rb;
        p.rbm[r] = gp.rbm;
        p.irb[r] = gp.irb;
        p.vcritE[r] = q->vcritE();
        p.vcritC[r] = q->vcritC();
        p.pol[r] = q->polarity();
        p.grc[r] = p.hasRc ? 1.0 / m.rc : 0.0;
        p.gre[r] = p.hasRe ? 1.0 / m.re : 0.0;
      }
      nonlinearOrder_.emplace_back(0, static_cast<int>(bjts_.size()));
      bjts_.push_back(std::move(p));
    } else if (auto* dd0 = dynamic_cast<Diode*>(d0)) {
      DiodePlan p;
      p.a = dd0->nodes()[0];
      p.cNode = dd0->nodes()[1];
      p.aInt = dd0->internalAnode();
      p.hasRs = dd0->scaledModel().rs > 0.0;
      resolveQuad(p.a, p.aInt, p.rsQuad);
      resolveQuad(p.aInt, p.cNode, p.jQuad);
      p.rhsA = p.aInt > 0 ? p.aInt - 1 : -1;
      p.rhsC = p.cNode > 0 ? p.cNode - 1 : -1;
      for (auto* v : {&p.isArea, &p.vte, &p.vcrit, &p.grs, &p.vLim, &p.oGd,
                      &p.oIeq})
        v->assign(R, 0.0);
      for (size_t r = 0; r < R; ++r) {
        auto* d = dynamic_cast<Diode*>(nonlinearDevs_[r][j]);
        if (d == nullptr || d->nodes() != dd0->nodes() ||
            d->internalAnode() != p.aInt ||
            (d->scaledModel().rs > 0.0) != p.hasRs)
          throw Error("ReplicaBatch: replica " + std::to_string(r) +
                      " topology differs from replica 0 (device " +
                      d0->name() + ")");
        const DiodeModel& m = d->scaledModel();
        p.isArea[r] = m.is * d->area();
        p.vte[r] = d->vte();
        p.vcrit[r] = d->vcrit();
        p.grs[r] = p.hasRs ? d->area() / m.rs : 0.0;
      }
      nonlinearOrder_.emplace_back(1, static_cast<int>(diodes_.size()));
      diodes_.push_back(std::move(p));
    } else {
      throw Error("ReplicaBatch: unsupported nonlinear device '" +
                  d0->name() + "' (only Bjt and Diode have SoA kernels)");
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
}

namespace {

/// addConductance scatter: vals[(a,a)] += g, vals[(b,b)] += g,
/// vals[(a,b)] -= g, vals[(b,a)] -= g, ground slots dropped.
inline void scatterQuad(double* AHFIC_RESTRICT vals, const int* quad,
                        double g) {
  if (quad[0] >= 0) vals[quad[0]] += g;
  if (quad[1] >= 0) vals[quad[1]] += g;
  if (quad[2] >= 0) vals[quad[2]] += -g;
  if (quad[3] >= 0) vals[quad[3]] += -g;
}

inline void addSlot(double* AHFIC_RESTRICT vals, int slot, double v) {
  if (slot >= 0) vals[slot] += v;
}

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
  for (auto& p : bjts_) {
    std::fill(p.vbeLim.begin(), p.vbeLim.end(), 0.0);
    std::fill(p.vbcLim.begin(), p.vbcLim.end(), 0.0);
  }
  for (auto& p : diodes_) std::fill(p.vLim.begin(), p.vLim.end(), 0.0);

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
    // --- Phase 1: SoA evaluation of every nonlinear device across all
    // active replicas. Replica-strided loops over restrict-qualified
    // parameter spans; the junction math is the shared spice/gummel.h /
    // junction.h inlines, so each replica's arithmetic is the exact
    // scalar sequence.
    std::fill(limited.begin(), limited.end(), 0);
    const char* AHFIC_RESTRICT act = active.data();
    char* AHFIC_RESTRICT lim = limited.data();
    for (auto& p : bjts_) {
      const double* AHFIC_RESTRICT nfvt = p.nfvt.data();
      const double* AHFIC_RESTRICT nrvt = p.nrvt.data();
      const double* AHFIC_RESTRICT vcritE = p.vcritE.data();
      const double* AHFIC_RESTRICT vcritC = p.vcritC.data();
      const double* AHFIC_RESTRICT pol = p.pol.data();
      double* AHFIC_RESTRICT vbeLim = p.vbeLim.data();
      double* AHFIC_RESTRICT vbcLim = p.vbcLim.data();
      double* AHFIC_RESTRICT oGrb = p.oGrb.data();
      double* AHFIC_RESTRICT oGbe = p.oGbe.data();
      double* AHFIC_RESTRICT oIeqBe = p.oIeqBe.data();
      double* AHFIC_RESTRICT oGbc = p.oGbc.data();
      double* AHFIC_RESTRICT oIeqBc = p.oIeqBc.data();
      double* AHFIC_RESTRICT oGmf = p.oGmf.data();
      double* AHFIC_RESTRICT oGmr = p.oGmr.data();
      double* AHFIC_RESTRICT oIeqT = p.oIeqT.data();
      for (size_t r = 0; r < R; ++r) {
        if (!act[r]) continue;
        const double* xr = x_[r].data();
        // Junction voltages in model polarity with SPICE limiting —
        // mirrors Bjt::load() step for step.
        const double vbeCand =
            pol[r] * (solutionAt(xr, p.bi) - solutionAt(xr, p.ei));
        const double vbcCand =
            pol[r] * (solutionAt(xr, p.bi) - solutionAt(xr, p.ci));
        const double vbe = pnjlim(vbeCand, vbeLim[r], nfvt[r], vcritE[r]);
        const double vbc = pnjlim(vbcCand, vbcLim[r], nrvt[r], vcritC[r]);
        if (vbe != vbeCand) lim[r] = 1;
        if (vbc != vbcCand) lim[r] = 1;
        vbeLim[r] = vbe;
        vbcLim[r] = vbc;
        const GummelPoonParams gp{p.is[r],  nfvt[r],   nrvt[r],  p.ise[r],
                                  p.nevt[r], p.isc[r], p.ncvt[r], p.vaf[r],
                                  p.var[r],  p.ikf[r], p.ikr[r],  p.bf[r],
                                  p.br[r],   p.rb[r],  p.rbm[r],  p.irb[r]};
        const GummelPoonEval ev = gummelEvaluate(gp, vbe, vbc, ao.gmin);
        // The exact stamp scalars of Bjt::load() (DC: no charge stamps).
        oGrb[r] = 1.0 / ev.rbEff;
        const double gBe = ev.gbe1 / gp.bf + ev.gbe2 + ao.gmin;
        const double iBe = ev.ibe1 / gp.bf + ev.ibe2 + ao.gmin * vbe;
        oGbe[r] = gBe;
        oIeqBe[r] = pol[r] * (iBe - gBe * vbe);
        const double gBc = ev.gbc1 / gp.br + ev.gbc2 + ao.gmin;
        const double iBc = ev.ibc1 / gp.br + ev.ibc2 + ao.gmin * vbc;
        oGbc[r] = gBc;
        oIeqBc[r] = pol[r] * (iBc - gBc * vbc);
        oGmf[r] = ev.gmf;
        oGmr[r] = ev.gmr;
        oIeqT[r] = pol[r] * (ev.icc - ev.gmf * vbe - ev.gmr * vbc);
      }
    }
    for (auto& p : diodes_) {
      const double* AHFIC_RESTRICT isArea = p.isArea.data();
      const double* AHFIC_RESTRICT vte = p.vte.data();
      const double* AHFIC_RESTRICT vcrit = p.vcrit.data();
      double* AHFIC_RESTRICT vLim = p.vLim.data();
      double* AHFIC_RESTRICT oGd = p.oGd.data();
      double* AHFIC_RESTRICT oIeq = p.oIeq.data();
      for (size_t r = 0; r < R; ++r) {
        if (!act[r]) continue;
        const double* xr = x_[r].data();
        const double vCand =
            solutionAt(xr, p.aInt) - solutionAt(xr, p.cNode);
        const double v = pnjlim(vCand, vLim[r], vte[r], vcrit[r]);
        if (v != vCand) lim[r] = 1;
        vLim[r] = v;
        const auto iv = junctionIV(v, isArea[r], vte[r]);
        const double gd = iv.g + ao.gmin;
        const double id = iv.i + ao.gmin * v;
        oGd[r] = gd;
        oIeq[r] = id - gd * v;
      }
    }

    // --- Phase 2: per-replica assemble (baseline memcpy + linear RHS +
    // slot-ordered scatter), refactor replay, solve, convergence.
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

      double* vals = vals_.data();
      double* rhs = rhs_.data();
      for (const auto& [kind, idx] : nonlinearOrder_) {
        if (kind == 0) {
          const BjtPlan& p = bjts_[static_cast<size_t>(idx)];
          if (p.hasRc) scatterQuad(vals, p.rcQuad, p.grc[r]);
          if (p.hasRe) scatterQuad(vals, p.reQuad, p.gre[r]);
          if (p.hasRb) scatterQuad(vals, p.rbQuad, p.oGrb[r]);
          scatterQuad(vals, p.beQuad, p.oGbe[r]);
          if (p.rhsBi >= 0) rhs[p.rhsBi] += -p.oIeqBe[r];
          if (p.rhsEi >= 0) rhs[p.rhsEi] += p.oIeqBe[r];
          scatterQuad(vals, p.bcQuad, p.oGbc[r]);
          if (p.rhsBi >= 0) rhs[p.rhsBi] += -p.oIeqBc[r];
          if (p.rhsCi >= 0) rhs[p.rhsCi] += p.oIeqBc[r];
          const double gmfr = p.oGmf[r] + p.oGmr[r];
          addSlot(vals, p.tr6[0], gmfr);
          addSlot(vals, p.tr6[1], -p.oGmf[r]);
          addSlot(vals, p.tr6[2], -p.oGmr[r]);
          addSlot(vals, p.tr6[3], -(gmfr));
          addSlot(vals, p.tr6[4], p.oGmf[r]);
          addSlot(vals, p.tr6[5], p.oGmr[r]);
          if (p.rhsCi >= 0) rhs[p.rhsCi] += -p.oIeqT[r];
          if (p.rhsEi >= 0) rhs[p.rhsEi] += p.oIeqT[r];
        } else {
          const DiodePlan& p = diodes_[static_cast<size_t>(idx)];
          if (p.hasRs) scatterQuad(vals, p.rsQuad, p.grs[r]);
          scatterQuad(vals, p.jQuad, p.oGd[r]);
          if (p.rhsA >= 0) rhs[p.rhsA] += -p.oIeq[r];
          if (p.rhsC >= 0) rhs[p.rhsC] += p.oIeq[r];
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
