#include "spice/mna.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "spice/analysis.h"
#include "spice/stamp.h"

namespace ahfic::spice {

MnaCore::MnaCore(Circuit& ckt) : ckt_(&ckt) {
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
      nonlinearDevs_.push_back(dev.get());
    } else {
      linearDevs_.push_back(dev.get());
      if (!dev->matrixOnly()) rhsDevs_.push_back(dev.get());
    }
  }
  unknownCount_ = nextBranch - 1;  // ground excluded
  stateCount_ = nextState;

  // Run every device through a position recorder twice — once under a DC
  // context, once under a transient one (c0 = 1) — so conditional stamps
  // (capacitor companions, inductor geq, junction charge branches) all
  // land in the pattern before the first assemble. Scratch state vectors
  // keep the real charge history untouched.
  std::vector<std::pair<int, int>> entries;
  PatternStamper ps(entries);
  std::vector<double> zeros(static_cast<size_t>(unknownCount_), 0.0);
  Solution sx(&zeros);
  std::vector<double> st(static_cast<size_t>(stateCount_), 0.0);
  std::vector<double> stPrev(static_cast<size_t>(stateCount_), 0.0);
  std::vector<double> dstPrev(static_cast<size_t>(stateCount_), 0.0);
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
  pat_.build(unknownCount_, std::move(entries));
}

bool MnaCore::sameLayout(const MnaCore& other) const {
  return ckt_->nodeCount() == other.ckt_->nodeCount() &&
         unknownCount_ == other.unknownCount_ &&
         stateCount_ == other.stateCount_ &&
         linearDevs_.size() == other.linearDevs_.size() &&
         rhsDevs_.size() == other.rhsDevs_.size() &&
         nonlinearDevs_.size() == other.nonlinearDevs_.size();
}

bool MnaCore::samePattern(const MnaCore& other) const {
  return pat_.rowPtr() == other.pat_.rowPtr() &&
         pat_.colIdx() == other.pat_.colIdx();
}

long MnaCore::grow(std::vector<std::pair<int, int>>& pending) {
  // A device stamped a position the priming pass did not predict: fold
  // it in. Every slot shifts, so the baseline is restamped.
  const auto added = static_cast<long>(pat_.grow(pending));
  pending.clear();
  staticValid_ = false;
  return added;
}

SparseLU<double>& MnaCore::lu() {
  if (!lu_.analyzedFor(pat_.epoch())) lu_.analyze(pat_);
  return lu_;
}

void MnaCore::adoptAnalysis(MnaCore& other) {
  lu_.adoptAnalysis(other.lu(), pat_);
}

long MnaCore::prepareStatic(const Solution& x, const LoadContext& ctx) {
  if (staticValid_ && staticEpoch_ == pat_.epoch() && staticC0_ == ctx.c0)
    return 0;
  long inserts = 0;
  for (;;) {
    staticVals_.assign(pat_.nonzeros(), 0.0);
    scratchRhs_.assign(static_cast<size_t>(unknownCount_), 0.0);
    pending_.clear();
    CsrStamper cs(pat_, staticVals_, scratchRhs_, &pending_);
    for (Device* dev : linearDevs_) dev->load(cs, x, ctx);
    if (pending_.empty()) break;
    inserts += grow(pending_);
  }
  staticValid_ = true;
  staticEpoch_ = pat_.epoch();
  staticC0_ = ctx.c0;
  return inserts;
}

double MnaCore::tolerance(const AnalysisOptions& o, int i, double oldV,
                          double newV) const {
  const bool isVoltage = (i + 1) < ckt_->nodeCount();
  return (isVoltage ? o.vntol : o.abstol) +
         o.reltol * std::max(std::fabs(oldV), std::fabs(newV));
}

bool MnaCore::converged(const AnalysisOptions& o,
                        const std::vector<double>& x,
                        const std::vector<double>& xNew) const {
  for (int i = 0; i < unknownCount_; ++i) {
    const double oldV = x[static_cast<size_t>(i)];
    const double newV = xNew[static_cast<size_t>(i)];
    if (std::fabs(newV - oldV) > tolerance(o, i, oldV, newV)) return false;
  }
  return true;
}

MnaCore::ConvergenceScan MnaCore::scanConvergence(
    const AnalysisOptions& o, const std::vector<double>& x,
    const std::vector<double>& xNew) const {
  ConvergenceScan s;
  for (int i = 0; i < unknownCount_; ++i) {
    const double oldV = x[static_cast<size_t>(i)];
    const double newV = xNew[static_cast<size_t>(i)];
    const double tol = tolerance(o, i, oldV, newV);
    const double delta = std::fabs(newV - oldV);
    if (delta > tol) s.converged = false;
    if (delta > s.maxDelta) s.maxDelta = delta;
    const double ratio = delta / tol;
    if (ratio > s.worstRatio) {
      s.worstRatio = ratio;
      s.worstUnknown = i + 1;
    }
  }
  return s;
}

double MnaCore::nowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace ahfic::spice
