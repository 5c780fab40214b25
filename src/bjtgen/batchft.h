#pragma once
// Batched analytic fT measurement across a block of model cards — the
// Monte-Carlo data plane behind the runner's `mc-ft` workload.
//
// The scalar path (FtExtractor::measureAnalyticAt) builds one bias
// circuit and Analyzer per die — circuit construction, pattern priming
// and symbolic analysis — and then runs a BiasSearch over its operating
// points. A Monte-Carlo block perturbs only the model card — the
// topology is the same two-source/one-transistor cell for every die —
// so all of that structure work is shared here through
// spice::ReplicaBatch, and the per-die searches run in masked lockstep:
// one batched operating point per step solves every still-searching die
// at its own trial Vbe.
//
// Bit-identity contract: for the same `opts`, entry r of
// measureAnalyticAt(ic) is bit-identical (ft, vbe hex-float equal) to
// `FtExtractor(cards[r], vce, opts).measureAnalyticAt(ic)`, because
// ReplicaBatch::op() reproduces a fresh Analyzer::op() bit-for-bit
// and each die walks the same BiasSearch trajectory as the scalar code.
// A die whose bias bracket rejects the target reports ok = false with
// the scalar error text instead of throwing, so one bad die does not
// take down the block.

#include <string>
#include <vector>

#include "spice/analysis.h"
#include "spice/batch.h"
#include "spice/bjt.h"
#include "spice/models.h"
#include "spice/sources.h"

#include "bjtgen/ft.h"

namespace ahfic::bjtgen {

/// Per-card outcome of a batched measurement.
struct BatchFtPoint {
  FtPoint point;
  bool ok = false;
  std::string error;  ///< scalar FtExtractor error text when !ok
};

/// Measures analytic fT of a block of model cards biased at Vce, sharing
/// circuit structure across the block. Construction cost is one pattern
/// priming + one symbolic analysis for the whole block; per measurement
/// each die pays numeric work only.
class BatchFtExtractor {
 public:
  /// `forceFullFactor` disables the shared-structure refactorization
  /// replay (every Newton iteration pays a pivoting factorization) — an
  /// ablation knob for bench_mc_batch, not a production option.
  explicit BatchFtExtractor(std::vector<spice::BjtModel> cards,
                            double vce = 2.0,
                            spice::AnalysisOptions opts = {},
                            bool forceFullFactor = false);

  int cardCount() const { return batch_.replicaCount(); }

  /// Lockstep BiasSearch for Vbe with ic(vbe) = ic, then fT from the
  /// operating-point formula — FtExtractor::measureAnalyticAt for every
  /// card at once. Throws on ic <= 0 (scalar contract); per-die bias
  /// bracket failures are reported in the outcome instead.
  std::vector<BatchFtPoint> measureAnalyticAt(double ic);

  /// Batch-engine counters since construction.
  const spice::BatchStats& batchStats() const { return batch_.stats(); }

  /// Solver work in AnalyzerStats shape (newton iterations and matrix
  /// solves summed over replicas) — the runner's manifest feed, matching
  /// FtExtractor::solverStats().
  const spice::AnalyzerStats& solverStats() const { return stats_; }
  void resetSolverStats() { stats_ = {}; }

 private:
  void setVbe(int r, double vbe);

  double vce_;
  spice::ReplicaBatch batch_;
  std::vector<spice::VSource*> vb_;  ///< per-replica base source
  std::vector<spice::VSource*> vc_;  ///< per-replica collector source
  std::vector<spice::Bjt*> q_;       ///< per-replica transistor
  spice::BatchStats seen_;           ///< batch counters already absorbed
  spice::AnalyzerStats stats_;
};

}  // namespace ahfic::bjtgen
