#pragma once
// ReplicaBatch: batched DC operating points across a block of
// Monte-Carlo replica circuits sharing one topology.
//
// A Monte-Carlo fT sweep solves the same bias circuit hundreds of times
// with perturbed model cards. ReplicaBatch runs every replica on its own
// MnaCore (spice/mna.h), the core a scalar Analyzer runs on, and shares
// what the topology fixes:
//
//   - each replica's core must have replica 0's layout and primed
//     pattern, or construction throws;
//   - every replica's solver adopts replica 0's symbolic analysis;
//     numeric factors stay per replica, with a full factor on the first
//     iteration of each op and pivot/fill replay after (a fresh
//     Analyzer's cadence);
//   - the nonlinear devices (Gummel-Poon BJT, junction diode) are tabled
//     per replica. Phase 1 of each Newton iteration runs every active
//     replica through the spice/gummel.h limiting and linearization the
//     scalar devices call; phase 2 writes the results with the devices'
//     own stamp functions, replaying replica 0's recorded DC stamp plans.
//
// Newton runs in masked lockstep: phase 1 for all active replicas, then
// per replica the core's static baseline, the stamps, factor, solve and
// the core's convergence test. A replica that goes singular or exhausts
// maxNewtonIters falls back to a full Analyzer::op() on its circuit
// (plain Newton, then gmin stepping, then source stepping).
//
// Bit-identity contract: for identical circuits and options, every
// solution op() returns is bit-identical to what a fresh
// `Analyzer(ckt, opts)` returns from op() on that replica's circuit
// (hex-float compares in tests/spice_batch_test.cpp).
//
// Limits (checked at construction): nonlinear devices must be Bjt or
// Diode; AnalysisOptions::forensics is not supported.

#include <memory>
#include <vector>

#include "spice/analysis.h"
#include "spice/circuit.h"
#include "spice/mna.h"

namespace ahfic::spice {

/// Counters for one ReplicaBatch, accumulated across op() calls; the
/// same numbers are published to the metrics registry as
/// `spice.batch.*`.
struct BatchStats {
  long ops = 0;               ///< batched op() calls
  long newtonIterations = 0;  ///< summed over replicas
  long matrixSolves = 0;      ///< factor+solve passes, summed
  long fullFactors = 0;       ///< pivoting factorizations
  long refactors = 0;         ///< pivot/fill replays
  long pivotCollapses = 0;    ///< replays that collapsed to full factor
  long fallbacks = 0;         ///< replicas re-solved via Analyzer::op()
  long patternInserts = 0;    ///< 0 unless priming missed a stamp
};

/// Batched DC operating-point engine over replica circuits. Takes
/// ownership of the circuits; like Analyzer, do not add or remove
/// devices afterwards.
class ReplicaBatch {
 public:
  struct Options {
    AnalysisOptions analysis;  ///< tolerances and iteration limits
  };

  ReplicaBatch(std::vector<std::unique_ptr<Circuit>> replicas, Options opts);
  explicit ReplicaBatch(std::vector<std::unique_ptr<Circuit>> replicas)
      : ReplicaBatch(std::move(replicas), Options()) {}
  ~ReplicaBatch();

  int replicaCount() const { return static_cast<int>(circuits_.size()); }
  int unknownCount() const { return cores_[0].unknownCount(); }
  Circuit& circuit(int r) { return *circuits_[static_cast<size_t>(r)]; }
  const Circuit& circuit(int r) const {
    return *circuits_[static_cast<size_t>(r)];
  }

  /// One batched operating point: solves every replica from x = 0 under
  /// the replica's current source values (update sources between calls
  /// with VSource::setWaveform, the dcSweep idiom). x[r] is indexed by
  /// (unknown id - 1), exactly like Analyzer::op(). Throws
  /// ConvergenceError if any replica's fallback fails to converge.
  struct OpResult {
    std::vector<std::vector<double>> x;  ///< [replica][unknown id - 1]
    std::vector<int> iterations;         ///< Newton iterations per replica
    std::vector<char> fellBack;          ///< solved via full Analyzer::op()
  };
  OpResult op();

  const BatchStats& stats() const { return stats_; }
  const Options& options() const { return opts_; }

 private:
  struct BjtTable;
  struct DiodeTable;

  /// Tables the nonlinear devices and records replica 0's DC stamp
  /// plans on its pattern (the one every replica's pattern equals).
  void buildTables(const Solution& x, const LoadContext& ctx);
  void publishStats();

  Options opts_;
  std::vector<std::unique_ptr<Circuit>> circuits_;
  std::vector<MnaCore> cores_;  ///< one per replica

  // Nonlinear device tables (per-replica parameters, limiting history,
  // phase-1 stamp scalars, replica 0's DC stamp plan).
  std::vector<BjtTable> bjts_;
  std::vector<DiodeTable> diodes_;
  /// Interleave order: for each nonlinear device in circuit order, its
  /// kind (0 = bjt, 1 = diode) and index into the table vector, so phase
  /// 2 stamps in the exact scalar device order.
  std::vector<std::pair<int, int>> nonlinearOrder_;

  // Per-op scratch, allocated once.
  std::vector<std::vector<double>> x_, xNew_;  // [replica][unknown]
  std::vector<double> vals_, rhs_;
  std::vector<double> stateScratch_, statePrevZero_, dstatePrevZero_;

  BatchStats stats_;
  BatchStats published_;
};

}  // namespace ahfic::spice
