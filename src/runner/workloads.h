#pragma once
// Canned job builders for the paper's repeated-simulation studies —
// the glue between the domain layers (bjtgen, tuner) and the batch
// engine. Each builder returns jobs in a documented order so callers can
// map outcome index -> study coordinate without extra bookkeeping.

#include <cstdint>
#include <string>
#include <vector>

#include "bjtgen/generator.h"
#include "bjtgen/montecarlo.h"
#include "bjtgen/ringosc.h"
#include "bjtgen/shape.h"
#include "runner/engine.h"
#include "runner/job.h"
#include "tuner/irr.h"

namespace ahfic::runner {

/// Fig. 9 fT–Ic sweep: one job per (shape, current) point, shape-major
/// (index = s * currents.size() + k). Metrics: "ft" [Hz], "vbe" [V],
/// "ic" [A]; points above ~90% of the shape's bias capability return
/// "skipped" = 1 instead. `keyPrefix` must identify the technology the
/// generator was built on (it is the cache identity).
std::vector<Job> fig9SweepJobs(const bjtgen::ModelGenerator& gen,
                               const std::vector<bjtgen::TransistorShape>& shapes,
                               const std::vector<double>& currents,
                               const std::string& keyPrefix = "fig9");

/// fT peak search per shape (the Fig. 9 summary table). Metrics:
/// "ftPeak" [Hz], "icPeak" [A].
std::vector<Job> ftPeakJobs(const bjtgen::ModelGenerator& gen,
                            const std::vector<bjtgen::TransistorShape>& shapes,
                            double icMin, double icMax, int points,
                            const std::string& keyPrefix = "fig9peak");

/// Table 1 ring-oscillator shape selection: one transient job per
/// differential-pair shape (followers and passives from `baseSpec`).
/// Metrics: "frequency" [Hz], "peakToPeak" [V], "oscillating" (0/1).
std::vector<Job> ringShapeJobs(const bjtgen::ModelGenerator& gen,
                               const std::vector<bjtgen::TransistorShape>& shapes,
                               bjtgen::RingOscillatorSpec baseSpec,
                               double windowNs = 10.0, double stepPs = 3.0,
                               const std::string& keyPrefix = "table1");

/// Monte-Carlo die-to-die ring-oscillator study: one job per die, each
/// drawing its technology and local mismatch from the job seed
/// (usesSeed = true). Metrics as ringShapeJobs.
std::vector<Job> monteCarloRingJobs(const bjtgen::Technology& nominal,
                                    const bjtgen::ProcessVariation& var,
                                    int dies,
                                    bjtgen::RingOscillatorSpec baseSpec,
                                    const std::string& diffPairShape,
                                    const std::string& followerShape,
                                    double windowNs = 10.0,
                                    double stepPs = 3.0,
                                    const std::string& keyPrefix = "mc-ring");

/// Cheap Monte-Carlo workload: per-die analytic fT of `shapeName` at bias
/// `ic` (usesSeed = true). Metrics: "ft" [Hz], "vbe" [V]. Used by the
/// determinism tests and the scaling bench, where >= 64 dies must stay
/// affordable.
std::vector<Job> monteCarloFtJobs(const bjtgen::Technology& nominal,
                                  const bjtgen::ProcessVariation& var,
                                  int dies, const std::string& shapeName,
                                  double ic,
                                  const std::string& keyPrefix = "mc-ft");

/// The batched data plane for monteCarloFtJobs: dies are grouped into
/// blocks of `batchSize` (one Job per block, block-major: job b covers
/// global dies [b*batchSize, min(dies, (b+1)*batchSize))) and each block
/// is solved through one spice::ReplicaBatch — one pattern priming and
/// symbolic analysis per block instead of per die, and one batched
/// operating point per BiasSearch step for the whole block.
///
/// Per-die results are bit-identical to the scalar pipeline
/// (monteCarloFtJobs): die d's card is drawn from
/// deriveJobSeed(baseSeed, d), exactly the seed the scalar job at index
/// d receives. `baseSeed` must therefore match RunnerOptions::baseSeed
/// of the runner executing these jobs; it is baked into the job key
/// (jobs set usesSeed = false because they consume many seeds, not
/// JobContext::seed).
///
/// Metrics per block: "die<d>/ft" and "die<d>/vbe" with the GLOBAL die
/// index, plus "dies" and "failed" counts; a die whose bias bracket
/// rejects `ic` gets "die<d>/failed" = 1 instead of ft/vbe. The same
/// columns ride along as a binary waveform payload (JobResult::wave,
/// columns die/ic/vbe/ft) for bulk consumers. Convergence forensics is
/// not supported on the batched plane, so these jobs strip
/// AnalysisOptions::forensics.
std::vector<Job> monteCarloFtBatchJobs(const bjtgen::Technology& nominal,
                                       const bjtgen::ProcessVariation& var,
                                       int dies, const std::string& shapeName,
                                       double ic, int batchSize,
                                       std::uint64_t baseSeed,
                                       const std::string& keyPrefix = "mc-ft");

/// Process-corner enumeration (kSlow/kTypical/kFast, in that order): fT
/// of `shapeName` at `ic` on each corner. Metrics: "ft", "vbe".
std::vector<Job> cornerFtJobs(const bjtgen::Technology& nominal,
                              const bjtgen::ProcessVariation& var,
                              const std::string& shapeName, double ic,
                              double sigmas = 3.0,
                              const std::string& keyPrefix = "corner-ft");

/// One (sigmaPhase, sigmaGain) spec point of the tuner's image-rejection
/// yield study, split into `chunks` independently-seeded jobs of
/// samples/chunks draws each (usesSeed = true). Jobs are chunk-major per
/// corner; reduce with tuner::mergeIrrYield over each corner's chunk
/// range. Metrics: "samples", "passing", "meanIrrDb", "worstIrrDb".
struct IrrYieldCorner {
  double sigmaPhaseDeg = 0.0;
  double sigmaGain = 0.0;
};
std::vector<Job> irrYieldJobs(const std::vector<IrrYieldCorner>& corners,
                              double targetDb, int samplesPerCorner,
                              int chunks = 4,
                              const std::string& keyPrefix = "irr-yield");

/// Reduces the outcomes of irrYieldJobs back to one result per corner
/// (in corner order). Failed chunks are skipped.
std::vector<tuner::IrrYieldResult> reduceIrrYield(
    const std::vector<JobOutcome>& outcomes, int corners, int chunks);

}  // namespace ahfic::runner
