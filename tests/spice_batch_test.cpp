// Scalar-vs-batched equivalence for the Monte-Carlo data plane.
//
// The contract under test (spice/batch.h): for identical circuits and
// options, every solution ReplicaBatch::op() returns is BIT-identical —
// hex-float compare, not a tolerance — to a fresh Analyzer::op() on that
// replica's circuit, both under default AnalysisOptions. Randomized over
// perturbed Gummel-Poon and diode cards, plus the failure-path cases:
// pivot-collapse replay inside SparseLU, iteration-starved fallback, and
// topology-mismatch rejection.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bjtgen/batchft.h"
#include "bjtgen/ft.h"
#include "bjtgen/montecarlo.h"
#include "spice/analysis.h"
#include "spice/batch.h"
#include "spice/bjt.h"
#include "spice/circuit.h"
#include "spice/csr.h"
#include "spice/diode.h"
#include "spice/mosfet.h"
#include "spice/passive.h"
#include "spice/solution.h"
#include "spice/sources.h"
#include "spice/sparse_lu.h"
#include "util/numeric.h"

namespace sp = ahfic::spice;
namespace bg = ahfic::bjtgen;

namespace {

std::string hexFloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Bit-exact vector compare with a readable failure message.
void expectBitIdentical(const std::vector<double>& scalar,
                        const std::vector<double>& batched,
                        const std::string& what) {
  ASSERT_EQ(scalar.size(), batched.size()) << what;
  for (size_t i = 0; i < scalar.size(); ++i)
    EXPECT_EQ(hexFloat(scalar[i]), hexFloat(batched[i]))
        << what << " unknown " << i + 1;
}

/// The scalar icAtVbe bias cell from bjtgen/ft.cpp.
std::unique_ptr<sp::Circuit> biasCell(const sp::BjtModel& card, double vbe,
                                      double vce) {
  auto ckt = std::make_unique<sp::Circuit>();
  const int c = ckt->node("c"), b = ckt->node("b");
  ckt->add<sp::VSource>("VB", b, 0, vbe);
  ckt->add<sp::VSource>("VC", c, 0, vce);
  ckt->add<sp::Bjt>("Q1", *ckt, c, b, 0, card);
  return ckt;
}

/// A diode-bridge-ish cell exercising the diode SoA kernel: series
/// resistor, two diodes (one floating junction, one to ground).
std::unique_ptr<sp::Circuit> diodeCell(const sp::DiodeModel& m, double vs) {
  auto ckt = std::make_unique<sp::Circuit>();
  const int in = ckt->node("in"), a = ckt->node("a"), mid = ckt->node("mid");
  ckt->add<sp::VSource>("VS", in, 0, vs);
  ckt->add<sp::Resistor>("R1", in, a, 1e3);
  ckt->add<sp::Diode>("D1", *ckt, a, mid, m);
  ckt->add<sp::Diode>("D2", *ckt, mid, 0, m);
  return ckt;
}

std::vector<sp::BjtModel> perturbedCards(int count, std::uint64_t seed) {
  std::vector<sp::BjtModel> cards;
  cards.reserve(static_cast<size_t>(count));
  const bg::Technology nominal = bg::defaultTechnology();
  const bg::ProcessVariation var;
  for (int d = 0; d < count; ++d) {
    const auto gen = bg::dieGenerator(nominal, var, seed + d);
    cards.push_back(gen.generate("N1.2-6S"));
  }
  return cards;
}

}  // namespace

TEST(ReplicaBatchTest, BitIdenticalToScalarSparseAnalyzerOnBjtCells) {
  const auto cards = perturbedCards(12, 20260808);
  const double vce = 2.0;
  const double vbes[] = {0.3, 0.65, 0.8, 1.15};

  std::vector<std::unique_ptr<sp::Circuit>> replicas;
  for (const auto& card : cards) replicas.push_back(biasCell(card, 0.0, vce));
  sp::ReplicaBatch batch(std::move(replicas));

  for (const double vbe : vbes) {
    for (int r = 0; r < batch.replicaCount(); ++r) {
      auto* vb = dynamic_cast<sp::VSource*>(batch.circuit(r).findDevice("VB"));
      ASSERT_NE(vb, nullptr);
      vb->setWaveform(std::make_unique<sp::DcWaveform>(vbe));
    }
    const auto res = batch.op();
    for (int r = 0; r < batch.replicaCount(); ++r) {
      auto scalarCkt = biasCell(cards[static_cast<size_t>(r)], vbe, vce);
      sp::Analyzer an(*scalarCkt);
      const auto xs = an.op();
      expectBitIdentical(xs, res.x[static_cast<size_t>(r)],
                         "vbe=" + hexFloat(vbe) + " replica " +
                             std::to_string(r));
      EXPECT_EQ(res.fellBack[static_cast<size_t>(r)], 0);
    }
  }
  // Shared-structure accounting: with R replicas and one full factor per
  // replica per op, every further iteration must replay.
  EXPECT_GT(batch.stats().refactors, 0);
  EXPECT_EQ(batch.stats().fallbacks, 0);
  EXPECT_EQ(batch.stats().patternInserts, 0);
}

TEST(ReplicaBatchTest, BitIdenticalOnDiodeCells) {
  sp::DiodeModel base;
  base.is = 1e-14;
  base.n = 1.05;
  base.rs = 4.0;
  base.cj0 = 0.4e-12;
  std::vector<std::unique_ptr<sp::Circuit>> replicas;
  std::vector<sp::DiodeModel> models;
  for (int r = 0; r < 8; ++r) {
    sp::DiodeModel m = base;
    m.is *= 1.0 + 0.07 * r;
    m.rs *= 1.0 + 0.03 * r;
    models.push_back(m);
    replicas.push_back(diodeCell(m, 2.5));
  }
  sp::ReplicaBatch batch(std::move(replicas));
  const auto res = batch.op();
  for (int r = 0; r < batch.replicaCount(); ++r) {
    auto scalarCkt = diodeCell(models[static_cast<size_t>(r)], 2.5);
    sp::Analyzer an(*scalarCkt);
    expectBitIdentical(an.op(), res.x[static_cast<size_t>(r)],
                       "diode replica " + std::to_string(r));
  }
}

TEST(ReplicaBatchTest, IterationStarvedReplicaFallsBackBitIdentically) {
  // With maxNewtonIters too small, plain Newton fails in both paths; the
  // scalar Analyzer escalates to gmin stepping inside op(), and the batch
  // falls back to exactly that Analyzer — results must still match bits.
  const auto cards = perturbedCards(4, 77);
  sp::AnalysisOptions opts;
  opts.maxNewtonIters = 8;  // plain Newton needs ~16 from x = 0 here

  std::vector<std::unique_ptr<sp::Circuit>> replicas;
  for (const auto& card : cards) replicas.push_back(biasCell(card, 0.9, 2.0));
  sp::ReplicaBatch::Options bo;
  bo.analysis = opts;
  sp::ReplicaBatch batch(std::move(replicas), bo);
  const auto res = batch.op();
  ASSERT_GT(batch.stats().fallbacks, 0);
  for (int r = 0; r < batch.replicaCount(); ++r) {
    EXPECT_EQ(res.fellBack[static_cast<size_t>(r)], 1);
    auto scalarCkt = biasCell(cards[static_cast<size_t>(r)], 0.9, 2.0);
    sp::Analyzer an(*scalarCkt, opts);
    expectBitIdentical(an.op(), res.x[static_cast<size_t>(r)],
                       "starved replica " + std::to_string(r));
  }
}

TEST(ReplicaBatchTest, RejectsTopologyMismatch) {
  const auto cards = perturbedCards(2, 5);
  std::vector<std::unique_ptr<sp::Circuit>> replicas;
  replicas.push_back(biasCell(cards[0], 0.7, 2.0));
  // Same device count but a different wiring: Q1's base tied to the
  // collector node instead of its own — a different sparsity pattern.
  {
    auto ckt = std::make_unique<sp::Circuit>();
    const int c = ckt->node("c"), b = ckt->node("b");
    ckt->add<sp::VSource>("VB", b, 0, 0.7);
    ckt->add<sp::VSource>("VC", c, 0, 2.0);
    ckt->add<sp::Bjt>("Q1", *ckt, c, c, 0, cards[1]);
    replicas.push_back(std::move(ckt));
  }
  EXPECT_THROW(sp::ReplicaBatch(std::move(replicas)), ahfic::Error);
}

TEST(ReplicaBatchTest, RejectsUnsupportedNonlinearDevice) {
  std::vector<std::unique_ptr<sp::Circuit>> replicas;
  for (int r = 0; r < 2; ++r) {
    auto ckt = std::make_unique<sp::Circuit>();
    const int d = ckt->node("d"), g = ckt->node("g");
    ckt->add<sp::VSource>("VD", d, 0, 1.0);
    ckt->add<sp::VSource>("VG", g, 0, 1.0);
    ckt->add<sp::Mosfet>("M1", *ckt, d, g, 0, 0, sp::MosModel{});
    replicas.push_back(std::move(ckt));
  }
  EXPECT_THROW(sp::ReplicaBatch(std::move(replicas)), ahfic::Error);
}

TEST(SparseLuBatchTest, PivotCollapseReplayFallsBackToFullFactor) {
  // Record a factorization whose pivot order becomes untenable for the
  // second value set: refactor must detect the collapsed pivot and
  // factor() must auto-recover with a fresh pivoting factorization.
  sp::CsrPattern pat;
  pat.build(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  sp::SparseLU<double> lu;
  lu.analyze(pat);

  // Diagonally dominant: pivots stay on the diagonal.
  std::vector<double> good(pat.nonzeros(), 0.0);
  good[static_cast<size_t>(pat.slot(0, 0))] = 4.0;
  good[static_cast<size_t>(pat.slot(0, 1))] = 1.0;
  good[static_cast<size_t>(pat.slot(1, 0))] = 1.0;
  good[static_cast<size_t>(pat.slot(1, 1))] = 4.0;
  ASSERT_EQ(lu.factor(good), sp::SparseLU<double>::FactorOutcome::kFullFactor);
  ASSERT_TRUE(lu.hasRecordedFactorization());

  // Kill the recorded first pivot; the matrix stays well-conditioned via
  // the off-diagonals, so a full factor succeeds where the replay cannot.
  std::vector<double> collapsed = good;
  collapsed[static_cast<size_t>(pat.slot(0, 0))] = 0.0;
  EXPECT_EQ(lu.factor(collapsed),
            sp::SparseLU<double>::FactorOutcome::kFullFactor);
  std::vector<double> x(2, 0.0);
  lu.solve({1.0, 1.0}, x);
  // Solution of [[0,1],[1,4]] x = [1,1]: x = [-3, 1].
  EXPECT_NEAR(x[0], -3.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(BatchFtExtractorTest, BitIdenticalToScalarFtExtractor) {
  const auto cards = perturbedCards(6, 424242);
  const double ic = 1e-3;
  bg::BatchFtExtractor bx(cards);
  const auto batched = bx.measureAnalyticAt(ic);
  ASSERT_EQ(batched.size(), cards.size());
  for (size_t r = 0; r < cards.size(); ++r) {
    const bg::FtExtractor fx(cards[r]);
    const auto scalar = fx.measureAnalyticAt(ic);
    ASSERT_TRUE(batched[r].ok) << batched[r].error;
    EXPECT_EQ(hexFloat(scalar.vbe), hexFloat(batched[r].point.vbe))
        << "die " << r;
    EXPECT_EQ(hexFloat(scalar.ft), hexFloat(batched[r].point.ft))
        << "die " << r;
  }
}

TEST(BatchFtExtractorTest, OutOfRangeDieReportsScalarErrorWithoutThrowing) {
  const auto cards = perturbedCards(3, 9);
  bg::BatchFtExtractor bx(cards);
  const auto res = bx.measureAnalyticAt(1e3);  // far beyond any bias cell
  for (const auto& die : res) {
    EXPECT_FALSE(die.ok);
    EXPECT_EQ(die.error, "FtExtractor: target current out of bias range");
  }
  EXPECT_THROW(bx.measureAnalyticAt(0.0), ahfic::Error);
}
