// MnaCore (spice/mna.h) and the two engines on it. Analyzer and
// ReplicaBatch share one layout, one primed pattern, one symbolic
// analysis and one convergence test, so:
//   - a replica whose card drops an internal node is rejected on layout
//     before anything is solved;
//   - the batch reads reltol, vntol, abstol and gmin exactly where the
//     scalar Analyzer does, so it matches a fresh Analyzer::op() bit for
//     bit (and iteration for iteration) under non-default tolerances too;
//   - the early-exit and the forensics convergence scans decide alike.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bjtgen/montecarlo.h"
#include "spice/analysis.h"
#include "spice/batch.h"
#include "spice/bjt.h"
#include "spice/circuit.h"
#include "spice/diode.h"
#include "spice/mna.h"
#include "spice/passive.h"
#include "spice/sources.h"
#include "util/error.h"

namespace sp = ahfic::spice;
namespace bg = ahfic::bjtgen;

namespace {

std::string hexFloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// The scalar icAtVbe bias cell from bjtgen/ft.cpp.
std::unique_ptr<sp::Circuit> biasCell(const sp::BjtModel& card, double vbe) {
  auto ckt = std::make_unique<sp::Circuit>();
  const int c = ckt->node("c"), b = ckt->node("b");
  ckt->add<sp::VSource>("VB", b, 0, vbe);
  ckt->add<sp::VSource>("VC", c, 0, 2.0);
  ckt->add<sp::Bjt>("Q1", *ckt, c, b, 0, card);
  return ckt;
}

std::vector<sp::BjtModel> perturbedCards(int count, std::uint64_t seed) {
  std::vector<sp::BjtModel> cards;
  const bg::Technology nominal = bg::defaultTechnology();
  const bg::ProcessVariation var;
  for (int d = 0; d < count; ++d)
    cards.push_back(
        bg::dieGenerator(nominal, var, seed + d).generate("N1.2-6S"));
  return cards;
}

/// Loose, non-default tolerances: every one of them differs from the
/// AnalysisOptions defaults.
sp::AnalysisOptions looseOptions() {
  sp::AnalysisOptions o;
  o.reltol = 1e-2;
  o.vntol = 1e-4;
  o.abstol = 1e-7;
  o.gmin = 1e-10;
  return o;
}

}  // namespace

TEST(ReplicaBatchTest, RejectsReplicaWithDifferentInternalNodes) {
  // RB = 0 drops the transistor's internal base node: one unknown fewer,
  // so the replica's core has a different layout.
  auto cards = perturbedCards(3, 31);
  ASSERT_GT(cards[2].rb, 0.0);
  cards[2].rb = 0.0;
  std::vector<std::unique_ptr<sp::Circuit>> replicas;
  for (const auto& card : cards) replicas.push_back(biasCell(card, 0.8));
  ASSERT_EQ(replicas[2]->nodeCount() + 1, replicas[0]->nodeCount());
  try {
    sp::ReplicaBatch batch(std::move(replicas));
    FAIL() << "a replica without the internal base node was accepted";
  } catch (const ahfic::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("replica 2"), std::string::npos) << what;
    EXPECT_NE(what.find("(layout)"), std::string::npos) << what;
  }
}

TEST(ReplicaBatchTest, BitIdenticalUnderNonDefaultTolerances) {
  const sp::AnalysisOptions loose = looseOptions();
  const auto cards = perturbedCards(8, 4711);
  std::vector<std::unique_ptr<sp::Circuit>> replicas;
  for (const auto& card : cards) replicas.push_back(biasCell(card, 0.0));
  sp::ReplicaBatch::Options bo;
  bo.analysis = loose;
  sp::ReplicaBatch batch(std::move(replicas), bo);

  int differFromDefaults = 0;
  long looseIterations = 0;
  for (const double vbe : {0.55, 0.75, 0.9, 1.1}) {
    for (int r = 0; r < batch.replicaCount(); ++r) {
      auto* vb = dynamic_cast<sp::VSource*>(batch.circuit(r).findDevice("VB"));
      ASSERT_NE(vb, nullptr);
      vb->setWaveform(std::make_unique<sp::DcWaveform>(vbe));
    }
    const auto res = batch.op();
    for (int r = 0; r < batch.replicaCount(); ++r) {
      const auto ri = static_cast<size_t>(r);
      auto scalarCkt = biasCell(cards[ri], vbe);
      sp::Analyzer an(*scalarCkt, loose);
      const auto xs = an.op();
      ASSERT_EQ(xs.size(), res.x[ri].size());
      for (size_t i = 0; i < xs.size(); ++i)
        EXPECT_EQ(hexFloat(xs[i]), hexFloat(res.x[ri][i]))
            << "vbe " << vbe << " replica " << r << " unknown " << i + 1;
      EXPECT_EQ(res.iterations[ri], an.stats().newtonIterations)
          << "vbe " << vbe << " replica " << r;
      EXPECT_EQ(res.fellBack[ri], 0);
      looseIterations += res.iterations[ri];

      auto defaultCkt = biasCell(cards[ri], vbe);
      if (sp::Analyzer(*defaultCkt).op() != xs) ++differFromDefaults;
    }
  }
  // The options reach the solve: they move the answers, and the block's
  // Newton count under them is pinned (recorded with these cards).
  EXPECT_GT(differFromDefaults, 0);
  EXPECT_EQ(looseIterations, 284);
  EXPECT_EQ(batch.stats().patternInserts, 0);
}

TEST(MnaCore, EarlyExitAndForensicsScansDecideAlike) {
  auto ckt = biasCell(perturbedCards(1, 5)[0], 0.8);
  sp::MnaCore core(*ckt);
  const sp::AnalysisOptions o = looseOptions();
  const auto n = static_cast<size_t>(core.unknownCount());
  const std::vector<double> x(n, 0.5);
  for (const double step : {0.0, 1e-9, 1e-6, 4e-3, 1e-2, 0.3}) {
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> xNew = x;
      xNew[i] += step;
      const auto scan = core.scanConvergence(o, x, xNew);
      EXPECT_EQ(scan.converged, core.converged(o, x, xNew))
          << "step " << step << " on unknown " << i + 1;
      if (step > 0.0) EXPECT_EQ(scan.worstUnknown, static_cast<int>(i) + 1);
    }
  }
}

TEST(MnaCore, AdoptAnalysisRejectsDifferentPattern) {
  const auto cards = perturbedCards(1, 9);
  auto a = biasCell(cards[0], 0.8);
  auto b = std::make_unique<sp::Circuit>();
  const int c = b->node("c"), bb = b->node("b");
  b->add<sp::VSource>("VB", bb, 0, 0.8);
  b->add<sp::VSource>("VC", c, 0, 2.0);
  b->add<sp::Bjt>("Q1", *b, c, c, 0, cards[0]);  // base tied to collector
  sp::MnaCore ca(*a), cb(*b);
  ASSERT_TRUE(ca.sameLayout(cb));
  ASSERT_FALSE(ca.samePattern(cb));
  EXPECT_THROW(cb.adoptAnalysis(ca), ahfic::Error);
}
