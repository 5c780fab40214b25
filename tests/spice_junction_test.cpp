// Property tests of the shared junction physics helpers: continuity of
// the depletion charge/capacitance at the FC transition, the exponential
// continuation at the overflow limit, pnjlim's fixpoint behaviour, and
// bit identity of the per-instance depletion constants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "bjtgen/generator.h"
#include "spice/gummel.h"
#include "spice/junction.h"

namespace sp = ahfic::spice;

class DepletionParamTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {
};

TEST_P(DepletionParamTest, ContinuousAtFcTransition) {
  const auto [vj, m, fc] = GetParam();
  const double cj0 = 10e-15;
  const double vt = fc * vj;
  const double eps = vj * 1e-9;
  const auto below = sp::depletionQC(vt - eps, cj0, vj, m, fc);
  const auto above = sp::depletionQC(vt + eps, cj0, vj, m, fc);
  // Charge and capacitance are both continuous across the linearisation
  // boundary.
  EXPECT_NEAR(below.q, above.q, std::fabs(below.q) * 1e-5 + 1e-22);
  EXPECT_NEAR(below.c, above.c, below.c * 1e-4);
}

TEST_P(DepletionParamTest, CapacitanceIsChargeDerivative) {
  const auto [vj, m, fc] = GetParam();
  const double cj0 = 10e-15;
  for (double v : {-5.0, -1.0, 0.0, 0.3 * vj, fc * vj + 0.2, 1.5}) {
    const double h = 1e-6;
    const auto lo = sp::depletionQC(v - h, cj0, vj, m, fc);
    const auto hi = sp::depletionQC(v + h, cj0, vj, m, fc);
    const auto mid = sp::depletionQC(v, cj0, vj, m, fc);
    EXPECT_NEAR((hi.q - lo.q) / (2 * h), mid.c, mid.c * 1e-3 + 1e-20)
        << "v=" << v;
  }
}

TEST_P(DepletionParamTest, CapacitanceGrowsTowardForwardBias) {
  const auto [vj, m, fc] = GetParam();
  const double cj0 = 10e-15;
  double prev = 0.0;
  for (double v = -3.0; v < vj; v += 0.1) {
    const auto qc = sp::depletionQC(v, cj0, vj, m, fc);
    EXPECT_GT(qc.c, prev) << v;
    prev = qc.c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    JunctionShapes, DepletionParamTest,
    ::testing::Values(std::make_tuple(0.75, 0.33, 0.5),
                      std::make_tuple(0.85, 0.35, 0.5),
                      std::make_tuple(0.65, 0.5, 0.5),
                      std::make_tuple(0.55, 0.4, 0.0)));

TEST(Depletion, ZeroCj0IsZero) {
  const auto qc = sp::depletionQC(0.3, 0.0, 0.75, 0.33, 0.5);
  EXPECT_EQ(qc.q, 0.0);
  EXPECT_EQ(qc.c, 0.0);
}

TEST(JunctionIv, MatchesIdealExponentialInRange) {
  const double isat = 1e-16, vte = 0.02585;
  for (double v : {-0.5, 0.0, 0.3, 0.6, 0.8}) {
    const auto iv = sp::junctionIV(v, isat, vte);
    EXPECT_NEAR(iv.i, isat * (std::exp(v / vte) - 1.0),
                std::fabs(iv.i) * 1e-12 + 1e-30);
    EXPECT_NEAR(iv.g, isat / vte * std::exp(v / vte), iv.g * 1e-12);
  }
}

TEST(JunctionIv, ContinuousAtOverflowLimit) {
  const double isat = 1e-16, vte = 0.02585;
  const double vLim = 80.0 * vte;
  const auto below = sp::junctionIV(vLim - 1e-9, isat, vte);
  const auto above = sp::junctionIV(vLim + 1e-9, isat, vte);
  EXPECT_NEAR(below.i, above.i, below.i * 1e-6);
  EXPECT_NEAR(below.g, above.g, below.g * 1e-6);
  // Beyond the limit growth is linear, not exponential: finite values at
  // absurd voltages.
  const auto far = sp::junctionIV(100.0, isat, vte);
  EXPECT_TRUE(std::isfinite(far.i));
  EXPECT_TRUE(std::isfinite(far.g));
}

TEST(JunctionIv, DeepReverseSaturates) {
  const auto iv = sp::junctionIV(-50.0, 1e-14, 0.02585);
  EXPECT_NEAR(iv.i, -1e-14, 1e-20);
  EXPECT_GE(iv.g, 0.0);
}

TEST(Pnjlim, IdentityWhenCloseOrBelowCritical) {
  const double vte = 0.02585;
  const double vcrit = sp::junctionVcrit(1e-16, vte);
  // Below vcrit: never limited.
  EXPECT_DOUBLE_EQ(sp::pnjlim(0.3, 0.0, vte, vcrit), 0.3);
  // Small steps above vcrit: unchanged.
  EXPECT_DOUBLE_EQ(sp::pnjlim(vcrit + 0.01, vcrit + 0.005, vte, vcrit),
                   vcrit + 0.01);
}

TEST(Pnjlim, LargeForwardStepsAreDamped) {
  const double vte = 0.02585;
  const double vcrit = sp::junctionVcrit(1e-16, vte);
  const double vOld = 0.6;
  const double vNew = sp::pnjlim(5.0, vOld, vte, vcrit);
  EXPECT_LT(vNew, 5.0);
  EXPECT_GT(vNew, vOld);  // still makes progress
  // Iterating converges to any target above vcrit.
  double v = 0.6;
  const double target = 0.95;
  for (int k = 0; k < 200; ++k) v = sp::pnjlim(target, v, vte, vcrit);
  EXPECT_NEAR(v, target, 1e-9);
}

TEST(Pnjlim, FixpointIsStable) {
  const double vte = 0.02585;
  const double vcrit = sp::junctionVcrit(1e-16, vte);
  for (double v : {0.1, 0.7, 0.9, 1.1})
    EXPECT_DOUBLE_EQ(sp::pnjlim(v, v, vte, vcrit), v);
}

TEST(JunctionVcrit, TypicalSiliconValue) {
  // vcrit = vte * ln(vte / (sqrt(2) * is)): ~0.8 V for is = 1e-16.
  const double vcrit = sp::junctionVcrit(1e-16, 0.02585);
  EXPECT_GT(vcrit, 0.7);
  EXPECT_LT(vcrit, 0.95);
}

// ---------------------------------------------------------------------------
// Bit identity of the per-instance depletion constants. The reference
// functions below are verbatim copies of depletionQC() and gummelCharges()
// as they were before the bias-independent parts moved into
// DepletionConsts; the production forms must reproduce them bit for bit
// (not just within tolerance) on both sides of every fc*vj boundary.

namespace reference {

sp::DepletionQC depletionQC(double v, double cj0, double vj, double m,
                            double fc) {
  if (cj0 <= 0.0) return {0.0, 0.0};
  const double vf = fc * vj;
  if (v < vf) {
    const double a = 1.0 - v / vj;
    const double c = cj0 * std::pow(a, -m);
    const double q = cj0 * vj / (1.0 - m) * (1.0 - std::pow(a, 1.0 - m));
    return {q, c};
  }
  const double f1 = vj / (1.0 - m) * (1.0 - std::pow(1.0 - fc, 1.0 - m));
  const double f2 = std::pow(1.0 - fc, -(1.0 + m));
  const double f3 = 1.0 - fc * (1.0 + m);
  const double c = cj0 * f2 * (f3 + m * v / vj);
  const double q =
      cj0 * (f1 + f2 * (f3 * (v - vf) + 0.5 * m / vj * (v * v - vf * vf)));
  return {q, c};
}

sp::GummelPoonCharges gummelCharges(const sp::BjtModel& m, double vbe,
                                    double vbc, double vcs,
                                    const sp::GummelPoonEval& e) {
  sp::GummelPoonCharges c{};
  {
    const auto dep = depletionQC(vbe, m.cje, m.vje, m.mje, m.fc);
    double qde = 0.0, cde = 0.0;
    if (m.tf > 0.0) {
      double argtf = 0.0, arg2 = 0.0;
      if (m.xtf > 0.0) {
        argtf = m.xtf;
        if (m.vtf > 0.0)
          argtf *= std::exp(std::min(vbc / (1.44 * m.vtf), 40.0));
        arg2 = argtf;
        if (m.itf > 0.0 && e.ibe1 > 0.0) {
          const double temp = e.ibe1 / (e.ibe1 + m.itf);
          argtf *= temp * temp;
          arg2 = argtf * (3.0 - 2.0 * temp);
        }
      }
      qde = m.tf * (1.0 + argtf) * e.ibe1 / e.qb;
      cde = m.tf *
            (e.gbe1 * (1.0 + arg2) -
             e.ibe1 * (1.0 + argtf) * e.dqbDvbe / e.qb) /
            e.qb;
      cde = std::max(cde, 0.0);
    }
    c.qbe = dep.q + qde;
    c.cbe = dep.c + cde;
  }
  {
    const auto depInt = depletionQC(vbc, m.cjc * m.xcjc, m.vjc, m.mjc,
                                    m.fc);
    c.qbc = depInt.q + m.tr * e.ibc1;
    c.cbc = depInt.c + m.tr * e.gbc1;
    const auto depExt = depletionQC(vbc, m.cjc * (1.0 - m.xcjc), m.vjc,
                                    m.mjc, m.fc);
    c.qbx = depExt.q;
    c.cbx = depExt.c;
  }
  {
    const auto dep = depletionQC(vcs, m.cjs, m.vjs, m.mjs, 0.0);
    c.qcs = dep.q;
    c.ccs = dep.c;
  }
  return c;
}

}  // namespace reference

namespace {

/// `n` points over [lo, hi], plus the boundary `vf` itself and its two
/// floating-point neighbours.
std::vector<double> gridAround(double lo, double hi, int n, double vf) {
  std::vector<double> g;
  for (int i = 0; i < n; ++i) g.push_back(lo + (hi - lo) * i / (n - 1));
  g.push_back(vf);
  g.push_back(std::nextafter(vf, -1e9));
  g.push_back(std::nextafter(vf, 1e9));
  return g;
}

template <typename T>
bool sameBits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

}  // namespace

TEST(DepletionBits, ConstsFormMatchesReferenceBitForBit) {
  for (const auto& [vj, m, fc] :
       {std::make_tuple(0.75, 0.33, 0.5), std::make_tuple(0.55, 0.4, 0.0),
        std::make_tuple(0.85, 0.35, 0.7), std::make_tuple(0.65, 0.5, 0.5)}) {
    const double cj0 = 37e-15;
    const sp::DepletionConsts k = sp::depletionConsts(cj0, vj, m, fc);
    for (double v : gridAround(-6.0, 1.5, 4001, fc * vj)) {
      const auto want = reference::depletionQC(v, cj0, vj, m, fc);
      ASSERT_TRUE(sameBits(sp::depletionQC(v, k), want))
          << "vj=" << vj << " m=" << m << " fc=" << fc << " v=" << v;
    }
  }
}

TEST(DepletionBits, GummelChargesMatchReferenceBitForBit) {
  // A card with every charge term active and a real XCJC split, one with
  // the whole CJC at the internal base, and a generated paper shape.
  sp::BjtModel split;
  split.is = 2e-17;
  split.bf = 120.0;
  split.ikf = 8e-3;
  split.ikr = 1e-3;
  split.vaf = 40.0;
  split.var = 4.0;
  split.ise = 1e-15;
  split.isc = 1e-15;
  split.cje = 60e-15;
  split.vje = 0.9;
  split.mje = 0.4;
  split.cjc = 30e-15;
  split.vjc = 0.7;
  split.mjc = 0.35;
  split.xcjc = 0.4;
  split.cjs = 80e-15;
  split.vjs = 0.6;
  split.mjs = 0.45;
  split.fc = 0.6;
  split.tf = 8e-12;
  split.xtf = 3.0;
  split.vtf = 2.0;
  split.itf = 20e-3;
  split.tr = 1e-9;
  sp::BjtModel whole = split;
  whole.xcjc = 1.0;
  const sp::BjtModel generated =
      ahfic::bjtgen::ModelGenerator::withDefaultTechnology().generate(
          "N1.2-12D");

  long points = 0;
  for (const sp::BjtModel& card : {split, whole, generated}) {
    const sp::GummelPoonDepletion k = sp::gummelDepletion(card);
    const auto vbeGrid = gridAround(-3.0, 1.1, 83, card.fc * card.vje);
    const auto vbcGrid = gridAround(-5.0, 0.9, 83, card.fc * card.vjc);
    // C-S uses fc = 0: its boundary is 0 V.
    const auto vcsGrid = gridAround(-5.0, 0.8, 7, 0.0);
    for (double vbe : vbeGrid) {
      for (double vbc : vbcGrid) {
        const sp::GummelPoonEval e =
            sp::gummelEvaluate(card, 0.025852, vbe, vbc, 1e-12);
        for (double vcs : vcsGrid) {
          const auto want = reference::gummelCharges(card, vbe, vbc, vcs, e);
          const auto got = sp::gummelCharges(card, k, vbe, vbc, vcs, e);
          ASSERT_TRUE(sameBits(got, want))
              << "vbe=" << vbe << " vbc=" << vbc << " vcs=" << vcs;
          ++points;
        }
      }
    }
  }
  EXPECT_GT(points, 100000);
}
