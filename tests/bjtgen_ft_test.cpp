// fT extraction harness: AC vs analytic agreement and the Fig. 9 physics
// (peak-fT current tracks emitter area; curves roll off past the knee).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bjtgen/ft.h"
#include "bjtgen/generator.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/numeric.h"
#include "util/units.h"

namespace bg = ahfic::bjtgen;

namespace {
const bg::ModelGenerator& gen() {
  static bg::ModelGenerator g = bg::ModelGenerator::withDefaultTechnology();
  return g;
}

std::string hexFloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Enables metrics for one test and restores the disabled default.
struct MetricsOn {
  MetricsOn() {
    ahfic::obs::metrics().resetForTest();
    ahfic::obs::setMetricsEnabled(true);
  }
  ~MetricsOn() {
    ahfic::obs::setMetricsEnabled(false);
    ahfic::obs::metrics().resetForTest();
  }
};

long long opCount() {
  return ahfic::obs::metrics().snapshot().counterValue("spice.analyses.op");
}
}  // namespace

TEST(FtExtractor, AcAndAnalyticAgree) {
  bg::FtExtractor fx(gen().generate("N1.2-6D"));
  for (double ic : {0.2e-3, 0.8e-3, 2.0e-3}) {
    const auto ac = fx.measureAt(ic);
    const auto an = fx.measureAnalyticAt(ic);
    EXPECT_NEAR(ac.ft, an.ft, an.ft * 0.12) << "ic=" << ic;
    EXPECT_NEAR(ac.vbe, an.vbe, 1e-3);
  }
}

TEST(FtExtractor, BiasSolveHitsTargetCurrent) {
  bg::FtExtractor fx(gen().generate("N1.2-12D"));
  const auto pt = fx.measureAt(1.0e-3);
  EXPECT_NEAR(pt.ic, 1.0e-3, 1e-6);
  EXPECT_GT(pt.vbe, 0.7);
  EXPECT_LT(pt.vbe, 0.9);
}

TEST(FtExtractor, CurveRisesThenFalls) {
  bg::FtExtractor fx(gen().generate("N1.2-6D"));
  const auto pts = fx.sweep({0.05e-3, 0.5e-3, 5.0e-3});
  EXPECT_LT(pts[0].ft, pts[1].ft);  // depletion-cap limited at low Ic
  EXPECT_GT(pts[1].ft, pts[2].ft);  // high-injection droop past the knee
}

TEST(FtExtractor, PeakInCalibratedBand) {
  // The synthetic process is calibrated for the reference family to peak
  // in the upper half of Fig. 9's 5..10 GHz axis.
  bg::FtExtractor fx(gen().generate("N1.2-6D"));
  const auto peak = fx.findPeak(0.05e-3, 10e-3, 17);
  EXPECT_GT(peak.ftPeak, 8.0e9);
  EXPECT_LT(peak.ftPeak, 12.0e9);
  EXPECT_GT(peak.icPeak, 0.1e-3);
  EXPECT_LT(peak.icPeak, 3.0e-3);
}

TEST(FtExtractor, PeakCurrentScalesWithEmitterLength) {
  // Fig. 9's headline: "the collector current which gives the peak ft
  // changes depending on the shapes of the transistors."
  double prevIc = 0.0;
  for (const auto& shape : bg::fig9Shapes()) {
    bg::FtExtractor fx(gen().generate(shape));
    const auto peak = fx.findPeak(0.05e-3, 40e-3, 17);
    EXPECT_GT(peak.icPeak, prevIc) << shape.name();
    prevIc = peak.icPeak;
  }
}

TEST(FtExtractor, PeakFtSimilarAcrossFamily) {
  // Same vertical profile => similar peak fT across the Fig. 9 family.
  std::vector<double> peaks;
  for (const auto& shape : bg::fig9Shapes()) {
    bg::FtExtractor fx(gen().generate(shape));
    peaks.push_back(fx.findPeak(0.05e-3, 40e-3, 13).ftPeak);
  }
  const auto [mn, mx] = std::minmax_element(peaks.begin(), peaks.end());
  EXPECT_LT(*mx / *mn, 1.4);
}

TEST(FtExtractor, RejectsBadInputs) {
  bg::FtExtractor fx(gen().generate("N1.2-6D"));
  EXPECT_THROW(fx.measureAt(0.0), ahfic::Error);
  EXPECT_THROW(fx.measureAt(1.0), ahfic::Error);  // 1 A: beyond the cell
  // Below Ic(0.3 V) fails with the same text as beyond the top end.
  for (double ic : {1e-18, 1.0}) {
    try {
      fx.measureAnalyticAt(ic);
      ADD_FAILURE() << "ic=" << ic << " did not throw";
    } catch (const ahfic::Error& e) {
      EXPECT_STREQ(e.what(), "FtExtractor: target current out of bias range")
          << "ic=" << ic;
    }
  }
  EXPECT_THROW(fx.findPeak(1e-3, 1e-4), ahfic::Error);
  EXPECT_THROW(bg::FtExtractor(gen().generate("N1.2-6D"), -1.0),
               ahfic::Error);
}

TEST(FtExtractor, MaxBiasCurrentIsFiniteAndScales) {
  bg::FtExtractor small(gen().generate("N1.2-6D"));
  bg::FtExtractor large(gen().generate("N1.2-24D"));
  EXPECT_GT(small.maxBiasCurrent(), 1e-3);
  EXPECT_GT(large.maxBiasCurrent(), 2.0 * small.maxBiasCurrent());
}

TEST(FtExtractor, BiasSolveUsesFewOperatingPoints) {
  // Every bias solve is a root search over cold operating points, and
  // the last one is the bias itself. Over the Fig. 9 grid plus the 3 mA
  // Monte-Carlo current on all four shapes the search takes at most 7
  // OPs per point, 3.65 on average (88 points). The bounds leave margin
  // and still reject a plain bisection over the bracket (~18 OPs).
  std::vector<double> currents = {3e-3};
  for (double ic = 0.05e-3; ic <= 20.001e-3; ic *= std::pow(10.0, 0.125))
    currents.push_back(ic);
  MetricsOn metrics;
  long long total = 0;
  int points = 0;
  for (const auto& shape : bg::fig9Shapes()) {
    const bg::FtExtractor fx(gen().generate(shape));
    const double reach = 0.9 * fx.maxBiasCurrent();
    for (double ic : currents) {
      if (ic >= reach) continue;
      const long long before = opCount();
      const auto pt = fx.measureAnalyticAt(ic);
      const long long ops = opCount() - before;
      EXPECT_GT(pt.ft, 0.0);
      EXPECT_LE(ops, 9) << shape.name() << " ic=" << ic;
      total += ops;
      ++points;
    }
  }
  ASSERT_GT(points, 80);
  EXPECT_LE(total, 5 * points);
}

TEST(FtExtractor, PeakMatchesFreshPointExtractions) {
  // findPeak shares one bias cell across its scan; the result must equal
  // the peak over per-point extractions on fresh extractors.
  const auto card = gen().generate("N1.2-12D");
  const double icMin = 0.05e-3, icMaxAsked = 40e-3;
  const int points = 19;
  const auto peak = bg::FtExtractor(card).findPeak(icMin, icMaxAsked, points);

  const double icMax =
      std::min(icMaxAsked, 0.9 * bg::FtExtractor(card).maxBiasCurrent());
  std::vector<double> ics, fts;
  const double ratio = std::pow(icMax / icMin, 1.0 / (points - 1));
  double ic = icMin;
  for (int i = 0; i < points; ++i, ic *= ratio) {
    const auto pt = bg::FtExtractor(card).measureAt(ic);
    ics.push_back(pt.ic);
    fts.push_back(pt.ft);
  }
  const auto fresh = ahfic::util::findCurvePeak(ics, fts);
  EXPECT_EQ(hexFloat(peak.icPeak), hexFloat(fresh.x));
  EXPECT_EQ(hexFloat(peak.ftPeak), hexFloat(fresh.y));
}

namespace {
/// Drives a BiasSearch with a closed-form Ic(Vbe); returns the solves.
template <typename IcOf>
int runSearch(bg::BiasSearch& search, IcOf icOf) {
  int solves = 0;
  while (search.status() == bg::BiasSearch::Status::kSearching) {
    search.report(icOf(search.vbe()));
    ++solves;
  }
  return solves;
}
}  // namespace

TEST(BiasSearch, IdealDiodeIsSolvedByTheFirstGuess) {
  ahfic::spice::BjtModel card;
  card.is = 2e-17;
  card.nf = 1.02;
  const double nfVt = card.nf * ahfic::util::constants::thermalVoltage(27.0);
  bg::BiasSearch search(card, 1e-3);
  EXPECT_EQ(runSearch(search,
                      [&](double v) { return card.is * std::exp(v / nfVt); }),
            1);
  EXPECT_EQ(search.status(), bg::BiasSearch::Status::kSolved);
  EXPECT_NEAR(card.is * std::exp(search.vbe() / nfVt), 1e-3, 1e-6);
}

TEST(BiasSearch, OutOfRangeTargetsSolveOnlyTheBracketEnd) {
  ahfic::spice::BjtModel card;
  const double nfVt = card.nf * ahfic::util::constants::thermalVoltage(27.0);
  auto icOf = [&](double v) { return card.is * std::exp(v / nfVt); };
  std::vector<double> solved;
  for (double target : {1e-25, 1e6}) {
    bg::BiasSearch search(card, target);
    solved.clear();
    runSearch(search, [&](double v) {
      solved.push_back(v);
      return icOf(v);
    });
    EXPECT_EQ(search.status(), bg::BiasSearch::Status::kOutOfRange);
    ASSERT_EQ(solved.size(), 1u) << target;
    EXPECT_EQ(solved[0], target < 1.0 ? bg::BiasSearch::kVbeMin
                                      : bg::BiasSearch::kVbeMax);
  }
  EXPECT_THROW(bg::BiasSearch(card, 0.0), ahfic::Error);
}

TEST(BiasSearch, NonPositiveCurrentHeadsForTheTopEnd) {
  // A cell that never conducts forward (wrong polarity) reaches the top
  // bracket end and fails the range check instead of running to the cap.
  ahfic::spice::BjtModel card;
  bg::BiasSearch search(card, 1e-3);
  EXPECT_LE(runSearch(search, [](double) { return -1e-12; }), 2);
  EXPECT_EQ(search.status(), bg::BiasSearch::Status::kOutOfRange);
  EXPECT_EQ(search.vbe(), bg::BiasSearch::kVbeMax);
}
