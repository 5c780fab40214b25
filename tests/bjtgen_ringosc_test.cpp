// Fig. 11 ring oscillator: construction, oscillation, and the Table 1
// shape ordering.

#include <gtest/gtest.h>

#include "bjtgen/generator.h"
#include "bjtgen/ringosc.h"
#include "spice/analysis.h"
#include "util/error.h"

namespace bg = ahfic::bjtgen;
namespace sp = ahfic::spice;

namespace {
bg::RingOscillatorSpec defaultSpec() {
  static bg::ModelGenerator gen =
      bg::ModelGenerator::withDefaultTechnology();
  bg::RingOscillatorSpec spec;
  spec.diffPairModel = gen.generate("N1.2-12D");
  spec.followerModel = gen.generate("N1.2-6D");
  return spec;
}
}  // namespace

TEST(RingOscillator, BuildsExpectedDeviceCount) {
  sp::Circuit ckt;
  const auto nodes = buildRingOscillator(ckt, defaultSpec());
  // Per stage: 2 loads + 2 follower loads + 2 diff + 2 followers + 1 tail
  // = 9 devices; plus VCC and the kick source.
  EXPECT_EQ(ckt.devices().size(), 5u * 9u + 2u);
  EXPECT_NE(ckt.findNode(nodes.output), -1);
  EXPECT_NE(ckt.findDevice("Qd1_0"), nullptr);
  EXPECT_NE(ckt.findDevice("Qf2_4"), nullptr);
}

TEST(RingOscillator, DcOperatingPointIsEclLike) {
  sp::Circuit ckt;
  const auto spec = defaultSpec();
  buildRingOscillator(ckt, spec);
  sp::Analyzer an(ckt);
  const auto x = an.op();
  sp::Solution s(&x);
  // Balanced OP: collector nodes sit one half-swing below VCC.
  const double vc = s.at(ckt.findNode("cp0"));
  const double expected =
      spec.vcc - spec.collectorLoad * spec.tailCurrent / 2.0;
  EXPECT_NEAR(vc, expected, 0.15);
  // Follower outputs one Vbe below that.
  const double vf = s.at(ckt.findNode("fp0"));
  EXPECT_NEAR(vc - vf, 0.8, 0.15);
}

TEST(RingOscillator, OscillatesAtGhz) {
  const auto m = bg::measureRingFrequency(defaultSpec(), 8.0, 3.0);
  EXPECT_TRUE(m.oscillating);
  EXPECT_GT(m.frequency, 0.8e9);
  EXPECT_LT(m.frequency, 4.0e9);
  EXPECT_GT(m.peakToPeak, 0.3);
}

TEST(RingOscillator, Table1WinnerIsN12_12D) {
  // The paper's conclusion: "the best shape for the transistors was
  // N1.2-12D". Compare the winner against the single-base baseline and
  // one same-area-factor alternative.
  static bg::ModelGenerator gen =
      bg::ModelGenerator::withDefaultTechnology();
  auto freqFor = [&](const char* shape) {
    auto spec = defaultSpec();
    spec.diffPairModel = gen.generate(shape);
    const auto m = bg::measureRingFrequency(spec, 8.0, 3.0);
    EXPECT_TRUE(m.oscillating) << shape;
    return m.frequency;
  };
  const double f12d = freqFor("N1.2-12D");
  EXPECT_GT(f12d, freqFor("N1.2-6S"));
  EXPECT_GT(f12d, freqFor("N2.4-6D"));
  EXPECT_GT(f12d, freqFor("N1.2x2-6S"));
}

TEST(RingOscillator, SingleBaseIsClearlySlower) {
  static bg::ModelGenerator gen =
      bg::ModelGenerator::withDefaultTechnology();
  auto spec = defaultSpec();
  spec.diffPairModel = gen.generate("N1.2-6S");
  const auto slow = bg::measureRingFrequency(spec, 10.0, 4.0);
  spec.diffPairModel = gen.generate("N1.2-12D");
  const auto fast = bg::measureRingFrequency(spec, 8.0, 3.0);
  ASSERT_TRUE(slow.oscillating);
  ASSERT_TRUE(fast.oscillating);
  EXPECT_GT(fast.frequency / slow.frequency, 1.5);
}

TEST(RingOscillator, SpecValidation) {
  sp::Circuit ckt;
  auto spec = defaultSpec();
  spec.stages = 4;  // even: no net inversion
  EXPECT_THROW(buildRingOscillator(ckt, spec), ahfic::Error);
  spec.stages = 1;
  EXPECT_THROW(buildRingOscillator(ckt, spec), ahfic::Error);
  spec = defaultSpec();
  spec.tailCurrent = 0.0;
  EXPECT_THROW(buildRingOscillator(ckt, spec), ahfic::Error);
}

TEST(RingOscillator, ThreeStageVariantAlsoOscillates) {
  auto spec = defaultSpec();
  spec.stages = 3;
  const auto m = bg::measureRingFrequency(spec, 8.0, 3.0);
  EXPECT_TRUE(m.oscillating);
  // Fewer stages -> higher frequency.
  const auto five = bg::measureRingFrequency(defaultSpec(), 8.0, 3.0);
  EXPECT_GT(m.frequency, five.frequency);
}

TEST(RingOscillator, Table1TransientIsBitExact) {
  // Pins the Newton hot path: the N1.2-12D ring over the Table 1 window
  // (10 ns, 3 ps step cap) must reproduce this frequency to the last bit
  // and take exactly this many Newton iterations. Any change to device
  // arithmetic, stamp order or solver replay moves one of them. Recorded
  // by building this spec and printing
  //   std::printf("%a %ld\n", m.frequency, stats.newtonIterations);
  // after bg::measureRingFrequency(spec, 10.0, 3.0, {}, &stats).
  sp::AnalyzerStats stats;
  const auto m = bg::measureRingFrequency(defaultSpec(), 10.0, 3.0, {}, &stats);
  ASSERT_TRUE(m.oscillating);
  EXPECT_EQ(m.frequency, 0x1.b4a99ba90bcf3p+30);  // 1.8314954022615325 GHz
  EXPECT_EQ(stats.newtonIterations, 7677);
}
