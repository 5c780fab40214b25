// SPICE deck parser tests: element coverage, model cards, analyses,
// diagnostics, and model-card round-trip through BjtModel::toSpiceLine.

#include <gtest/gtest.h>

#include <cmath>

#include "spice/analysis.h"
#include "spice/bjt.h"
#include "spice/parser.h"
#include "spice/passive.h"
#include "spice/sources.h"
#include "util/error.h"

namespace sp = ahfic::spice;

TEST(Parser, TitleAndDivider) {
  auto deck = sp::parseDeck(
      "simple divider\n"
      "V1 in 0 DC 10\n"
      "R1 in out 1k\n"
      "R2 out 0 3k\n"
      ".END\n");
  EXPECT_EQ(deck.title, "simple divider");
  sp::Analyzer an(deck.circuit);
  const auto x = an.op();
  sp::Solution s(&x);
  EXPECT_NEAR(s.at(deck.circuit.findNode("out")), 7.5, 1e-9);
}

TEST(Parser, CommentsAndContinuations) {
  auto deck = sp::parseDeck(
      "title\n"
      "* a comment line\n"
      "R1 a 0\n"
      "+ 2k $ trailing comment\n"
      "V1 a 0 1 ; another trailer\n");
  auto* r = dynamic_cast<sp::Resistor*>(deck.circuit.findDevice("R1"));
  ASSERT_NE(r, nullptr);
  EXPECT_DOUBLE_EQ(r->resistance(), 2000.0);
}

TEST(Parser, AllPassivesAndSuffixes) {
  auto deck = sp::parseDeck(
      "t\n"
      "R1 1 0 4.7MEG\n"
      "C1 1 0 10pF\n"
      "L1 1 2 100n\n");
  EXPECT_NE(deck.circuit.findDevice("R1"), nullptr);
  EXPECT_NE(deck.circuit.findDevice("C1"), nullptr);
  EXPECT_NE(deck.circuit.findDevice("L1"), nullptr);
  auto* c = dynamic_cast<sp::Capacitor*>(deck.circuit.findDevice("C1"));
  EXPECT_DOUBLE_EQ(c->capacitance(), 10e-12);
}

TEST(Parser, SourceFunctions) {
  auto deck = sp::parseDeck(
      "t\n"
      "V1 1 0 SIN(0 1 1MEG)\n"
      "V2 2 0 PULSE(0 5 1n 1n 1n 5n 20n)\n"
      "V3 3 0 PWL(0 0 1u 1 2u 0)\n"
      "V4 4 0 EXP(0 1 0 1n 10n 1n)\n"
      "V5 5 0 DC 2 AC 1 45\n"
      "I1 6 0 DC 1m\n");
  auto* v1 = dynamic_cast<sp::VSource*>(deck.circuit.findDevice("V1"));
  ASSERT_NE(v1, nullptr);
  EXPECT_NEAR(v1->waveform().value(0.25e-6), 1.0, 1e-9);
  auto* v5 = dynamic_cast<sp::VSource*>(deck.circuit.findDevice("V5"));
  ASSERT_NE(v5, nullptr);
  EXPECT_DOUBLE_EQ(v5->waveform().dcValue(), 2.0);
  EXPECT_DOUBLE_EQ(v5->acMagnitude(), 1.0);
}

TEST(Parser, SffmAndAmSources) {
  auto deck = sp::parseDeck(
      "t\n"
      "V1 1 0 SFFM(0 1 100MEG 5 1MEG)\n"
      "V2 2 0 AM(2 1 1MEG 50MEG)\n");
  auto* v1 = dynamic_cast<sp::VSource*>(deck.circuit.findDevice("V1"));
  ASSERT_NE(v1, nullptr);
  EXPECT_LE(std::fabs(v1->waveform().value(3.3e-8)), 1.0);
  auto* v2 = dynamic_cast<sp::VSource*>(deck.circuit.findDevice("V2"));
  ASSERT_NE(v2, nullptr);
  EXPECT_DOUBLE_EQ(v2->waveform().dcValue(), 0.0);
}

TEST(Parser, ControlledSources) {
  auto deck = sp::parseDeck(
      "t\n"
      "V1 in 0 1\n"
      "E1 o1 0 in 0 4\n"
      "G1 o2 0 in 0 1m\n"
      "F1 o3 0 V1 2\n"
      "H1 o4 0 V1 100\n"
      "R1 o1 0 1k\nR2 o2 0 1k\nR3 o3 0 1k\nR4 o4 0 1k\n");
  sp::Analyzer an(deck.circuit);
  const auto x = an.op();
  sp::Solution s(&x);
  EXPECT_NEAR(s.at(deck.circuit.findNode("o1")), 4.0, 1e-9);
  EXPECT_NEAR(s.at(deck.circuit.findNode("o2")), -1.0, 1e-9);
}

TEST(Parser, BjtWithModelAfterUse) {
  // Q card may reference a model defined later in the deck.
  auto deck = sp::parseDeck(
      "t\n"
      "IB 0 b 10u\n"
      "VC c 0 3\n"
      "Q1 c b 0 mynpn\n"
      ".MODEL mynpn NPN(IS=1e-16 BF=100 VAF=50)\n");
  sp::Analyzer an(deck.circuit);
  const auto x = an.op();
  sp::Solution s(&x);
  auto* q = dynamic_cast<sp::Bjt*>(deck.circuit.findDevice("Q1"));
  ASSERT_NE(q, nullptr);
  EXPECT_NEAR(q->opInfo(s).ic / 10e-6, 106.0, 3.0);
}

TEST(Parser, BjtWithSubstrateAndArea) {
  auto deck = sp::parseDeck(
      "t\n"
      "Q1 c b e subs mynpn 2.5\n"
      ".MODEL mynpn NPN(IS=1e-16 BF=100)\n");
  auto* q = dynamic_cast<sp::Bjt*>(deck.circuit.findDevice("Q1"));
  ASSERT_NE(q, nullptr);
  EXPECT_DOUBLE_EQ(q->scaledModel().is, 2.5e-16);
  EXPECT_EQ(q->nodes()[3], deck.circuit.findNode("subs"));
}

TEST(Parser, DiodeWithModel) {
  auto deck = sp::parseDeck(
      "t\n"
      ".MODEL dd D(IS=1e-14 RS=5 CJO=2p)\n"
      "D1 a 0 dd\n"
      "D2 a 0 dd 3\n");
  EXPECT_NE(deck.circuit.findDevice("D1"), nullptr);
  EXPECT_NE(deck.circuit.findDevice("D2"), nullptr);
}

TEST(Parser, ModelNoSpaceBeforeParen) {
  auto deck = sp::parseDeck(
      "t\n"
      ".MODEL m1 NPN(IS=2e-16 BF=80 RB=120 CJE=30f TF=15p)\n");
  const auto& m = deck.circuit.bjtModel("m1");
  EXPECT_DOUBLE_EQ(m.is, 2e-16);
  EXPECT_DOUBLE_EQ(m.bf, 80.0);
  EXPECT_DOUBLE_EQ(m.rb, 120.0);
  EXPECT_DOUBLE_EQ(m.cje, 30e-15);
  EXPECT_DOUBLE_EQ(m.tf, 15e-12);
}

TEST(Parser, AnalysisCards) {
  auto deck = sp::parseDeck(
      "t\n"
      "V1 a 0 1\nR1 a 0 1k\n"
      ".OP\n"
      ".TRAN 1n 100n\n"
      ".AC DEC 10 1k 1G\n"
      ".DC V1 0 5 0.5\n");
  ASSERT_EQ(deck.analyses.size(), 4u);
  EXPECT_TRUE(std::holds_alternative<sp::OpRequest>(deck.analyses[0]));
  const auto& tran = std::get<sp::TranRequest>(deck.analyses[1]);
  EXPECT_DOUBLE_EQ(tran.tstop, 100e-9);
  const auto& ac = std::get<sp::AcRequest>(deck.analyses[2]);
  EXPECT_EQ(ac.pointsPerDecade, 10);
  const auto& dc = std::get<sp::DcRequest>(deck.analyses[3]);
  EXPECT_EQ(dc.source, "V1");
}

TEST(Parser, TempCard) {
  auto deck = sp::parseDeck("t\n.TEMP 85\nR1 a 0 1k\n");
  EXPECT_DOUBLE_EQ(deck.circuit.temperatureC(), 85.0);
}

TEST(Parser, EndStopsParsing) {
  auto deck = sp::parseDeck(
      "t\nR1 a 0 1k\n.END\nR2 b 0 not-even-valid\n");
  EXPECT_NE(deck.circuit.findDevice("R1"), nullptr);
  EXPECT_EQ(deck.circuit.findDevice("R2"), nullptr);
}

TEST(ParserErrors, ReportLineNumbers) {
  try {
    sp::parseDeck("t\nR1 a 0 1k\nR2 b 0 oops\n");
    FAIL() << "expected ParseError";
  } catch (const ahfic::ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

TEST(ParserErrors, UnknownElement) {
  EXPECT_THROW(sp::parseDeck("t\nX1 a b c\n"), ahfic::ParseError);
}

TEST(ParserErrors, UnknownModelParameter) {
  EXPECT_THROW(sp::parseDeck("t\n.MODEL m NPN(BOGUS=1)\n"),
               ahfic::ParseError);
}

TEST(ParserErrors, MissingModel) {
  EXPECT_THROW(sp::parseDeck("t\nQ1 c b 0 nomodel\n"), ahfic::Error);
}

TEST(ParserErrors, FControlMustBeVsource) {
  EXPECT_THROW(sp::parseDeck("t\nR1 a 0 1k\nF1 b 0 R1 2\n"),
               ahfic::ParseError);
}

TEST(ParserErrors, DuplicateDeviceName) {
  EXPECT_THROW(sp::parseDeck("t\nR1 a 0 1k\nR1 b 0 2k\n"), ahfic::Error);
}

TEST(ModelRoundTrip, BjtCardSurvivesEmitAndReparse) {
  sp::BjtModel m;
  m.is = 3.2e-17;
  m.bf = 95.0;
  m.vaf = 42.0;
  m.ikf = 2.3e-3;
  m.ise = 4e-15;
  m.rb = 210.0;
  m.rbm = 35.0;
  m.re = 2.4;
  m.rc = 28.0;
  m.cje = 42e-15;
  m.cjc = 18e-15;
  m.cjs = 55e-15;
  m.tf = 11e-12;
  m.xtf = 2.0;
  m.vtf = 3.0;
  m.itf = 8e-3;
  m.tr = 200e-12;

  const std::string line = m.toSpiceLine("gen1");
  auto deck = sp::parseDeck("t\n" + line + "\n");
  const auto& p = deck.circuit.bjtModel("gen1");
  EXPECT_NEAR(p.is, m.is, m.is * 1e-5);
  EXPECT_NEAR(p.bf, m.bf, 1e-9);
  EXPECT_NEAR(p.vaf, m.vaf, 1e-9);
  EXPECT_NEAR(p.ikf, m.ikf, m.ikf * 1e-5);
  EXPECT_NEAR(p.rb, m.rb, 1e-9);
  EXPECT_NEAR(p.rbm, m.rbm, 1e-9);
  EXPECT_NEAR(p.cje, m.cje, m.cje * 1e-5);
  EXPECT_NEAR(p.tf, m.tf, m.tf * 1e-5);
  EXPECT_NEAR(p.tr, m.tr, m.tr * 1e-5);
}

TEST(ParseInto, SplicesIntoExistingCircuit) {
  sp::Circuit ckt;
  const int in = ckt.node("in");
  ckt.add<sp::VSource>("Vtop", in, 0, 1.0);
  sp::parseInto(ckt, "R1 in mid 1k\nR2 mid 0 1k\n");
  sp::Analyzer an(ckt);
  const auto x = an.op();
  sp::Solution s(&x);
  EXPECT_NEAR(s.at(ckt.findNode("mid")), 0.5, 1e-9);
}

TEST(ParserOptions, SolverFlagIsToleratedLikeAnyOption) {
  // The engine has one solver, so a deck's SOLVER= choice is ignored like
  // every other simulator-specific .OPTIONS flag: the deck still parses
  // and runs.
  auto deck = sp::parseDeck(
      "opts\nV1 in 0 1\nR1 in mid 1k\nR2 mid 0 1k\n"
      ".OPTIONS SOLVER=dense RELTOL=1e-4\n.OP\n.END\n");
  ASSERT_EQ(deck.analyses.size(), 1u);
  sp::Analyzer an(deck.circuit);
  const auto x = an.op();
  sp::Solution s(&x);
  EXPECT_NEAR(s.at(deck.circuit.findNode("mid")), 0.5, 1e-9);
}
