// Stamp-plan contract (spice/stamp.h): every device class writes through
// its recorded slot plan exactly what a virtual-only stamper, resolving
// every write through the pattern, produces — on the recording pass and
// on the replay pass, in DC, transient and AC. A pattern miss leaves the
// plan unrecorded and still reaches `pending`, and the plan is recorded
// again once the pattern has grown. A reused Analyzer that ran a
// transient (the other real-path plan) solves DC bit for bit like a
// fresh one.

#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spice/analysis.h"
#include "spice/bjt.h"
#include "spice/circuit.h"
#include "spice/csr.h"
#include "spice/diode.h"
#include "spice/mosfet.h"
#include "spice/passive.h"
#include "spice/sources.h"
#include "spice/stamp.h"

namespace sp = ahfic::spice;

namespace {

using Variant = sp::Device::StampVariant;
using Complex = std::complex<double>;

/// CSR target exposing the pattern's slots but no value/RHS arrays, so
/// every SlotWriter call forwards as a virtual addA()/addRhs() resolved
/// through the pattern.
template <typename Base, typename V>
class VirtualStamper final : public Base {
 public:
  VirtualStamper(const sp::CsrPattern& pat, std::vector<V>& vals,
                 std::vector<V>& rhs)
      : pat_(pat), vals_(vals), rhs_(rhs) {}
  void addA(int r, int c, V v) override {
    if (r <= 0 || c <= 0) return;
    const int slot = pat_.slot(r - 1, c - 1);
    ASSERT_GE(slot, 0);
    vals_[static_cast<size_t>(slot)] += v;
  }
  void addRhs(int r, V v) override {
    if (r > 0) rhs_[static_cast<size_t>(r - 1)] += v;
  }
  std::uint64_t patternEpoch() const override { return pat_.epoch(); }
  int locateA(int r, int c) override {
    if (r <= 0 || c <= 0) return sp::kStampSlotGround;
    const int slot = pat_.slot(r - 1, c - 1);
    return slot < 0 ? sp::kStampSlotMiss : slot;
  }

 private:
  const sp::CsrPattern& pat_;
  std::vector<V>& vals_;
  std::vector<V>& rhs_;
};

template <typename V>
bool sameBits(const std::vector<V>& a, const std::vector<V>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(V)) == 0;
}

template <typename V>
bool allZero(const std::vector<V>& a) {
  for (const V& v : a)
    if (v != V{}) return false;
  return true;
}

/// One instance of each of the twelve device classes, with every
/// optional stamp active: BJT and diode with series resistances and
/// charges, MOSFET with rd/rs and all five capacitances.
struct AllDevices {
  sp::Circuit ckt;
  std::unique_ptr<sp::Analyzer> layout;  ///< assigns branch/state bases
  std::vector<double> x, st, stPrev, dstPrev;
  sp::LoadContext ctx;
  int unknowns = 0;

  AllDevices() {
    const int in = ckt.node("in"), a = ckt.node("a"), b = ckt.node("b"),
              c = ckt.node("c"), d = ckt.node("d"), e = ckt.node("e"),
              f = ckt.node("f"), g = ckt.node("g"), s = ckt.node("s"),
              sub = ckt.node("sub");
    auto& v1 = ckt.add<sp::VSource>("V1", in, 0, 1.5, 1.0, 30.0);
    ckt.add<sp::Resistor>("R1", in, a, 1e3);
    ckt.add<sp::Capacitor>("C1", a, b, 1e-12);
    ckt.add<sp::Inductor>("L1", b, c, 1e-9);
    ckt.add<sp::ISource>("I1", c, 0, 1e-3, 0.5, 10.0);
    ckt.add<sp::Vcvs>("E1", d, 0, a, b, 2.0);
    ckt.add<sp::Vccs>("G1", e, 0, a, c, 1e-3);
    ckt.add<sp::Cccs>("F1", f, 0, v1, 3.0);
    ckt.add<sp::Ccvs>("H1", g, 0, v1, 50.0);
    sp::MosModel mm;
    mm.gamma = 0.4;
    mm.lambda = 0.05;
    mm.rd = 5.0;
    mm.rs = 3.0;
    mm.cgso = 1e-10;
    mm.cgdo = 1e-10;
    mm.cgbo = 1e-10;
    mm.cox = 2e-3;
    mm.cbd = 5e-15;
    mm.cbs = 6e-15;
    ckt.add<sp::Mosfet>("M1", ckt, d, a, s, 0, mm);
    sp::BjtModel bm;
    bm.rb = 50.0;
    bm.re = 2.0;
    bm.rc = 20.0;
    bm.cje = 50e-15;
    bm.cjc = 20e-15;
    bm.xcjc = 0.5;
    bm.cjs = 40e-15;
    bm.tf = 10e-12;
    bm.tr = 1e-9;
    ckt.add<sp::Bjt>("Q1", ckt, c, b, e, bm, 1.0, sub);
    sp::DiodeModel dm;
    dm.rs = 10.0;
    dm.cj0 = 1e-13;
    dm.tt = 1e-10;
    ckt.add<sp::Diode>("D1", ckt, a, f, dm);
    layout = std::make_unique<sp::Analyzer>(ckt);
    unknowns = layout->unknownCount();

    x.assign(static_cast<size_t>(unknowns), 0.0);
    for (int k = 0; k < unknowns; ++k)
      x[static_cast<size_t>(k)] = 0.05 * k - 0.2;
    int states = 0;
    for (const auto& dev : ckt.devices()) states += dev->stateCount();
    st.assign(static_cast<size_t>(states), 0.0);
    stPrev.assign(static_cast<size_t>(states), 1e-15);
    dstPrev.assign(static_cast<size_t>(states), 1e-6);
    ctx.state = &st;
    ctx.prevState = &stPrev;
    ctx.prevDstate = &dstPrev;
  }

  void setVariant(Variant v) {
    const bool tran = v == Variant::kTransient;
    ctx.mode = tran ? sp::AnalysisMode::kTransient : sp::AnalysisMode::kDcOp;
    ctx.time = tran ? 1e-9 : 0.0;
    ctx.c0 = tran ? 2e11 : 0.0;
    ctx.trapFactor = tran ? 0.85 : 0.0;
  }

  /// Every real-path position (DC and transient), optionally without
  /// the device named `skip`.
  sp::CsrPattern realPattern(const std::string& skip = "") {
    std::vector<std::pair<int, int>> entries;
    sp::PatternStamper ps(entries);
    const sp::Solution sx(&x);
    for (const Variant v : {Variant::kDc, Variant::kTransient}) {
      setVariant(v);
      for (const auto& dev : ckt.devices())
        if (dev->name() != skip) dev->load(ps, sx, ctx);
    }
    sp::CsrPattern pat;
    pat.build(unknowns, std::move(entries));
    return pat;
  }

  sp::CsrPattern acPattern() {
    std::vector<std::pair<int, int>> entries;
    sp::AcPatternStamper ps(entries);
    const sp::Solution sx(&x);
    for (const auto& dev : ckt.devices()) dev->loadAc(ps, sx, 1.0);
    sp::CsrPattern pat;
    pat.build(unknowns, std::move(entries));
    return pat;
  }

  /// One load; beginSolve first so junction limiting never fires and
  /// every pass evaluates at the same point.
  void load(sp::Device& dev, sp::Stamper& s) {
    const sp::Solution sx(&x);
    dev.beginSolve(sx);
    dev.load(s, sx, ctx);
  }
};

}  // namespace

TEST(StampPlan, ReplayMatchesVirtualStamper) {
  AllDevices f;
  ASSERT_EQ(f.ckt.devices().size(), 12u);
  const auto n = static_cast<size_t>(f.unknowns);
  const sp::CsrPattern pat = f.realPattern();
  const sp::CsrPattern patAc = f.acPattern();
  constexpr double kOmega = 2.0 * 3.14159265358979323846 * 1e9;
  const sp::Solution sx(&f.x);

  for (const auto& dev : f.ckt.devices()) {
    for (const Variant v : {Variant::kDc, Variant::kTransient}) {
      f.setVariant(v);
      const std::string what =
          dev->name() + (v == Variant::kDc ? " dc " : " tran ");
      std::vector<double> valsRef(pat.nonzeros(), 0.0), rhsRef(n, 0.0);
      VirtualStamper<sp::Stamper, double> vs(pat, valsRef, rhsRef);
      f.load(*dev, vs);
      // A capacitor in DC is open and never binds a writer.
      const bool stamps = !allZero(valsRef) || !allZero(rhsRef);
      for (const char* pass : {"record", "replay"}) {
        std::vector<double> vals(pat.nonzeros(), 0.0), rhs(n, 0.0);
        std::vector<std::pair<int, int>> pending;
        sp::CsrStamper cs(pat, vals, rhs, &pending);
        f.load(*dev, cs);
        EXPECT_TRUE(pending.empty()) << what << pass;
        if (stamps) {
          EXPECT_EQ(dev->stampPlan(v).epoch, pat.epoch()) << what << pass;
        }
        EXPECT_TRUE(sameBits(vals, valsRef)) << what << pass;
        EXPECT_TRUE(sameBits(rhs, rhsRef)) << what << pass;
      }
    }

    const std::string what = dev->name() + " ac ";
    std::vector<Complex> valsRef(patAc.nonzeros()), rhsRef(n);
    VirtualStamper<sp::AcStamper, Complex> vs(patAc, valsRef, rhsRef);
    dev->loadAc(vs, sx, kOmega);
    for (const char* pass : {"record", "replay"}) {
      std::vector<Complex> vals(patAc.nonzeros()), rhs(n);
      std::vector<std::pair<int, int>> pending;
      sp::CsrAcStamper cs(patAc, vals, rhs, &pending);
      dev->loadAc(cs, sx, kOmega);
      EXPECT_TRUE(pending.empty()) << what << pass;
      EXPECT_EQ(dev->stampPlan(Variant::kAc).epoch, patAc.epoch())
          << what << pass;
      EXPECT_TRUE(sameBits(vals, valsRef)) << what << pass;
      EXPECT_TRUE(sameBits(rhs, rhsRef)) << what << pass;
    }
  }
}

TEST(StampPlan, PatternMissReRecordsAndReachesPending) {
  // A pattern without the inductor's branch coupling: every load must
  // send those positions to `pending` and leave the transient plan
  // unrecorded, so the next load records again; once the pattern grows
  // the plan records against the new epoch and replays exactly.
  AllDevices f;
  const auto n = static_cast<size_t>(f.unknowns);
  sp::CsrPattern pat = f.realPattern("L1");
  sp::Device& l1 = *f.ckt.findDevice("L1");
  f.setVariant(Variant::kTransient);
  std::vector<std::pair<int, int>> missed;
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<double> vals(pat.nonzeros(), 0.0), rhs(n, 0.0);
    std::vector<std::pair<int, int>> pending;
    sp::CsrStamper cs(pat, vals, rhs, &pending);
    f.load(l1, cs);
    EXPECT_EQ(pending.size(), 4u) << "pass " << pass;
    for (const auto& [r, c] : pending)
      EXPECT_LT(pat.slot(r, c), 0) << "pass " << pass;
    EXPECT_EQ(l1.stampPlan(Variant::kTransient).epoch, 0u) << "pass " << pass;
    missed = pending;
  }

  const std::uint64_t before = pat.epoch();
  ASSERT_EQ(pat.grow(missed), 4u);
  ASSERT_NE(pat.epoch(), before);
  std::vector<double> valsRef(pat.nonzeros(), 0.0), rhsRef(n, 0.0);
  VirtualStamper<sp::Stamper, double> vs(pat, valsRef, rhsRef);
  f.load(l1, vs);
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<double> vals(pat.nonzeros(), 0.0), rhs(n, 0.0);
    std::vector<std::pair<int, int>> pending;
    sp::CsrStamper cs(pat, vals, rhs, &pending);
    f.load(l1, cs);
    EXPECT_TRUE(pending.empty()) << "pass " << pass;
    EXPECT_EQ(l1.stampPlan(Variant::kTransient).epoch, pat.epoch())
        << "pass " << pass;
    EXPECT_TRUE(sameBits(vals, valsRef)) << "pass " << pass;
    EXPECT_TRUE(sameBits(rhs, rhsRef)) << "pass " << pass;
  }
}

TEST(AnalysisOp, OpAfterTransientMatchesFreshBitForBit) {
  // DC and transient replay different plans against the same pattern.
  // After DC -> transient -> DC on one Analyzer, the second op() must
  // equal a fresh Analyzer's op() bit for bit.
  auto build = [](sp::Circuit& ckt) {
    const int vcc = ckt.node("vcc"), in = ckt.node("in"),
              base = ckt.node("base"), col = ckt.node("col"),
              emi = ckt.node("emi"), out = ckt.node("out");
    ckt.add<sp::VSource>("VCC", vcc, 0, 5.0);
    ckt.add<sp::VSource>(
        "VIN", in, 0,
        std::make_unique<sp::PulseWaveform>(0.8, 1.0, 0.2e-9, 0.1e-9,
                                            0.1e-9, 0.5e-9, 2e-9));
    ckt.add<sp::Resistor>("RB", in, base, 1e3);
    ckt.add<sp::Resistor>("RC", vcc, col, 2e3);
    ckt.add<sp::Resistor>("RE", emi, 0, 200.0);
    ckt.add<sp::Capacitor>("CL", col, 0, 0.2e-12);
    ckt.add<sp::Inductor>("LO", col, out, 1e-9);
    ckt.add<sp::Resistor>("RO", out, 0, 5e3);
    sp::BjtModel bm;
    bm.rb = 50.0;
    bm.rc = 20.0;
    bm.re = 2.0;
    bm.cje = 50e-15;
    bm.cjc = 20e-15;
    bm.tf = 10e-12;
    ckt.add<sp::Bjt>("Q1", ckt, col, base, emi, bm);
    sp::DiodeModel dm;
    dm.rs = 5.0;
    dm.cj0 = 1e-13;
    dm.tt = 1e-10;
    ckt.add<sp::Diode>("D1", ckt, out, 0, dm);
  };
  sp::Circuit reused;
  build(reused);
  sp::Analyzer an(reused);
  const std::vector<double> first = an.op();
  const sp::TranResult tr = an.transient(2e-9, 20e-12);
  ASSERT_GT(tr.time.size(), 10u);
  const std::vector<double> again = an.op();

  sp::Circuit fresh;
  build(fresh);
  const std::vector<double> ref = sp::Analyzer(fresh).op();
  EXPECT_TRUE(sameBits(first, ref));
  EXPECT_TRUE(sameBits(again, ref));
}
