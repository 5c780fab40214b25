#include "spice/sparse_lu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "spice/analysis.h"
#include "spice/bjt.h"
#include "spice/circuit.h"
#include "spice/csr.h"
#include "spice/diode.h"
#include "spice/passive.h"
#include "spice/sources.h"
#include "spice/stamp.h"
#include "util/numeric.h"

#include "dense_oracle.h"

namespace sp = ahfic::spice;
namespace obs = ahfic::obs;
namespace u = ahfic::util;

namespace {

/// A random sparse pattern with a full diagonal plus `extra` off-diagonal
/// positions, mirrored so the symbolic ordering sees a symmetric
/// structure (as MNA stamps produce).
sp::CsrPattern randomPattern(int n, int extra, u::Rng& rng) {
  std::vector<std::pair<int, int>> entries;
  for (int k = 0; k < extra; ++k) {
    const int r = static_cast<int>(rng.next(static_cast<std::uint64_t>(n)));
    const int c = static_cast<int>(rng.next(static_cast<std::uint64_t>(n)));
    entries.emplace_back(r, c);
    entries.emplace_back(c, r);
  }
  sp::CsrPattern pat;
  pat.build(n, std::move(entries));
  return pat;
}

template <typename T>
T makeValue(u::Rng& rng);
template <>
double makeValue<double>(u::Rng& rng) {
  return rng.uniform(-2.0, 2.0);
}
template <>
std::complex<double> makeValue<std::complex<double>>(u::Rng& rng) {
  return {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
}

/// Fills slot-ordered values: random off-diagonals with a diagonally
/// dominant diagonal, so the system is comfortably nonsingular.
template <typename T>
void fillValues(const sp::CsrPattern& pat, std::vector<T>& vals,
                u::Rng& rng) {
  vals.assign(pat.nonzeros(), T{});
  for (size_t s = 0; s < pat.nonzeros(); ++s) vals[s] = makeValue<T>(rng);
  for (int r = 0; r < pat.size(); ++r) {
    double rowSum = 0.0;
    for (int p = pat.rowPtr()[static_cast<size_t>(r)];
         p < pat.rowPtr()[static_cast<size_t>(r) + 1]; ++p)
      rowSum += std::abs(vals[static_cast<size_t>(p)]);
    const int d = pat.slot(r, r);
    vals[static_cast<size_t>(d)] += T(rowSum + 1.0);
  }
}

/// Dense mirror of (pattern, values) for the oracle solve.
template <typename T>
sp::DenseMatrix<T> toDense(const sp::CsrPattern& pat,
                           const std::vector<T>& vals) {
  sp::DenseMatrix<T> a(pat.size(), pat.size());
  for (int r = 0; r < pat.size(); ++r)
    for (int p = pat.rowPtr()[static_cast<size_t>(r)];
         p < pat.rowPtr()[static_cast<size_t>(r) + 1]; ++p)
      a.at(r, pat.colIdx()[static_cast<size_t>(p)]) +=
          vals[static_cast<size_t>(p)];
  return a;
}

template <typename T>
std::vector<T> randomRhs(int n, u::Rng& rng) {
  std::vector<T> b(static_cast<size_t>(n));
  for (auto& v : b) v = makeValue<T>(rng);
  return b;
}

/// Diode-RC ladder shared by the engine-vs-dense-oracle tests; the
/// diodes keep the system nonlinear so Newton actually iterates.
void buildLadder(sp::Circuit& ckt, int stages) {
  const int in = ckt.node("in");
  ckt.add<sp::VSource>("V1", in, 0,
                       std::make_unique<sp::SinWaveform>(1.0, 0.5, 1e6),
                       1.0);
  sp::DiodeModel dm;
  dm.is = 1e-14;
  dm.cj0 = 1e-12;
  dm.rs = 10.0;
  int prev = in;
  for (int k = 0; k < stages; ++k) {
    const int n = ckt.node("n" + std::to_string(k));
    ckt.add<sp::Resistor>("R" + std::to_string(k), prev, n, 1e3);
    ckt.add<sp::Capacitor>("C" + std::to_string(k), n, 0, 1e-12);
    if (k % 3 == 0)
      ckt.add<sp::Diode>("D" + std::to_string(k), ckt, n, 0, dm);
    prev = n;
  }
}

/// Dense-backend transient of buildLadder(40), see
/// SparseBackend.MatchesDenseAcrossAnalyses.
constexpr size_t kDenseLadderPoints = 70;
struct LadderPoint {
  size_t point;
  double t;
  double v[3];  ///< V(n0), V(n20), V(n39)
};
constexpr LadderPoint kDenseLadderTran[] = {
    {1, 1.0000000000000001e-11,
     {0.63077372652822006, 0.45782725488886761, 0.43917292347914583}},
    {10, 6.9813663743999972e-10,
     {0.63089791306857856, 0.4578272532159523, 0.43917292115697049}},
    {25, 6.9258889398849649e-08,
     {0.64431133933714912, 0.45788038584687341, 0.43917289674139137}},
    {40, 2.1925888939884975e-07,
     {0.6573255599018486, 0.45842570382775222, 0.43924269612244715}},
    {55, 3.6925888939884987e-07,
     {0.65203274324505844, 0.45869492889882557, 0.43943691014352404}},
    {69, 4.9999999999999998e-07,
     {0.63086477831502841, 0.45850744369978752, 0.43955255213257932}},
};

}  // namespace

TEST(SparseLu, MatchesDenseOnRandomRealSystems) {
  for (int n : {3, 12, 40, 90}) {
    for (int rep = 0; rep < 4; ++rep) {
      u::Rng rng(static_cast<std::uint64_t>(n * 131 + rep));
      auto pat = randomPattern(n, 3 * n, rng);
      std::vector<double> vals;
      fillValues(pat, vals, rng);
      const auto b = randomRhs<double>(n, rng);

      sp::SparseLU<double> lu;
      lu.analyze(pat);
      ASSERT_EQ(lu.factor(vals), sp::SparseLU<double>::FactorOutcome::
                                     kFullFactor);
      std::vector<double> x;
      lu.solve(b, x);

      const auto xd = sp::solveDense(toDense(pat, vals), b);
      for (int i = 0; i < n; ++i)
        EXPECT_NEAR(x[static_cast<size_t>(i)], xd[static_cast<size_t>(i)],
                    1e-10)
            << "n=" << n << " rep=" << rep << " i=" << i;
    }
  }
}

TEST(SparseLu, MatchesDenseOnRandomComplexSystems) {
  using C = std::complex<double>;
  for (int n : {4, 25, 70}) {
    u::Rng rng(static_cast<std::uint64_t>(n * 977));
    auto pat = randomPattern(n, 3 * n, rng);
    std::vector<C> vals;
    fillValues(pat, vals, rng);
    const auto b = randomRhs<C>(n, rng);

    sp::SparseLU<C> lu;
    lu.analyze(pat);
    ASSERT_NE(lu.factor(vals), sp::SparseLU<C>::FactorOutcome::kSingular);
    std::vector<C> x;
    lu.solve(b, x);

    const auto xd = sp::solveDense(toDense(pat, vals), b);
    for (int i = 0; i < n; ++i)
      EXPECT_LT(std::abs(x[static_cast<size_t>(i)] -
                         xd[static_cast<size_t>(i)]),
                1e-10)
          << "n=" << n << " i=" << i;
  }
}

TEST(SparseLu, RejectsSingularSystem) {
  // Row 2 = 2 * row 1 on a shared pattern.
  sp::CsrPattern pat;
  pat.build(3, {{0, 1}, {1, 0}, {1, 2}, {2, 0}, {2, 2}, {0, 2}, {2, 1}});
  std::vector<double> vals(pat.nonzeros(), 0.0);
  auto set = [&](int r, int c, double v) {
    vals[static_cast<size_t>(pat.slot(r, c))] = v;
  };
  set(0, 0, 1.0);
  set(0, 1, 2.0);
  set(0, 2, 3.0);
  set(1, 0, 1.0);
  set(1, 1, 2.0);
  set(1, 2, 3.0);
  set(2, 0, 5.0);
  set(2, 1, -1.0);
  set(2, 2, 0.5);

  sp::SparseLU<double> lu;
  lu.analyze(pat);
  EXPECT_EQ(lu.factor(vals),
            sp::SparseLU<double>::FactorOutcome::kSingular);
  // A singular outcome invalidates the recorded factorization: the next
  // factor of a good matrix must be a fresh full factorization.
  set(1, 1, 7.0);
  EXPECT_EQ(lu.factor(vals),
            sp::SparseLU<double>::FactorOutcome::kFullFactor);
}

TEST(SparseLu, RefactorReusesPatternAcrossValueChanges) {
  const int n = 30;
  u::Rng rng(42);
  auto pat = randomPattern(n, 2 * n, rng);
  std::vector<double> vals;
  sp::SparseLU<double> lu;
  lu.analyze(pat);

  for (int rep = 0; rep < 5; ++rep) {
    fillValues(pat, vals, rng);
    const auto outcome = lu.factor(vals);
    if (rep == 0)
      EXPECT_EQ(outcome, sp::SparseLU<double>::FactorOutcome::kFullFactor);
    else
      EXPECT_EQ(outcome, sp::SparseLU<double>::FactorOutcome::kRefactor);

    const auto b = randomRhs<double>(n, rng);
    std::vector<double> x;
    lu.solve(b, x);
    const auto xd = sp::solveDense(toDense(pat, vals), b);
    for (int i = 0; i < n; ++i)
      EXPECT_NEAR(x[static_cast<size_t>(i)], xd[static_cast<size_t>(i)],
                  1e-10)
          << "rep=" << rep;
  }
  EXPECT_EQ(lu.stats().fullFactors, 1);
  EXPECT_EQ(lu.stats().refactors, 4);
}

TEST(SparseLu, TopologyChangeInvalidatesAnalysis) {
  u::Rng rng(7);
  auto pat = randomPattern(10, 12, rng);
  sp::SparseLU<double> lu;
  lu.analyze(pat);
  EXPECT_TRUE(lu.analyzedFor(pat.epoch()));

  // Growing the pattern with a genuinely new position bumps the epoch and
  // must invalidate the bound analysis...
  const auto before = pat.epoch();
  ASSERT_GT(pat.grow({{0, 9}, {9, 0}}), 0u);
  EXPECT_NE(pat.epoch(), before);
  EXPECT_FALSE(lu.analyzedFor(pat.epoch()));

  // ... while growth with only already-present positions keeps the epoch
  // (slots are stable, caches stay valid).
  const auto stable = pat.epoch();
  EXPECT_EQ(pat.grow({{0, 9}, {0, 0}}), 0u);
  EXPECT_EQ(pat.epoch(), stable);

  // Re-analyzing the grown pattern restarts the full/refactor cycle.
  lu.analyze(pat);
  std::vector<double> vals;
  fillValues(pat, vals, rng);
  EXPECT_EQ(lu.factor(vals),
            sp::SparseLU<double>::FactorOutcome::kFullFactor);
  EXPECT_EQ(lu.factor(vals),
            sp::SparseLU<double>::FactorOutcome::kRefactor);
}

TEST(SparseLu, ThrowsWhenFactoredBeforeAnalyze) {
  sp::SparseLU<double> lu;
  EXPECT_THROW(lu.factor(std::vector<double>{1.0}), ahfic::Error);
}

TEST(SparseBackend, MatchesDenseAcrossAnalyses) {
  // The dense-LU oracle (dense_oracle.h) re-solves the operating point,
  // AC and noise with dense LU; the transient is checked against points
  // recorded from the former dense production path.
  sp::Circuit ckt;
  buildLadder(ckt, 40);
  sp::Analyzer an(ckt);

  // Operating point.
  const auto x = an.op();
  EXPECT_GT(an.stats().sparseRefactors, 0);
  const auto xd = dense_oracle::op(ckt, an.unknownCount());
  ASSERT_EQ(xd.size(), x.size());
  for (size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], xd[i], 1e-9) << "op unknown " << i;

  // Transient: accepted time points and values of the dense backend at
  // commit 2c8b85f, where this 56-unknown ladder ran dense by default.
  // Recorded with a program linked against that commit's libahfic_spice:
  //   sp::Circuit ckt; buildLadder(ckt, 40); sp::Analyzer an(ckt);
  //   an.op(); auto tr = an.transient(5e-7, 1e-8);
  //   printf("%zu", tr.time.size());  // then per point k:
  //   printf("%.17g %.17g %.17g %.17g", tr.time[k],
  //          V(n0), V(n20), V(n39));
  const auto tr = an.transient(5e-7, 1e-8);
  ASSERT_EQ(tr.time.size(), kDenseLadderPoints);
  const int ids[] = {ckt.findNode("n0"), ckt.findNode("n20"),
                     ckt.findNode("n39")};
  for (const auto& ref : kDenseLadderTran) {
    ASSERT_LT(ref.point, tr.time.size());
    EXPECT_DOUBLE_EQ(tr.time[ref.point], ref.t) << "point " << ref.point;
    for (int j = 0; j < 3; ++j)
      EXPECT_NEAR(tr.values[ref.point][static_cast<size_t>(ids[j] - 1)],
                  ref.v[j], 1e-8)
          << "tran point " << ref.point << " unknown " << ids[j];
  }

  // AC sweep (complex path).
  const auto freqs = sp::logspace(1e3, 1e9, 4);
  const auto ac = an.ac(freqs, x);
  ASSERT_EQ(ac.values.size(), freqs.size());
  for (size_t k = 0; k < freqs.size(); ++k) {
    const auto xa = dense_oracle::acSolve(ckt, x, freqs[k]);
    for (size_t i = 0; i < xa.size(); ++i)
      EXPECT_LT(std::abs(ac.values[k][i] - xa[i]), 1e-9)
          << "ac point " << k << " unknown " << i;
  }

  // Noise (many solves per factorization).
  const int out = ckt.findNode("n1");
  const auto nz = an.noise(freqs, "n1", x);
  ASSERT_EQ(nz.outputPsd.size(), freqs.size());
  for (size_t k = 0; k < freqs.size(); ++k) {
    const double psd = dense_oracle::noisePsd(ckt, x, out, freqs[k]);
    EXPECT_LT(std::abs(nz.outputPsd[k] - psd) / std::max(1e-300, psd), 1e-9)
        << "noise point " << k;
  }
}

TEST(SparseBackend, NoPatternInsertsAfterPriming) {
  // The acceptance property of the stamp-memo design: once the priming
  // pass has built the pattern, steady-state Newton iteration performs
  // zero pattern insertions — every stamp lands on a memoized slot.
  const bool wasEnabled = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  const auto before = obs::metrics().snapshot();

  sp::Circuit ckt;
  buildLadder(ckt, 60);
  sp::Analyzer an(ckt);
  const auto x = an.op();
  EXPECT_EQ(an.stats().sparsePatternInserts, 0);
  EXPECT_EQ(an.stats().sparseFullFactors, 1);
  EXPECT_GT(an.stats().sparseRefactors, 0);

  an.transient(2e-7, 1e-8);
  EXPECT_EQ(an.stats().sparsePatternInserts, 0);

  an.ac(sp::logspace(1e3, 1e9, 3), x);
  EXPECT_EQ(an.stats().sparsePatternInserts, 0);

  const auto delta = obs::metrics().snapshot().since(before);
  obs::setMetricsEnabled(wasEnabled);
  EXPECT_EQ(delta.counterValue("spice.sparse.pattern_inserts"), 0);
  EXPECT_GT(delta.counterValue("spice.sparse.refactors"), 0);
  EXPECT_GT(delta.counterValue("spice.sparse.full_factors"), 0);
}

TEST(SparseBackend, SmallCircuitTimesEverySolveLayer) {
  // Every real solve goes through the CSR core whatever the circuit size,
  // so even on a 5-stage ladder (well below a hundred unknowns) assemble,
  // factor and solve each observe exactly one sample per matrix solve.
  const bool wasEnabled = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  const auto before = obs::metrics().snapshot();

  sp::Circuit ckt;
  buildLadder(ckt, 5);
  sp::Analyzer an(ckt);
  an.op();
  long solves = an.stats().matrixSolves;
  EXPECT_EQ(an.stats().sparsePatternInserts, 0);
  an.transient(2e-7, 1e-8);
  solves += an.stats().matrixSolves;
  EXPECT_EQ(an.stats().sparsePatternInserts, 0);

  const auto delta = obs::metrics().snapshot().since(before);
  obs::setMetricsEnabled(wasEnabled);
  ASSERT_GT(solves, 0);
  for (const char* name : {"spice.sparse.assemble_ns", "spice.sparse.factor_ns",
                           "spice.sparse.solve_ns"}) {
    const auto* h = delta.findHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count, solves) << name;
  }
  EXPECT_EQ(delta.counterValue("spice.sparse.pattern_inserts"), 0);
}

namespace {

/// CSR target that exposes the same pattern and slots as CsrStamper but
/// no value/RHS arrays, so every SlotWriter write is a virtual
/// addA()/addRhs() call resolved through the pattern.
class VirtualCsrStamper final : public sp::Stamper {
 public:
  VirtualCsrStamper(const sp::CsrPattern& pat, std::vector<double>& vals,
                    std::vector<double>& rhs)
      : pat_(pat), vals_(vals), rhs_(rhs) {}
  void addA(int r, int c, double v) override {
    if (r <= 0 || c <= 0) return;
    const int slot = pat_.slot(r - 1, c - 1);
    ASSERT_GE(slot, 0);
    vals_[static_cast<size_t>(slot)] += v;
  }
  void addRhs(int r, double v) override {
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
  std::vector<double>& vals_;
  std::vector<double>& rhs_;
};

/// A Bjt (all parasitics and charges active) plus a Capacitor, stamped
/// at a forward-active candidate under a transient context.
struct StampFixture {
  sp::Circuit ckt;
  std::vector<double> x, st, stPrev, dstPrev;
  sp::LoadContext ctx;
  int unknowns = 0;

  StampFixture() {
    const int c = ckt.node("c"), b = ckt.node("b"), e = ckt.node("e"),
              s = ckt.node("s");
    sp::BjtModel m;
    m.rb = 50.0;
    m.re = 2.0;
    m.rc = 20.0;
    m.cje = 50e-15;
    m.cjc = 20e-15;
    m.xcjc = 0.5;
    m.cjs = 40e-15;
    m.tf = 10e-12;
    m.tr = 1e-9;
    auto& q = ckt.add<sp::Bjt>("Q1", ckt, c, b, e, m, 1.0, s);
    auto& cap = ckt.add<sp::Capacitor>("C1", c, b, 1e-13);
    q.assignStateBase(0);
    cap.assignStateBase(q.stateCount());
    unknowns = ckt.nodeCount() - 1;
    x.assign(static_cast<size_t>(unknowns), 0.0);
    for (int k = 0; k < unknowns; ++k)
      x[static_cast<size_t>(k)] = 0.05 * k;
    x[static_cast<size_t>(c - 1)] = 2.0;
    x[static_cast<size_t>(q.internalCollector() - 1)] = 1.98;
    x[static_cast<size_t>(b - 1)] = 0.9;
    x[static_cast<size_t>(q.internalBase() - 1)] = 0.88;
    x[static_cast<size_t>(e - 1)] = 0.01;
    x[static_cast<size_t>(q.internalEmitter() - 1)] = 0.02;
    x[static_cast<size_t>(s - 1)] = -1.0;
    const auto nStates = static_cast<size_t>(q.stateCount() + 1);
    st.assign(nStates, 0.0);
    stPrev.assign(nStates, 1e-15);
    dstPrev.assign(nStates, 1e-6);
    ctx.mode = sp::AnalysisMode::kTransient;
    ctx.c0 = 2e11;
    ctx.trapFactor = 0.85;
    ctx.state = &st;
    ctx.prevState = &stPrev;
    ctx.prevDstate = &dstPrev;
  }

  /// Every position any load can touch (DC and transient), optionally
  /// without the devices named in `skip`.
  sp::CsrPattern pattern(const std::string& skip = "") {
    std::vector<std::pair<int, int>> entries;
    sp::PatternStamper ps(entries);
    const sp::Solution sx(&x);
    for (const auto& dev : ckt.devices())
      if (dev->name() != skip) dev->load(ps, sx, ctx);
    sp::CsrPattern pat;
    pat.build(unknowns, std::move(entries));
    return pat;
  }

  /// One load pass; beginSolve first so junction limiting never fires
  /// and every pass evaluates at the same point.
  void load(sp::Stamper& s) {
    const sp::Solution sx(&x);
    for (const auto& dev : ckt.devices()) {
      dev->beginSolve(sx);
      dev->load(s, sx, ctx);
    }
  }
};

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

TEST(StampPath, DirectSlotWritesMatchVirtualStamper) {
  StampFixture f;
  const sp::CsrPattern pat = f.pattern();
  const auto n = static_cast<size_t>(f.unknowns);

  // Reference: every write a virtual call resolved through the pattern.
  std::vector<double> valsRef(pat.nonzeros(), 0.0), rhsRef(n, 0.0);
  VirtualCsrStamper vs(pat, valsRef, rhsRef);
  f.load(vs);

  // Direct writes: the first pass resolves slots into the memos, the
  // second replays them; both must equal the reference bit for bit.
  for (const char* pass : {"resolve", "replay"}) {
    std::vector<double> vals(pat.nonzeros(), 0.0), rhs(n, 0.0);
    std::vector<std::pair<int, int>> pending;
    sp::CsrStamper cs(pat, vals, rhs, &pending);
    f.load(cs);
    EXPECT_TRUE(pending.empty()) << pass;
    EXPECT_TRUE(sameBits(vals, valsRef)) << pass;
    EXPECT_TRUE(sameBits(rhs, rhsRef)) << pass;
  }
}

TEST(StampPath, PatternMissStillReachesPending) {
  // A pattern that lacks the capacitor's positions: on the resolving
  // pass and on the memo replay alike, the capacitor's matrix writes must
  // land in `pending` rather than vanish, while its RHS still lands.
  StampFixture f;
  const sp::CsrPattern pat = f.pattern("C1");
  const int c = f.ckt.findNode("c"), b = f.ckt.findNode("b");
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<double> vals(pat.nonzeros(), 0.0);
    std::vector<double> rhs(static_cast<size_t>(f.unknowns), 0.0);
    std::vector<std::pair<int, int>> pending;
    sp::CsrStamper cs(pat, vals, rhs, &pending);
    f.load(cs);
    const std::vector<std::pair<int, int>> want = {
        {c - 1, b - 1}, {b - 1, c - 1}};
    for (const auto& rc : want)
      EXPECT_NE(std::find(pending.begin(), pending.end(), rc), pending.end())
          << "pass " << pass << " (" << rc.first << "," << rc.second << ")";
    for (const auto& [r, col] : pending)
      EXPECT_LT(pat.slot(r, col), 0) << "pass " << pass;
  }
}
