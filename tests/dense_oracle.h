#pragma once
// Dense-LU reference for the analyses. Every Analyzer solve runs on the
// structure-caching SparseLU; these helpers stamp the same devices into a
// DenseMatrix (DenseStamper / DenseAcStamper) and solve with solveDense,
// so a test can check the engine against an independent factorization.
//
// The circuit must already have its unknown layout (construct an
// Analyzer over it first). op() resets junction-limiting history through
// Device::beginSolve, exactly as every Analyzer solve does before its
// first iteration.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <vector>

#include "spice/analysis.h"
#include "spice/circuit.h"
#include "spice/linalg.h"
#include "spice/solution.h"
#include "spice/stamp.h"
#include "util/error.h"

namespace dense_oracle {

namespace sp = ahfic::spice;

inline int stateCount(const sp::Circuit& ckt) {
  int n = 0;
  for (const auto& dev : ckt.devices()) n += dev->stateCount();
  return n;
}

/// Operating point by plain Newton from zero with a dense solve per
/// iteration: each iteration stamps the DC system at the current guess
/// with DenseStamper and solves it with solveDense. The convergence test
/// is the engine's (every unknown within vntol/abstol + reltol, no
/// junction limiting active), so a matching engine result agrees to
/// rounding, not merely to the Newton tolerance. A single dense step
/// from the engine's converged point would move it by that tolerance's
/// truncation error (up to ~1e-7 V on a diode ladder). Throws when plain
/// Newton does not converge: the reference has no homotopy fallback.
inline std::vector<double> op(sp::Circuit& ckt, int unknowns,
                              const sp::AnalysisOptions& opts = {}) {
  const auto n = static_cast<size_t>(unknowns);
  std::vector<double> x(n, 0.0);
  {
    const sp::Solution sx(&x);
    for (const auto& dev : ckt.devices()) dev->beginSolve(sx);
  }
  const auto states = static_cast<size_t>(stateCount(ckt));
  std::vector<double> st(states, 0.0), stPrev(states, 0.0),
      dstPrev(states, 0.0);
  sp::LoadContext ctx;
  ctx.mode = sp::AnalysisMode::kDcOp;
  ctx.gmin = opts.gmin;
  ctx.state = &st;
  ctx.prevState = &stPrev;
  ctx.prevDstate = &dstPrev;
  for (int iter = 0; iter < opts.maxNewtonIters; ++iter) {
    bool limited = false;
    ctx.limited = &limited;
    sp::DenseMatrix<double> a(unknowns, unknowns);
    std::vector<double> rhs(n, 0.0);
    sp::DenseStamper stamper(a, rhs);
    const sp::Solution sx(&x);
    for (const auto& dev : ckt.devices()) dev->load(stamper, sx, ctx);
    const auto xNew = sp::solveDense(a, rhs);
    bool converged = !limited;
    for (size_t i = 0; i < n && converged; ++i) {
      const bool isVoltage = static_cast<int>(i) + 1 < ckt.nodeCount();
      const double tol =
          (isVoltage ? opts.vntol : opts.abstol) +
          opts.reltol * std::max(std::fabs(x[i]), std::fabs(xNew[i]));
      converged = std::fabs(xNew[i] - x[i]) <= tol;
    }
    x = xNew;
    if (converged && iter > 0) return x;
  }
  throw ahfic::ConvergenceError("dense oracle: Newton did not converge");
}

/// The complex AC system at angular frequency `omega`, linearised about
/// `op`, stamped densely.
inline void stampAc(sp::Circuit& ckt, const std::vector<double>& op,
                    double omega, sp::DenseMatrix<std::complex<double>>& a,
                    std::vector<std::complex<double>>& rhs) {
  const auto n = static_cast<int>(op.size());
  a = sp::DenseMatrix<std::complex<double>>(n, n);
  rhs.assign(static_cast<size_t>(n), {0.0, 0.0});
  const sp::Solution sop(&op);
  sp::DenseAcStamper stamper(a, rhs);
  for (const auto& dev : ckt.devices()) dev->loadAc(stamper, sop, omega);
}

/// AC solution at `freq` [Hz] by solveDense.
inline std::vector<std::complex<double>> acSolve(
    sp::Circuit& ckt, const std::vector<double>& op, double freq) {
  sp::DenseMatrix<std::complex<double>> a;
  std::vector<std::complex<double>> rhs;
  stampAc(ckt, op, 2.0 * 3.14159265358979323846 * freq, a, rhs);
  return sp::solveDense(a, rhs);
}

/// Output noise PSD [V^2/Hz] at `outNode` and `freq`: each device noise
/// source injected as a unit current, solved by solveDense, weighted by
/// the source PSD and summed.
inline double noisePsd(sp::Circuit& ckt, const std::vector<double>& op,
                       int outNode, double freq) {
  sp::DenseMatrix<std::complex<double>> a;
  std::vector<std::complex<double>> unused;
  stampAc(ckt, op, 2.0 * 3.14159265358979323846 * freq, a, unused);
  const sp::Solution sop(&op);
  std::vector<sp::NoiseSourceDesc> sources;
  for (const auto& dev : ckt.devices())
    dev->appendNoise(sources, sop, ckt.temperatureC() + 273.15);
  double psd = 0.0;
  for (const auto& src : sources) {
    std::vector<std::complex<double>> b(op.size(), {0.0, 0.0});
    if (src.a > 0) b[static_cast<size_t>(src.a - 1)] += 1.0;
    if (src.b > 0) b[static_cast<size_t>(src.b - 1)] -= 1.0;
    const auto x = sp::solveDense(a, b);
    psd += std::norm(x[static_cast<size_t>(outNode - 1)]) * src.psdAt(freq);
  }
  return psd;
}

}  // namespace dense_oracle
