#pragma once
// Dense-LU reference for the analyses. Every Analyzer solve runs on the
// structure-caching SparseLU; these helpers stamp the same devices into a
// DenseMatrix (DenseStamper / DenseAcStamper) and solve with solveDense,
// so a test can check the engine against an independent factorization.
// The dense types live in ahfic::spice beside the engine's own stampers
// but belong to the tests and bench_micro only: no library code uses
// them.
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
#include "spice/solution.h"
#include "spice/sparse_lu.h"  // pivotMag
#include "spice/stamp.h"
#include "util/error.h"

namespace ahfic::spice {

/// Dense row-major matrix.
template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int rows, int cols)
      : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  T& at(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  const T& at(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  void setZero() { std::fill(data_.begin(), data_.end(), T{}); }

  /// In-place LU factorisation with partial pivoting.
  /// Returns false if the matrix is numerically singular; when
  /// `singularCol` is given it receives the column that lacked a usable
  /// pivot (columns are never permuted, so this is the original unknown
  /// index), or -1 on success.
  bool luFactor(std::vector<int>& perm, int* singularCol = nullptr) {
    if (rows_ != cols_) throw Error("luFactor: matrix must be square");
    if (singularCol != nullptr) *singularCol = -1;
    const int n = rows_;
    perm.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
    for (int k = 0; k < n; ++k) {
      int p = k;
      double best = pivotMag(at(k, k));
      for (int i = k + 1; i < n; ++i) {
        const double m = pivotMag(at(i, k));
        if (m > best) {
          best = m;
          p = i;
        }
      }
      if (best < 1e-300) {
        if (singularCol != nullptr) *singularCol = k;
        return false;
      }
      if (p != k) {
        for (int c = 0; c < n; ++c) std::swap(at(k, c), at(p, c));
        std::swap(perm[static_cast<size_t>(k)], perm[static_cast<size_t>(p)]);
      }
      const T pivot = at(k, k);
      for (int i = k + 1; i < n; ++i) {
        const T m = at(i, k) / pivot;
        at(i, k) = m;
        if (m != T{}) {
          for (int c = k + 1; c < n; ++c) at(i, c) -= m * at(k, c);
        }
      }
    }
    return true;
  }

  /// Solves L U x = P b using factors produced by luFactor.
  void luSolve(const std::vector<int>& perm, const std::vector<T>& b,
               std::vector<T>& x) const {
    const int n = rows_;
    x.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
      x[static_cast<size_t>(i)] = b[static_cast<size_t>(perm[static_cast<size_t>(i)])];
    for (int i = 1; i < n; ++i) {
      T s = x[static_cast<size_t>(i)];
      for (int j = 0; j < i; ++j) s -= at(i, j) * x[static_cast<size_t>(j)];
      x[static_cast<size_t>(i)] = s;
    }
    for (int i = n - 1; i >= 0; --i) {
      T s = x[static_cast<size_t>(i)];
      for (int j = i + 1; j < n; ++j) s -= at(i, j) * x[static_cast<size_t>(j)];
      x[static_cast<size_t>(i)] = s / at(i, i);
    }
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<T> data_;
};

/// Convenience one-shot dense solve: returns x with A x = b.
/// Throws ahfic::Error on singular A.
template <typename T>
std::vector<T> solveDense(DenseMatrix<T> a, std::vector<T> b) {
  std::vector<int> perm;
  if (!a.luFactor(perm)) throw Error("solveDense: singular matrix");
  std::vector<T> x;
  a.luSolve(perm, b, x);
  return x;
}

/// Dense-backed real stamper.
class DenseStamper final : public Stamper {
 public:
  DenseStamper(DenseMatrix<double>& a, std::vector<double>& rhs)
      : a_(a), rhs_(rhs) {}
  void addA(int r, int c, double v) override {
    if (r > 0 && c > 0) a_.at(r - 1, c - 1) += v;
  }
  void addRhs(int r, double v) override {
    if (r > 0) rhs_[static_cast<size_t>(r - 1)] += v;
  }

 private:
  DenseMatrix<double>& a_;
  std::vector<double>& rhs_;
};

/// Dense-backed complex stamper for AC.
class DenseAcStamper final : public AcStamper {
 public:
  DenseAcStamper(DenseMatrix<std::complex<double>>& a,
                 std::vector<std::complex<double>>& rhs)
      : a_(a), rhs_(rhs) {}
  void addA(int r, int c, std::complex<double> v) override {
    if (r > 0 && c > 0) a_.at(r - 1, c - 1) += v;
  }
  void addRhs(int r, std::complex<double> v) override {
    if (r > 0) rhs_[static_cast<size_t>(r - 1)] += v;
  }

 private:
  DenseMatrix<std::complex<double>>& a_;
  std::vector<std::complex<double>>& rhs_;
};

}  // namespace ahfic::spice

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
