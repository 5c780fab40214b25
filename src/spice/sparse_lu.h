#pragma once
// Structure-caching sparse LU for MNA systems, in the KLU tradition:
//
//   analyze(pattern)  — once per circuit topology: builds a column view,
//                       computes a Markowitz/minimum-degree fill-reducing
//                       column order on the symmetrized pattern.
//   factor(values)    — first call runs a full Gilbert-Peierls
//                       left-looking factorization with threshold partial
//                       pivoting (diagonal preferred while within 10x of
//                       the column maximum) and records the resulting
//                       fill pattern and pivot sequence; every later call
//                       is a numeric *refactorization* that replays the
//                       recorded elimination — no reachability DFS, no
//                       pivot search, bit-predictable work per call.
//   solve(b, x)       — forward/back substitution with the cached
//                       factors; reusable for many right-hand sides per
//                       factorization (noise analysis leans on this).
//
// A refactorization whose reused pivot collapses (relative to its
// column's magnitude) falls back to a fresh full factorization with
// pivoting, so long homotopy ramps and wide AC sweeps stay stable. The
// value array is laid out per CsrPattern slots, which is exactly what
// the CSR stampers (stamp.h) produce, so Newton iterations hand their
// assembled values straight to factor() without any copying or
// reordering.
//
// Everything is templated over the scalar so the same code serves
// DC/transient (double) and AC/noise (std::complex<double>).

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "spice/csr.h"
#include "util/error.h"

namespace ahfic::spice {

/// Magnitude used for pivoting: |x| for real, abs for complex.
inline double pivotMag(double x) { return std::fabs(x); }
inline double pivotMag(const std::complex<double>& x) { return std::abs(x); }

template <typename T>
class SparseLU {
 public:
  enum class FactorOutcome {
    kSingular,    ///< no usable pivot; factors are invalid
    kFullFactor,  ///< fresh pivoting factorization (pattern recorded)
    kRefactor,    ///< numeric-only replay of the recorded pattern
  };

  struct Stats {
    long fullFactors = 0;  ///< pivoting factorizations performed
    long refactors = 0;    ///< pattern-reusing numeric refactorizations
    size_t nnzL = 0;       ///< off-diagonal nonzeros in L
    size_t nnzU = 0;       ///< off-diagonal nonzeros in U
  };

  /// Binds the solver to one pattern revision: copies the structure,
  /// builds the column (CSC) view and computes the fill-reducing column
  /// order. Invalidates any previously recorded factorization.
  void analyze(const CsrPattern& pat) {
    n_ = pat.size();
    epoch_ = pat.epoch();
    rowPtr_ = pat.rowPtr();
    colIdx_ = pat.colIdx();
    buildColumnView();
    orderColumns();
    haveSymbolic_ = false;
    stats_.nnzL = stats_.nnzU = 0;
  }

  /// True when the solver was analyzed for pattern revision `epoch`.
  bool analyzedFor(std::uint64_t epoch) const {
    return epoch != 0 && epoch_ == epoch;
  }

  /// Copies another solver's symbolic analysis (structure, column view
  /// and fill-reducing order) without redoing the minimum-degree pass,
  /// and binds it to `pat`, which must have the other solver's
  /// structure. The ordering is a deterministic function of the
  /// structure, so an adopted analysis is bitwise identical to running
  /// analyze(pat) — this is how a replica batch shares one symbolic
  /// analysis across many numerically distinct systems.
  void adoptAnalysis(const SparseLU& other, const CsrPattern& pat) {
    if (other.epoch_ == 0) throw Error("SparseLU::adoptAnalysis: unanalyzed");
    if (pat.rowPtr() != other.rowPtr_ || pat.colIdx() != other.colIdx_)
      throw Error("SparseLU::adoptAnalysis: pattern structure differs");
    n_ = other.n_;
    epoch_ = pat.epoch();
    rowPtr_ = other.rowPtr_;
    colIdx_ = other.colIdx_;
    aColPtr_ = other.aColPtr_;
    aRowIdx_ = other.aRowIdx_;
    aCsrSlot_ = other.aCsrSlot_;
    colOrder_ = other.colOrder_;
    haveSymbolic_ = false;
    lastSingularCol_ = -1;
    stats_ = Stats{};
  }

  /// Forgets the recorded numeric factorization (keeps the symbolic
  /// analysis): the next factor() runs a fresh pivoting factorization.
  /// Used by the batch engine so every operating point opens with the
  /// same full-factor/refactor sequence a fresh Analyzer would produce.
  void resetNumeric() { haveSymbolic_ = false; }

  /// True when a factorization has been recorded, i.e. the next factor()
  /// will attempt the numeric-only replay first.
  bool hasRecordedFactorization() const { return haveSymbolic_; }

  /// Numeric factorization of the slot-ordered value array `vals`
  /// (size == pattern nonzeros). See class comment for the
  /// full-vs-refactor behaviour.
  FactorOutcome factor(const std::vector<T>& vals) {
    if (epoch_ == 0) throw Error("SparseLU::factor before analyze");
    lastSingularCol_ = -1;
    if (haveSymbolic_ && refactor(vals)) {
      ++stats_.refactors;
      return FactorOutcome::kRefactor;
    }
    if (fullFactor(vals)) {
      ++stats_.fullFactors;
      return FactorOutcome::kFullFactor;
    }
    haveSymbolic_ = false;
    return FactorOutcome::kSingular;
  }

  /// Solves A x = b with the current factors (b untouched).
  void solve(const std::vector<T>& b, std::vector<T>& x) const {
    const int n = n_;
    work2_.resize(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k)
      work2_[static_cast<size_t>(k)] = b[static_cast<size_t>(prow_[static_cast<size_t>(k)])];
    // Forward: L z = P b (unit diagonal; L rows are original ids).
    for (int k = 0; k < n; ++k) {
      const T alpha = work2_[static_cast<size_t>(k)];
      if (alpha == T{}) continue;
      for (int p = lColPtr_[static_cast<size_t>(k)];
           p < lColPtr_[static_cast<size_t>(k) + 1]; ++p)
        work2_[static_cast<size_t>(pinv_[static_cast<size_t>(lRows_[static_cast<size_t>(p)])])] -=
            alpha * lVals_[static_cast<size_t>(p)];
    }
    // Backward: U y = z (column-oriented, diagonal stored separately).
    for (int k = n - 1; k >= 0; --k) {
      const T yk = work2_[static_cast<size_t>(k)] / diag_[static_cast<size_t>(k)];
      work2_[static_cast<size_t>(k)] = yk;
      if (yk == T{}) continue;
      for (int p = uColPtr_[static_cast<size_t>(k)];
           p < uColPtr_[static_cast<size_t>(k) + 1]; ++p)
        work2_[static_cast<size_t>(uSteps_[static_cast<size_t>(p)])] -=
            uVals_[static_cast<size_t>(p)] * yk;
    }
    x.resize(static_cast<size_t>(n));
    for (int k = 0; k < n; ++k)
      x[static_cast<size_t>(colOrder_[static_cast<size_t>(k)])] =
          work2_[static_cast<size_t>(k)];
  }

  const Stats& stats() const { return stats_; }

  /// Original column index that lacked a usable pivot in the most recent
  /// kSingular factor() outcome, or -1 when the last factor() succeeded.
  /// The failing column names the unknown with no independent equation
  /// (e.g. a floating node), which convergence forensics reports.
  int lastSingularColumn() const { return lastSingularCol_; }

 private:
  // Pivoting thresholds. The diagonal is preferred while within
  // kPivotTol of the column maximum (keeps the near-symmetric MNA
  // structure, bounds growth by 1/kPivotTol per step); a reused pivot
  // that shrinks below kRefactorRelTol of its column's magnitude
  // triggers a fall back to full pivoting.
  static constexpr double kPivotTol = 0.1;
  static constexpr double kRefactorRelTol = 1e-12;
  static constexpr double kAbsTiny = 1e-300;

  void buildColumnView() {
    const int n = n_;
    const size_t nnz = colIdx_.size();
    aColPtr_.assign(static_cast<size_t>(n) + 1, 0);
    aRowIdx_.resize(nnz);
    aCsrSlot_.resize(nnz);
    for (size_t p = 0; p < nnz; ++p)
      ++aColPtr_[static_cast<size_t>(colIdx_[p]) + 1];
    for (int c = 0; c < n; ++c)
      aColPtr_[static_cast<size_t>(c) + 1] += aColPtr_[static_cast<size_t>(c)];
    std::vector<int> next(aColPtr_.begin(), aColPtr_.end() - 1);
    for (int r = 0; r < n; ++r) {
      for (int p = rowPtr_[static_cast<size_t>(r)];
           p < rowPtr_[static_cast<size_t>(r) + 1]; ++p) {
        const int c = colIdx_[static_cast<size_t>(p)];
        const int q = next[static_cast<size_t>(c)]++;
        aRowIdx_[static_cast<size_t>(q)] = r;
        aCsrSlot_[static_cast<size_t>(q)] = p;
      }
    }
  }

  /// Minimum-degree ordering on the symmetrized pattern (A + A^T, no
  /// diagonal), with clique materialization on elimination. Falls back
  /// to the natural order when the merge work explodes (near-dense
  /// patterns), where ordering would not pay for itself anyway.
  void orderColumns() {
    const int n = n_;
    colOrder_.resize(static_cast<size_t>(n));
    std::vector<std::vector<int>> adj(static_cast<size_t>(n));
    for (int r = 0; r < n; ++r) {
      for (int p = rowPtr_[static_cast<size_t>(r)];
           p < rowPtr_[static_cast<size_t>(r) + 1]; ++p) {
        const int c = colIdx_[static_cast<size_t>(p)];
        if (c == r) continue;
        adj[static_cast<size_t>(r)].push_back(c);
        adj[static_cast<size_t>(c)].push_back(r);
      }
    }
    for (auto& a : adj) {
      std::sort(a.begin(), a.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());
    }
    std::vector<char> elim(static_cast<size_t>(n), 0);
    long long budget = 4LL * 1000 * 1000 * 10;  // merge ops before bailing
    std::vector<int> merged;
    for (int step = 0; step < n; ++step) {
      int best = -1;
      size_t bestDeg = 0;
      for (int v = 0; v < n; ++v) {
        if (elim[static_cast<size_t>(v)]) continue;
        const size_t d = adj[static_cast<size_t>(v)].size();
        if (best < 0 || d < bestDeg) {
          best = v;
          bestDeg = d;
        }
      }
      colOrder_[static_cast<size_t>(step)] = best;
      elim[static_cast<size_t>(best)] = 1;
      auto& nbrs = adj[static_cast<size_t>(best)];
      for (const int u : nbrs) {
        auto& au = adj[static_cast<size_t>(u)];
        merged.clear();
        merged.reserve(au.size() + nbrs.size());
        std::set_union(au.begin(), au.end(), nbrs.begin(), nbrs.end(),
                       std::back_inserter(merged));
        au.clear();
        for (const int w : merged)
          if (w != u && w != best && !elim[static_cast<size_t>(w)])
            au.push_back(w);
        budget -= static_cast<long long>(merged.size());
      }
      nbrs.clear();
      nbrs.shrink_to_fit();
      if (budget < 0) {
        // Bail to natural order: ordering cost outgrew its benefit.
        for (int k = 0; k < n; ++k) colOrder_[static_cast<size_t>(k)] = k;
        return;
      }
    }
  }

  /// Full Gilbert-Peierls left-looking factorization with threshold
  /// partial pivoting; records the fill pattern and pivot sequence for
  /// later refactorizations. Returns false on singularity. L and U are
  /// written straight into the flat factor arrays, column by column
  /// (column k of each is final once step k is done), and all scratch
  /// keeps its capacity across calls: an operating point opens with one
  /// of these, so it must not allocate per column.
  bool fullFactor(const std::vector<T>& vals) {
    const int n = n_;
    pinv_.assign(static_cast<size_t>(n), -1);
    prow_.assign(static_cast<size_t>(n), -1);
    diag_.assign(static_cast<size_t>(n), T{});
    work_.assign(static_cast<size_t>(n), T{});
    visit_.assign(static_cast<size_t>(n), -1);
    lColPtr_.assign(static_cast<size_t>(n) + 1, 0);
    uColPtr_.assign(static_cast<size_t>(n) + 1, 0);
    lRows_.clear();
    lVals_.clear();
    uSteps_.clear();
    uVals_.clear();

    for (int k = 0; k < n; ++k) {
      const int j = colOrder_[static_cast<size_t>(k)];
      // Symbolic: rows reachable from A(:,j) through finished L columns,
      // collected in DFS postorder (reverse = topological order).
      topo_.clear();
      for (int p = aColPtr_[static_cast<size_t>(j)];
           p < aColPtr_[static_cast<size_t>(j) + 1]; ++p) {
        const int r0 = aRowIdx_[static_cast<size_t>(p)];
        if (visit_[static_cast<size_t>(r0)] == k) continue;
        visit_[static_cast<size_t>(r0)] = k;
        stack_.emplace_back(r0, 0);
        while (!stack_.empty()) {
          auto& [r, cur] = stack_.back();
          const int kp = pinv_[static_cast<size_t>(r)];
          // Children: the rows of L column kp (none while r is unpivoted).
          const int lBegin = kp >= 0 ? lColPtr_[static_cast<size_t>(kp)] : 0;
          const int lEnd = kp >= 0 ? lColPtr_[static_cast<size_t>(kp) + 1] : 0;
          bool descended = false;
          while (lBegin + cur < lEnd) {
            const int child = lRows_[static_cast<size_t>(lBegin + cur++)];
            if (visit_[static_cast<size_t>(child)] != k) {
              visit_[static_cast<size_t>(child)] = k;
              stack_.emplace_back(child, 0);
              descended = true;
              break;
            }
          }
          if (!descended) {
            topo_.push_back(r);
            stack_.pop_back();
          }
        }
      }
      // Numeric: scatter A(:,j), then eliminate in topological order.
      for (int p = aColPtr_[static_cast<size_t>(j)];
           p < aColPtr_[static_cast<size_t>(j) + 1]; ++p)
        work_[static_cast<size_t>(aRowIdx_[static_cast<size_t>(p)])] =
            vals[static_cast<size_t>(aCsrSlot_[static_cast<size_t>(p)])];
      uCol_.clear();
      for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
        const int s = *it;
        const int kp = pinv_[static_cast<size_t>(s)];
        if (kp < 0) continue;
        const T alpha = work_[static_cast<size_t>(s)];
        uCol_.emplace_back(kp, alpha);
        if (alpha != T{})
          for (int q = lColPtr_[static_cast<size_t>(kp)];
               q < lColPtr_[static_cast<size_t>(kp) + 1]; ++q)
            work_[static_cast<size_t>(lRows_[static_cast<size_t>(q)])] -=
                alpha * lVals_[static_cast<size_t>(q)];
      }
      // Pivot: largest unpivoted row, diagonal preferred when close.
      int maxRow = -1;
      double maxMag = 0.0;
      for (const int s : topo_) {
        if (pinv_[static_cast<size_t>(s)] >= 0) continue;
        const double m = pivotMag(work_[static_cast<size_t>(s)]);
        if (maxRow < 0 || m > maxMag) {
          maxMag = m;
          maxRow = s;
        }
      }
      if (maxRow < 0 || maxMag < kAbsTiny) {
        lastSingularCol_ = j;
        clearWork(topo_);
        return false;
      }
      int pivot = maxRow;
      if (pinv_[static_cast<size_t>(j)] < 0 &&
          visit_[static_cast<size_t>(j)] == k &&
          pivotMag(work_[static_cast<size_t>(j)]) >= kPivotTol * maxMag)
        pivot = j;
      prow_[static_cast<size_t>(k)] = pivot;
      pinv_[static_cast<size_t>(pivot)] = k;
      const T piv = work_[static_cast<size_t>(pivot)];
      diag_[static_cast<size_t>(k)] = piv;
      for (const int s : topo_)
        if (pinv_[static_cast<size_t>(s)] < 0) {
          lRows_.push_back(s);
          lVals_.push_back(work_[static_cast<size_t>(s)] / piv);
        }
      lColPtr_[static_cast<size_t>(k) + 1] = static_cast<int>(lRows_.size());
      // U columns sorted by pivot step so the refactor replay is a plain
      // ascending scan.
      std::sort(uCol_.begin(), uCol_.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      for (const auto& [step, v] : uCol_) {
        uSteps_.push_back(step);
        uVals_.push_back(v);
      }
      uColPtr_[static_cast<size_t>(k) + 1] = static_cast<int>(uSteps_.size());
      clearWork(topo_);
    }
    stats_.nnzL = lRows_.size();
    stats_.nnzU = uSteps_.size();
    haveSymbolic_ = true;
    return true;
  }

  /// Numeric-only replay of the recorded factorization: same pivots,
  /// same fill, no searching. Returns false when a reused pivot is no
  /// longer trustworthy (caller then re-runs fullFactor).
  bool refactor(const std::vector<T>& vals) {
    const int n = n_;
    for (int k = 0; k < n; ++k) {
      const int j = colOrder_[static_cast<size_t>(k)];
      // Zero the column's final pattern, then scatter A(:,j).
      for (int p = uColPtr_[static_cast<size_t>(k)];
           p < uColPtr_[static_cast<size_t>(k) + 1]; ++p)
        work_[static_cast<size_t>(
            prow_[static_cast<size_t>(uSteps_[static_cast<size_t>(p)])])] = T{};
      work_[static_cast<size_t>(prow_[static_cast<size_t>(k)])] = T{};
      for (int p = lColPtr_[static_cast<size_t>(k)];
           p < lColPtr_[static_cast<size_t>(k) + 1]; ++p)
        work_[static_cast<size_t>(lRows_[static_cast<size_t>(p)])] = T{};
      for (int p = aColPtr_[static_cast<size_t>(j)];
           p < aColPtr_[static_cast<size_t>(j) + 1]; ++p)
        work_[static_cast<size_t>(aRowIdx_[static_cast<size_t>(p)])] =
            vals[static_cast<size_t>(aCsrSlot_[static_cast<size_t>(p)])];
      double colMax = 0.0;
      for (int p = uColPtr_[static_cast<size_t>(k)];
           p < uColPtr_[static_cast<size_t>(k) + 1]; ++p) {
        const int kp = uSteps_[static_cast<size_t>(p)];
        const T alpha =
            work_[static_cast<size_t>(prow_[static_cast<size_t>(kp)])];
        uVals_[static_cast<size_t>(p)] = alpha;
        const double m = pivotMag(alpha);
        if (m > colMax) colMax = m;
        if (alpha == T{}) continue;
        for (int q = lColPtr_[static_cast<size_t>(kp)];
             q < lColPtr_[static_cast<size_t>(kp) + 1]; ++q)
          work_[static_cast<size_t>(lRows_[static_cast<size_t>(q)])] -=
              alpha * lVals_[static_cast<size_t>(q)];
      }
      const T piv = work_[static_cast<size_t>(prow_[static_cast<size_t>(k)])];
      const double pm = pivotMag(piv);
      if (pm > colMax) colMax = pm;
      for (int p = lColPtr_[static_cast<size_t>(k)];
           p < lColPtr_[static_cast<size_t>(k) + 1]; ++p) {
        const double m =
            pivotMag(work_[static_cast<size_t>(lRows_[static_cast<size_t>(p)])]);
        if (m > colMax) colMax = m;
      }
      if (pm < kAbsTiny || pm < kRefactorRelTol * colMax) return false;
      diag_[static_cast<size_t>(k)] = piv;
      for (int p = lColPtr_[static_cast<size_t>(k)];
           p < lColPtr_[static_cast<size_t>(k) + 1]; ++p)
        lVals_[static_cast<size_t>(p)] =
            work_[static_cast<size_t>(lRows_[static_cast<size_t>(p)])] / piv;
    }
    return true;
  }

  void clearWork(const std::vector<int>& rows) {
    for (const int r : rows) work_[static_cast<size_t>(r)] = T{};
  }

  int n_ = 0;
  std::uint64_t epoch_ = 0;
  bool haveSymbolic_ = false;
  int lastSingularCol_ = -1;
  Stats stats_;

  // Pattern (CSR copy) and its column view. aCsrSlot_ maps each CSC
  // position back to the caller's slot-ordered value array.
  std::vector<int> rowPtr_, colIdx_;
  std::vector<int> aColPtr_, aRowIdx_, aCsrSlot_;

  // Ordering and pivoting: column step k factors original column
  // colOrder_[k]; prow_[k] is the original row pivoted at step k.
  std::vector<int> colOrder_, prow_, pinv_;

  // Factors: L per column (original row ids, unit diagonal implicit),
  // U per column (pivot steps, ascending), diagonal separate.
  std::vector<int> lColPtr_, lRows_, uColPtr_, uSteps_;
  std::vector<T> lVals_, uVals_, diag_;

  std::vector<T> work_;
  std::vector<int> visit_;
  mutable std::vector<T> work2_;
  // fullFactor scratch: DFS stack (row, child cursor), topological
  // order, and the current U column before its sort.
  std::vector<std::pair<int, int>> stack_;
  std::vector<int> topo_;
  std::vector<std::pair<int, T>> uCol_;
};

}  // namespace ahfic::spice
