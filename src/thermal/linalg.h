// Small dense linear algebra: just enough for compact thermal models.
//
// The RC networks built from block-level floorplans have a few dozen
// nodes, so dense LU with partial pivoting is simpler and faster than a
// sparse solver; many-core dies use thermal/sparse.h instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hydra::thermal {

using Vector = std::vector<double>;

/// Dense row-major matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  /// Row-major storage, rows() * cols() entries.
  const double* data() const { return data_.data(); }

  /// y = A x. Requires x.size() == cols().
  Vector multiply(const Vector& x) const;

  /// y = A x into a caller-provided buffer (resized to rows()); the
  /// allocation-free hot-path variant, computed by matvec(). Throws
  /// std::invalid_argument when x.size() != cols() or when `y` aliases
  /// `x` (checked by address — the kernel reads x while writing y).
  void multiply_into(const Vector& x, Vector& y) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorisation with partial pivoting of a square matrix, reusable for
/// many right-hand sides (the transient solver refactors only when the
/// time step changes).
class LuFactorization {
 public:
  /// Factorise A. Throws std::invalid_argument if A is not square and
  /// std::runtime_error if A is numerically singular.
  explicit LuFactorization(Matrix a);

  std::size_t size() const { return lu_.rows(); }

  /// Solve A x = b.
  Vector solve(const Vector& b) const;

  /// Solve A x = b into a caller-provided buffer (resized to size());
  /// the allocation-free hot-path variant. Bit-identical to solve().
  /// `x` must not alias `b`. Thread-safe: solving is read-only, so one
  /// factorisation may serve many threads concurrently.
  void solve_into(const Vector& b, Vector& x) const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
};

/// Convenience one-shot solve of A x = b.
Vector solve_linear(Matrix a, const Vector& b);

// Fixed-order dot-product kernels (DESIGN.md section 14). Every dense
// step product and every sparse substitution runs on these two. A dot
// product is four term-class partial sums — term p joins class p % 4
// through a correctly rounded std::fma — reduced as (s0 + s2) + (s1 + s3).
// The order is part of the contract: it keeps RunResults bit-identical
// to the committed references and across thread widths.

/// y[r] = sum_c a[r * cols + c] * x[c] for a dense row-major `a`.
/// `y` must not alias `a` or `x`.
void matvec(const double* a, std::size_t rows, std::size_t cols,
            const double* x, double* y);

/// Sparse gather dot product: sum_p vals[p] * x[idx[p]].
double gather_dot(const double* vals, const std::int32_t* idx,
                  std::size_t nnz, const double* x);

}  // namespace hydra::thermal
