#include "thermal/linalg.h"

#include <cmath>
#include <stdexcept>

namespace hydra::thermal {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::multiply(const Vector& x) const {
  Vector y;
  multiply_into(x, y);
  return y;
}

void Matrix::multiply_into(const Vector& x, Vector& y) const {
  if (x.size() != cols_) {
    throw std::invalid_argument("matvec size mismatch: x does not match cols");
  }
  if (&x == &y) {
    throw std::invalid_argument("multiply_into: y must not alias x");
  }
  y.resize(rows_);
  matvec(data_.data(), rows_, cols_, x.data(), y.data());
}

LuFactorization::LuFactorization(Matrix a) : lu_(std::move(a)) {
  if (lu_.rows() != lu_.cols()) {
    throw std::invalid_argument("LU requires a square matrix");
  }
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at or below the diagonal.
    std::size_t pivot = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, k));
      if (mag > best) {
        best = mag;
        pivot = r;
      }
    }
    if (best == 0.0) {
      throw std::runtime_error("singular matrix in LU factorisation");
    }
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(k, c), lu_(pivot, c));
      }
      std::swap(perm_[k], perm_[pivot]);
    }
    const double inv_diag = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) * inv_diag;
      lu_(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) {
        lu_(r, c) -= factor * lu_(k, c);
      }
    }
  }
}

Vector LuFactorization::solve(const Vector& b) const {
  Vector x;
  solve_into(b, x);
  return x;
}

void LuFactorization::solve_into(const Vector& b, Vector& x) const {
  const std::size_t n = size();
  if (b.size() != n) {
    throw std::invalid_argument("rhs size mismatch in LU solve");
  }
  x.resize(n);
  // Forward substitution with the permuted rhs.
  for (std::size_t r = 0; r < n; ++r) {
    double acc = b[perm_[r]];
    for (std::size_t c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
    x[r] = acc;
  }
  // Back substitution.
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = x[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_(ri, c) * x[c];
    x[ri] = acc / lu_(ri, ri);
  }
}

Vector solve_linear(Matrix a, const Vector& b) {
  return LuFactorization(std::move(a)).solve(b);
}

void matvec(const double* a, std::size_t rows, std::size_t cols,
            const double* x, double* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = a + r * cols;
    double s[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t c = 0; c < cols; ++c) {
      s[c & 3] = std::fma(row[c], x[c], s[c & 3]);
    }
    y[r] = (s[0] + s[2]) + (s[1] + s[3]);
  }
}

double gather_dot(const double* vals, const std::int32_t* idx,
                  std::size_t nnz, const double* x) {
  double s[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t p = 0; p < nnz; ++p) {
    s[p & 3] = std::fma(vals[p], x[idx[p]], s[p & 3]);
  }
  return (s[0] + s[2]) + (s[1] + s[3]);
}

}  // namespace hydra::thermal
