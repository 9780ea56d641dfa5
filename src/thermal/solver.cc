#include "thermal/solver.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"

namespace hydra::thermal {

Vector steady_state(const RcNetwork& net, const Vector& power,
                    util::Celsius ambient) {
  if (power.size() != net.size()) {
    throw std::invalid_argument("power vector size mismatch");
  }
  Vector rise = solve_linear(net.conductance_matrix(), power);
  for (double& t : rise) t += ambient.value();
  return rise;
}

void steady_state_into(const LuFactorization& g_lu, const Vector& power,
                       util::Celsius ambient, Vector& out) {
  if (power.size() != g_lu.size()) {
    throw std::invalid_argument("power vector size mismatch");
  }
  g_lu.solve_into(power, out);
  for (double& t : out) t += ambient.value();
}

void steady_state_into(const SparseCholesky& g_chol, const Vector& power,
                       util::Celsius ambient, Vector& out, Vector& work) {
  if (power.size() != g_chol.size()) {
    throw std::invalid_argument("power vector size mismatch");
  }
  out.resize(g_chol.size());
  work.resize(g_chol.size());
  g_chol.solve_into(power.data(), out.data(), work.data());
  for (double& t : out) t += ambient.value();
}

namespace {

/// LuCache's lazy build, run under its lock: the first caller for an
/// empty `slot` counts the build on `metric`, wraps it in a thermal
/// trace span and stores the result; later callers get the stored
/// object. A throwing build leaves the slot empty (the next call
/// retries).
template <class T, class Build>
const T& build_once(std::unique_ptr<T>& slot, const char* metric,
                    const char* span, const char* label, Build&& build) {
  if (!slot) {
    obs::metrics().counter(metric).add();
    const obs::ScopedSpan s(obs::tracer(), "thermal", span, label);
    slot = std::make_unique<T>(build());
  }
  return *slot;
}

}  // namespace

LuCache::LuCache(const RcNetwork& net)
    : g_(net.conductance_matrix()),
      g_csr_(net.conductance_csr()),
      capacitance_(net.size()) {
  for (std::size_t i = 0; i < capacitance_.size(); ++i) {
    capacitance_[i] = net.capacitance(i).value();
  }
}

Matrix LuCache::step_matrix(double dt) const {
  Matrix a = g_;
  for (std::size_t i = 0; i < capacitance_.size(); ++i) {
    a(i, i) += capacitance_[i] / dt;
  }
  return a;
}

const LuFactorization& LuCache::steady() const {
  const util::LockGuard lock(mu_);
  return build_once(steady_lu_, "thermal.lu_factorizations", "lu_factorize",
                    "steady", [&] { return LuFactorization(g_); });
}

const LuFactorization& LuCache::backward_euler(double dt) const {
  const util::LockGuard lock(mu_);
  return build_once(be_cache_[dt], "thermal.lu_factorizations",
                    "lu_factorize", "backward_euler",
                    [&] { return LuFactorization(step_matrix(dt)); });
}

const FusedStepOperator& LuCache::fused(double dt) const {
  const util::LockGuard lock(mu_);
  return build_once(
      fused_cache_[dt], "thermal.fused_operator_builds", "lu_factorize",
      "fused_be", [&] {
        const std::size_t n = capacitance_.size();
        const LuFactorization lu(step_matrix(dt));
        FusedStepOperator op{Matrix(n, n), Matrix(n, n)};
        // Column j of N is the solve against the j-th basis vector; M
        // scales each column by that node's C/dt.
        Vector basis(n, 0.0);
        Vector col(n);
        for (std::size_t j = 0; j < n; ++j) {
          basis[j] = 1.0;
          lu.solve_into(basis, col);
          basis[j] = 0.0;
          const double c_over_dt = capacitance_[j] / dt;
          for (std::size_t i = 0; i < n; ++i) {
            op.n(i, j) = col[i];
            op.m(i, j) = col[i] * c_over_dt;
          }
        }
        return op;
      });
}

const SparseStepOperator& LuCache::sparse(double dt) const {
  const util::LockGuard lock(mu_);
  return build_once(
      sparse_cache_[dt], "thermal.sparse_operator_builds", "sparse_factorize",
      "sparse_be", [&] {
        const std::size_t n = capacitance_.size();
        // Assemble C/dt + G directly in CSR: copy the G structure and add
        // the capacitive term on the (always present) diagonal entries.
        CsrMatrix a = g_csr_;
        Vector c_over_dt(n);
        for (std::size_t i = 0; i < n; ++i) {
          c_over_dt[i] = capacitance_[i] / dt;
          for (std::size_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
            if (static_cast<std::size_t>(a.col_idx[p]) == i) {
              a.values[p] += c_over_dt[i];
              break;
            }
          }
        }
        return SparseStepOperator(SparseCholesky(a), std::move(c_over_dt));
      });
}

const SparseCholesky& LuCache::steady_sparse() const {
  const util::LockGuard lock(mu_);
  return build_once(steady_chol_, "thermal.sparse_operator_builds",
                    "sparse_factorize", "steady",
                    [&] { return SparseCholesky(g_csr_); });
}

TransientSolver::TransientSolver(const RcNetwork& net, util::Celsius ambient,
                                 Scheme scheme,
                                 std::shared_ptr<const LuCache> lu_cache)
    : net_(&net),
      ambient_(ambient.value()),
      scheme_(scheme),
      sparse_(use_sparse_step(net.size())),
      celsius_(net.size(), ambient.value()),
      lu_cache_(lu_cache ? std::move(lu_cache)
                         : std::make_shared<const LuCache>(net)),
      rhs_(net.size()),
      rise_(net.size()),
      tmp_(net.size()),
      chol_work_(net.size()) {}

void TransientSolver::set_temperatures(const Vector& celsius) {
  if (celsius.size() != net_->size()) {
    throw std::invalid_argument("temperature vector size mismatch");
  }
  celsius_ = celsius;
}

void TransientSolver::initialize_steady_state(const Vector& power) {
  if (sparse_) {
    // Same G, factorised sparsely; agrees with the dense steady solve
    // to solver round-off (sparse_test bounds it). A factorisation
    // failure (never expected — G is SPD by construction) falls back to
    // the dense path rather than failing the run.
    try {
      steady_state_into(lu_cache_->steady_sparse(), power,
                        util::Celsius(ambient_), celsius_, chol_work_);
      return;
    } catch (const std::exception&) {
    }
  }
  steady_state_into(lu_cache_->steady(), power, util::Celsius(ambient_),
                    celsius_);
}

void TransientSolver::step(const Vector& power, util::Seconds dt) {
  if (power.size() != net_->size()) {
    throw std::invalid_argument("power vector size mismatch");
  }
  if (dt.value() <= 0.0) {
    throw std::invalid_argument("time step must be positive");
  }
  switch (scheme_) {
    case Scheme::kBackwardEuler:
      step_backward_euler(power, dt.value());
      break;
    case Scheme::kFusedBE:
      step_fast(power, dt.value());
      break;
  }
}

double round_step_dt(double dt) {
  const double mag = std::pow(10.0, std::floor(std::log10(dt)) - 2.0);
  return std::round(dt / mag) * mag;
}

void TransientSolver::step_backward_euler(const Vector& power, double dt) {
  static const obs::Counter be_steps =
      obs::metrics().counter("thermal.be_steps");
  be_steps.add();
  const std::size_t n = net_->size();
  dt = round_step_dt(dt);
  if (lu_dt_ != dt) {
    lu_ = &lu_cache_->backward_euler(dt);
    lu_dt_ = dt;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double rise = celsius_[i] - ambient_;
    rhs_[i] = net_->capacitance(i).value() / dt * rise + power[i];
  }
  lu_->solve_into(rhs_, rise_);
  for (std::size_t i = 0; i < n; ++i) celsius_[i] = ambient_ + rise_[i];
}

void TransientSolver::step_fast(const Vector& power, double dt) {
  // After a trip the fast operator is suspect for good: stay on the
  // reference LU scheme for the rest of this solver's life.
  if (fast_disabled_) {
    step_backward_euler(power, dt);
    return;
  }
  // The candidate rise is validated in scratch before celsius_ is
  // touched, so a rejected step leaves the state exactly as it was and
  // the LU fallback recomputes the same step from the same inputs.
  if (fast_candidate(power, round_step_dt(dt))) {
    if (inject_fault_) {
      inject_fault_ = false;
      tmp_[0] = std::numeric_limits<double>::quiet_NaN();
    }
    const std::size_t n = net_->size();
    bool ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      // !(|rise| < bound) also catches NaN (any comparison is false).
      if (!(std::abs(tmp_[i]) < kMaxPlausibleRise)) ok = false;
    }
    if (ok) {
      for (std::size_t i = 0; i < n; ++i) celsius_[i] = ambient_ + tmp_[i];
      return;
    }
  }
  ++guard_trips_;
  fast_disabled_ = true;
  static const obs::Counter guard_trips =
      obs::metrics().counter("thermal.fused_guard_trips");
  guard_trips.add();
  step_backward_euler(power, dt);
}

bool TransientSolver::fast_candidate(const Vector& power, double dt) {
  // Writes the candidate rise into tmp_; all scratch is preallocated, so
  // the steady-state path allocates nothing (the operator itself is
  // built on first use). False when the operator cannot be built.
  static const obs::Counter fused_steps =
      obs::metrics().counter("thermal.fused_be_steps");
  static const obs::Counter sparse_steps =
      obs::metrics().counter("thermal.sparse_be_steps");
  (sparse_ ? sparse_steps : fused_steps).add();
  if (fast_dt_ != dt) {
    try {
      if (sparse_) {
        sparse_op_ = &lu_cache_->sparse(dt);
      } else {
        fused_op_ = &lu_cache_->fused(dt);
      }
    } catch (const std::exception&) {
      return false;
    }
    fast_dt_ = dt;
  }
  const std::size_t n = net_->size();
  if (sparse_) {
    // rhs = (C/dt) rise + P, then one LDL^T substitution. The explicit
    // fma pins the rhs arithmetic (the compiler may or may not contract
    // a * b + c on its own).
    const Vector& c_over_dt = sparse_op_->c_over_dt;
    for (std::size_t i = 0; i < n; ++i) {
      rhs_[i] = std::fma(c_over_dt[i], celsius_[i] - ambient_, power[i]);
    }
    sparse_op_->chol.solve_into(rhs_.data(), tmp_.data(), chol_work_.data());
    return true;
  }
  // rise' = M rise + N P.
  for (std::size_t i = 0; i < n; ++i) rise_[i] = celsius_[i] - ambient_;
  matvec(fused_op_->m.data(), n, n, rise_.data(), tmp_.data());
  matvec(fused_op_->n.data(), n, n, power.data(), rhs_.data());
  for (std::size_t i = 0; i < n; ++i) tmp_[i] += rhs_[i];
  return true;
}

}  // namespace hydra::thermal
