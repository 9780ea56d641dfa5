// Explicit fourth-order Runge-Kutta over an RC network: the reference
// integrator the backward-Euler solver is cross-validated against. It
// multiplies by the CSR conductance matrix the solver's LuCache
// assembles, so both integrate the same G.
#pragma once

#include <cstddef>

#include "thermal/rc_network.h"
#include "thermal/solver.h"
#include "util/units.h"

namespace hydra::thermal {

class Rk4Reference {
 public:
  Rk4Reference(const RcNetwork& net, util::Celsius ambient)
      : net_(&net),
        cache_(net),
        ambient_(ambient.value()),
        celsius_(net.size(), ambient.value()),
        rise_(net.size()),
        tmp_(net.size()),
        flow_(net.size()),
        k1_(net.size()),
        k2_(net.size()),
        k3_(net.size()),
        k4_(net.size()) {}

  /// Advance by `dt` with constant per-node power [W].
  void step(const Vector& power, util::Seconds dt) {
    const std::size_t n = net_->size();
    const double h = dt.value();
    for (std::size_t i = 0; i < n; ++i) rise_[i] = celsius_[i] - ambient_;
    derivative(rise_, power, k1_);
    for (std::size_t i = 0; i < n; ++i) tmp_[i] = rise_[i] + h / 2.0 * k1_[i];
    derivative(tmp_, power, k2_);
    for (std::size_t i = 0; i < n; ++i) tmp_[i] = rise_[i] + h / 2.0 * k2_[i];
    derivative(tmp_, power, k3_);
    for (std::size_t i = 0; i < n; ++i) tmp_[i] = rise_[i] + h * k3_[i];
    derivative(tmp_, power, k4_);
    for (std::size_t i = 0; i < n; ++i) {
      rise_[i] += h / 6.0 * (k1_[i] + 2.0 * k2_[i] + 2.0 * k3_[i] + k4_[i]);
      celsius_[i] = ambient_ + rise_[i];
    }
  }

  util::Celsius temperature(std::size_t node) const {
    return util::Celsius(celsius_[node]);
  }

 private:
  /// d(rise)/dt = C^-1 (P - G rise).
  void derivative(const Vector& rise, const Vector& power, Vector& d) {
    cache_.conductance_csr().multiply_into(rise.data(), flow_.data());
    for (std::size_t i = 0; i < net_->size(); ++i) {
      d[i] = (power[i] - flow_[i]) / net_->capacitance(i).value();
    }
  }

  const RcNetwork* net_;
  LuCache cache_;
  double ambient_;
  Vector celsius_, rise_, tmp_, flow_, k1_, k2_, k3_, k4_;
};

}  // namespace hydra::thermal
