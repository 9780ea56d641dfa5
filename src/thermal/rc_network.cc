#include "thermal/rc_network.h"

#include <stdexcept>

namespace hydra::thermal {

std::size_t RcNetwork::add_node(std::string name,
                                util::JoulesPerKelvin capacitance) {
  if (capacitance.value() <= 0.0) {
    throw std::invalid_argument("node '" + name +
                                "' needs positive capacitance");
  }
  names_.push_back(std::move(name));
  capacitance_.push_back(capacitance.value());
  ambient_conductance_.push_back(0.0);
  return names_.size() - 1;
}

void RcNetwork::connect(std::size_t a, std::size_t b,
                        util::KelvinPerWatt ohms) {
  if (a >= size() || b >= size() || a == b) {
    throw std::invalid_argument("bad node indices in connect()");
  }
  if (ohms.value() <= 0.0) {
    throw std::invalid_argument("thermal resistance must be positive");
  }
  edges_.push_back({a, b, 1.0 / ohms.value()});
}

void RcNetwork::connect_to_ambient(std::size_t a, util::KelvinPerWatt ohms) {
  if (a >= size()) {
    throw std::invalid_argument("bad node index in connect_to_ambient()");
  }
  if (ohms.value() <= 0.0) {
    throw std::invalid_argument("thermal resistance must be positive");
  }
  ambient_conductance_[a] += 1.0 / ohms.value();
}

void RcNetwork::scale_capacitances(double inv_factor) {
  if (inv_factor <= 0.0) {
    throw std::invalid_argument("capacitance scale factor must be positive");
  }
  for (double& c : capacitance_) c /= inv_factor;
}

Matrix RcNetwork::conductance_matrix() const {
  const std::size_t n = size();
  Matrix g(n, n, 0.0);
  for (const Edge& e : edges_) {
    g(e.a, e.a) += e.conductance_w_per_k;
    g(e.b, e.b) += e.conductance_w_per_k;
    g(e.a, e.b) -= e.conductance_w_per_k;
    g(e.b, e.a) -= e.conductance_w_per_k;
  }
  for (std::size_t i = 0; i < n; ++i) g(i, i) += ambient_conductance_[i];
  return g;
}

CsrMatrix RcNetwork::conductance_csr() const {
  const std::size_t n = size();
  // Pass 1: row populations. Each edge puts one off-diagonal entry in
  // both endpoint rows (duplicates from parallel edges merge in pass 3);
  // every row carries a diagonal entry.
  std::vector<std::size_t> count(n, 1);
  for (const Edge& e : edges_) {
    ++count[e.a];
    ++count[e.b];
  }
  CsrMatrix g;
  g.rows = n;
  g.cols = n;
  g.row_ptr.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    g.row_ptr[i + 1] = g.row_ptr[i] + count[i];
  }
  g.col_idx.assign(g.row_ptr[n], 0);
  g.values.assign(g.row_ptr[n], 0.0);

  // Pass 2: scatter. Diagonal first (ambient tie seed), then the edge
  // couplings; the Laplacian diagonal accumulates in place.
  std::vector<std::size_t> fill(n);
  for (std::size_t i = 0; i < n; ++i) {
    fill[i] = g.row_ptr[i] + 1;
    g.col_idx[g.row_ptr[i]] = static_cast<std::int32_t>(i);
    g.values[g.row_ptr[i]] = ambient_conductance_[i];
  }
  for (const Edge& e : edges_) {
    g.values[g.row_ptr[e.a]] += e.conductance_w_per_k;
    g.values[g.row_ptr[e.b]] += e.conductance_w_per_k;
    g.col_idx[fill[e.a]] = static_cast<std::int32_t>(e.b);
    g.values[fill[e.a]] = -e.conductance_w_per_k;
    ++fill[e.a];
    g.col_idx[fill[e.b]] = static_cast<std::int32_t>(e.a);
    g.values[fill[e.b]] = -e.conductance_w_per_k;
    ++fill[e.b];
  }

  // Pass 3: sort each row by column (insertion sort — rows are a
  // stencil plus a package star, i.e. short) and merge duplicates.
  std::size_t out = 0;
  std::size_t row_start = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p0 = g.row_ptr[i];
    const std::size_t p1 = g.row_ptr[i + 1];
    for (std::size_t p = p0 + 1; p < p1; ++p) {
      const std::int32_t c = g.col_idx[p];
      const double v = g.values[p];
      std::size_t q = p;
      while (q > p0 && g.col_idx[q - 1] > c) {
        g.col_idx[q] = g.col_idx[q - 1];
        g.values[q] = g.values[q - 1];
        --q;
      }
      g.col_idx[q] = c;
      g.values[q] = v;
    }
    row_start = out;
    for (std::size_t p = p0; p < p1; ++p) {
      if (out > row_start && g.col_idx[out - 1] == g.col_idx[p]) {
        g.values[out - 1] += g.values[p];
      } else {
        g.col_idx[out] = g.col_idx[p];
        g.values[out] = g.values[p];
        ++out;
      }
    }
    g.row_ptr[i] = row_start;
  }
  g.row_ptr[n] = out;
  g.col_idx.resize(out);
  g.values.resize(out);
  return g;
}

}  // namespace hydra::thermal
