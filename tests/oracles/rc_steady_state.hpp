// rc_steady_state.hpp - direct equilibrium solve of an RC thermal network:
// the analytic check the transient solver (thermal/rc_network.hpp) is held
// to.
//
// At equilibrium every node's net heat flow is zero, so the temperatures
// solve the linear system A * T = b, where A is the conductance Laplacian
// plus the ambient conductances on the diagonal and b_i = P_i + G_i,amb *
// T_amb. Built from the topology's public node and edge specs, not from
// anything the solver precomputes, and solved by Gaussian elimination
// (the networks are tiny).
#pragma once

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "thermal/rc_network.hpp"

namespace nextgov::test {

/// Equilibrium node temperatures of `topology` with `power_w[i]` watts
/// injected at node i and the ambient boundary at `ambient`. Throws
/// ConfigError when the network has no path to ambient (no equilibrium
/// exists).
inline std::vector<Celsius> steady_state(const thermal::RcTopology& topology,
                                         std::span<const double> power_w, Celsius ambient) {
  const std::size_t n = topology.node_count();
  require(n > 0, "steady_state of empty network");
  require(power_w.size() == n, "steady_state: one power per node");
  std::vector<double> a(n * n, 0.0);
  std::vector<double> b(n);
  bool ambient_path = false;
  for (std::size_t i = 0; i < n; ++i) {
    const double g_amb = topology.nodes()[i].g_ambient;
    a[i * n + i] = g_amb;
    b[i] = power_w[i] + g_amb * ambient.value();
    ambient_path = ambient_path || g_amb > 0.0;
  }
  require(ambient_path, "network has no path to ambient; no steady state exists");
  for (const thermal::RcEdgeSpec& e : topology.edges()) {
    a[e.a * n + e.a] += e.g;
    a[e.b * n + e.b] += e.g;
    a[e.a * n + e.b] -= e.g;
    a[e.b * n + e.a] -= e.g;
  }

  // Gaussian elimination with partial pivoting.
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r * n + col]) > std::fabs(a[pivot * n + col])) pivot = r;
    }
    require(std::fabs(a[pivot * n + col]) > 1e-12,
            "singular thermal system (disconnected node without ambient path)");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r * n + col] / a[col * n + col];
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= factor * a[col * n + c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> t(n, 0.0);
  for (std::size_t r = n; r-- > 0;) {
    double sum = b[r];
    for (std::size_t c = r + 1; c < n; ++c) sum -= a[r * n + c] * t[c];
    t[r] = sum / a[r * n + r];
  }
  return {t.begin(), t.end()};
}

}  // namespace nextgov::test
