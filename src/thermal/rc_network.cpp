#include "thermal/rc_network.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace nextgov::thermal {

// --- RcTopology ------------------------------------------------------------

RcTopology::RcTopology(std::vector<RcNodeSpec> nodes, std::vector<RcEdgeSpec> edges)
    : nodes_{std::move(nodes)}, edges_{std::move(edges)} {
  const std::size_t n = nodes_.size();
  for (const auto& nd : nodes_) {
    require(nd.capacity > 0.0, "thermal capacity must be positive");
    require(nd.g_ambient >= 0.0, "ambient conductance must be non-negative");
  }
  for (const auto& e : edges_) {
    require(e.a < n && e.b < n, "thermal edge: unknown node id");
    require(e.a != e.b, "thermal edge: endpoints must differ");
    require(e.g > 0.0, "thermal conductance must be positive");
  }

  // Per-node degree -> CSR row pointers (undirected: each edge twice).
  row_ptr_.assign(n + 1, 0);
  for (const auto& e : edges_) {
    ++row_ptr_[e.a + 1];
    ++row_ptr_[e.b + 1];
  }
  for (std::size_t i = 0; i < n; ++i) row_ptr_[i + 1] += row_ptr_[i];
  nbr_node_.resize(edges_.size() * 2);
  nbr_g_.resize(edges_.size() * 2);
  std::vector<std::uint32_t> cursor(row_ptr_.begin(), row_ptr_.end() - 1);
  for (const auto& e : edges_) {
    nbr_node_[cursor[e.a]] = static_cast<std::uint32_t>(e.b);
    nbr_g_[cursor[e.a]++] = e.g;
    nbr_node_[cursor[e.b]] = static_cast<std::uint32_t>(e.a);
    nbr_g_[cursor[e.b]++] = e.g;
  }

  // Per-node conductance sums feed the explicit-Euler stability bound.
  std::vector<double> g_total(n, 0.0);
  inv_cap_.resize(n);
  g_ambient_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    g_total[i] = nodes_[i].g_ambient;
    inv_cap_[i] = 1.0 / nodes_[i].capacity;
    g_ambient_[i] = nodes_[i].g_ambient;
  }
  for (const auto& e : edges_) {
    g_total[e.a] += e.g;
    g_total[e.b] += e.g;
  }

  // Stability: dt < C_i / (sum of conductances at i) per node; half of the
  // bound as safety margin.
  double worst = 1e9;
  for (std::size_t i = 0; i < n; ++i) {
    if (g_total[i] > 0.0) worst = std::min(worst, nodes_[i].capacity / g_total[i]);
  }
  max_stable_dt_s_ = 0.5 * worst;
}

std::shared_ptr<const RcTopology> RcTopology::make(std::vector<RcNodeSpec> nodes,
                                                   std::vector<RcEdgeSpec> edges) {
  return std::make_shared<const RcTopology>(std::move(nodes), std::move(edges));
}

std::size_t RcTopology::substeps_for(double total_s) const noexcept {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(total_s / max_stable_dt_s_)));
}

// --- RcNetwork -------------------------------------------------------------

RcNetwork::RcNetwork(std::shared_ptr<const RcTopology> topology, Celsius ambient)
    : topo_{std::move(topology)}, ambient_{ambient} {
  require(topo_ != nullptr, "RcNetwork needs a topology");
  temp_.assign(topo_->node_count(), ambient_.value());
  power_.assign(topo_->node_count(), 0.0);
  next_.assign(topo_->node_count(), 0.0);
}

Celsius RcNetwork::temperature(NodeId id) const {
  require(id < node_count(), "unknown node id");
  return Celsius{temp_[id]};
}

void RcNetwork::set_power(NodeId id, Watts p) {
  require(id < node_count(), "unknown node id");
  power_[id] = p.value();
}

void RcNetwork::euler_substep(double dt_s) noexcept {
  const RcTopology& t = *topo_;
  const std::size_t n = temp_.size();
  const double amb = ambient_.value();
  const std::uint32_t* const row_ptr = t.row_ptr().data();
  const std::uint32_t* const nbr_node = t.nbr_node().data();
  const double* const nbr_g = t.nbr_g().data();
  const double* const g_amb = t.g_ambient().data();
  const double* const inv_cap = t.inv_cap().data();
  const double* const power = power_.data();
  const double* const temp = temp_.data();
  double* const next = next_.data();
  // One pass: each node's net heat flux is summed from the previous
  // temperatures and its update goes straight into the other buffer, which
  // then becomes the current one.
  for (std::size_t i = 0; i < n; ++i) {
    double f = power[i] + g_amb[i] * (amb - temp[i]);
    const std::uint32_t end = row_ptr[i + 1];
    for (std::uint32_t k = row_ptr[i]; k < end; ++k) {
      f += nbr_g[k] * (temp[nbr_node[k]] - temp[i]);
    }
    next[i] = temp[i] + dt_s * f * inv_cap[i];
  }
  temp_.swap(next_);
}

void RcNetwork::step(SimTime dt) {
  NEXTGOV_ASSERT(dt.us() >= 0);
  if (temp_.empty() || dt.us() == 0) return;
  if (dt.us() != cached_dt_us_) {
    const double total_s = dt.seconds();
    cached_substeps_ = topo_->substeps_for(total_s);
    cached_dt_sub_s_ = total_s / static_cast<double>(cached_substeps_);
    cached_dt_us_ = dt.us();
  }
  for (std::size_t k = 0; k < cached_substeps_; ++k) euler_substep(cached_dt_sub_s_);
}

void RcNetwork::set_all_temperatures(Celsius t) noexcept {
  std::fill(temp_.begin(), temp_.end(), t.value());
}

}  // namespace nextgov::thermal
