#include "thermal/rc_batch.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace nextgov::thermal {

RcBatch::RcBatch(std::shared_ptr<const RcTopology> topology, std::size_t sessions,
                 Celsius initial)
    : topo_{std::move(topology)}, sessions_{sessions} {
  require(topo_ != nullptr, "RcBatch needs a topology");
  require(sessions_ > 0, "RcBatch needs at least one session");
  const std::size_t cells = topo_->node_count() * sessions_;
  temp_.assign(cells, initial.value());
  power_.assign(cells, 0.0);
  flux_.assign(cells, 0.0);
  ambient_.assign(sessions_, initial.value());
}

void RcBatch::set_ambient(std::size_t session, Celsius t) {
  require(session < sessions_, "unknown batch session");
  ambient_[session] = t.value();
}

Celsius RcBatch::ambient(std::size_t session) const {
  require(session < sessions_, "unknown batch session");
  return Celsius{ambient_[session]};
}

void RcBatch::set_power(std::size_t session, NodeId node, Watts p) {
  require(session < sessions_ && node < node_count(), "unknown batch session/node");
  power_[node * sessions_ + session] = p.value();
}

Watts RcBatch::power(std::size_t session, NodeId node) const {
  require(session < sessions_ && node < node_count(), "unknown batch session/node");
  return Watts{power_[node * sessions_ + session]};
}

Celsius RcBatch::temperature(std::size_t session, NodeId node) const {
  require(session < sessions_ && node < node_count(), "unknown batch session/node");
  return Celsius{temp_[node * sessions_ + session]};
}

void RcBatch::set_all_temperatures(std::size_t session, Celsius t) {
  require(session < sessions_, "unknown batch session");
  const std::size_t n = node_count();
  for (std::size_t i = 0; i < n; ++i) temp_[i * sessions_ + session] = t.value();
}

void RcBatch::load_state(std::size_t session, const RcNetwork& net) {
  require(session < sessions_, "unknown batch session");
  require(net.topology().get() == topo_.get(),
          "RcBatch::load_state: network does not share the batch topology");
  const std::size_t n = node_count();
  for (std::size_t i = 0; i < n; ++i) {
    temp_[i * sessions_ + session] = net.temp_[i];
    power_[i * sessions_ + session] = net.power_[i];
  }
  ambient_[session] = net.ambient().value();
}

void RcBatch::store_temperatures(std::size_t session, RcNetwork& net) const {
  NEXTGOV_ASSERT(session < sessions_);
  NEXTGOV_ASSERT(net.temp_.size() == node_count());
  // Strided gather out of the SoA block into the network's node order.
  const std::size_t n = node_count();
  for (std::size_t i = 0; i < n; ++i) net.temp_[i] = temp_[i * sessions_ + session];
}

void RcBatch::euler_substep(double dt_s) noexcept {
  const RcTopology& t = *topo_;
  const std::size_t n = t.node_count();
  const std::size_t S = sessions_;
  const std::uint32_t* const row_ptr = t.row_ptr().data();
  const std::uint32_t* const nbr_node = t.nbr_node().data();
  const double* const nbr_g = t.nbr_g().data();
  const double* const g_amb_all = t.g_ambient().data();
  const double* const inv_cap_all = t.inv_cap().data();
  const double* const amb = ambient_.data();
  const double* const power = power_.data();
  double* const temp = temp_.data();
  double* const flux = flux_.data();

  // Per-session arithmetic order mirrors RcNetwork::euler_substep exactly:
  // flux = P + G_amb (T_amb - T), then += G_k (T_nbr - T) in CSR order,
  // then T += dt * flux / C - only the loop over sessions is new, and it
  // is the innermost, contiguous, auto-vectorizable axis.
  for (std::size_t i = 0; i < n; ++i) {
    const double g_amb = g_amb_all[i];
    const double* const p_i = power + i * S;
    const double* const t_i = temp + i * S;
    double* const f_i = flux + i * S;
    for (std::size_t s = 0; s < S; ++s) {
      f_i[s] = p_i[s] + g_amb * (amb[s] - t_i[s]);
    }
    const std::uint32_t end = row_ptr[i + 1];
    for (std::uint32_t k = row_ptr[i]; k < end; ++k) {
      const double g = nbr_g[k];
      const double* const t_nbr = temp + static_cast<std::size_t>(nbr_node[k]) * S;
      for (std::size_t s = 0; s < S; ++s) {
        f_i[s] += g * (t_nbr[s] - t_i[s]);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_cap = inv_cap_all[i];
    const double* const f_i = flux + i * S;
    double* const t_i = temp + i * S;
    for (std::size_t s = 0; s < S; ++s) {
      t_i[s] += dt_s * f_i[s] * inv_cap;
    }
  }
}

void RcBatch::step(SimTime dt) {
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

}  // namespace nextgov::thermal
