// note9_model.hpp - the Galaxy Note 9 compact thermal network.
//
// Six lumped nodes: the three PE clusters (junction temperatures, small
// capacity, fast), a SoC/board node, the battery pack and the chassis/skin.
// Only skin and battery exchange heat with ambient. Constants were
// calibrated (tests/thermal) so that, with the soc/ power model:
//   - idle (~1.2 W) settles near 29-33 C big-cluster temperature,
//   - a mixed social-app session under schedutil averages ~50 C on big,
//   - a sustained heavy game under schedutil pushes big into the 70-85 C
//     range, matching the envelopes visible in the paper's Figs. 3/8.
//
// The solver structure (CSR layout, stability bound, steady-state system)
// is built exactly once per process: note9_topology() returns the shared
// ref-counted RcTopology and every engine's RcNetwork is a per-session
// state view over it.
#pragma once

#include <memory>

#include "common/units.hpp"
#include "thermal/rc_network.hpp"

namespace nextgov::thermal {

/// Node handles for the Note 9 network.
struct Note9Nodes {
  NodeId big;
  NodeId little;
  NodeId gpu;
  NodeId soc_board;
  NodeId battery;
  NodeId skin;
};

struct Note9Thermal {
  RcNetwork network;
  Note9Nodes nodes;
};

/// The process-wide shared Note 9 solver structure (built on first use).
[[nodiscard]] const std::shared_ptr<const RcTopology>& note9_topology();

/// Builds a session state view over note9_topology() with all nodes at
/// `ambient` (paper: 21 C controlled).
[[nodiscard]] Note9Thermal make_note9_thermal(Celsius ambient);

}  // namespace nextgov::thermal
