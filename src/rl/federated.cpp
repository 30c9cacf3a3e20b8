#include "rl/federated.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace nextgov::rl {

namespace {

/// Shared FedAvg core: visit-weighted averaging with an extra per-table
/// weight multiplier (1.0 for every table = the plain merge).
QTable merge_impl(std::span<const QTable* const> tables,
                  std::span<const double> table_weight) {
  require(!tables.empty(), "merge_q_tables needs at least one table");
  const std::size_t actions = tables.front()->action_count();
  for (const QTable* t : tables) {
    require(t != nullptr, "merge_q_tables: null table");
    require(t->action_count() == actions, "merge_q_tables: action count mismatch");
  }

  // A k-way merge over the inputs' key-order walks: each step takes the
  // smallest key still pending in any input, adds that state's
  // contributions in table order (the order the sums have always been
  // taken in, so every average is bit-identical), and appends the merged
  // row. Rows come out in key order, so the aggregate - and the warm start
  // stripped from it - has no unsorted tail for later walks to sort.
  std::vector<QTable::KeyOrderCursor> cursors;
  cursors.reserve(tables.size());
  for (const QTable* t : tables) cursors.emplace_back(*t);
  // Visit-weighted sums per action for the state being merged. Only actions
  // a device actually *tried* contribute - untried entries still carry the
  // optimistic initialization value and must not pollute the average.
  std::vector<double> weighted_q(actions);
  std::vector<double> weight(actions);
  std::vector<float> row(actions);
  QTable merged{actions};
  for (;;) {
    bool pending = false;
    StateKey key = 0;
    for (const QTable::KeyOrderCursor& c : cursors) {
      if (!c.done() && (!pending || c.key() < key)) {
        key = c.key();
        pending = true;
      }
    }
    if (!pending) break;
    std::fill(weighted_q.begin(), weighted_q.end(), 0.0);
    std::fill(weight.begin(), weight.end(), 0.0);
    double visits = 0.0;
    for (std::size_t ti = 0; ti < cursors.size(); ++ti) {
      QTable::KeyOrderCursor& c = cursors[ti];
      if (c.done() || c.key() != key) continue;
      const QTable::EntryView e = c.entry();
      const double tw = table_weight[ti];
      // Visit count + 1 so tables with zero recorded visits still count.
      const double w = tw * (static_cast<double>(e.visits()) + 1.0);
      for (std::size_t a = 0; a < actions && a < 32; ++a) {
        if ((e.tried() & (1u << a)) == 0) continue;
        weighted_q[a] += w * static_cast<double>(e.q(a));
        weight[a] += w;
      }
      visits += tw * static_cast<double>(e.visits());
      c.next();
    }
    // An action no input tried keeps the merged table's default (0) and
    // stays untried.
    std::uint32_t tried = 0;
    for (std::size_t a = 0; a < actions; ++a) {
      row[a] = 0.0f;
      if (weight[a] > 0.0) {
        row[a] = static_cast<float>(weighted_q[a] / weight[a]);
        tried |= 1u << a;
      }
    }
    // Staleness-discounted visit mass rounds to the nearest count, so the
    // merged table's own weight in later (hierarchical) merges reflects
    // how much *fresh* experience actually backs it.
    merged.install_entry(key, static_cast<std::uint64_t>(std::llround(visits)), tried, row);
  }
  return merged;
}

}  // namespace

QTable merge_q_tables(std::span<const QTable* const> tables) {
  const std::vector<double> unit(tables.size(), 1.0);
  return merge_impl(tables, unit);
}

QTable merge_q_tables(std::span<const QTable* const> tables, std::span<const double> staleness,
                      const StalenessMergePolicy& policy) {
  require(staleness.size() == tables.size(),
          "merge_q_tables: one staleness value per table required");
  require(policy.half_life_rounds > 0.0, "merge_q_tables: half-life must be positive");
  std::vector<double> weights;
  weights.reserve(tables.size());
  for (const double s : staleness) {
    require(s >= 0.0, "merge_q_tables: staleness must be non-negative");
    weights.push_back(policy.weight(s));
  }
  return merge_impl(tables, weights);
}

}  // namespace nextgov::rl
