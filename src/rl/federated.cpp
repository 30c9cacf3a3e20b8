#include "rl/federated.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace nextgov::rl {

namespace {

/// Key-order walk over one merge input: its table's key-order walk, with
/// the delta's changes (strictly increasing keys) merged in. A change
/// replaces the base row of its key, or adds a state, exactly as
/// apply_delta installs it.
class InputCursor {
 public:
  explicit InputCursor(const MergeInput& input)
      : base_{*input.table}, delta_{input.delta} {
    settle();
  }

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] StateKey key() const noexcept { return key_; }
  [[nodiscard]] std::uint64_t visits() const noexcept { return visits_; }
  [[nodiscard]] std::uint32_t tried() const noexcept { return tried_; }
  [[nodiscard]] const float* row() const noexcept { return row_; }

  void next() noexcept {
    if (on_change_) {
      if (!base_.done() && base_.key() == key_) base_.next();
      ++change_;
    } else {
      base_.next();
    }
    settle();
  }

 private:
  /// Points the cursor at the smaller of the next base row and the next
  /// change; a change wins the tie.
  void settle() noexcept {
    const bool change_left = delta_ != nullptr && change_ < delta_->changes.size();
    done_ = base_.done() && !change_left;
    if (done_) return;
    on_change_ = change_left && (base_.done() || delta_->changes[change_].key <= base_.key());
    if (!on_change_) {
      const QTable::EntryView e = base_.entry();
      key_ = e.key();
      visits_ = e.visits();
      tried_ = e.tried();
      row_ = e.row();
      return;
    }
    const QTableDelta::Change& c = delta_->changes[change_];
    const std::uint64_t base_visits =
        !base_.done() && base_.key() == c.key ? base_.entry().visits() : 0;
    key_ = c.key;
    visits_ = base_visits + static_cast<std::uint64_t>(c.visit_delta);
    tried_ = c.tried;
    row_ = delta_->row(change_).data();
  }

  QTable::KeyOrderCursor base_;
  const QTableDelta* delta_;
  std::size_t change_{0};
  bool done_{false};
  bool on_change_{false};
  StateKey key_{0};
  std::uint64_t visits_{0};
  std::uint32_t tried_{0};
  const float* row_{nullptr};
};

/// FedAvg core: visit-weighted averaging with an extra per-input weight
/// multiplier (1.0 for every input = the plain merge).
QTable merge_impl(std::span<const MergeInput> inputs, std::span<const double> input_weight) {
  require(!inputs.empty(), "merge_q_tables needs at least one table");
  require(inputs.front().table != nullptr, "merge_q_tables: null table");
  const std::size_t actions = inputs.front().table->action_count();
  for (const MergeInput& in : inputs) {
    require(in.table != nullptr, "merge_q_tables: null table");
    require(in.table->action_count() == actions, "merge_q_tables: action count mismatch");
    if (in.delta != nullptr) check_delta_applies(*in.table, *in.delta);
  }

  // A k-way merge over the inputs' key-order walks: each step takes the
  // smallest key still pending in any input, adds that state's
  // contributions in input order (the order the sums have always been
  // taken in, so every average is bit-identical), and appends the merged
  // row. Rows come out in key order, so the aggregate - and the warm start
  // stripped from it - has no unsorted tail for later walks to sort.
  std::vector<InputCursor> cursors;
  cursors.reserve(inputs.size());
  for (const MergeInput& in : inputs) cursors.emplace_back(in);
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
    for (const InputCursor& c : cursors) {
      if (!c.done() && (!pending || c.key() < key)) {
        key = c.key();
        pending = true;
      }
    }
    if (!pending) break;
    std::fill(weighted_q.begin(), weighted_q.end(), 0.0);
    std::fill(weight.begin(), weight.end(), 0.0);
    double visits = 0.0;
    for (std::size_t i = 0; i < cursors.size(); ++i) {
      InputCursor& c = cursors[i];
      if (c.done() || c.key() != key) continue;
      const double tw = input_weight[i];
      // Visit count + 1 so tables with zero recorded visits still count.
      const double w = tw * (static_cast<double>(c.visits()) + 1.0);
      const float* q = c.row();
      for (std::size_t a = 0; a < actions && a < 32; ++a) {
        if ((c.tried() & (1u << a)) == 0) continue;
        weighted_q[a] += w * static_cast<double>(q[a]);
        weight[a] += w;
      }
      visits += tw * static_cast<double>(c.visits());
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

QTable merge_q_tables(std::span<const MergeInput> inputs, std::span<const double> staleness,
                      const StalenessMergePolicy& policy) {
  require(staleness.size() == inputs.size(),
          "merge_q_tables: one staleness value per table required");
  require(policy.half_life_rounds > 0.0, "merge_q_tables: half-life must be positive");
  std::vector<double> weights;
  weights.reserve(inputs.size());
  for (const double s : staleness) {
    require(s >= 0.0, "merge_q_tables: staleness must be non-negative");
    weights.push_back(policy.weight(s));
  }
  return merge_impl(inputs, weights);
}

QTable merge_q_tables(std::span<const QTable* const> tables, std::span<const double> staleness,
                      const StalenessMergePolicy& policy) {
  std::vector<MergeInput> inputs;
  inputs.reserve(tables.size());
  for (const QTable* t : tables) inputs.push_back(MergeInput{t});
  return merge_q_tables(inputs, staleness, policy);
}

}  // namespace nextgov::rl
