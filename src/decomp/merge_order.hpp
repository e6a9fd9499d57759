#pragma once
// The merge-order engine behind every decomposition tree of Section 2.
//
// Algorithm 2.2 (Modified Huffman), its height-bounded variant (Sec. 2.2),
// the correlated merge of Eqs. 7–9 and the lag-one merge of Eqs. 10/11 are
// one idea: repeatedly merge the pair of subtrees whose merged node has the
// least switching cost F. They differ only in the merge rule — what a node
// carries and how two nodes combine — so the engine is written once:
//
//   * merge_greedy — takes candidate pairs in (F, lower id, higher id) order
//     and merges the first one that passes the optional height-feasibility
//     test, always as merge(lower, higher). A surviving pair's F never
//     changes, so each pair's F is evaluated once (O(n²) rule calls); each
//     of the n−1 steps scans the live pairs, O(n³) comparisons in all, and
//     under a bound every pair that beats the best so far also pays an O(L)
//     feasibility test.
//   * merge_exhaustive — branch and bound over every merge order: pairs by
//     position (i < j), the survivors in order with the new parent appended,
//     pruned by `cost >= best`. The optimality oracle; exponential, so it is
//     limited to 9 leaves and accepts a step cap.
//
// A merge rule provides
//   using State = ...;                      what a node carries
//   std::vector<State> node;                one per node id, leaves first
//   State merged(int a, int b) const;       the parent of a < b
//   double cost(const State&) const;        the node's switching activity F
//   double prob(const State&) const;        its 1-probability (TNode::prob)
//   void joined(int p, int a, int b, const std::vector<int>& survivors);
//                                           hook after p = merge(a, b)
// Node ids are creation order, so every tree lists children before parents.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "decomp/tree.hpp"
#include "util/budget.hpp"

namespace minpower {

/// Merge rule of the independent-leaf model: a node carries its
/// 1-probability and merges by `DecompModel::merge_prob`.
struct ProbabilityMerge {
  using State = double;
  const DecompModel& model;
  std::vector<double> node;

  double merged(int a, int b) const {
    return model.merge_prob(node[static_cast<std::size_t>(a)],
                            node[static_cast<std::size_t>(b)]);
  }
  double cost(double p) const { return model.activity(p); }
  static double prob(double p) { return p; }
  void joined(int, int, int, const std::vector<int>&) {}
};

namespace merge_order {

/// Height feasibility under a bound L (Section 2.2). Live subtrees of
/// heights h_i complete into one tree of height ≤ L iff Σ 2^h_i ≤ 2^L (the
/// Kraft condition, which merging the two lowest subtrees first attains).
/// A negative bound disables the test.
class HeightBudget {
 public:
  HeightBudget(int max_height, int leaves)
      : bound_(max_height),
        count_(static_cast<std::size_t>(std::max(max_height, 0)) + 1, 0) {
    count_[0] = leaves;
  }

  bool bounded() const { return bound_ >= 0; }

  /// Whether merging live subtrees of heights `ha` and `hb` leaves a
  /// feasible set.
  bool admits(int ha, int hb) {
    if (1 + std::max(ha, hb) > bound_) return false;
    merge(ha, hb);
    std::size_t carry = 0;  // ⌈Σ_{h'<h} count[h']·2^h' / 2^h⌉
    for (int h = 0; h < bound_; ++h)
      carry = (carry + count_[static_cast<std::size_t>(h)] + 1) / 2;
    const bool fits = carry + count_[static_cast<std::size_t>(bound_)] <= 1;
    unmerge(ha, hb);
    return fits;
  }

  void merge(int ha, int hb) { shift(ha, hb, 1); }
  void unmerge(int ha, int hb) { shift(ha, hb, -1); }

 private:
  void shift(int ha, int hb, int dir) {
    if (!bounded()) return;
    count_[static_cast<std::size_t>(ha)] -= dir;
    count_[static_cast<std::size_t>(hb)] -= dir;
    count_[static_cast<std::size_t>(1 + std::max(ha, hb))] += dir;
  }

  int bound_;
  std::vector<std::size_t> count_;  // live subtrees per height
};

/// The tree of a rule's leaves (a finished tree when there is one leaf).
template <class Rule>
DecompTree leaf_tree(const Rule& rule) {
  DecompTree t;
  t.num_leaves = static_cast<int>(rule.node.size());
  MP_CHECK(t.num_leaves >= 1);
  for (int i = 0; i < t.num_leaves; ++i) {
    DecompTree::TNode leaf;
    leaf.leaf = i;
    leaf.prob = rule.prob(rule.node[static_cast<std::size_t>(i)]);
    t.nodes.push_back(leaf);
  }
  if (t.num_leaves == 1) t.root = 0;
  return t;
}

/// Appends the parent of `a` and `b`, carrying `s`; returns its id.
template <class Rule>
int join(DecompTree& t, Rule& rule, int a, int b, typename Rule::State s) {
  DecompTree::TNode parent;
  parent.left = a;
  parent.right = b;
  parent.prob = rule.prob(s);
  parent.height = 1 + std::max(t.nodes[static_cast<std::size_t>(a)].height,
                               t.nodes[static_cast<std::size_t>(b)].height);
  t.nodes.push_back(parent);
  rule.node.push_back(std::move(s));
  return static_cast<int>(t.nodes.size()) - 1;
}

}  // namespace merge_order

/// Min-F greedy (Algorithm 2.2 and its bounded variant). `max_height` < 0
/// means unbounded; otherwise the result has height ≤ max_height, which
/// must be ≥ ⌈log2 n⌉.
template <class Rule>
DecompTree merge_greedy(Rule rule, int max_height = -1) {
  const int n = static_cast<int>(rule.node.size());
  DecompTree t = merge_order::leaf_tree(rule);
  if (n == 1) return t;
  const std::size_t m = 2 * static_cast<std::size_t>(n) - 1;
  std::vector<double> pair_cost(m * m);  // [a·m + b]: F of live pair a < b
  auto f = [&](int a, int b) -> double& {
    return pair_cost[static_cast<std::size_t>(a) * m +
                     static_cast<std::size_t>(b)];
  };
  for (int b = 1; b < n; ++b)
    for (int a = 0; a < b; ++a) f(a, b) = rule.cost(rule.merged(a, b));
  auto height = [&](int id) {
    return t.nodes[static_cast<std::size_t>(id)].height;
  };

  merge_order::HeightBudget budget(max_height, n);
  std::vector<int> live(static_cast<std::size_t>(n));
  std::iota(live.begin(), live.end(), 0);
  while (live.size() > 1) {
    int a = -1;
    int b = -1;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < live.size(); ++i)
      for (std::size_t j = i + 1; j < live.size(); ++j) {
        const double c = f(live[i], live[j]);
        if (!(c < best)) continue;
        if (budget.bounded() &&
            !budget.admits(height(live[i]), height(live[j])))
          continue;
        best = c;
        a = live[i];
        b = live[j];
      }
    MP_CHECK_MSG(a >= 0, "no feasible merge found (internal error)");
    budget.merge(height(a), height(b));
    std::erase(live, a);
    std::erase(live, b);
    const int p = merge_order::join(t, rule, a, b, rule.merged(a, b));
    rule.joined(p, a, b, live);
    for (int k : live) f(k, p) = rule.cost(rule.merged(k, p));
    live.push_back(p);
  }
  t.root = live.front();
  MP_CHECK(!budget.bounded() || t.height() <= max_height);
  return t;
}

/// Branch and bound over all merge orders: a tree minimizing the summed F
/// of its internal nodes (height ≤ `max_height` unless negative). More than
/// 9 leaves throws ResourceExhausted("exhaustive-tree"); more than
/// `step_cap` candidate pairs throws ResourceExhausted("exact-overrun").
/// `expanded`, when given, is increased by the number of merges explored.
template <class Rule>
DecompTree merge_exhaustive(Rule rule, int max_height = -1,
                            std::size_t step_cap = SIZE_MAX,
                            std::size_t* expanded = nullptr) {
  const int n = static_cast<int>(rule.node.size());
  if (n > 9)
    throw ResourceExhausted(
        "exhaustive-tree", "exhaustive tree search limited to 9 leaves (got " +
                               std::to_string(n) + ")");
  DecompTree t = merge_order::leaf_tree(rule);
  if (n == 1) return t;

  merge_order::HeightBudget budget(max_height, n);
  std::vector<std::vector<int>> live(static_cast<std::size_t>(n));  // per depth
  live[0].resize(static_cast<std::size_t>(n));
  std::iota(live[0].begin(), live[0].end(), 0);
  DecompTree best;
  double best_cost = std::numeric_limits<double>::infinity();
  std::size_t steps = 0;
  auto search = [&](auto& self, std::size_t depth, double acc) -> void {
    const std::vector<int>& cur = live[depth];
    if (cur.size() == 1) {
      if (acc < best_cost) {
        best_cost = acc;
        best = t;
      }
      return;
    }
    std::vector<int>& next = live[depth + 1];
    for (std::size_t i = 0; i < cur.size(); ++i)
      for (std::size_t j = i + 1; j < cur.size(); ++j) {
        if (++steps > step_cap)
          throw ResourceExhausted("exact-overrun",
                                  "exact merge-order search exceeded " +
                                      std::to_string(step_cap) + " steps");
        const int a = cur[i];
        const int b = cur[j];
        typename Rule::State s = rule.merged(a, b);
        const double cost = acc + rule.cost(s);
        if (cost >= best_cost) continue;
        const int ha = t.nodes[static_cast<std::size_t>(a)].height;
        const int hb = t.nodes[static_cast<std::size_t>(b)].height;
        if (budget.bounded() && !budget.admits(ha, hb)) continue;
        next.clear();
        for (std::size_t k = 0; k < cur.size(); ++k)
          if (k != i && k != j) next.push_back(cur[k]);
        const int p = merge_order::join(t, rule, a, b, std::move(s));
        rule.joined(p, a, b, next);
        next.push_back(p);
        budget.merge(ha, hb);
        if (expanded != nullptr) ++*expanded;
        self(self, depth + 1, cost);
        budget.unmerge(ha, hb);
        t.nodes.pop_back();
        rule.node.pop_back();
      }
  };
  search(search, 0, 0.0);
  MP_CHECK(!best.nodes.empty());
  best.root = static_cast<int>(best.nodes.size()) - 1;
  return best;
}

}  // namespace minpower
