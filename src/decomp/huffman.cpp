#include "decomp/huffman.hpp"

#include <algorithm>
#include <queue>

#include "decomp/merge_order.hpp"
#include "trace/metrics.hpp"

namespace minpower {

namespace {

/// huffman.merges counts the merges of the unbounded probability builders
/// and the correlated one (for the exhaustive search, every merge it
/// explores plus the n−1 of its result: deterministic, and a direct measure
/// of search effort).
void count_merges(std::size_t k) {
  static metrics::Counter& merges = metrics::counter("huffman.merges");
  merges.add(k);
}

/// Merge rule of the correlated model (Eqs. 7–9): a node carries its exact
/// 1-probability, and the rule keeps the joint probability of every pair of
/// nodes, exact for leaves and estimated for each new parent.
class CorrelatedMerge {
 public:
  using State = double;
  std::vector<double> node;

  CorrelatedMerge(const JointProbabilities& joints, const DecompModel& model)
      : model_(model),
        stride_(2 * static_cast<std::size_t>(joints.size()) - 1),
        joint_(stride_ * stride_, 0.0) {
    for (int i = 0; i < joints.size(); ++i) {
      node.push_back(joints.prob(i));
      for (int j = 0; j < joints.size(); ++j) joint(i, j) = joints.joint(i, j);
    }
  }

  /// Output 1-probability of a merge. AND (Eqs. 7/8): exactly the pairwise
  /// joint. OR: inclusion-exclusion, likewise exact given the joint.
  double merged(int a, int b) const {
    return model_.gate() == GateType::kAnd ? joint(a, b)
                                           : p(a) + p(b) - joint(a, b);
  }
  double cost(double q) const { return model_.activity(q); }
  static double prob(double q) { return q; }

  /// Eq. 9 heuristic joint of the new node with every survivor k (a
  /// pairwise triple-joint estimate for OR), clamped to the Fréchet bounds
  /// [max(0, pn + pk − 1), min(pn, pk)].
  void joined(int n, int i, int j, const std::vector<int>& survivors) {
    auto cond = [&](int x, int y) {  // P(x=1 | y=1)
      return p(y) <= 0.0 ? 0.0 : joint(x, y) / p(y);
    };
    for (int k : survivors) {
      const double w_ij = joint(i, j);
      const double w_ik = joint(i, k);
      const double w_jk = joint(j, k);
      // OR: P((i∨j)∧k) = P(i∧k) + P(j∧k) − P(i∧j∧k), the triple joint
      // estimated from the pairwise data.
      const double est =
          model_.gate() == GateType::kAnd
              ? ((cond(k, i) + cond(k, j)) * w_ij / 2.0 +
                 (cond(j, k) + cond(j, i)) * w_ik / 2.0 +
                 (cond(i, j) + cond(i, k)) * w_jk / 2.0) /
                    3.0
              : w_ik + w_jk - w_ij * (cond(k, i) + cond(k, j)) / 2.0;
      // Not std::clamp: rounding can push the lower bound an ulp above the
      // upper one (p = 1), and then the upper bound wins.
      joint(n, k) = std::min(std::max(est, std::max(0.0, p(n) + p(k) - 1.0)),
                             std::min(p(n), p(k)));
      joint(k, n) = joint(n, k);
    }
  }

 private:
  double p(int id) const { return node[static_cast<std::size_t>(id)]; }
  double& joint(int a, int b) {
    return joint_[static_cast<std::size_t>(a) * stride_ +
                  static_cast<std::size_t>(b)];
  }
  double joint(int a, int b) const {
    return joint_[static_cast<std::size_t>(a) * stride_ +
                  static_cast<std::size_t>(b)];
  }

  const DecompModel& model_;
  std::size_t stride_;
  std::vector<double> joint_;
};

}  // namespace

DecompTree huffman_tree(const std::vector<double>& leaf_probs,
                        const DecompModel& model) {
  ProbabilityMerge rule{model, leaf_probs};
  DecompTree t = merge_order::leaf_tree(rule);
  if (t.num_leaves == 1) return t;
  // Min-heap on the model's ordering key; ties broken on node index so the
  // construction is deterministic.
  using Entry = std::pair<double, int>;  // (key, node index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (int i = 0; i < t.num_leaves; ++i)
    heap.emplace(model.huffman_key(leaf_probs[static_cast<std::size_t>(i)]), i);
  while (heap.size() > 1) {
    const int a = heap.top().second;
    heap.pop();
    const int b = heap.top().second;
    heap.pop();
    const int p = merge_order::join(t, rule, a, b, rule.merged(a, b));
    heap.emplace(model.huffman_key(rule.node[static_cast<std::size_t>(p)]), p);
  }
  t.root = heap.top().second;
  count_merges(leaf_probs.size() - 1);
  return t;
}

DecompTree modified_huffman_tree(const std::vector<double>& leaf_probs,
                                 const DecompModel& model) {
  DecompTree t = merge_greedy(ProbabilityMerge{model, leaf_probs});
  count_merges(leaf_probs.size() - 1);
  return t;
}

DecompTree best_tree_exhaustive(const std::vector<double>& leaf_probs,
                                const DecompModel& model) {
  std::size_t explored = 0;
  DecompTree t = merge_exhaustive(ProbabilityMerge{model, leaf_probs}, -1,
                                  SIZE_MAX, &explored);
  count_merges(explored + leaf_probs.size() - 1);
  return t;
}

DecompTree modified_huffman_correlated(const JointProbabilities& joints,
                                       const DecompModel& model) {
  MP_CHECK(joints.size() >= 1);
  DecompTree t = merge_greedy(CorrelatedMerge(joints, model));
  count_merges(static_cast<std::size_t>(joints.size()) - 1);
  return t;
}

}  // namespace minpower
