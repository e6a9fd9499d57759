#pragma once
// Decomposition trees: the binary-tree objects produced by the Huffman-style
// algorithms of Section 2, prior to NAND/INV realization.

#include <vector>

#include "decomp/model.hpp"

namespace minpower {

/// A binary tree over `num_leaves` leaves. Leaves are identified by their
/// index in the weight list handed to the construction algorithm.
struct DecompTree {
  struct TNode {
    int leaf = -1;   // >= 0 for leaves
    int left = -1;   // child node indices for internal nodes
    int right = -1;
    double prob = 0.0;  // exact 1-probability under the model used to build
    int height = 0;     // leaf = 0
    bool is_leaf() const { return leaf >= 0; }
  };

  std::vector<TNode> nodes;
  int root = -1;
  int num_leaves = 0;

  int height() const { return root < 0 ? 0 : nodes[static_cast<std::size_t>(root)].height; }

  /// Depth of each leaf (root at depth 0).
  std::vector<int> leaf_depths() const;

  /// Sum of internal-node switching activities: the G of Section 2.1,
  /// recomputed from scratch for the given model and leaf probabilities.
  double internal_cost(const DecompModel& model,
                       const std::vector<double>& leaf_probs) const;

  /// A single-leaf tree (degenerate; no internal nodes).
  static DecompTree single_leaf(double prob);
};

/// The one bottom-up evaluation of a tree: leaf i takes `leaves[i]`, an
/// internal node `merge(left value, right value)`. Nodes are visited in index
/// order — every tree here lists children before their parent — and
/// `visit(id, value)` sees each node's value. Returns the root's value.
template <class V, class Merge, class Visit>
V fold_tree(const DecompTree& tree, const std::vector<V>& leaves, Merge merge,
            Visit visit) {
  MP_CHECK(static_cast<int>(leaves.size()) == tree.num_leaves);
  std::vector<V> value;
  value.reserve(tree.nodes.size());
  for (const DecompTree::TNode& n : tree.nodes) {
    const int id = static_cast<int>(value.size());
    if (n.is_leaf()) {
      value.push_back(leaves[static_cast<std::size_t>(n.leaf)]);
    } else {
      MP_CHECK(n.left < id && n.right < id);
      value.push_back(merge(value[static_cast<std::size_t>(n.left)],
                            value[static_cast<std::size_t>(n.right)]));
    }
    visit(id, value.back());
  }
  return value[static_cast<std::size_t>(tree.root)];
}

/// Rebuild node probabilities/heights bottom-up (after structural surgery).
void annotate(DecompTree& tree, const DecompModel& model,
              const std::vector<double>& leaf_probs);

/// Canonical tree for a feasible level assignment (Kraft sum exactly 1):
/// leaf i is placed at depth levels[i]. Aborts if the levels are infeasible.
DecompTree tree_from_levels(const std::vector<int>& levels);

}  // namespace minpower
