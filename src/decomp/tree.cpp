#include "decomp/tree.hpp"

#include <algorithm>

namespace minpower {

std::vector<int> DecompTree::leaf_depths() const {
  // Parents follow their children, so a reverse sweep sees each parent's
  // depth before its children's.
  std::vector<int> depth(nodes.size(), 0);
  std::vector<int> leaf_depth(static_cast<std::size_t>(num_leaves), 0);
  for (std::size_t id = nodes.size(); id-- > 0;) {
    const TNode& n = nodes[id];
    if (n.is_leaf()) {
      leaf_depth[static_cast<std::size_t>(n.leaf)] = depth[id];
    } else {
      depth[static_cast<std::size_t>(n.left)] = depth[id] + 1;
      depth[static_cast<std::size_t>(n.right)] = depth[id] + 1;
    }
  }
  return leaf_depth;
}

double DecompTree::internal_cost(const DecompModel& model,
                                 const std::vector<double>& leaf_probs) const {
  double cost = 0.0;
  fold_tree(
      *this, leaf_probs,
      [&](double a, double b) { return model.merge_prob(a, b); },
      [&](int id, double p) {
        if (!nodes[static_cast<std::size_t>(id)].is_leaf())
          cost += model.activity(p);
      });
  return cost;
}

DecompTree DecompTree::single_leaf(double prob) {
  DecompTree t;
  t.num_leaves = 1;
  TNode n;
  n.leaf = 0;
  n.prob = prob;
  t.nodes.push_back(n);
  t.root = 0;
  return t;
}

void annotate(DecompTree& tree, const DecompModel& model,
              const std::vector<double>& leaf_probs) {
  fold_tree(
      tree, leaf_probs,
      [&](double a, double b) { return model.merge_prob(a, b); },
      [&](int id, double p) {
        auto height = [&](int child) {
          return tree.nodes[static_cast<std::size_t>(child)].height;
        };
        DecompTree::TNode& n = tree.nodes[static_cast<std::size_t>(id)];
        n.prob = p;
        n.height =
            n.is_leaf() ? 0 : 1 + std::max(height(n.left), height(n.right));
      });
}

DecompTree tree_from_levels(const std::vector<int>& levels) {
  const int n = static_cast<int>(levels.size());
  MP_CHECK(n >= 1);
  DecompTree t;
  t.num_leaves = n;
  if (n == 1) {
    MP_CHECK(levels[0] == 0);
    return DecompTree::single_leaf(0.0);
  }
  // Kraft equality check.
  const int max_level = *std::max_element(levels.begin(), levels.end());
  long long kraft = 0;  // in units of 2^-max_level
  for (int l : levels) {
    MP_CHECK(l >= 1 && l <= max_level);
    kraft += 1LL << (max_level - l);
  }
  MP_CHECK_MSG(kraft == (1LL << max_level),
               "level assignment does not satisfy Kraft equality");

  // Bucket leaves by level, then combine pairwise from the deepest level up.
  std::vector<std::vector<int>> at_level(static_cast<std::size_t>(max_level) + 1);
  for (int i = 0; i < n; ++i) {
    DecompTree::TNode leaf;
    leaf.leaf = i;
    t.nodes.push_back(leaf);
    at_level[static_cast<std::size_t>(levels[static_cast<std::size_t>(i)])]
        .push_back(static_cast<int>(t.nodes.size()) - 1);
  }
  for (int l = max_level; l >= 1; --l) {
    auto& bucket = at_level[static_cast<std::size_t>(l)];
    MP_CHECK(bucket.size() % 2 == 0);
    for (std::size_t i = 0; i + 1 < bucket.size(); i += 2) {
      DecompTree::TNode parent;
      parent.left = bucket[i];
      parent.right = bucket[i + 1];
      parent.height =
          1 + std::max(t.nodes[static_cast<std::size_t>(bucket[i])].height,
                       t.nodes[static_cast<std::size_t>(bucket[i + 1])].height);
      t.nodes.push_back(parent);
      at_level[static_cast<std::size_t>(l) - 1].push_back(
          static_cast<int>(t.nodes.size()) - 1);
    }
    bucket.clear();
  }
  MP_CHECK(at_level[0].size() == 1);
  t.root = at_level[0][0];
  return t;
}

}  // namespace minpower
