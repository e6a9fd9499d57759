#include "decomp/node_decompose.hpp"

#include <algorithm>

namespace minpower {

namespace {

/// Balanced level assignment for n leaves: 2n−2^h leaves at depth h,
/// 2^h−n at depth h−1 (Kraft equality).
DecompTree balanced_tree(int n) {
  MP_CHECK(n >= 1);
  if (n == 1) return DecompTree::single_leaf(0.0);
  const int h = balanced_height(n);
  const int deep = 2 * n - (1 << h);
  std::vector<int> levels(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) levels[static_cast<std::size_t>(i)] = i < deep ? h : h - 1;
  return tree_from_levels(levels);
}

/// Adds the switching activity of `t`'s internal nodes, in node order, to
/// `total`, reading each node's activity off the probability it carries.
void add_node_activity(const DecompTree& t, GateType gate, CircuitStyle style,
                       double& total) {
  const DecompModel model(gate, style);
  for (const DecompTree::TNode& node : t.nodes)
    if (!node.is_leaf()) total += model.activity(node.prob);
}

/// The planner of decompose_node: leaves carry independent 1-probabilities
/// and trees come from the algorithm for the style, under optional
/// per-stage height bounds.
struct ProbabilityPlanner {
  using Leaf = double;
  const std::vector<double>& fanin_prob1;
  CircuitStyle style;
  DecompAlgorithm algorithm;
  int and_bound = -1;
  int or_bound = -1;

  double literal(int var, bool positive) const {
    const double p = fanin_prob1[static_cast<std::size_t>(var)];
    return positive ? p : 1.0 - p;
  }
  DecompTree tree(const std::vector<double>& leaves, GateType gate) const {
    const DecompModel model(gate, style);
    const int bound = gate == GateType::kAnd ? and_bound : or_bound;
    if (algorithm == DecompAlgorithm::kBalanced) {
      DecompTree t = balanced_tree(static_cast<int>(leaves.size()));
      annotate(t, model, leaves);
      return t;
    }
    if (bound >= 0) return bounded_height_minpower_tree(leaves, bound, model);
    return model.huffman_optimal() ? huffman_tree(leaves, model)
                                   : modified_huffman_tree(leaves, model);
  }
  double fold(const DecompTree& t, const std::vector<double>&, GateType gate,
              const Cube&, double& activity) const {
    add_node_activity(t, gate, style, activity);
    return t.nodes[static_cast<std::size_t>(t.root)].prob;
  }
};

/// The planner of decompose_node_correlated: leaves are literal cubes (AND
/// stage) or cubes (OR stage) whose exact joints come from the pattern set.
struct CorrelatedPlanner {
  using Leaf = Cube;
  const std::vector<NodeId>& fanins;
  const PatternModel& patterns;
  CircuitStyle style;

  Cube literal(int var, bool positive) const {
    return Cube::literal(var, positive);
  }
  DecompTree tree(const std::vector<Cube>& leaves, GateType gate) const {
    std::vector<double> p1;
    for (const Cube& c : leaves)
      p1.push_back(patterns.cube_probability(fanins, c));
    JointProbabilities joints(p1);
    for (std::size_t a = 0; a < leaves.size(); ++a)
      for (std::size_t b = a + 1; b < leaves.size(); ++b)
        joints.set(static_cast<int>(a), static_cast<int>(b),
                   patterns.cube_joint(fanins, leaves[a], leaves[b]));
    return modified_huffman_correlated(joints, DecompModel(gate, style));
  }
  Cube fold(const DecompTree& t, const std::vector<Cube>&, GateType gate,
            const Cube& cube, double& activity) const {
    add_node_activity(t, gate, style, activity);
    return cube;
  }
};

/// The planner of decompose_node_transitions: leaves carry lag-one
/// transition states (static CMOS).
struct TransitionPlanner {
  using Leaf = SignalTransition;
  const std::vector<SignalTransition>& fanin_states;

  SignalTransition literal(int var, bool positive) const {
    const SignalTransition& s = fanin_states[static_cast<std::size_t>(var)];
    return positive ? s : s.complement();
  }
  DecompTree tree(const std::vector<SignalTransition>& leaves,
                  GateType gate) const {
    return modified_huffman_transitions(leaves, gate);
  }
  SignalTransition fold(const DecompTree& t,
                        const std::vector<SignalTransition>& leaves,
                        GateType gate, const Cube&, double& activity) const {
    return fold_tree(
        t, leaves,
        [gate](const SignalTransition& a, const SignalTransition& b) {
          return merge_transitions(a, b, gate);
        },
        [&](int id, const SignalTransition& s) {
          if (!t.nodes[static_cast<std::size_t>(id)].is_leaf())
            activity += s.activity();
        });
  }
};

/// One walk over a plan's NAND-of-NANDs realization: a sum of cubes is
/// NAND(NAND(cube), …), so cubes reach the OR level complemented for free
/// and inverters appear only for negative literals and AND-tree internal
/// edges. `Sink` turns the walk's three steps — literal, inverter, NAND2 —
/// into values: network nodes when emitting, levels when measuring height.
template <class Sink>
class PlanWalk {
 public:
  using Value = typename Sink::Value;

  PlanWalk(const NodeDecomp& plan, Sink& sink) : plan_(plan), sink_(sink) {}

  /// The plan's root (a single cube sits under a one-leaf OR tree).
  Value root() { return or_node(plan_.or_tree.root, false); }

 private:
  /// An AND-tree node of cube `cube`; `complemented` selects NAND vs AND.
  Value and_node(int cube, int tnode, bool complemented) {
    const DecompTree::TNode& n =
        plan_.cube_trees[static_cast<std::size_t>(cube)]
            .nodes[static_cast<std::size_t>(tnode)];
    if (n.is_leaf()) {
      const auto [var, phase] =
          plan_.cube_literals[static_cast<std::size_t>(cube)]
                             [static_cast<std::size_t>(n.leaf)];
      return sink_.literal(var, phase, !complemented);
    }
    if (!complemented) return sink_.inv(and_node(cube, tnode, true));
    const Value l = and_node(cube, n.left, false);
    const Value r = and_node(cube, n.right, false);
    return sink_.nand(l, r);
  }

  /// An OR-tree node: OR(l, r) = NAND(¬l, ¬r), and a cube's complement is
  /// its NAND.
  Value or_node(int tnode, bool complemented) {
    const DecompTree::TNode& n =
        plan_.or_tree.nodes[static_cast<std::size_t>(tnode)];
    if (n.is_leaf())
      return and_node(
          n.leaf, plan_.cube_trees[static_cast<std::size_t>(n.leaf)].root,
          complemented);
    if (complemented) return sink_.inv(or_node(tnode, false));
    const Value l = or_node(n.left, true);
    const Value r = or_node(n.right, true);
    return sink_.nand(l, r);
  }

  const NodeDecomp& plan_;
  Sink& sink_;
};

/// Levels from any fanin to the root.
struct HeightSink {
  using Value = int;
  int literal(int, bool positive_phase, bool want_value) const {
    return positive_phase == want_value ? 0 : 1;
  }
  int inv(int in) const { return 1 + in; }
  int nand(int l, int r) const { return 1 + std::max(l, r); }
};

/// NAND2/INV nodes in `net`, sharing one inverter per fanin.
struct EmitSink {
  using Value = NodeId;
  Network& net;
  const std::vector<NodeId>& fanins;
  std::vector<NodeId> inv_cache;

  NodeId literal(int var, bool positive_phase, bool want_value) {
    const NodeId base = fanins[static_cast<std::size_t>(var)];
    if (positive_phase == want_value) return base;
    NodeId& cached = inv_cache[static_cast<std::size_t>(var)];
    if (cached == kNoNode) cached = net.add_inv(base);
    return cached;
  }
  NodeId inv(NodeId in) { return net.add_inv(in); }
  NodeId nand(NodeId l, NodeId r) { return net.add_nand2(l, r); }
};

/// The skeleton every per-node planner shares: literal leaves → one AND
/// tree per cube → an OR tree over the cubes (or the single cube's root) →
/// realized height and tree activity. `P` gives a literal's leaf value
/// (`literal`), builds a tree over leaf values (`tree`), and `fold`s a built
/// tree: it adds the tree's internal-node activities to the running total
/// and returns the value its root carries into the OR stage.
template <class P>
NodeDecomp plan_node(const Cover& cover, const P& planner) {
  NodeDecomp plan;
  std::vector<typename P::Leaf> cube_leaves;
  for (const Cube& c : cover.cubes()) {
    std::vector<std::pair<int, bool>> lits;
    std::vector<typename P::Leaf> leaves;
    for (int v = 0; v < kMaxCubeVars; ++v) {
      if (!c.has_pos(v) && !c.has_neg(v)) continue;
      lits.emplace_back(v, c.has_pos(v));
      leaves.push_back(planner.literal(v, c.has_pos(v)));
    }
    MP_CHECK_MSG(!lits.empty(), "constant cube in non-constant cover");
    DecompTree t = planner.tree(leaves, GateType::kAnd);
    cube_leaves.push_back(
        planner.fold(t, leaves, GateType::kAnd, c, plan.tree_activity));
    plan.cube_literals.push_back(std::move(lits));
    plan.cube_trees.push_back(std::move(t));
  }
  if (cover.num_cubes() > 1) {
    plan.or_tree = planner.tree(cube_leaves, GateType::kOr);
    planner.fold(plan.or_tree, cube_leaves, GateType::kOr, Cube{},
                 plan.tree_activity);
  } else {
    const DecompTree& t = plan.cube_trees[0];
    plan.or_tree =
        DecompTree::single_leaf(t.nodes[static_cast<std::size_t>(t.root)].prob);
  }
  HeightSink sink;
  plan.realized_height = PlanWalk<HeightSink>(plan, sink).root();
  return plan;
}

}  // namespace

int balanced_nand_height(const Cover& cover) {
  // Probabilities do not affect the balanced shape.
  const std::vector<double> probs(kMaxCubeVars, 0.5);
  return plan_node(cover, ProbabilityPlanner{probs, CircuitStyle::kStatic,
                                             DecompAlgorithm::kBalanced})
      .realized_height;
}

NodeDecomp decompose_node(const Cover& cover,
                          const std::vector<double>& fanin_prob1,
                          CircuitStyle style, DecompAlgorithm algorithm,
                          int nand_height_bound) {
  MP_CHECK_MSG(!cover.is_zero() && !cover.is_one(),
               "cannot decompose a constant cover");
  ProbabilityPlanner planner{fanin_prob1, style, algorithm};
  NodeDecomp plan = plan_node(cover, planner);
  // The balanced plan is already the shape the squeeze below ends at.
  if (nand_height_bound < 0 || plan.realized_height <= nand_height_bound ||
      algorithm == DecompAlgorithm::kBalanced)
    return plan;

  // Tighten tree height bounds until the realized NAND height fits. The
  // AND stage and the OR stage are squeezed alternately, preferring to keep
  // the stage with more slack loose. Terminates at the balanced shape.
  int max_cube = 0;
  for (const auto& lits : plan.cube_literals)
    max_cube = std::max(max_cube, static_cast<int>(lits.size()));
  const int cubes = static_cast<int>(plan.cube_trees.size());
  planner.and_bound = std::max(1, max_cube - 1);
  planner.or_bound = cubes >= 2 ? cubes - 1 : -1;
  const int and_floor = balanced_height(std::max(1, max_cube));
  const int or_floor = balanced_height(std::max(1, cubes));

  NodeDecomp best = plan;
  for (;;) {
    NodeDecomp candidate = plan_node(cover, planner);
    if (candidate.realized_height < best.realized_height) best = candidate;
    if (best.realized_height <= nand_height_bound) return best;
    // Squeeze the looser stage.
    const bool can_and = planner.and_bound > and_floor;
    const bool can_or = planner.or_bound > or_floor;
    if (!can_and && !can_or) break;
    if (can_and && (!can_or || planner.and_bound - and_floor >=
                                   planner.or_bound - or_floor))
      --planner.and_bound;
    else
      --planner.or_bound;
  }
  // The squeezed MINPOWER shapes missed the bound (negative literals can
  // push a min-height greedy shape one level past the canonical balanced
  // realization). Fall back to the conventional balanced plan when it fits.
  NodeDecomp balanced = plan_node(
      cover,
      ProbabilityPlanner{fanin_prob1, style, DecompAlgorithm::kBalanced});
  if (balanced.realized_height < best.realized_height) best = std::move(balanced);
  // If even the balanced plan misses the bound, the caller asked for less
  // than the achievable floor; the realized height reported is the truth.
  return best;
}

NodeDecomp decompose_node_correlated(const Cover& cover,
                                     const std::vector<NodeId>& node_fanins,
                                     const PatternModel& model,
                                     CircuitStyle style) {
  MP_CHECK_MSG(!cover.is_zero() && !cover.is_one(),
               "cannot decompose a constant cover");
  return plan_node(cover, CorrelatedPlanner{node_fanins, model, style});
}

NodeDecomp decompose_node_transitions(
    const Cover& cover, const std::vector<SignalTransition>& fanin_states) {
  MP_CHECK_MSG(!cover.is_zero() && !cover.is_one(),
               "cannot decompose a constant cover");
  return plan_node(cover, TransitionPlanner{fanin_states});
}

NodeId emit_node_decomp(Network& net, const std::vector<NodeId>& fanins,
                        const NodeDecomp& plan) {
  EmitSink sink{net, fanins, std::vector<NodeId>(fanins.size(), kNoNode)};
  return PlanWalk<EmitSink>(plan, sink).root();
}

double plan_tree_activity(const NodeDecomp& plan,
                          const std::vector<double>& fanin_prob1,
                          CircuitStyle style) {
  const ProbabilityPlanner planner{fanin_prob1, style,
                                   DecompAlgorithm::kBalanced};
  double total = 0.0;
  auto fold = [&](const DecompTree& t, const std::vector<double>& leaves,
                  GateType gate) {
    const DecompModel model(gate, style);
    return fold_tree(
        t, leaves, [&](double a, double b) { return model.merge_prob(a, b); },
        [&](int id, double p) {
          if (!t.nodes[static_cast<std::size_t>(id)].is_leaf())
            total += model.activity(p);
        });
  };
  std::vector<double> cube_probs;
  for (std::size_t c = 0; c < plan.cube_trees.size(); ++c) {
    std::vector<double> leaves;
    for (const auto& [var, phase] : plan.cube_literals[c])
      leaves.push_back(planner.literal(var, phase));
    cube_probs.push_back(fold(plan.cube_trees[c], leaves, GateType::kAnd));
  }
  if (plan.cube_trees.size() > 1)
    fold(plan.or_tree, cube_probs, GateType::kOr);
  return total;
}

}  // namespace minpower
