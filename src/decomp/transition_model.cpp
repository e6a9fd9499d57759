#include "decomp/transition_model.hpp"

#include "decomp/merge_order.hpp"

namespace minpower {

SignalTransition merge_transitions(const SignalTransition& a,
                                   const SignalTransition& b, GateType gate) {
  if (gate == GateType::kOr) {
    // a + b = !( !a · !b )
    return merge_transitions(a.complement(), b.complement(), GateType::kAnd)
        .complement();
  }
  SignalTransition o;
  // Output is 1 at a time step iff both inputs are 1 there; the pair
  // distribution of the output follows from the independent input pairs.
  o.w11 = a.w11 * b.w11;
  o.w01 = a.w01 * b.w01 + a.w11 * b.w01 + a.w01 * b.w11;  // Eq. 10
  o.w10 = a.w11 * b.w10 + a.w10 * b.w11 + a.w10 * b.w10;  // Eq. 11
  o.w00 = 1.0 - o.w11 - o.w01 - o.w10;
  return o;
}

namespace {

/// Merge rule of the lag-one model (Eqs. 10/11): a node carries its
/// transition state. The merge is not bitwise commutative, so the engine's
/// merge(lower, higher) order is part of the result.
struct TransitionMerge {
  using State = SignalTransition;
  GateType gate;
  std::vector<SignalTransition> node;

  SignalTransition merged(int a, int b) const {
    return merge_transitions(node[static_cast<std::size_t>(a)],
                             node[static_cast<std::size_t>(b)], gate);
  }
  static double cost(const SignalTransition& s) { return s.activity(); }
  static double prob(const SignalTransition& s) { return s.p1(); }
  void joined(int, int, int, const std::vector<int>&) {}
};

}  // namespace

DecompTree modified_huffman_transitions(
    const std::vector<SignalTransition>& leaves, GateType gate) {
  return merge_greedy(TransitionMerge{gate, leaves});
}

DecompTree best_tree_exhaustive_transitions(
    const std::vector<SignalTransition>& leaves, GateType gate) {
  return merge_exhaustive(TransitionMerge{gate, leaves});
}

double tree_transition_activity(const DecompTree& tree,
                                const std::vector<SignalTransition>& leaves,
                                GateType gate) {
  double total = 0.0;
  fold_tree(
      tree, leaves,
      [gate](const SignalTransition& a, const SignalTransition& b) {
        return merge_transitions(a, b, gate);
      },
      [&](int id, const SignalTransition& s) {
        if (!tree.nodes[static_cast<std::size_t>(id)].is_leaf())
          total += s.activity();
      });
  return total;
}

}  // namespace minpower
