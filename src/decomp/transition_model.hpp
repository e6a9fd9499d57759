#pragma once
// Static-CMOS decomposition with the *full* transition-probability merge of
// Eqs. (10)/(11), instead of the temporal-independence collapse 2p(1−p).
//
// Each tree signal carries its lag-one behaviour (w00, w01, w10, w11). For
// spatially independent inputs the output transition distribution of a
// 2-input AND is (Eq. 10/11 and their complements):
//   W_{0→1} = w_{a 0→1}·w_{b 0→1} + w_{a 1→1}·w_{b 0→1} + w_{a 0→1}·w_{b 1→1}
//   W_{1→0} = w_{a 1→1}·w_{b 1→0} + w_{a 1→0}·w_{b 1→1} + w_{a 1→0}·w_{b 1→0}
// with W_{1→1} = w_{a 1→1}·w_{b 1→1} and W_{0→0} the remainder; OR is the
// dual. The merge is not quasi-linear (Sec. 2.1.2), so the construction is
// the merge-order engine's min-F greedy (merge_order.hpp) under this merge
// rule; its branch and bound is the exhaustive oracle for tests and for the
// Table-1-style optimality measurements under temporal correlation.

#include <vector>

#include "decomp/tree.hpp"
#include "prob/transition.hpp"

namespace minpower {

/// Lag-one distribution of one signal: joint probabilities of
/// (value_t, value_{t+1}). Always sums to 1.
struct SignalTransition {
  double w00 = 0.25;
  double w01 = 0.25;
  double w10 = 0.25;
  double w11 = 0.25;

  static SignalTransition from(const PiTemporalModel& m) {
    return {m.p00(), m.p01, m.p10(), m.p11()};
  }
  static SignalTransition from(const NodeTransition& t) {
    return {1.0 - t.p01 - t.p10 - (t.p1 - t.p10), t.p01, t.p10,
            t.p1 - t.p10};
  }
  /// Temporal independence at probability p.
  static SignalTransition independent(double p) {
    return {(1 - p) * (1 - p), (1 - p) * p, p * (1 - p), p * p};
  }

  double p1() const { return w10 + w11; }
  double activity() const { return w01 + w10; }
  /// The complemented signal (swap roles of 0 and 1).
  SignalTransition complement() const { return {w11, w10, w01, w00}; }
};

/// Output transition distribution of AND/OR over two spatially independent
/// inputs (Eqs. 10/11 and duals).
SignalTransition merge_transitions(const SignalTransition& a,
                                   const SignalTransition& b, GateType gate);

/// Modified-Huffman (Algorithm 2.2) over transition states; cost of an
/// internal node = its exact activity w01 + w10.
DecompTree modified_huffman_transitions(
    const std::vector<SignalTransition>& leaves, GateType gate);

/// Exhaustive optimum over all trees, for tests/Table-1 rates. Throws
/// ResourceExhausted("exhaustive-tree") for n > 9 leaves.
DecompTree best_tree_exhaustive_transitions(
    const std::vector<SignalTransition>& leaves, GateType gate);

/// Total internal activity of `tree` under the transition model.
double tree_transition_activity(const DecompTree& tree,
                                const std::vector<SignalTransition>& leaves,
                                GateType gate);

}  // namespace minpower
