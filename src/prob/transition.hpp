#pragma once
// Exact transition probabilities under a lag-one (Markov) input model.
//
// The paper's static-CMOS switching formulas (Eqs. 3, 10–13) are written in
// terms of signal transition probabilities w_{0->1}, w_{1->0}. Section 1.4
// then *assumes* the present input value is independent of the previous one
// (Eq. 3), which collapses the activity to 2·p·(1−p). This module implements
// the general case: each primary input is a stationary two-state Markov
// signal described by its 1-probability and its joint transition
// probability, and every node's exact transition probabilities are computed
// by a BDD over paired variables (x_k at level 2k, x'_k at level 2k+1) with
// a traversal that applies the conditional P(x'|x) whenever both ends of a
// pair lie on the path and the correct marginal when one is skipped.

#include <algorithm>
#include <vector>

#include "bdd/bdd.hpp"
#include "netlist/network.hpp"

namespace minpower {

/// Stationary lag-one model of one PI.
/// State probabilities: P(x=1) = p1; joint transition P(x_t=0 ∧ x_{t+1}=1)
/// = p01. Stationarity forces P(1∧next 0) = p01 as well. Feasibility:
/// 0 ≤ p01 ≤ min(p1, 1−p1).
struct PiTemporalModel {
  double p1 = 0.5;
  double p01 = 0.25;

  /// Temporal independence (the paper's Eq. 3 default): p01 = (1−p1)·p1.
  static PiTemporalModel independent(double p1);

  /// Given a stationary probability and a per-cycle switching activity
  /// a = P(0→1) + P(1→0) = 2·p01.
  static PiTemporalModel with_activity(double p1, double activity);

  double p10() const { return p01; }  // stationarity
  double p00() const { return 1.0 - p1 - p01; }
  double p11() const { return p1 - p01; }
  /// Conditional P(x' = 1 | x = b).
  double cond_next1(bool b) const {
    return b ? (p1 > 0.0 ? p11() / p1 : 0.0)
             : (p1 < 1.0 ? p01 / (1.0 - p1) : 0.0);
  }
  double activity() const { return 2.0 * p01; }
  bool valid() const;
};

/// Exact transition behaviour of one node.
struct NodeTransition {
  double p1 = 0.0;   // P(f = 1)
  double p01 = 0.0;  // P(f_t = 0 ∧ f_{t+1} = 1)
  double p10 = 0.0;
  double activity() const { return p01 + p10; }
};

/// Probability of `f` = 1 where variable 2k is x_k and 2k+1 is x'_k,
/// distributed per `model[k]`. Exact; O(|BDD|) with pair-aware memoization
/// (the memo is sized to the manager).
double pair_probability(const BddManager& mgr, BddRef f,
                        const std::vector<PiTemporalModel>& model);

/// Exact per-node transition probabilities for every live node (indexed by
/// NodeId). Builds each node's function over current and next variables and
/// evaluates !f∧f' / f∧!f' under the pair distribution.
std::vector<NodeTransition> transition_probabilities(
    const Network& net, const std::vector<PiTemporalModel>& model);

}  // namespace minpower
