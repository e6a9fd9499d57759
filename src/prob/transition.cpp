#include "prob/transition.hpp"

#include <vector>

#include "prob/probability.hpp"

namespace minpower {

PiTemporalModel PiTemporalModel::independent(double p1) {
  PiTemporalModel m;
  m.p1 = p1;
  m.p01 = (1.0 - p1) * p1;
  return m;
}

PiTemporalModel PiTemporalModel::with_activity(double p1, double activity) {
  PiTemporalModel m;
  m.p1 = p1;
  m.p01 = activity / 2.0;
  MP_CHECK_MSG(m.valid(), "activity infeasible for the given probability");
  return m;
}

bool PiTemporalModel::valid() const {
  const double eps = 1e-12;
  return p1 >= -eps && p1 <= 1.0 + eps && p01 >= -eps &&
         p01 <= std::min(p1, 1.0 - p1) + eps;
}

namespace {

/// Memoized pair-distribution evaluator. An entry depends only on (node,
/// effective condition), so one instance serves any number of functions of
/// one manager and shares their common subgraphs. The memo is dense — three
/// slots per node (unconditioned, x_k = 0, x_k = 1), kUnset until computed
/// — and grows with the manager.
class PairProb {
 public:
  PairProb(const BddManager& mgr, const std::vector<PiTemporalModel>& model)
      : mgr_(mgr), model_(model) {}

  /// `cond` = value taken for x_k when evaluating a subtree whose top
  /// variable might be x'_k (2k+1); −1 when no pair is pending.
  double eval(BddRef f, int pending_pair, int cond) {
    if (f == BddManager::kFalse) return 0.0;
    if (f == BddManager::kTrue) return 1.0;
    const int var = mgr_.top_var(f);
    const int k = var / 2;
    const bool is_next = (var & 1) != 0;

    // A pending condition only matters if this subtree starts exactly at
    // the paired next-variable; anything deeper marginalizes it out.
    const bool conditioned =
        cond >= 0 && is_next && k == pending_pair;

    const std::size_t slot =
        3 * static_cast<std::size_t>(f) +
        static_cast<std::size_t>(conditioned ? cond + 1 : 0);
    if (slot >= memo_.size()) memo_.resize(3 * mgr_.num_nodes(), kUnset);
    if (memo_[slot] != kUnset) return memo_[slot];

    const PiTemporalModel& m = model_[static_cast<std::size_t>(k)];
    double result;
    if (!is_next) {
      // Current variable x_k: branch on its stationary probability and pass
      // the taken value down as the pending condition for x'_k.
      const double p_hi = m.p1;
      result = p_hi * eval(mgr_.high(f), k, 1) +
               (1.0 - p_hi) * eval(mgr_.low(f), k, 0);
    } else {
      // Next variable x'_k: conditional when x_k is on the path, marginal
      // (stationary) otherwise.
      const double p_hi =
          conditioned ? m.cond_next1(cond != 0) : m.p1;
      result = p_hi * eval(mgr_.high(f), -1, -1) +
               (1.0 - p_hi) * eval(mgr_.low(f), -1, -1);
    }
    memo_[slot] = result;
    return result;
  }

 private:
  /// Not a probability, so never a computed value.
  static constexpr double kUnset = -1.0;
  const BddManager& mgr_;
  const std::vector<PiTemporalModel>& model_;
  std::vector<double> memo_;
};

}  // namespace

double pair_probability(const BddManager& mgr, BddRef f,
                        const std::vector<PiTemporalModel>& model) {
  PairProb pp(mgr, model);
  return pp.eval(f, -1, -1);
}

std::vector<NodeTransition> transition_probabilities(
    const Network& net, const std::vector<PiTemporalModel>& model) {
  MP_CHECK(model.size() == net.pis().size());
  for (const PiTemporalModel& m : model) MP_CHECK(m.valid());

  // The PI at order position j gets current variable 2j and next variable
  // 2j+1, so pairs follow the order NetworkBdds uses (pi_variable_order) and
  // reconvergent logic stays narrow.
  const std::vector<int> order = pi_variable_order(net);
  std::vector<int> cur_order(order.size());
  std::vector<int> nxt_order(order.size());
  // model indexed by PAIR position (variable order), not PI position.
  std::vector<PiTemporalModel> by_pair(model.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    cur_order[i] = 2 * order[i];
    nxt_order[i] = 2 * order[i] + 1;
    by_pair[static_cast<std::size_t>(order[i])] = model[i];
  }
  BddManager mgr;
  const NetworkBdds cur(mgr, net, std::move(cur_order));
  const NetworkBdds nxt(mgr, net, std::move(nxt_order));
  PairProb pp(mgr, by_pair);

  std::vector<NodeTransition> out(net.capacity());
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
    if (net.node(id).is_dead()) continue;
    const BddRef f = cur.of(id);
    const BddRef fp = nxt.of(id);
    NodeTransition t;
    t.p1 = pp.eval(f, -1, -1);
    t.p01 = pp.eval(mgr.and_(mgr.not_(f), fp), -1, -1);
    t.p10 = pp.eval(mgr.and_(f, mgr.not_(fp)), -1, -1);
    out[static_cast<std::size_t>(id)] = t;
  }
  return out;
}

}  // namespace minpower
