// Ablation F (Sec. 1.4 / Sec. 2.1.2): the temporal-independence assumption.
// The paper's algorithms use Eq. 3 (present value independent of previous
// value ⇒ activity = 2p(1−p)); its Eqs. 10/11 are the general
// transition-probability merge. Real inputs are often slow (a bus that
// holds its value, an enable that rarely toggles): p = 0.5 but activity ≪
// 0.5. This harness decomposes AND nodes whose inputs have random
// probabilities AND random (feasible) activities, with
//   (a) the collapsed static model (marginals only), and
//   (b) the full transition-state Modified Huffman (Eqs. 10/11),
// scoring both trees under the true lag-one model. The table prints each
// tree's mean true activity per input count and the mean per-trial ratio.

#include <cstdio>

#include "decomp/huffman.hpp"
#include "decomp/transition_model.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace minpower;

int main() {
  std::printf("Ablation — temporal-independence collapse vs full Eq. 10/11 "
              "merge (static AND decomposition)\n");
  std::printf("%-8s %-14s %-14s %-10s\n", "inputs", "collapsed", "transition",
              "ratio");
  std::printf("--------------------------------------------------\n");
  Rng rng(0x7e4b0ULL);
  for (int n = 4; n <= 8; ++n) {
    RunningStats ratio;
    RunningStats collapsed_act;
    RunningStats transition_act;
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<SignalTransition> states;
      std::vector<double> marginals;
      for (int i = 0; i < n; ++i) {
        const double p = rng.uniform(0.1, 0.9);
        // Mix of fast and slow signals: half the inputs get a small
        // fraction of their maximum feasible activity.
        const double amax = 2.0 * std::min(p, 1.0 - p);
        const double act =
            rng.coin() ? rng.uniform(0.8 * amax, amax)
                       : rng.uniform(0.01 * amax, 0.2 * amax);
        states.push_back(
            SignalTransition::from(PiTemporalModel::with_activity(p, act)));
        marginals.push_back(p);
      }
      const DecompModel collapsed(GateType::kAnd, CircuitStyle::kStatic);
      const DecompTree t_marg = modified_huffman_tree(marginals, collapsed);
      const DecompTree t_full =
          modified_huffman_transitions(states, GateType::kAnd);
      const double c_marg =
          tree_transition_activity(t_marg, states, GateType::kAnd);
      const double c_full =
          tree_transition_activity(t_full, states, GateType::kAnd);
      collapsed_act.add(c_marg);
      transition_act.add(c_full);
      if (c_marg > 0.0) ratio.add(c_full / c_marg);
    }
    std::printf("%-8d %-14.4f %-14.4f %10.3f\n", n, collapsed_act.mean(),
                transition_act.mean(), ratio.mean());
  }
  std::printf("--------------------------------------------------\n");
  std::printf("ratio < 1: the full transition model finds lower-activity "
              "trees when input\nactivities decouple from their "
              "probabilities (slow control signals)\n");
  return 0;
}
