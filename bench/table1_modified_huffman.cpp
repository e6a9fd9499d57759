// Reproduces Table 1: fraction of trials where the Modified Huffman
// algorithm (Algorithm 2.2) finds the optimal static AND decomposition,
// measured against exhaustive enumeration of all binary trees.
//
// Paper setup (Sec. 4): static AND-gate decomposition of a complex node,
// uncorrelated random input probabilities, 500 patterns per input count.
// Paper numbers: n=3:100%, 4:96%, 5:93%, 6:88% (avg ≈ 94%).

#include <cstdio>

#include "decomp/huffman.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace minpower;

int main() {
  std::printf("Table 1 — Modified Huffman optimality rate "
              "(static AND decomposition)\n");
  std::printf("%-18s %-28s\n", "numbers of input", "% of getting optimal result");
  std::printf("------------------------------------------------\n");

  const DecompModel model(GateType::kAnd, CircuitStyle::kStatic);
  const int kPatterns = 500;
  RunningStats overall;
  for (int n = 3; n <= 6; ++n) {
    Rng rng(0x7ab1e1ULL * static_cast<std::uint64_t>(n));
    int optimal = 0;
    for (int trial = 0; trial < kPatterns; ++trial) {
      std::vector<double> p(static_cast<std::size_t>(n));
      for (double& x : p) x = rng.uniform(0.0, 1.0);
      const double cm =
          modified_huffman_tree(p, model).internal_cost(model, p);
      const double co = best_tree_exhaustive(p, model).internal_cost(model, p);
      if (cm <= co + 1e-9) ++optimal;
    }
    const double rate = 100.0 * optimal / kPatterns;
    overall.add(rate);
    std::printf("%-18d %.1f\n", n, rate);
  }
  std::printf("------------------------------------------------\n");
  std::printf("average: %.1f%%   (paper: 100 / 96 / 93 / 88, avg ~94%%)\n",
              overall.mean());
  return 0;
}
