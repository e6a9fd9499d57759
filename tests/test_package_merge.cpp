#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>

#include "decomp/huffman.hpp"
#include "decomp/merge_order.hpp"
#include "decomp/package_merge.hpp"
#include "util/rng.hpp"

namespace minpower {
namespace {

/// O(n²·L) DP oracle for BOUNDED-HEIGHT MINSUM: optimal Σ w_i·l_i over
/// monotone level assignments satisfying Kraft equality with l_i ≤ L.
/// (Weights sorted descending get the shallow levels; standard exchange
/// argument makes the sorted restriction lossless.)
double minsum_dp(std::vector<double> w, int L) {
  std::sort(w.begin(), w.end(), std::greater<>());
  const int n = static_cast<int>(w.size());
  // State: (index i, "width" consumed so far scaled by 2^L).
  // We assign levels in sorted order; level l consumes 2^{L-l} width units.
  const long long total = 1LL << L;
  std::vector<double> prefix(static_cast<std::size_t>(n) + 1, 0.0);
  for (int i = 0; i < n; ++i)
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + w[static_cast<std::size_t>(i)];
  // dp[i][x] = min cost assigning first i leaves with width x consumed.
  // x can be large; hash map per i keyed by consumed width.
  std::vector<std::unordered_map<long long, double>> dp(
      static_cast<std::size_t>(n) + 1);
  dp[0][0] = 0.0;
  for (int i = 0; i < n; ++i) {
    for (const auto& [x, c] : dp[static_cast<std::size_t>(i)]) {
      for (int l = 1; l <= L; ++l) {
        const long long nx = x + (1LL << (L - l));
        if (nx > total) continue;
        // Remaining leaves need at least (n-i-1) units of the smallest width.
        if (total - nx < (n - i - 1)) continue;
        const double nc = c + w[static_cast<std::size_t>(i)] * l;
        auto& next_map = dp[static_cast<std::size_t>(i) + 1];
        const auto it = next_map.find(nx);
        if (it == next_map.end() || it->second > nc) next_map[nx] = nc;
      }
    }
  }
  const auto it = dp[static_cast<std::size_t>(n)].find(total);
  return it == dp[static_cast<std::size_t>(n)].end()
             ? std::numeric_limits<double>::infinity()
             : it->second;
}

TEST(BalancedHeight, CeilLog2) {
  EXPECT_EQ(balanced_height(1), 0);
  EXPECT_EQ(balanced_height(2), 1);
  EXPECT_EQ(balanced_height(3), 2);
  EXPECT_EQ(balanced_height(4), 2);
  EXPECT_EQ(balanced_height(5), 3);
  EXPECT_EQ(balanced_height(8), 3);
  EXPECT_EQ(balanced_height(9), 4);
}

TEST(PackageMerge, UnboundedMatchesHuffman) {
  // With L large the length-limited solution equals classic Huffman cost.
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.range(2, 9));
    std::vector<double> w(static_cast<std::size_t>(n));
    for (double& x : w) x = rng.uniform(0.0, 10.0);
    const auto levels = length_limited_levels(w, n);  // L = n is unbounded
    double cost = 0.0;
    for (int i = 0; i < n; ++i)
      cost += w[static_cast<std::size_t>(i)] *
              levels[static_cast<std::size_t>(i)];
    // Classic Huffman cost via priority queue.
    std::vector<double> heap = w;
    std::make_heap(heap.begin(), heap.end(), std::greater<>());
    double hcost = 0.0;
    while (heap.size() > 1) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const double a = heap.back();
      heap.pop_back();
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const double b = heap.back();
      heap.pop_back();
      hcost += a + b;
      heap.push_back(a + b);
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
    }
    EXPECT_NEAR(cost, hcost, 1e-9) << "n=" << n;
  }
}

TEST(PackageMerge, MatchesDpOracleUnderTightBounds) {
  Rng rng(23);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = static_cast<int>(rng.range(3, 8));
    const int L = static_cast<int>(rng.range(balanced_height(n), n - 1));
    std::vector<double> w(static_cast<std::size_t>(n));
    for (double& x : w) x = rng.uniform(0.1, 10.0);
    const auto levels = length_limited_levels(w, L);
    double cost = 0.0;
    int maxl = 0;
    for (int i = 0; i < n; ++i) {
      cost += w[static_cast<std::size_t>(i)] *
              levels[static_cast<std::size_t>(i)];
      maxl = std::max(maxl, levels[static_cast<std::size_t>(i)]);
    }
    EXPECT_LE(maxl, L);
    EXPECT_NEAR(cost, minsum_dp(w, L), 1e-9) << "n=" << n << " L=" << L;
  }
}

TEST(PackageMerge, LevelsSatisfyKraftEquality) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.range(2, 10));
    const int L = balanced_height(n) + static_cast<int>(rng.below(3));
    std::vector<double> w(static_cast<std::size_t>(n));
    for (double& x : w) x = rng.uniform(0.0, 5.0);
    const auto levels = length_limited_levels(w, L);
    double kraft = 0.0;
    for (int l : levels) kraft += std::pow(2.0, -l);
    EXPECT_NEAR(kraft, 1.0, 1e-12);
    // And tree_from_levels accepts them.
    const DecompTree t = tree_from_levels(levels);
    EXPECT_LE(t.height(), L);
    EXPECT_EQ(t.num_leaves, n);
  }
}

TEST(TreeFromLevels, BalancedFour) {
  const DecompTree t = tree_from_levels({2, 2, 2, 2});
  EXPECT_EQ(t.height(), 2);
  const auto d = t.leaf_depths();
  for (int x : d) EXPECT_EQ(x, 2);
}

TEST(TreeFromLevels, SkewedThree) {
  const DecompTree t = tree_from_levels({1, 2, 2});
  EXPECT_EQ(t.height(), 2);
}

TEST(HeightBudget, AdmitsExactlyTheMergesThatStillCompleteWithinTheBound) {
  // Reference: the completion height of a set of subtree heights is what
  // repeatedly merging the two lowest into max(x, y) + 1 reaches.
  auto completion = [](std::vector<int> hs) {
    std::sort(hs.begin(), hs.end());
    while (hs.size() > 1) {
      const int h = std::max(hs[0], hs[1]) + 1;
      hs.erase(hs.begin(), hs.begin() + 2);
      hs.insert(std::lower_bound(hs.begin(), hs.end(), h), h);
    }
    return hs[0];
  };
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.range(2, 12));
    const int bound = balanced_height(n) + static_cast<int>(rng.range(0, 3));
    merge_order::HeightBudget budget(bound, n);
    std::vector<int> live(static_cast<std::size_t>(n), 0);  // heights
    while (live.size() > 1) {
      std::vector<std::pair<std::size_t, std::size_t>> admitted;
      for (std::size_t i = 0; i < live.size(); ++i)
        for (std::size_t j = i + 1; j < live.size(); ++j) {
          std::vector<int> rest{1 + std::max(live[i], live[j])};
          for (std::size_t k = 0; k < live.size(); ++k)
            if (k != i && k != j) rest.push_back(live[k]);
          const bool fits = completion(rest) <= bound;
          EXPECT_EQ(budget.admits(live[i], live[j]), fits)
              << "n=" << n << " bound=" << bound;
          if (fits) admitted.emplace_back(i, j);
        }
      ASSERT_FALSE(admitted.empty());
      const auto [i, j] = admitted[rng.below(admitted.size())];
      budget.merge(live[i], live[j]);
      const int h = 1 + std::max(live[i], live[j]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(j));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      live.push_back(h);
    }
  }
}

TEST(BoundedHeightMinpower, RespectsBound) {
  Rng rng(41);
  const DecompModel model(GateType::kAnd, CircuitStyle::kStatic);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.range(2, 10));
    const int L = static_cast<int>(rng.range(balanced_height(n), n));
    std::vector<double> p(static_cast<std::size_t>(n));
    for (double& x : p) x = rng.uniform(0.05, 0.95);
    const DecompTree t = bounded_height_minpower_tree(p, L, model);
    EXPECT_LE(t.height(), L);
    EXPECT_EQ(t.num_leaves, n);
  }
}

TEST(BoundedHeightMinpower, LooseBoundMatchesModifiedHuffman) {
  Rng rng(43);
  const DecompModel model(GateType::kAnd, CircuitStyle::kStatic);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = static_cast<int>(rng.range(2, 9));
    std::vector<double> p(static_cast<std::size_t>(n));
    for (double& x : p) x = rng.uniform(0.05, 0.95);
    const DecompTree unbounded = modified_huffman_tree(p, model);
    const DecompTree bounded =
        bounded_height_minpower_tree(p, unbounded.height(), model);
    // The bounded construction admits the Modified Huffman tree as a
    // candidate (and solves small instances exactly), so with a loose bound
    // it can only match or beat it.
    EXPECT_LE(bounded.internal_cost(model, p),
              unbounded.internal_cost(model, p) + 1e-9);
  }
}

TEST(BoundedHeightMinpower, CostDegradesMonotonicallyAsBoundTightens) {
  Rng rng(47);
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);
  std::vector<double> p(8);
  for (double& x : p) x = rng.uniform(0.05, 0.95);
  double prev = -1.0;
  for (int L = 7; L >= balanced_height(8); --L) {
    const double c =
        bounded_height_minpower_tree(p, L, model).internal_cost(model, p);
    if (prev >= 0.0)
      EXPECT_GE(c, prev - 1e-9) << "tightening the bound cannot help";
    prev = c;
  }
}

TEST(BoundedHeightMinpower, NearOptimalAgainstBoundedExhaustive) {
  // Exhaustive oracle over all merge orders with a height filter.
  const DecompModel model(GateType::kAnd, CircuitStyle::kStatic);
  Rng rng(53);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 5;
    const int L = 3;
    std::vector<double> p(static_cast<std::size_t>(n));
    for (double& x : p) x = rng.uniform(0.05, 0.95);
    const DecompTree heur = bounded_height_minpower_tree(p, L, model);

    // Brute force: enumerate merge orders, keep best with height ≤ L.
    struct Item {
      double prob;
      int height;
    };
    double best = std::numeric_limits<double>::infinity();
    const std::function<void(std::vector<Item>, double)> rec =
        [&](std::vector<Item> items, double acc) {
          if (items.size() == 1) {
            if (items[0].height <= L) best = std::min(best, acc);
            return;
          }
          for (std::size_t i = 0; i < items.size(); ++i)
            for (std::size_t j = i + 1; j < items.size(); ++j) {
              std::vector<Item> next;
              for (std::size_t k = 0; k < items.size(); ++k)
                if (k != i && k != j) next.push_back(items[k]);
              Item merged;
              merged.prob = model.merge_prob(items[i].prob, items[j].prob);
              merged.height = 1 + std::max(items[i].height, items[j].height);
              if (merged.height > L) continue;
              next.push_back(merged);
              rec(std::move(next), acc + model.activity(merged.prob));
            }
        };
    std::vector<Item> init;
    for (double x : p) init.push_back({x, 0});
    rec(init, 0.0);

    const double hc = heur.internal_cost(model, p);
    EXPECT_GE(hc, best - 1e-9);
    EXPECT_LE(hc, best * 1.25 + 1e-9)
        << "heuristic should stay within 25% of the bounded optimum";
  }
}

}  // namespace
}  // namespace minpower
