// Tree-shape lock: every decomposition-tree builder must keep its exact
// tie-breaking. The trees each builder returns for a fixed set of seeded
// inputs are hashed node by node — (leaf, left, right, height, probability
// bits) — into one digest per builder. The cost and near-optimality tests
// elsewhere would not notice a builder that returns a different tree of
// equal cost; these digests do. Change an expected value only for a
// deliberate change of a builder's output (the failure prints the new one).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>

#include "decomp/huffman.hpp"
#include "decomp/node_decompose.hpp"
#include "decomp/package_merge.hpp"
#include "decomp/transition_model.hpp"
#include "util/rng.hpp"

namespace minpower {
namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  void add_int(long long v) { add(static_cast<std::uint64_t>(v)); }
  void add_double(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const DecompTree& t) {
    add_int(static_cast<long long>(t.nodes.size()));
    add_int(t.root);
    for (const DecompTree::TNode& n : t.nodes) {
      add_int(n.leaf);
      add_int(n.left);
      add_int(n.right);
      add_int(n.height);
      add_double(n.prob);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

constexpr CircuitStyle kStyles[] = {CircuitStyle::kStatic,
                                    CircuitStyle::kDynamicP,
                                    CircuitStyle::kDynamicN};
constexpr GateType kGates[] = {GateType::kAnd, GateType::kOr};

/// Leaf probabilities: variant 0 is continuous; variant 1 is quantized to
/// eighths and variant 2 is constant, so that merge costs tie exactly and
/// tie-breaking decides.
std::vector<double> leaf_probs(Rng& rng, int n, int variant) {
  std::vector<double> p(static_cast<std::size_t>(n), 0.375);
  if (variant == 2) return p;
  for (double& x : p)
    x = variant == 0 ? rng.uniform(0.05, 0.95)
                     : static_cast<double>(rng.range(1, 7)) / 8.0;
  return p;
}

/// Exact pairwise joints of `n` correlated signals over 32 patterns
/// (probabilities are multiples of 1/32, so ties are common).
JointProbabilities pattern_joints(Rng& rng, int n) {
  constexpr int kPatterns = 32;
  std::vector<double> bias(static_cast<std::size_t>(n));
  for (double& b : bias) b = rng.uniform(0.2, 0.8);
  std::vector<std::vector<bool>> bits;
  for (int t = 0; t < kPatterns; ++t) {
    const double shared = rng.uniform();
    std::vector<bool> row(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      row[static_cast<std::size_t>(i)] =
          (shared < bias[static_cast<std::size_t>(i)]) != rng.coin(0.25);
    bits.push_back(std::move(row));
  }
  auto freq = [&](int i, int j) {
    int c = 0;
    for (const auto& row : bits)
      c += row[static_cast<std::size_t>(i)] && row[static_cast<std::size_t>(j)];
    return static_cast<double>(c) / kPatterns;
  };
  std::vector<double> p1(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p1[static_cast<std::size_t>(i)] = freq(i, i);
  JointProbabilities joints(p1);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) joints.set(i, j, freq(i, j));
  return joints;
}

std::vector<SignalTransition> leaf_states(Rng& rng, int n) {
  std::vector<SignalTransition> s;
  for (int i = 0; i < n; ++i) {
    const double p = rng.uniform(0.1, 0.9);
    const double amax = 2.0 * std::min(p, 1.0 - p);
    const double act = rng.coin() ? rng.uniform(0.8 * amax, amax)
                                  : rng.uniform(0.01 * amax, 0.2 * amax);
    s.push_back(SignalTransition::from(PiTemporalModel::with_activity(p, act)));
  }
  return s;
}

std::map<std::string, std::uint64_t> tree_digests() {
  std::map<std::string, Digest> d;
  for (int n = 1; n <= 12; ++n) {
    for (int variant = 0; variant < 3; ++variant) {
      Rng rng(0x5eed0000ULL + 16 * static_cast<std::uint64_t>(n) +
              static_cast<std::uint64_t>(variant));
      const std::vector<double> p = leaf_probs(rng, n, variant);
      for (CircuitStyle style : kStyles) {
        for (GateType gate : kGates) {
          const DecompModel model(gate, style);
          d["huffman"].add(huffman_tree(p, model));
          d["modified_huffman"].add(modified_huffman_tree(p, model));
          if (n <= 8) d["exhaustive"].add(best_tree_exhaustive(p, model));
          for (int bound = balanced_height(n); bound <= std::max(0, n - 1);
               ++bound)
            d["bounded"].add(bounded_height_minpower_tree(p, bound, model));
        }
      }
      const JointProbabilities joints = pattern_joints(rng, n);
      const std::vector<SignalTransition> states = leaf_states(rng, n);
      for (GateType gate : kGates) {
        for (CircuitStyle style : kStyles)
          d["correlated"].add(
              modified_huffman_correlated(joints, DecompModel(gate, style)));
        d["transition"].add(modified_huffman_transitions(states, gate));
        if (n <= 8)
          d["transition_exhaustive"].add(
              best_tree_exhaustive_transitions(states, gate));
      }
    }
  }
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, digest] : d) out[name] = digest.value();
  return out;
}

TEST(TreeShapeLock, EveryBuilderKeepsItsTieBreaking) {
  const std::map<std::string, std::uint64_t> expected = {
      {"bounded", 0x836d89890d87cdc1ULL},
      {"correlated", 0xdc9536a809e2d081ULL},
      {"exhaustive", 0xf551b496eeca67b9ULL},
      {"huffman", 0x209ea6e0923b6c96ULL},
      {"modified_huffman", 0xc85db87876a1e8fbULL},
      {"transition", 0xe997bdeae3a6114dULL},
      {"transition_exhaustive", 0x14ae4070f9fc666fULL},
  };
  const std::map<std::string, std::uint64_t> got = tree_digests();
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [name, value] : expected)
    EXPECT_EQ(got.at(name), value)
        << name << " digest moved: 0x" << std::hex << got.at(name);
}

/// Random non-constant covers over `k` fanins.
Cover random_cover(Rng& rng, int k) {
  for (;;) {
    Cover f;
    const int cubes = static_cast<int>(rng.range(1, 5));
    for (int cu = 0; cu < cubes; ++cu) {
      Cube c;
      for (int v = 0; v < k; ++v)
        if (rng.coin(0.6)) c = c & Cube::literal(v, rng.coin());
      if (c.is_one()) c = Cube::literal(0, true);
      f.add(c);
    }
    f.normalize();
    if (!f.is_zero() && !f.is_one()) return f;
  }
}

void add_plan(Digest& d, const NodeDecomp& plan, bool with_activity) {
  for (const auto& lits : plan.cube_literals)
    for (const auto& [var, phase] : lits) {
      d.add_int(var);
      d.add_int(phase);
    }
  for (const DecompTree& t : plan.cube_trees) d.add(t);
  d.add(plan.or_tree);
  d.add_int(plan.realized_height);
  if (with_activity) d.add_double(plan.tree_activity);
}

std::map<std::string, std::uint64_t> plan_digests() {
  std::map<std::string, Digest> d;
  Rng rng(0x91a7ULL);
  for (int trial = 0; trial < 60; ++trial) {
    const int k = static_cast<int>(rng.range(2, 7));
    const Cover f = random_cover(rng, k);
    std::vector<double> p(static_cast<std::size_t>(k));
    for (double& x : p) x = rng.uniform(0.05, 0.95);
    for (CircuitStyle style : kStyles) {
      add_plan(d["balanced"],
               decompose_node(f, p, style, DecompAlgorithm::kBalanced), true);
      const NodeDecomp free =
          decompose_node(f, p, style, DecompAlgorithm::kMinPower);
      add_plan(d["minpower"], free, true);
      for (int bound = balanced_nand_height(f);
           bound < free.realized_height; ++bound)
        add_plan(d["minpower_bounded"],
                 decompose_node(f, p, style, DecompAlgorithm::kMinPower, bound),
                 true);
    }
    // The transition planner's tree_activity is a floating-point sum whose
    // association is not part of the shape; its value is checked elsewhere.
    add_plan(d["transition"],
             decompose_node_transitions(f, leaf_states(rng, k)), false);
  }
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, digest] : d) out[name] = digest.value();
  return out;
}

TEST(TreeShapeLock, EveryPlannerKeepsItsPlans) {
  const std::map<std::string, std::uint64_t> expected = {
      {"balanced", 0x131d2728114a43dbULL},
      {"minpower", 0x070237b7bb06e195ULL},
      {"minpower_bounded", 0x0bf898edbc3dd2bfULL},
      {"transition", 0xfc8fc4cd639d387aULL},
  };
  const std::map<std::string, std::uint64_t> got = plan_digests();
  ASSERT_EQ(got.size(), expected.size());
  for (const auto& [name, value] : expected)
    EXPECT_EQ(got.at(name), value)
        << name << " digest moved: 0x" << std::hex << got.at(name);
}

}  // namespace
}  // namespace minpower
