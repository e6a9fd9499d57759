#include <gtest/gtest.h>

#include "flow/flow.hpp"
#include "flow/session.hpp"
#include "helpers.hpp"
#include "util/stats.hpp"

namespace minpower {
namespace {

TEST(Flow, MethodNames) {
  EXPECT_STREQ(method_name(Method::kI), "I");
  EXPECT_STREQ(method_name(Method::kVI), "VI");
}

TEST(Flow, AllMethodsProduceValidResults) {
  Network net = testing::random_network(44, 7, 16, 3);
  prepare_network(net);
  ASSERT_GT(net.num_internal(), 0u)
      << "degenerate random circuit; pick another seed";
  const auto rs = FlowSession(standard_library()).run_circuit(net);
  ASSERT_EQ(rs.size(), 6u);
  for (const auto& r : rs) {
    EXPECT_GT(r.area, 0.0) << method_name(r.method);
    EXPECT_GT(r.delay, 0.0) << method_name(r.method);
    EXPECT_GT(r.power_uw, 0.0) << method_name(r.method);
    EXPECT_GT(r.gates, 0u) << method_name(r.method);
    EXPECT_GT(r.nand_nodes, 0u) << method_name(r.method);
  }
}

TEST(Flow, DecompositionPhaseIsSharedAcrossObjectives) {
  // Methods I and IV (same decomposition, different mapping) must report the
  // same decomposition diagnostics.
  Network net = testing::random_network(43, 7, 16, 3);
  prepare_network(net);
  const auto rs = FlowSession(standard_library()).run_circuit(net);
  EXPECT_DOUBLE_EQ(rs[0].tree_activity, rs[3].tree_activity);
  EXPECT_DOUBLE_EQ(rs[1].tree_activity, rs[4].tree_activity);
  EXPECT_EQ(rs[0].nand_depth, rs[3].nand_depth);
}

TEST(Flow, MinpowerDecompositionLowersTreeActivity) {
  GeoMean ratio;
  for (std::uint64_t seed = 200; seed < 208; ++seed) {
    Network net = testing::random_network(seed, 7, 18, 3);
    prepare_network(net);
    const auto rI = run_method(net, Method::kI, standard_library());
    const auto rII = run_method(net, Method::kII, standard_library());
    EXPECT_LE(rII.tree_activity, rI.tree_activity + 1e-9) << seed;
    if (rI.tree_activity > 0) ratio.add(rII.tree_activity / rI.tree_activity);
  }
  EXPECT_LT(ratio.value(), 1.0);
}

TEST(Flow, PdMapReducesPowerOnAverage) {
  // The paper's headline: power-delay mapping beats area-delay mapping on
  // power across the suite (22% there; we require a strict average win).
  GeoMean ratio;
  for (std::uint64_t seed = 300; seed < 310; ++seed) {
    Network net = testing::random_network(seed, 7, 18, 3);
    prepare_network(net);
    const auto rI = run_method(net, Method::kI, standard_library());
    const auto rIV = run_method(net, Method::kIV, standard_library());
    ratio.add(rIV.power_uw / rI.power_uw);
  }
  EXPECT_LT(ratio.value(), 1.0)
      << "pd-map must reduce average power vs ad-map";
}

TEST(Flow, BoundedHeightNoDeeperThanMinpowerOnAverage) {
  // Per-node flattening does not guarantee per-circuit depth reduction (the
  // per-fanin depth profile inside a node can shift), so the claim — like
  // the paper's 1.6% performance figure — is aggregate.
  int total_ii = 0;
  int total_iii = 0;
  for (std::uint64_t seed = 400; seed < 408; ++seed) {
    Network net = testing::random_network(seed, 7, 18, 3);
    prepare_network(net);
    const auto rII = run_method(net, Method::kII, standard_library());
    const auto rIII = run_method(net, Method::kIII, standard_library());
    total_ii += rII.nand_depth;
    total_iii += rIII.nand_depth;
  }
  EXPECT_LE(total_iii, total_ii);
}

TEST(Flow, ResultsAreDeterministic) {
  Network net = testing::random_network(77, 7, 16, 3);
  prepare_network(net);
  const auto a = run_method(net, Method::kV, standard_library());
  const auto b = run_method(net, Method::kV, standard_library());
  EXPECT_DOUBLE_EQ(a.area, b.area);
  EXPECT_DOUBLE_EQ(a.delay, b.delay);
  EXPECT_DOUBLE_EQ(a.power_uw, b.power_uw);
}

TEST(Flow, OptionsArePlumbedThrough) {
  Network net = testing::random_network(88, 6, 14, 3);
  prepare_network(net);
  FlowOptions fast;
  fast.t_cycle = 25e-9;  // 40 MHz doubles power
  const auto slow_r = run_method(net, Method::kIV, standard_library());
  const auto fast_r = run_method(net, Method::kIV, standard_library(), fast);
  EXPECT_NEAR(fast_r.power_uw, 2.0 * slow_r.power_uw, slow_r.power_uw * 0.01);
}

}  // namespace
}  // namespace minpower
