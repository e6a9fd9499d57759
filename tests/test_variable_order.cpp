// The per-circuit BDD variable order (prob/probability.hpp): probabilities
// do not depend on it, the choice is a permutation, it travels from the
// prepared network to every subject network, and choose_pi_variable_order
// swallows only its own node caps.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "decomp/network_decompose.hpp"
#include "flow/flow.hpp"
#include "flow/session.hpp"
#include "helpers.hpp"
#include "library/library.hpp"
#include "opt/optimize.hpp"
#include "prob/probability.hpp"
#include "util/budget.hpp"
#include "verify/verify.hpp"

namespace minpower {
namespace {

bool is_permutation_of_positions(const std::vector<int>& order) {
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i)
    if (sorted[i] != static_cast<int>(i)) return false;
  return true;
}

/// signal_probabilities of `net` under `order` against the exhaustive
/// oracle, node by node.
void expect_exact_under(const Network& net, const std::vector<int>& order,
                        const std::vector<double>& pi_prob1,
                        const std::string& what) {
  Network stamped = net.duplicate();
  stamped.set_bdd_pi_order(order);
  const std::vector<double> bdd = signal_probabilities(stamped, pi_prob1);
  const std::vector<double> oracle =
      verify::exhaustive_signal_probabilities(net, pi_prob1);
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
    if (net.node(id).is_dead()) continue;
    ASSERT_NEAR(bdd[static_cast<std::size_t>(id)],
                oracle[static_cast<std::size_t>(id)], 1e-12)
        << what << " node " << net.node(id).name;
  }
}

/// The prepared network and its three subject networks, each under DFS,
/// deepest-first and the chosen order; `rng` draws biased PI probabilities,
/// null means the uniform 0.5.
void check_order_independence(Network net, Rng* rng, const std::string& label) {
  ASSERT_LE(net.pis().size(), 12u) << label;
  prepare_network(net);
  const int num_pi = static_cast<int>(net.pis().size());
  const std::vector<double> pi_prob1 =
      rng != nullptr ? testing::random_probs(*rng, num_pi)
                     : std::vector<double>(net.pis().size(), 0.5);
  const std::vector<int>& chosen = net.bdd_pi_order();
  ASSERT_TRUE(is_permutation_of_positions(chosen)) << label;
  ASSERT_EQ(chosen.size(), net.pis().size()) << label;
  EXPECT_EQ(chosen, choose_pi_variable_order(net)) << label;

  const std::vector<std::vector<int>> prepared_orders = {
      dfs_pi_variable_order(net), deepest_first_pi_variable_order(net),
      chosen};
  for (const std::vector<int>& order : prepared_orders)
    expect_exact_under(net, order, pi_prob1, label + " prepared");

  FlowOptions flow;
  flow.pi_prob1 = pi_prob1;
  for (const Method m : {Method::kI, Method::kII, Method::kIII}) {
    const Network subject =
        decompose_network(net, decomp_options_for(m, flow)).network;
    const std::string what = label + " subject " + method_name(m);
    ASSERT_EQ(subject.bdd_pi_order(), chosen) << what;
    for (const std::vector<int>& order :
         {dfs_pi_variable_order(subject),
          deepest_first_pi_variable_order(subject), chosen})
      expect_exact_under(subject, order, pi_prob1, what);
  }
}

TEST(VariableOrder, ProbabilitiesAreOrderIndependentOnRandomCircuits) {
  Rng rng(0x6f72646572ULL);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const int num_pi = 4 + static_cast<int>(seed % 9);  // 4..12
    check_order_independence(testing::random_network(seed, num_pi, 24, 4),
                             seed % 2 ? nullptr : &rng,
                             "random seed " + std::to_string(seed));
  }
}

TEST(VariableOrder, ProbabilitiesAreOrderIndependentOnSuiteCircuits) {
  int checked = 0;
  for (const BenchProfile& p : paper_suite()) {
    if (p.num_pi > 12) continue;
    check_order_independence(generate_benchmark(p), nullptr, p.name);
    ++checked;
  }
  EXPECT_GE(checked, 4);  // s208, cm42a, x2, alu2
}

TEST(VariableOrder, DeepestFirstVisitsTheDeepestFaninFirst) {
  // f = a · g(b, c) with g two levels deep: DFS numbers a first, the
  // deepest-first walk numbers g's PIs first.
  Network net("deep");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId g = net.add_inv(net.add_nand2(b, c));
  net.add_po("f", net.add_and2(a, g));
  EXPECT_EQ(dfs_pi_variable_order(net), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(deepest_first_pi_variable_order(net), (std::vector<int>{2, 0, 1}));
}

TEST(VariableOrder, UnstampedNetworksUseDfs) {
  const Network net = testing::random_network(3, 8, 20, 3);
  EXPECT_TRUE(net.bdd_pi_order().empty());
  EXPECT_EQ(pi_variable_order(net), dfs_pi_variable_order(net));
  BddManager mgr;
  const NetworkBdds bdds(mgr, net);
  const std::vector<int> dfs = dfs_pi_variable_order(net);
  for (std::size_t i = 0; i < net.pis().size(); ++i)
    EXPECT_EQ(bdds.pi_variable(i), dfs[i]);
}

std::size_t dfs_node_count(const Network& net) {
  BddManager mgr;
  const NetworkBdds bdds(mgr, net, dfs_pi_variable_order(net));
  return mgr.num_nodes();
}

/// A prepared network whose two candidate orders differ and whose choice
/// keeps DFS, so the deepest-first build runs into the choice's own cap.
Network dfs_kept_network() {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Network net = testing::random_network(seed, 12, 40, 6);
    prepare_network(net);
    const std::vector<int> dfs = dfs_pi_variable_order(net);
    if (dfs != deepest_first_pi_variable_order(net) && net.bdd_pi_order() == dfs)
      return net;
  }
  ADD_FAILURE() << "no random circuit whose choice keeps DFS";
  return Network();
}

TEST(VariableOrder, SmallBudgetCapPropagates) {
  const Network net = dfs_kept_network();
  const std::size_t dfs_nodes = dfs_node_count(net);
  ASSERT_GT(dfs_nodes, kInjectedBddNodeLimit);
  Budget budget;
  budget.bdd_node_limit = dfs_nodes - 1;  // the DFS build itself overflows
  BudgetScope scope(budget);
  try {
    (void)choose_pi_variable_order(net);
    ADD_FAILURE() << "a budget cap below the DFS size did not throw";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.site(), "bdd-limit");
  }
}

TEST(VariableOrder, ArmedBddLimitFaultPropagates) {
  const Network net = dfs_kept_network();
  ASSERT_GT(dfs_node_count(net), kInjectedBddNodeLimit);
  Budget budget;
  budget.ordinal = 0;
  budget.arm({FaultInjection{"bdd-limit", 0}});
  BudgetScope scope(budget);
  EXPECT_THROW((void)choose_pi_variable_order(net), ResourceExhausted);
}

TEST(VariableOrder, ArmedDeadlinePropagates) {
  const Network net = dfs_kept_network();
  Budget budget;
  budget.ordinal = 0;
  budget.arm({FaultInjection{"deadline", 0}});
  BudgetScope scope(budget);
  EXPECT_THROW((void)choose_pi_variable_order(net), ResourceExhausted);
}

TEST(VariableOrder, OwnDeepestFirstCapIsSwallowedUnderAGenerousBudget) {
  // A budget cap at the DFS size leaves the choice's own cap binding: the
  // deepest-first build overflows it, and the choice keeps DFS quietly.
  const Network net = dfs_kept_network();
  Budget budget;
  budget.bdd_node_limit = dfs_node_count(net);
  BudgetScope scope(budget);
  EXPECT_EQ(choose_pi_variable_order(net), dfs_pi_variable_order(net));
}

TEST(VariableOrder, DfsBuildOverTheChoiceCapKeepsDfsWithoutThrowing) {
  // Pick a circuit where deepest-first would win, so only the cap can
  // explain a DFS answer.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Network net = testing::random_network(seed, 12, 40, 6);
    prepare_network(net);
    const std::vector<int> dfs = dfs_pi_variable_order(net);
    if (net.bdd_pi_order() == dfs) continue;
    const std::size_t small_cap = dfs_node_count(net) - 1;
    EXPECT_EQ(choose_pi_variable_order(net, small_cap), dfs);
    // Under a Budget with more room than the choice's cap the overflow is
    // still the choice's own.
    Budget budget;
    budget.bdd_node_limit = small_cap + 1;
    BudgetScope scope(budget);
    EXPECT_EQ(choose_pi_variable_order(net, small_cap), dfs);
    return;
  }
  ADD_FAILURE() << "no random circuit whose choice is deepest-first";
}

TEST(VariableOrder, OversizedCircuitStillDegradesThroughMcActivity) {
  // A circuit over the choice cap keeps the DFS order, and the session's
  // budgeted ladder, not the order choice, handles its BDD blowup: a
  // degraded mc-activity cell, never a thrown error.
  Network net = testing::random_network(5, 12, 40, 6);
  rugged_lite(net);
  net.set_bdd_pi_order(choose_pi_variable_order(net, kInjectedBddNodeLimit));
  EngineOptions engine;
  engine.flow.bdd_node_limit = kInjectedBddNodeLimit;
  FlowSession session(standard_library(), engine);
  const std::vector<FlowResult> cells = session.run_circuit(net);
  ASSERT_EQ(cells.size(), 6u);
  for (const FlowResult& r : cells) {
    EXPECT_EQ(r.status.state, TaskState::kDegraded) << method_name(r.method);
    ASSERT_FALSE(r.status.fallbacks.empty()) << method_name(r.method);
    EXPECT_EQ(r.status.fallbacks.front(), "mc-activity")
        << method_name(r.method);
    EXPECT_NE(r.status.reason.find("bdd-limit"), std::string::npos)
        << r.status.reason;
    EXPECT_GT(r.gates, 0u);
  }
}

TEST(VariableOrder, KeepsDeepestFirstOnlyWhenItIsSmaller) {
  int deepest_kept = 0;
  int dfs_kept = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Network net = testing::random_network(seed, 12, 40, 6);
    prepare_network(net);
    const std::vector<int> dfs = dfs_pi_variable_order(net);
    const std::vector<int> deepest = deepest_first_pi_variable_order(net);
    if (dfs == deepest) continue;
    BddManager mgr;
    const NetworkBdds bdds(mgr, net, deepest);
    const std::size_t dfs_nodes = dfs_node_count(net);
    if (mgr.num_nodes() <= dfs_nodes) {
      EXPECT_EQ(net.bdd_pi_order(), deepest) << "seed " << seed;
      ++deepest_kept;
    } else {
      EXPECT_EQ(net.bdd_pi_order(), dfs) << "seed " << seed;
      ++dfs_kept;
    }
  }
  EXPECT_GT(deepest_kept, 0);
  EXPECT_GT(dfs_kept, 0);
}

}  // namespace
}  // namespace minpower
