// Resource governance and deterministic fault injection: recoverable
// limits, graceful degradation ladders, and fault isolation in the
// FlowSession (the robustness layer of DESIGN.md §9).

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "bdd/bdd.hpp"
#include "decomp/huffman.hpp"
#include "decomp/package_merge.hpp"
#include "flow/session.hpp"
#include "helpers.hpp"
#include "prob/probability.hpp"
#include "util/budget.hpp"
#include "verify/verify.hpp"

namespace minpower {
namespace {

Network prepared(std::uint64_t seed) {
  // Big enough that a BDD activity pass genuinely exceeds the injected
  // 64-node cap (kInjectedBddNodeLimit).
  Network net = testing::random_network(seed, 8, 24, 4);
  prepare_network(net);
  return net;
}

/// Exact (bitwise) equality of everything except wall times.
void expect_identical(const FlowResult& a, const FlowResult& b) {
  EXPECT_EQ(a.circuit, b.circuit);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.area, b.area) << a.circuit << "/" << method_name(a.method);
  EXPECT_EQ(a.delay, b.delay) << a.circuit << "/" << method_name(a.method);
  EXPECT_EQ(a.power_uw, b.power_uw)
      << a.circuit << "/" << method_name(a.method);
  EXPECT_EQ(a.gates, b.gates) << a.circuit << "/" << method_name(a.method);
  EXPECT_EQ(a.tree_activity, b.tree_activity)
      << a.circuit << "/" << method_name(a.method);
  EXPECT_EQ(a.status.state, b.status.state)
      << a.circuit << "/" << method_name(a.method);
  EXPECT_EQ(a.status.retries, b.status.retries)
      << a.circuit << "/" << method_name(a.method);
  EXPECT_EQ(a.status.fallbacks, b.status.fallbacks)
      << a.circuit << "/" << method_name(a.method);
}

TEST(FaultInjectionSpec, ParsesSitesAndOrdinals) {
  const auto fs = parse_fault_injections("bdd-limit:6,deadline:14,,map:0");
  ASSERT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs[0].site, "bdd-limit");
  EXPECT_EQ(fs[0].ordinal, 6);
  EXPECT_EQ(fs[1].site, "deadline");
  EXPECT_EQ(fs[1].ordinal, 14);
  EXPECT_EQ(fs[2].site, "map");
  EXPECT_EQ(fs[2].ordinal, 0);
  EXPECT_TRUE(parse_fault_injections("").empty());
  // Typos must fail fast, not silently disarm a CI fault test.
  EXPECT_THROW(parse_fault_injections("bdd-limit"), std::runtime_error);
  EXPECT_THROW(parse_fault_injections("bdd-limit:"), std::runtime_error);
  EXPECT_THROW(parse_fault_injections(":3"), std::runtime_error);
  EXPECT_THROW(parse_fault_injections("map:-1"), std::runtime_error);
  EXPECT_THROW(parse_fault_injections("map:x"), std::runtime_error);
}

TEST(FaultInjectionSpec, EnvVarIsReadAfresh) {
  ASSERT_EQ(setenv("MINPOWER_INJECT_FAULT", "activity:2", 1), 0);
  auto fs = fault_injections_from_env();
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].site, "activity");
  EXPECT_EQ(fs[0].ordinal, 2);
  ASSERT_EQ(unsetenv("MINPOWER_INJECT_FAULT"), 0);
  EXPECT_TRUE(fault_injections_from_env().empty());
}

TEST(RecoverableLimits, BddLimitMessageReportsCountAndPhase) {
  Budget b;
  b.bdd_node_limit = 20;
  b.label = "tst/activity[1]";
  BudgetScope scope(b);
  BddManager mgr;  // inherits the budget's 20-node cap
  try {
    BddRef f = mgr.var(0);
    for (int i = 1; i < 32; ++i) f = mgr.xor_(f, mgr.var(i));
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.site(), "bdd-limit");
    const std::string msg = e.what();
    EXPECT_NE(msg.find("BDD node limit exceeded"), std::string::npos) << msg;
    EXPECT_NE(msg.find("nodes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(limit 20)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("in phase tst/activity[1]"), std::string::npos) << msg;
  }
}

TEST(RecoverableLimits, UnbudgetedBddLimitIsStillCatchable) {
  BddManager mgr(16);
  try {
    BddRef f = mgr.var(0);
    for (int i = 1; i < 32; ++i) f = mgr.xor_(f, mgr.var(i));
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.site(), "bdd-limit");
    EXPECT_NE(std::string(e.what()).find("<unbudgeted>"), std::string::npos);
  }
}

TEST(RecoverableLimits, ExhaustiveGuardThrowsCatchable) {
  const std::vector<double> probs(10, 0.5);  // one past the 9-leaf cap
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);
  try {
    best_tree_exhaustive(probs, model);
    FAIL() << "expected ResourceExhausted";
  } catch (const ResourceExhausted& e) {
    EXPECT_EQ(e.site(), "exhaustive-tree");
    EXPECT_NE(std::string(e.what()).find("10"), std::string::npos);
  }
}

TEST(RecoverableLimits, ExactOverrunFallsBackToGreedy) {
  const std::vector<double> probs = {0.1, 0.25, 0.4, 0.6, 0.85};
  const DecompModel model(GateType::kAnd, CircuitStyle::kDynamicP);
  const int bound = balanced_height(static_cast<int>(probs.size()));

  reset_bounded_exact_fallbacks();
  const DecompTree exact = bounded_height_minpower_tree(probs, bound, model);
  EXPECT_EQ(bounded_exact_fallbacks(), 0u);

  Budget b;
  b.ordinal = 7;
  b.arm({{"exact-overrun", 7}});
  BudgetScope scope(b);
  reset_bounded_exact_fallbacks();
  const DecompTree greedy = bounded_height_minpower_tree(probs, bound, model);
  EXPECT_EQ(bounded_exact_fallbacks(), 1u);
  // The fallback still honors the contract: same leaves, bound respected,
  // cost no better than the exact optimum.
  EXPECT_EQ(greedy.num_leaves, exact.num_leaves);
  EXPECT_LE(greedy.height(), bound);
  EXPECT_GE(greedy.internal_cost(model, probs) + 1e-12,
            exact.internal_cost(model, probs));
}

TEST(Degradation, McFallbackMapsEquivalentNetlist) {
  // The full decomp-phase fallback path: Monte-Carlo node probabilities
  // feed the decomposition (skipping the BDD pass), MC activities feed the
  // mapper — and the mapped netlist must still realize the subject network.
  const Network net = prepared(91);
  FlowOptions flow;
  NetworkDecompOptions d = decomp_options_for(Method::kII, flow);
  d.node_prob =
      monte_carlo_activities(net, CircuitStyle::kDynamicP, flow.pi_prob1);
  const NetworkDecompResult nd = decompose_network(net, d);

  MapOptions m = map_options_for(Method::kV, flow);
  m.activities = monte_carlo_activities(nd.network, flow.style, flow.pi_prob1);
  const MapResult mapped = map_network(nd.network, standard_library(), m);
  EXPECT_TRUE(verify::mapped_network_equivalent(nd.network, mapped.mapped));
}

TEST(Degradation, InjectedBddBlowupIsolatedAndDeterministic) {
  // 5 circuits; fault ordinal 6 = stage-1 task (circuit 2, group 0), i.e.
  // the decomposition shared by methods I and IV of the third circuit.
  std::vector<Network> nets;
  for (std::uint64_t seed : {81u, 82u, 83u, 84u, 85u}) {
    nets.push_back(prepared(seed));
    nets.back().set_name("c" + std::to_string(seed));
  }
  std::vector<const Network*> circuits;
  for (const Network& n : nets) circuits.push_back(&n);

  EngineOptions clean;
  clean.num_threads = 1;
  FlowSession eng_clean(standard_library(), clean);
  const auto base = eng_clean.run_suite(circuits);

  auto injected_run = [&](unsigned threads) {
    EngineOptions eo;
    eo.num_threads = threads;
    eo.injections = {{"bdd-limit", 6}};
    FlowSession eng(standard_library(), eo);
    return eng.run_suite(circuits);
  };
  const auto inj1 = injected_run(1);
  const auto inj8 = injected_run(8);

  ASSERT_EQ(inj1.size(), 5u);
  for (std::size_t c = 0; c < 5; ++c)
    for (std::size_t m = 0; m < 6; ++m) {
      // Thread-count independence, values and statuses alike.
      expect_identical(inj1[c][m], inj8[c][m]);
      const bool hit = (c == 2 && (m == 0 || m == 3));  // I and IV share
      if (!hit) {
        // Fault isolation: every other task is byte-identical to the clean
        // run and still reports ok.
        expect_identical(inj1[c][m], base[c][m]);
        EXPECT_EQ(inj1[c][m].status.state, TaskState::kOk);
      } else {
        const TaskStatus& s = inj1[c][m].status;
        EXPECT_EQ(s.state, TaskState::kDegraded);
        EXPECT_FALSE(s.reason.empty());
        EXPECT_GT(s.retries, 0);
        ASSERT_FALSE(s.fallbacks.empty());
        EXPECT_EQ(s.fallbacks.front(), "mc-activity");
        // Degraded, not dead: the task still produced a mapped result.
        EXPECT_GT(inj1[c][m].gates, 0u);
        EXPECT_GT(inj1[c][m].power_uw, 0.0);
      }
    }
}

TEST(Degradation, DeadlineExpiryFailsTaskWithoutDeadlock) {
  // Stage-2 ordinal 3n + ci*6 + mi with n=2, ci=1, mi=2 → 14: the map task
  // of (circuit 1, method III). The injection pre-expires that task's
  // deadline, so its first checkpoint fails through the real deadline path.
  std::vector<Network> nets = {prepared(86), prepared(87)};
  nets[0].set_name("a");
  nets[1].set_name("b");
  const std::vector<const Network*> circuits = {&nets[0], &nets[1]};

  for (unsigned threads : {1u, 8u}) {
    EngineOptions eo;
    eo.num_threads = threads;
    eo.flow.task_deadline_ms = 60'000.0;  // generous; injection expires it
    eo.injections = {{"deadline", 14}};
    FlowSession eng(standard_library(), eo);
    const auto rs = eng.run_suite(circuits);  // must return, not hang
    ASSERT_EQ(rs.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c)
      for (std::size_t m = 0; m < 6; ++m) {
        const FlowResult& r = rs[c][m];
        if (c == 1 && m == 2) {
          EXPECT_EQ(r.status.state, TaskState::kFailed) << threads;
          EXPECT_NE(r.status.reason.find("deadline"), std::string::npos)
              << r.status.reason;
          EXPECT_EQ(r.gates, 0u);
        } else {
          EXPECT_EQ(r.status.state, TaskState::kOk)
              << r.circuit << "/" << method_name(r.method);
        }
      }
  }
}

TEST(Degradation, DecompSiteInjectionFailsGroupOnly) {
  // A "decomp" checkpoint fault has no fallback (the ladder only covers
  // resource blowups) — the group fails and both its methods inherit it.
  const Network net = prepared(88);
  EngineOptions eo;
  eo.injections = {{"decomp", 1}};  // group 1 = methods II and V
  FlowSession eng(standard_library(), eo);
  const auto rs = eng.run_circuit(net);
  ASSERT_EQ(rs.size(), 6u);
  for (std::size_t m = 0; m < 6; ++m) {
    if (m == 1 || m == 4) {
      EXPECT_EQ(rs[m].status.state, TaskState::kFailed);
      EXPECT_NE(rs[m].status.reason.find("decomposition/activity failed"),
                std::string::npos)
          << rs[m].status.reason;
      EXPECT_NE(rs[m].status.reason.find("injected fault"), std::string::npos);
    } else {
      EXPECT_EQ(rs[m].status.state, TaskState::kOk);
    }
  }
}

TEST(Degradation, StageOneLadderStatusesArePinned) {
  // The whole TaskStatus of the hit cells for each stage-1 fault kind:
  // reason text, retry count, fallback list and the per-cell ladder
  // diagnostics. One circuit, so stage-1 ordinal = decomposition group.
  //   bdd-limit: the activity pass blows the cap twice (one halved-cap
  //              retry), then takes the Monte-Carlo fallback;
  //   decomp:    fatal for the decomposition pass after its retry;
  //   deadline:  fatal at once, no retry.
  const Network net = prepared(83);
  struct Case {
    FaultInjection fault;
    std::size_t group;
    TaskState state;
    std::string reason;
    int retries;
    std::vector<std::string> fallbacks;
  };
  const Case cases[] = {
      {{"bdd-limit", 0},
       0,
       TaskState::kDegraded,
       "resource-exhausted site=bdd-limit bdd_limit=30000000: BDD node "
       "limit exceeded: 64 nodes (limit 64) in phase rnd83/activity[0]",
       1,
       {"mc-activity"}},
      {{"decomp", 1},
       1,
       TaskState::kFailed,
       "decomposition/activity failed: resource-exhausted site=decomp "
       "bdd_limit=30000000: rnd83/decomp[1]: injected fault at decomp:1",
       1,
       {}},
      {{"deadline", 2},
       2,
       TaskState::kFailed,
       "decomposition/activity failed: resource-exhausted site=deadline "
       "bdd_limit=60000000: rnd83/decomp[2]: deadline exceeded after 1 "
       "checkpoints at activity",
       0,
       {}},
  };
  for (const Case& c : cases) {
    EngineOptions eo;
    eo.injections = {c.fault};
    FlowSession eng(standard_library(), eo);
    const auto rs = eng.run_circuit(net);
    ASSERT_EQ(rs.size(), 6u);
    for (std::size_t m = 0; m < 6; ++m) {
      const FlowResult& r = rs[m];
      const bool hit = m % 3 == c.group;  // the group's method pair
      SCOPED_TRACE(c.fault.site + " method " + method_name(r.method));
      EXPECT_EQ(r.status.state, hit ? c.state : TaskState::kOk);
      EXPECT_EQ(r.status.reason, hit ? c.reason : std::string());
      EXPECT_EQ(r.status.retries, hit ? c.retries : 0);
      EXPECT_EQ(r.status.fallbacks,
                hit ? c.fallbacks : std::vector<std::string>());
      EXPECT_EQ(r.phases.activity_retries, hit ? c.retries : 0);
      EXPECT_EQ(r.phases.exact_fallbacks, 0);
    }
  }
}

TEST(Degradation, FlowJsonCarriesStatus) {
  // Seed 83 demonstrably exceeds the injected 64-node cap (it is the hit
  // circuit of InjectedBddBlowupIsolatedAndDeterministic).
  const Network net = prepared(83);
  EngineOptions eo;
  eo.injections = {{"bdd-limit", 0}};  // group 0 → methods I and IV degrade
  FlowSession eng(standard_library(), eo);
  const auto rs = eng.run_circuit(net);
  std::ostringstream os;
  write_flow_json(os, {rs}, 1, 1.0, standard_library().name());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"tasks\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"degraded\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"failed\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"status\""), std::string::npos);
  EXPECT_NE(json.find("\"state\": \"degraded\""), std::string::npos);
  EXPECT_NE(json.find("mc-activity"), std::string::npos);
  EXPECT_NE(json.find("\"activity_retries\""), std::string::npos);
  EXPECT_NE(json.find("\"exact_fallbacks\""), std::string::npos);
}

}  // namespace
}  // namespace minpower
