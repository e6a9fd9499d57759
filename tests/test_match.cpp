// Structural matcher (map/match.hpp): unit cases on hand-built subjects,
// a functional property (every match computes its root's function), and a
// differential sweep against the plain recursive matcher kept below as the
// oracle. The sweep runs over the three subjects of every paper-suite
// circuit and of seeded random circuits (ctest -L verify); the random base
// seed comes from MINPOWER_VERIFY_SEED when set, so a nightly run checks
// new subjects while a failure names the seed that reproduces it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "decomp/network_decompose.hpp"
#include "flow/flow.hpp"
#include "helpers.hpp"
#include "map/match.hpp"

namespace minpower {
namespace {

// ---- oracle: the recursive matcher with whole-state copies ----------------

struct RefMatch {
  const Gate* gate = nullptr;
  std::vector<NodeId> pin_binding;  // per gate pin
  std::vector<NodeId> covered;      // sorted, root included
};

struct RefState {
  const Network* net = nullptr;
  const std::vector<int>* fanout = nullptr;
  std::vector<NodeId> binding;
  std::vector<NodeId> covered;
};

bool ref_match(const Pattern& pat, NodeId node, bool is_root, RefState& st) {
  const Network& net = *st.net;
  if (pat.kind == Pattern::Kind::kLeaf) {
    NodeId& slot = st.binding[static_cast<std::size_t>(pat.pin)];
    if (slot == kNoNode) {
      slot = node;
      return true;
    }
    return slot == node;
  }
  if (!is_root && (*st.fanout)[static_cast<std::size_t>(node)] != 1)
    return false;
  if (pat.kind == Pattern::Kind::kInv) {
    if (!net.is_inv(node)) return false;
    st.covered.push_back(node);
    return ref_match(*pat.child[0], net.node(node).fanins[0], false, st);
  }
  if (!net.is_nand2(node)) return false;
  st.covered.push_back(node);
  const NodeId a = net.node(node).fanins[0];
  const NodeId b = net.node(node).fanins[1];
  const RefState saved = st;
  if (ref_match(*pat.child[0], a, false, st) &&
      ref_match(*pat.child[1], b, false, st))
    return true;
  st = saved;
  if (ref_match(*pat.child[0], b, false, st) &&
      ref_match(*pat.child[1], a, false, st))
    return true;
  st = saved;
  return false;
}

/// Every (gate, pattern) tried at `n` in library order; duplicates of an
/// earlier (gate, binding, covered) dropped. Leaf-rooted patterns give
/// matches that cover nothing; they are kept here, as the mapper once
/// received them.
std::vector<RefMatch> reference_find_matches(const Network& subject, NodeId n,
                                             const Library& lib,
                                             const std::vector<int>& fanout) {
  std::vector<RefMatch> out;
  if (!subject.node(n).is_internal()) return out;
  for (const Gate& g : lib.gates()) {
    for (const auto& pat : g.patterns) {
      RefState st;
      st.net = &subject;
      st.fanout = &fanout;
      st.binding.assign(static_cast<std::size_t>(g.num_inputs()), kNoNode);
      if (!ref_match(*pat, n, true, st)) continue;
      if (std::find(st.binding.begin(), st.binding.end(), kNoNode) !=
          st.binding.end())
        continue;
      RefMatch m;
      m.gate = &g;
      m.pin_binding = std::move(st.binding);
      m.covered = std::move(st.covered);
      std::sort(m.covered.begin(), m.covered.end());
      m.covered.erase(std::unique(m.covered.begin(), m.covered.end()),
                      m.covered.end());
      bool dup = false;
      for (const RefMatch& prev : out)
        dup = dup || (prev.gate == m.gate &&
                      prev.pin_binding == m.pin_binding &&
                      prev.covered == m.covered);
      if (!dup) out.push_back(std::move(m));
    }
  }
  return out;
}

// ---- helpers ---------------------------------------------------------------

std::vector<RefMatch> table_matches(const MatchTable& t, NodeId n) {
  std::vector<RefMatch> out;
  for (std::size_t m = t.first(n); m < t.first(n) + t.count(n); ++m) {
    const auto pins = t.pins(m);
    const auto covered = t.covered(m);
    out.push_back(RefMatch{t.gate[m], {pins.begin(), pins.end()},
                           {covered.begin(), covered.end()}});
  }
  return out;
}

std::vector<RefMatch> matches_at(const Network& net, NodeId n) {
  return table_matches(match_subject(net, standard_library()), n);
}

bool has_gate(const std::vector<RefMatch>& ms, const std::string& name) {
  return std::any_of(ms.begin(), ms.end(), [&](const RefMatch& m) {
    return m.gate->name == name;
  });
}

std::string describe(const std::vector<RefMatch>& ms) {
  std::ostringstream os;
  for (const RefMatch& m : ms) {
    os << m.gate->name << "(";
    for (NodeId s : m.pin_binding) os << s << " ";
    os << "| ";
    for (NodeId s : m.covered) os << s << " ";
    os << ") ";
  }
  return os.str();
}

/// match_subject equals the oracle at every node of `net`, match for match
/// (gate, binding, covered and order), once the oracle's zero-covered
/// matches are removed.
void expect_table_equals_reference(const Network& net,
                                   const std::string& label) {
  const Library& lib = standard_library();
  const MatchTable t = match_subject(net, lib);
  ASSERT_EQ(t.node_begin.size(), net.capacity() + 1) << label;
  const std::vector<int> fanout = net.fanout_counts();
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
    std::vector<RefMatch> want = reference_find_matches(net, id, lib, fanout);
    std::erase_if(want, [](const RefMatch& m) { return m.covered.empty(); });
    const std::vector<RefMatch> got = table_matches(t, id);
    bool equal = got.size() == want.size();
    for (std::size_t i = 0; equal && i < got.size(); ++i)
      equal = got[i].gate == want[i].gate &&
              got[i].pin_binding == want[i].pin_binding &&
              got[i].covered == want[i].covered;
    EXPECT_TRUE(equal) << label << " node " << net.node(id).name
                       << "\n  table:  " << describe(got)
                       << "\n  oracle: " << describe(want);
    if (!equal) return;
  }
}

/// The three subject networks the flow maps (methods I/IV, II/V, III/VI).
std::vector<Network> subjects_of(const Network& prepared) {
  std::vector<Network> out;
  for (const Method m : {Method::kI, Method::kII, Method::kIII})
    out.push_back(
        decompose_network(prepared, decomp_options_for(m, FlowOptions{}))
            .network);
  return out;
}

// ---- unit cases ------------------------------------------------------------

TEST(Match, InverterNode) {
  Network net("inv");
  const NodeId a = net.add_pi("a");
  const NodeId i = net.add_inv(a);
  net.add_po("f", i);
  const auto ms = matches_at(net, i);
  EXPECT_TRUE(has_gate(ms, "inv1"));
  EXPECT_TRUE(has_gate(ms, "inv2"));
  EXPECT_TRUE(has_gate(ms, "inv4"));
  EXPECT_FALSE(has_gate(ms, "nand2"));
}

TEST(Match, NandNode) {
  Network net("nand");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId n = net.add_nand2(a, b);
  net.add_po("f", n);
  const auto ms = matches_at(net, n);
  EXPECT_TRUE(has_gate(ms, "nand2"));
  EXPECT_FALSE(has_gate(ms, "inv1"));
}

TEST(Match, And2AtInvOfNand) {
  Network net("and2");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId n = net.add_nand2(a, b);
  const NodeId i = net.add_inv(n);
  net.add_po("f", i);
  const auto ms = matches_at(net, i);
  EXPECT_TRUE(has_gate(ms, "and2"));
  // The AND2 match covers both subject nodes.
  for (const RefMatch& m : ms) {
    if (m.gate->name == "and2") EXPECT_EQ(m.covered.size(), 2u);
  }
}

TEST(Match, Nand3AcrossTwoLevels) {
  // NAND3 shape: NAND(a, INV(NAND(b, c))).
  Network net("nand3");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId bc = net.add_nand2(b, c);
  const NodeId ibc = net.add_inv(bc);
  const NodeId top = net.add_nand2(a, ibc);
  net.add_po("f", top);
  const auto ms = matches_at(net, top);
  EXPECT_TRUE(has_gate(ms, "nand3"));
  EXPECT_TRUE(has_gate(ms, "nand2"));  // smaller match still available
}

TEST(Match, MultiFanoutBlocksCovering) {
  // Same NAND3 shape, but the inner NAND has a second reader: the nand3
  // match would swallow a shared node and must be rejected.
  Network net("shared");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId bc = net.add_nand2(b, c);
  const NodeId ibc = net.add_inv(bc);
  const NodeId top = net.add_nand2(a, ibc);
  const NodeId other = net.add_inv(bc);  // second reader of bc
  net.add_po("f", top);
  net.add_po("g", other);
  const auto ms = matches_at(net, top);
  EXPECT_FALSE(has_gate(ms, "nand3"));
  EXPECT_TRUE(has_gate(ms, "nand2"));
}

TEST(Match, Aoi21Shape) {
  // !(a·b + c) = !(a·b)·!c = INV(NAND(NAND(a,b), INV(c))).
  Network net("aoi21");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId nab = net.add_nand2(a, b);
  const NodeId ic = net.add_inv(c);
  const NodeId x = net.add_nand2(nab, ic);
  const NodeId f = net.add_inv(x);
  net.add_po("f", f);
  const auto ms = matches_at(net, f);
  EXPECT_TRUE(has_gate(ms, "aoi21")) << describe(ms);
}

TEST(Match, PinBindingIsConsistentForLeafDag) {
  // XOR subject: a·!b + !a·b decomposed; xor2 should match with both pins
  // bound consistently. Build: u = NAND(a, INV(b)), v = NAND(INV(a), b),
  // f = NAND(u, v).
  Network net("xor");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId ia = net.add_inv(a);
  const NodeId ib = net.add_inv(b);
  const NodeId u = net.add_nand2(a, ib);
  const NodeId v = net.add_nand2(ia, b);
  const NodeId f = net.add_nand2(u, v);
  net.add_po("f", f);
  const auto ms = matches_at(net, f);
  ASSERT_TRUE(has_gate(ms, "xor2")) << describe(ms);
  for (const RefMatch& m : ms)
    if (m.gate->name == "xor2") {
      ASSERT_EQ(m.pin_binding.size(), 2u);
      EXPECT_NE(m.pin_binding[0], m.pin_binding[1]);
      for (NodeId s : m.pin_binding) EXPECT_TRUE(net.node(s).is_pi());
    }
  expect_table_equals_reference(net, "xor");
}

TEST(Match, FailedInputOrderUnbindsRepeatedPin) {
  // Every inner NAND lists its inverter fanin first, so a pattern child
  // NAND(leaf, INV(leaf)) first binds a pin of xor2 (each pin appears twice
  // in its patterns) to the inverter node, then fails on the other fanin.
  // The swapped order rebinds that pin to a primary input; it succeeds only
  // if the failed order's binding was undone.
  Network net("xor_swapped");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId ia = net.add_inv(a);
  const NodeId ib = net.add_inv(b);
  const NodeId u = net.add_nand2(ib, a);
  const NodeId v = net.add_nand2(ia, b);
  const NodeId f = net.add_nand2(u, v);
  net.add_po("f", f);
  const auto ms = matches_at(net, f);
  ASSERT_TRUE(has_gate(ms, "xor2")) << describe(ms);
  for (const RefMatch& m : ms)
    if (m.gate->name == "xor2") {
      ASSERT_EQ(m.pin_binding.size(), 2u);
      EXPECT_NE(m.pin_binding[0], m.pin_binding[1]);
      for (NodeId s : m.pin_binding) EXPECT_TRUE(net.node(s).is_pi());
      EXPECT_EQ(m.covered.size(), 5u);
    }
  expect_table_equals_reference(net, "xor_swapped");
}

TEST(Match, TableLayoutAndNoEmptyMatches) {
  // PIs have no matches, a buffer-rooted (leaf) pattern never appears, and
  // the CSR spans tile the match arrays.
  Network net("layout");
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId n = net.add_nand2(a, b);
  const NodeId i = net.add_inv(n);
  net.add_po("f", i);
  const MatchTable t = match_subject(net, standard_library());
  EXPECT_EQ(t.count(a), 0u);
  EXPECT_EQ(t.count(b), 0u);
  EXPECT_GT(t.count(n), 0u);
  EXPECT_GT(t.count(i), 0u);
  EXPECT_EQ(t.node_begin.back(), t.size());
  EXPECT_EQ(t.pin_begin.size(), t.size() + 1);
  EXPECT_EQ(t.covered_begin.size(), t.size() + 1);
  EXPECT_EQ(t.pin_begin.back(), t.pin_nodes.size());
  EXPECT_EQ(t.covered_begin.back(), t.covered_nodes.size());
  for (std::size_t m = 0; m < t.size(); ++m) {
    EXPECT_FALSE(t.covered(m).empty());
    EXPECT_NE(t.gate[m]->name, "buf2");
    EXPECT_EQ(t.pins(m).size(), t.gate[m]->pins.size());
  }
}

// Property: every match's gate function applied to its pin bindings equals
// the subject root's global function (validated by simulation).
class MatchCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(MatchCorrectness, GateFunctionEqualsSubjectFunction) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Network raw = testing::random_network(seed + 300, 5, 8, 2);
  NetworkDecompOptions d;
  Network net = decompose_network(raw, d).network;
  const MatchTable t = match_subject(net, standard_library());

  const std::size_t npis = net.pis().size();
  ASSERT_LE(npis, 12u);
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
    if (!net.node(id).is_internal()) continue;
    for (const RefMatch& m : table_matches(t, id)) {
      const auto names = m.gate->function->variables();
      // Check on 40 random assignments.
      Rng rng(seed * 97 + static_cast<std::uint64_t>(id));
      for (int trial = 0; trial < 40; ++trial) {
        std::vector<bool> pi(npis);
        for (std::size_t i = 0; i < npis; ++i) pi[i] = rng.coin();
        // Evaluate the whole subject network.
        std::vector<char> value(net.capacity(), 0);
        for (std::size_t i = 0; i < npis; ++i)
          value[static_cast<std::size_t>(net.pis()[i])] = pi[i];
        for (NodeId nid : net.topo_order()) {
          const Node& n = net.node(nid);
          if (n.kind == NodeKind::kConstant1)
            value[static_cast<std::size_t>(nid)] = 1;
          if (!n.is_internal()) continue;
          std::uint64_t assignment = 0;
          for (std::size_t i = 0; i < n.fanins.size(); ++i)
            if (value[static_cast<std::size_t>(n.fanins[i])])
              assignment |= std::uint64_t{1} << i;
          value[static_cast<std::size_t>(nid)] = n.cover.eval(assignment);
        }
        std::vector<bool> pin_values;
        for (NodeId s : m.pin_binding)
          pin_values.push_back(value[static_cast<std::size_t>(s)] != 0);
        EXPECT_EQ(m.gate->function->eval(names, pin_values),
                  value[static_cast<std::size_t>(id)] != 0)
            << "gate " << m.gate->name << " at node " << net.node(id).name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, MatchCorrectness, ::testing::Range(0, 10));

// ---- differential sweep against the oracle ---------------------------------

class MatchDifferentialSuite : public ::testing::TestWithParam<int> {};

TEST_P(MatchDifferentialSuite, TableEqualsReferenceOnEverySubject) {
  const BenchProfile& p = paper_suite()[static_cast<std::size_t>(GetParam())];
  Network net = generate_benchmark(p);
  prepare_network(net);
  const std::vector<Network> subjects = subjects_of(net);
  for (std::size_t g = 0; g < subjects.size(); ++g)
    expect_table_equals_reference(subjects[g],
                                  p.name + " subject " + std::to_string(g));
}

INSTANTIATE_TEST_SUITE_P(PaperSuite, MatchDifferentialSuite,
                         ::testing::Range(0, 17));

constexpr int kRandomSeeds = 60;

std::uint64_t base_seed() {
  if (const char* env = std::getenv("MINPOWER_VERIFY_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 20261019;  // fixed default: deterministic local runs
}

TEST(MatchDifferential, TableEqualsReferenceOnRandomSubjects) {
  const std::uint64_t base = base_seed();
  for (int i = 0; i < kRandomSeeds; ++i) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(i);
    Network net = testing::random_network(seed, 8, 24, 3);
    prepare_network(net);
    const std::vector<Network> subjects = subjects_of(net);
    for (std::size_t g = 0; g < subjects.size(); ++g)
      expect_table_equals_reference(
          subjects[g], "random_network seed " + std::to_string(seed) +
                           " subject " + std::to_string(g));
  }
}

}  // namespace
}  // namespace minpower
