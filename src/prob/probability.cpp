#include "prob/probability.hpp"

#include <algorithm>
#include <unordered_map>

#include "bdd/isop.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace minpower {

namespace {

/// Number PIs in the order a depth-first traversal from the POs reaches
/// them; `fanins_in_visit_order` lists a node's fanins first-visited first.
template <typename FaninOrder>
std::vector<int> dfs_pi_order(const Network& net,
                              FaninOrder fanins_in_visit_order) {
  std::unordered_map<NodeId, std::size_t> pi_index;
  for (std::size_t i = 0; i < net.pis().size(); ++i)
    pi_index[net.pis()[i]] = i;

  std::vector<int> var_of(net.pis().size(), -1);
  int next_var = 0;
  std::vector<char> visited(net.capacity(), 0);
  std::vector<NodeId> stack;
  for (const PrimaryOutput& po : net.pos()) stack.push_back(po.driver);
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (visited[static_cast<std::size_t>(id)]) continue;
    visited[static_cast<std::size_t>(id)] = 1;
    const Node& n = net.node(id);
    if (n.is_pi()) {
      var_of[pi_index.at(id)] = next_var++;
      continue;
    }
    // Push fanins in reverse so the first one in visit order is explored
    // first.
    const auto& fanins = fanins_in_visit_order(n);
    for (auto it = fanins.rbegin(); it != fanins.rend(); ++it)
      stack.push_back(*it);
  }
  // PIs unreachable from any PO get the remaining variables.
  for (int& v : var_of)
    if (v < 0) v = next_var++;
  return var_of;
}

}  // namespace

std::vector<int> dfs_pi_variable_order(const Network& net) {
  return dfs_pi_order(net, [](const Node& n) -> const std::vector<NodeId>& {
    return n.fanins;
  });
}

std::vector<int> deepest_first_pi_variable_order(const Network& net) {
  const std::vector<int> depth = net.unit_depths();
  return dfs_pi_order(net, [&depth](const Node& n) {
    std::vector<NodeId> fanins = n.fanins;
    std::stable_sort(fanins.begin(), fanins.end(), [&depth](NodeId a, NodeId b) {
      return depth[static_cast<std::size_t>(a)] >
             depth[static_cast<std::size_t>(b)];
    });
    return fanins;
  });
}

std::vector<int> pi_variable_order(const Network& net) {
  return net.bdd_pi_order().empty() ? dfs_pi_variable_order(net)
                                    : net.bdd_pi_order();
}

std::vector<int> choose_pi_variable_order(const Network& net,
                                          std::size_t node_limit) {
  trace::Span span("choose-order", "prob");
  span.arg("network", net.name());
  std::vector<int> dfs = dfs_pi_variable_order(net);
  std::vector<int> deepest = deepest_first_pi_variable_order(net);
  if (deepest == dfs) return dfs;

  // `node_limit` is this choice's own cap only where it binds below the
  // caller's: a Budget cap at or under it, or an armed bdd-limit fault,
  // propagates like any other Budget overflow.
  const Budget* budget = Budget::current();
  const bool own_cap_binds =
      budget == nullptr || (!budget->injected("bdd-limit") &&
                            budget->bdd_node_limit > node_limit);
  std::size_t dfs_nodes = 0;
  try {
    BddManager mgr(node_limit);
    const NetworkBdds bdds(mgr, net, dfs);
    dfs_nodes = mgr.num_nodes();
  } catch (const ResourceExhausted& e) {
    if (e.site() != "bdd-limit" || !own_cap_binds) throw;
    span.arg("order", "dfs-over-cap");
    return dfs;
  }
  // Deepest-first wins iff it builds in at most the DFS node count. The DFS
  // build fit under every cap in force, so a node-limit hit here is this
  // cap's own.
  bool deepest_fits = false;
  try {
    BddManager mgr(dfs_nodes);
    const NetworkBdds bdds(mgr, net, deepest);
    deepest_fits = mgr.num_nodes() <= dfs_nodes;
  } catch (const ResourceExhausted& e) {
    if (e.site() != "bdd-limit") throw;
  }
  span.arg("order", deepest_fits ? "deepest-first" : "dfs");
  return deepest_fits ? deepest : dfs;
}

NetworkBdds::NetworkBdds(BddManager& mgr, const Network& net)
    : NetworkBdds(mgr, net, pi_variable_order(net)) {}

NetworkBdds::NetworkBdds(BddManager& mgr, const Network& net,
                         std::vector<int> pi_var_order)
    : mgr_(mgr), pi_var_order_(std::move(pi_var_order)) {
  MP_CHECK(pi_var_order_.size() == net.pis().size());
  refs_.assign(net.capacity(), BddManager::kFalse);
  std::unordered_map<NodeId, int> pi_var;
  for (std::size_t i = 0; i < net.pis().size(); ++i)
    pi_var[net.pis()[i]] = pi_var_order_[i];

  for (NodeId id : net.topo_order()) {
    budget_checkpoint("activity");
    const Node& n = net.node(id);
    BddRef r = BddManager::kFalse;
    switch (n.kind) {
      case NodeKind::kPrimaryInput:
        r = mgr_.var(pi_var.at(id));
        break;
      case NodeKind::kConstant0:
        r = BddManager::kFalse;
        break;
      case NodeKind::kConstant1:
        r = BddManager::kTrue;
        break;
      case NodeKind::kInternal:
        // Compose the local SOP over global fanin BDDs.
        r = compose_cover(mgr_, n.cover, n.fanins.size(), [&](int i) {
          const NodeId fanin = n.fanins[static_cast<std::size_t>(i)];
          return refs_[static_cast<std::size_t>(fanin)];
        });
        break;
      case NodeKind::kDead:
        continue;
    }
    refs_[static_cast<std::size_t>(id)] = r;
  }
}

std::vector<double> signal_probabilities(const Network& net,
                                         std::vector<double> pi_prob1,
                                         ActivityPassStats* stats) {
  if (pi_prob1.empty()) pi_prob1.assign(net.pis().size(), 0.5);
  MP_CHECK(pi_prob1.size() == net.pis().size());
  trace::Span span("activity", "prob");
  span.arg("network", net.name());
  metrics::counter("activity.passes").add(1);
  BddManager mgr;
  std::vector<double> by_var;
  std::vector<NodeId> live_ids;
  std::vector<BddRef> live_refs;
  live_ids.reserve(net.capacity());
  live_refs.reserve(net.capacity());
  {
    trace::Span build("activity.build", "prob");
    const NetworkBdds bdds(mgr, net);
    by_var = bdds.to_variable_order(pi_prob1);
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      if (net.node(id).is_dead()) continue;
      live_ids.push_back(id);
      live_refs.push_back(bdds.of(id));
    }
  }
  if (stats) stats->bdd_nodes = mgr.num_nodes();
  span.arg("bdd_nodes", static_cast<unsigned long long>(mgr.num_nodes()));
  // One batch traversal with a shared memo: subgraphs common to many node
  // functions are walked once per pass instead of once per node. Values are
  // bit-identical to per-node probability() calls.
  std::vector<double> probs;
  {
    trace::Span traverse("activity.traverse", "prob");
    probs = mgr.probabilities(live_refs, by_var);
  }
  std::vector<double> p(net.capacity(), 0.0);
  for (std::size_t i = 0; i < live_ids.size(); ++i)
    p[static_cast<std::size_t>(live_ids[i])] = probs[i];
  metrics::counter("activity.nodes").add(live_ids.size());
  return p;
}

std::vector<double> switching_activities(const Network& net,
                                         CircuitStyle style,
                                         std::vector<double> pi_prob1,
                                         ActivityPassStats* stats) {
  std::vector<double> p =
      signal_probabilities(net, std::move(pi_prob1), stats);
  for (double& x : p) x = switching_activity(x, style);
  return p;
}

std::vector<double> monte_carlo_activities(const Network& net,
                                           CircuitStyle style,
                                           std::vector<double> pi_prob1,
                                           int samples, std::uint64_t seed) {
  MP_CHECK(samples > 0);
  trace::Span span("mc-activity", "prob");
  span.arg("network", net.name());
  span.arg("samples", samples);
  metrics::counter("activity.mc_passes").add(1);
  const std::size_t n = net.pis().size();
  if (pi_prob1.empty()) pi_prob1.assign(n, 0.5);
  MP_CHECK(pi_prob1.size() == n);

  const std::vector<NodeId> order = net.topo_order();
  std::vector<char> value(net.capacity(), 0);

  Rng rng(seed);
  std::vector<double> tally(net.capacity(), 0.0);
  std::vector<char> first(net.capacity(), 0);
  for (int s = 0; s < samples; ++s) {
    for (std::size_t i = 0; i < n; ++i)
      value[static_cast<std::size_t>(net.pis()[i])] = rng.coin(pi_prob1[i]);
    net.simulate(order, value);
    if (style == CircuitStyle::kStatic) {
      // Vector-pair sampling: a second independent vector per sample and
      // count value changes, matching E = P(0→1) + P(1→0) directly.
      first = value;
      for (std::size_t i = 0; i < n; ++i)
        value[static_cast<std::size_t>(net.pis()[i])] = rng.coin(pi_prob1[i]);
      net.simulate(order, value);
    }
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
      if (net.node(id).is_dead()) continue;
      const std::size_t k = static_cast<std::size_t>(id);
      switch (style) {
        case CircuitStyle::kStatic:
          tally[k] += value[k] != first[k] ? 1.0 : 0.0;
          break;
        case CircuitStyle::kDynamicP:
          tally[k] += value[k] ? 1.0 : 0.0;
          break;
        case CircuitStyle::kDynamicN:
          tally[k] += value[k] ? 0.0 : 1.0;
          break;
      }
    }
  }
  for (double& x : tally) x /= samples;
  return tally;
}

double total_internal_activity(const Network& net, CircuitStyle style,
                               std::vector<double> pi_prob1,
                               bool include_pis) {
  const std::vector<double> e =
      switching_activities(net, style, std::move(pi_prob1));
  double total = 0.0;
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
    const Node& n = net.node(id);
    if (n.is_internal() || (include_pis && n.is_pi()))
      total += e[static_cast<std::size_t>(id)];
  }
  return total;
}

bool networks_equivalent(const Network& a, const Network& b) {
  if (a.pis().size() != b.pis().size()) return false;
  if (a.pos().size() != b.pos().size()) return false;

  BddManager mgr;
  const NetworkBdds a_bdds(mgr, a);

  // Give each PI of b the variable of a's PI with the same name.
  std::unordered_map<std::string, int> a_pi_var;
  for (std::size_t i = 0; i < a.pis().size(); ++i)
    a_pi_var[a.node(a.pis()[i]).name] = a_bdds.pi_variable(i);
  std::vector<int> b_order;
  b_order.reserve(b.pis().size());
  for (NodeId pi : b.pis()) {
    const auto it = a_pi_var.find(b.node(pi).name);
    if (it == a_pi_var.end()) return false;  // PI name mismatch
    b_order.push_back(it->second);
  }
  const NetworkBdds b_bdds(mgr, b, std::move(b_order));

  // Match POs by name.
  std::unordered_map<std::string, NodeId> b_po;
  for (const PrimaryOutput& po : b.pos()) b_po[po.name] = po.driver;
  for (const PrimaryOutput& po : a.pos()) {
    const auto it = b_po.find(po.name);
    if (it == b_po.end()) return false;
    if (a_bdds.of(po.driver) != b_bdds.of(it->second)) return false;
  }
  return true;
}

}  // namespace minpower
