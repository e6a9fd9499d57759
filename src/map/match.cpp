#include "map/match.hpp"

#include <algorithm>

namespace minpower {

namespace {

struct MatchState {
  const Network* net = nullptr;
  const std::vector<int>* fanout = nullptr;  // Network::fanout_counts()
  std::vector<NodeId> binding;   // per pin
  std::vector<NodeId> covered;   // internal nodes consumed (excluding root)
};

/// Try to match `pat` rooted at subject `node`. `is_root` differentiates the
/// match root (fanout unconstrained) from interior nodes (must be exclusive
/// to the match).
bool match_rec(const Pattern& pat, NodeId node, bool is_root, MatchState& st) {
  const Network& net = *st.net;
  if (pat.kind == Pattern::Kind::kLeaf) {
    NodeId& slot = st.binding[static_cast<std::size_t>(pat.pin)];
    if (slot == kNoNode) {
      slot = node;
      return true;
    }
    return slot == node;  // leaf-DAG patterns: repeated pin must rebind same
  }
  // Interior subject nodes consumed by the pattern must not feed anything
  // outside the match.
  if (!is_root && (*st.fanout)[static_cast<std::size_t>(node)] != 1)
    return false;
  if (pat.kind == Pattern::Kind::kInv) {
    if (!net.is_inv(node)) return false;
    st.covered.push_back(node);
    return match_rec(*pat.child[0], net.node(node).fanins[0], false, st);
  }
  // NAND: try both input orders.
  if (!net.is_nand2(node)) return false;
  st.covered.push_back(node);
  const NodeId a = net.node(node).fanins[0];
  const NodeId b = net.node(node).fanins[1];
  const MatchState saved = st;
  if (match_rec(*pat.child[0], a, false, st) &&
      match_rec(*pat.child[1], b, false, st))
    return true;
  st = saved;  // snapshot already contains `node`
  if (match_rec(*pat.child[0], b, false, st) &&
      match_rec(*pat.child[1], a, false, st))
    return true;
  st = saved;
  return false;
}

}  // namespace

std::vector<Match> find_matches(const Network& subject, NodeId n,
                                const Library& lib,
                                const std::vector<int>& fanout) {
  std::vector<Match> out;
  if (!subject.node(n).is_internal()) return out;
  for (const Gate& g : lib.gates()) {
    for (const auto& pat : g.patterns) {
      MatchState st;
      st.net = &subject;
      st.fanout = &fanout;
      st.binding.assign(static_cast<std::size_t>(g.num_inputs()), kNoNode);
      if (!match_rec(*pat, n, true, st)) continue;
      // All pins must be bound (patterns mention every pin by construction,
      // but guard anyway).
      if (std::find(st.binding.begin(), st.binding.end(), kNoNode) !=
          st.binding.end())
        continue;
      Match m;
      m.gate = &g;
      m.pin_binding = std::move(st.binding);
      m.covered = std::move(st.covered);
      std::sort(m.covered.begin(), m.covered.end());
      m.covered.erase(std::unique(m.covered.begin(), m.covered.end()),
                      m.covered.end());
      // Deduplicate identical (gate, binding) pairs arising from several
      // patterns of the same gate.
      bool dup = false;
      for (const Match& prev : out)
        if (prev.gate == m.gate && prev.pin_binding == m.pin_binding &&
            prev.covered == m.covered) {
          dup = true;
          break;
        }
      if (!dup) out.push_back(std::move(m));
    }
  }
  return out;
}

}  // namespace minpower
