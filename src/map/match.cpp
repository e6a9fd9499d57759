#include "map/match.hpp"

#include <algorithm>

namespace minpower {

namespace {

enum class NodeClass : std::uint8_t { kOther, kInv, kNand };

/// One pattern match in progress. Failed branches roll back through an undo
/// trail (covered size plus the pins bound so far) instead of copying the
/// state, so a repeated pin of a leaf-DAG pattern (xor2, mux21) bound by a
/// failed NAND input order is unbound before the swapped order is tried.
class Matcher {
 public:
  Matcher(const Network& net, const Library& lib)
      : net_(net), fanout_(net.fanout_counts()), cls_(net.capacity()) {
    for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id)
      cls_[static_cast<std::size_t>(id)] =
          net.is_inv(id)     ? NodeClass::kInv
          : net.is_nand2(id) ? NodeClass::kNand
                             : NodeClass::kOther;
    std::size_t max_pins = 0;
    for (const Gate& g : lib.gates())
      max_pins = std::max(max_pins, g.pins.size());
    binding_.assign(max_pins, kNoNode);
  }

  NodeClass cls(NodeId id) const { return cls_[static_cast<std::size_t>(id)]; }

  /// Matches `pat` rooted at `n`; on success `binding()` and `covered()`
  /// hold the match until `reset()`.
  bool match_root(const Pattern& pat, NodeId n) { return match(pat, n, true); }

  std::span<const NodeId> binding(int num_pins) const {
    return {binding_.data(), static_cast<std::size_t>(num_pins)};
  }
  /// Covered nodes, sorted and deduplicated in place.
  std::span<const NodeId> covered() {
    std::sort(covered_.begin(), covered_.end());
    covered_.erase(std::unique(covered_.begin(), covered_.end()),
                   covered_.end());
    return covered_;
  }

  void reset() { undo(0, 0); }

 private:
  /// `is_root` differentiates the match root (fanout unconstrained) from
  /// interior nodes (must be exclusive to the match). On failure the caller
  /// rolls back to its own marks.
  bool match(const Pattern& pat, NodeId node, bool is_root) {
    if (pat.kind == Pattern::Kind::kLeaf) {
      NodeId& slot = binding_[static_cast<std::size_t>(pat.pin)];
      if (slot == kNoNode) {
        slot = node;
        bound_.push_back(pat.pin);
        return true;
      }
      return slot == node;  // leaf-DAG patterns: repeated pin must rebind same
    }
    // Interior subject nodes consumed by the pattern must not feed anything
    // outside the match.
    if (!is_root && fanout_[static_cast<std::size_t>(node)] != 1) return false;
    const std::vector<NodeId>& fanins = net_.node(node).fanins;
    if (pat.kind == Pattern::Kind::kInv) {
      if (cls(node) != NodeClass::kInv) return false;
      covered_.push_back(node);
      return match(*pat.child[0], fanins[0], false);
    }
    // NAND: try both input orders.
    if (cls(node) != NodeClass::kNand) return false;
    covered_.push_back(node);
    const std::size_t covered_mark = covered_.size();
    const std::size_t bound_mark = bound_.size();
    if (match(*pat.child[0], fanins[0], false) &&
        match(*pat.child[1], fanins[1], false))
      return true;
    undo(covered_mark, bound_mark);
    return match(*pat.child[0], fanins[1], false) &&
           match(*pat.child[1], fanins[0], false);
  }

  void undo(std::size_t covered_mark, std::size_t bound_mark) {
    covered_.resize(covered_mark);
    while (bound_.size() > bound_mark) {
      binding_[static_cast<std::size_t>(bound_.back())] = kNoNode;
      bound_.pop_back();
    }
  }

  const Network& net_;
  const std::vector<int> fanout_;  // Network::fanout_counts()
  std::vector<NodeClass> cls_;
  std::vector<NodeId> binding_;  // per pin
  std::vector<int> bound_;       // pins bound so far, in binding order
  std::vector<NodeId> covered_;  // nodes consumed, root first
};

bool root_fits(Pattern::Kind root, NodeClass node) {
  return (root == Pattern::Kind::kInv && node == NodeClass::kInv) ||
         (root == Pattern::Kind::kNand && node == NodeClass::kNand);
}

bool same(std::span<const NodeId> a, std::span<const NodeId> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

MatchTable match_subject(const Network& subject, const Library& lib) {
  Matcher matcher(subject, lib);
  MatchTable t;
  t.node_begin.reserve(subject.capacity() + 1);
  t.pin_begin.push_back(0);
  t.covered_begin.push_back(0);
  for (NodeId n = 0; n < static_cast<NodeId>(subject.capacity()); ++n) {
    t.node_begin.push_back(static_cast<std::uint32_t>(t.size()));
    const NodeClass cls = matcher.cls(n);
    if (cls == NodeClass::kOther) continue;
    for (const Gate& g : lib.gates()) {
      const std::size_t gate_first = t.size();
      for (const auto& pat : g.patterns) {
        // A leaf-rooted pattern covers nothing; a root of the other kind
        // fails at once.
        if (!root_fits(pat->kind, cls)) continue;
        if (matcher.match_root(*pat, n)) {
          const std::span<const NodeId> binding =
              matcher.binding(g.num_inputs());
          // Patterns mention every pin by construction; guard anyway.
          if (std::find(binding.begin(), binding.end(), kNoNode) ==
              binding.end()) {
            const std::span<const NodeId> covered = matcher.covered();
            // Several patterns of one gate can give the same match.
            bool dup = false;
            for (std::size_t m = gate_first; m < t.size() && !dup; ++m)
              dup = same(t.pins(m), binding) && same(t.covered(m), covered);
            if (!dup) {
              t.gate.push_back(&g);
              t.pin_nodes.insert(t.pin_nodes.end(), binding.begin(),
                                 binding.end());
              t.pin_begin.push_back(
                  static_cast<std::uint32_t>(t.pin_nodes.size()));
              t.covered_nodes.insert(t.covered_nodes.end(), covered.begin(),
                                     covered.end());
              t.covered_begin.push_back(
                  static_cast<std::uint32_t>(t.covered_nodes.size()));
            }
          }
        }
        matcher.reset();
      }
    }
  }
  t.node_begin.push_back(static_cast<std::uint32_t>(t.size()));
  return t;
}

}  // namespace minpower
