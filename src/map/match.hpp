#pragma once
// Structural matching of library gate patterns against a NAND2/INV subject
// graph (Figure 2 terminology: merged(n,g) and inputs(n,g)).

#include <cstdint>
#include <span>
#include <vector>

#include "library/library.hpp"
#include "netlist/network.hpp"

namespace minpower {

/// Every match of every library gate at every subject node, stored flat
/// (CSR). Node n's matches are the global indices
/// [node_begin[n], node_begin[n+1]); match m has gate `gate[m]`, the subject
/// node bound to each gate pin (`pins(m)`, pin order = Gate::pins order) and
/// merged(n,g), the subject nodes it covers with the root included
/// (`covered(m)`, sorted ascending).
struct MatchTable {
  std::vector<std::uint32_t> node_begin;  // capacity() + 1 entries
  std::vector<const Gate*> gate;          // per match
  std::vector<std::uint32_t> pin_begin;   // per match + 1, into pin_nodes
  std::vector<NodeId> pin_nodes;
  std::vector<std::uint32_t> covered_begin;  // per match + 1
  std::vector<NodeId> covered_nodes;

  std::size_t size() const { return gate.size(); }
  std::size_t first(NodeId n) const {
    return node_begin[static_cast<std::size_t>(n)];
  }
  std::size_t count(NodeId n) const {
    return node_begin[static_cast<std::size_t>(n) + 1] - first(n);
  }
  std::span<const NodeId> pins(std::size_t m) const {
    return {pin_nodes.data() + pin_begin[m], pin_begin[m + 1] - pin_begin[m]};
  }
  std::span<const NodeId> covered(std::size_t m) const {
    return {covered_nodes.data() + covered_begin[m],
            covered_begin[m + 1] - covered_begin[m]};
  }
};

/// All matches at every node of `subject`, per node in library gate order,
/// then pattern order, with duplicates of an earlier (gate, binding,
/// covered) triple at the same node dropped.
///
/// A match is admissible when every covered node other than the root has a
/// single reader inside the match (covering a multi-fanout node would force
/// logic duplication); `inputs(n,g)` — the pin bindings — may be any nodes,
/// including multi-fanout ones and PIs. Matches covering no subject node
/// (leaf-rooted patterns such as a buffer) are never admitted. Nodes other
/// than NAND2/INV have no matches.
MatchTable match_subject(const Network& subject, const Library& lib);

}  // namespace minpower
