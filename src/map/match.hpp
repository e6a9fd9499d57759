#pragma once
// Structural matching of library gate patterns against a NAND2/INV subject
// graph (Figure 2 terminology: merged(n,g) and inputs(n,g)).

#include <vector>

#include "library/library.hpp"
#include "netlist/network.hpp"

namespace minpower {

struct Match {
  const Gate* gate = nullptr;
  /// Subject node bound to each gate pin (pin order = Gate::pins order).
  std::vector<NodeId> pin_binding;
  /// merged(n,g): subject nodes covered by the match, root included.
  std::vector<NodeId> covered;
};

/// All matches of library gates at subject node `n`.
///
/// A match is admissible when every covered node other than the root has a
/// single reader inside the match (covering a multi-fanout node would force
/// logic duplication); `inputs(n,g)` — the pin bindings — may be any nodes,
/// including multi-fanout ones and PIs. `fanout` is
/// `subject.fanout_counts()`, computed once per pass by the caller.
std::vector<Match> find_matches(const Network& subject, NodeId n,
                                const Library& lib,
                                const std::vector<int>& fanout);

}  // namespace minpower
