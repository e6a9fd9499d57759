#pragma once
// Irredundant sum-of-products from a BDD interval (Minato–Morreale).
//
// isop(L, U) returns a cover g with L ≤ g ≤ U in which no cube is redundant
// (dropping any cube breaks L ≤ g). With L = U = f this is an irredundant
// SOP of f — the node simplification step of the technology-independent
// phase ("node simplification" in the paper's Sec. 5 and in the SIS rugged
// script our substrate mirrors).
//
// compose_cover is the inverse: the BDD of a cover over given fanin BDDs.

#include "bdd/bdd.hpp"
#include "sop/cover.hpp"

namespace minpower {

/// BDD variables index cover variables directly (var v ↦ Cube literal v);
/// all support variables must be < kMaxCubeVars.
Cover isop(BddManager& mgr, BddRef lower, BddRef upper);

/// Irredundant SOP of a function.
inline Cover isop(BddManager& mgr, BddRef f) { return isop(mgr, f, f); }

/// BDD of `cover` over `num_vars` variables, cover variable i standing for
/// the BDD `fanin(i)`: each cube ANDs its literals in variable order, then
/// the cubes are ORed in cover order. `fanin(i)` is called once per literal
/// of i, right before that literal is conjoined.
template <typename Fanin>
BddRef compose_cover(BddManager& mgr, const Cover& cover, std::size_t num_vars,
                     Fanin&& fanin) {
  BddRef r = BddManager::kFalse;
  for (const Cube& c : cover.cubes()) {
    BddRef cube = BddManager::kTrue;
    for (int i = 0; i < static_cast<int>(num_vars); ++i) {
      if (c.has_pos(i)) cube = mgr.and_(cube, fanin(i));
      if (c.has_neg(i)) cube = mgr.and_(cube, mgr.not_(fanin(i)));
    }
    r = mgr.or_(r, cube);
  }
  return r;
}

}  // namespace minpower
