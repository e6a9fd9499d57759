#pragma once
// Power-delay (or area-delay) curves: sets of non-inferior
// (arrival, cost) points per subject node (Sec. 3.1, Lemma 3.1).
//
// A point additionally records how it is realized — the match index at the
// node and the drive resistance of the matched gate — so the preorder pass
// can rebuild the mapping and the unknown-load recalculation (Sec. 3.2.3)
// can shift the point's arrival by Δload × drive. A point is a trivially
// copyable 32-byte record: curves are merged and copied wholesale.

#include <vector>

#include "util/check.hpp"

namespace minpower {

struct CurvePoint {
  double arrival = 0.0;  // at the node output, under the default load
  double cost = 0.0;     // accumulated power (Method 1) or area
  int match = -1;        // index into the node's match list (-1 for leaves)
  double drive = 0.0;    // max drive resistance R of the matched gate
};

class Curve {
 public:
  const std::vector<CurvePoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  const CurvePoint& operator[](std::size_t i) const { return points_[i]; }

  /// Insert keeping only non-inferior points; points_ stays sorted by
  /// arrival ascending (hence cost strictly descending).
  void insert(CurvePoint p);

  /// Fold a staircase (arrival strictly ascending, cost strictly
  /// descending) into the curve with one linear merge. The result is
  /// exactly what inserting the staircase's points one by one would give:
  /// on an exact (arrival, cost) tie the point already on the curve stays.
  void merge(const std::vector<CurvePoint>& staircase);

  /// Drop points approximated by the previously kept point on both axes:
  /// arrival within `epsilon_t` AND cost saving below `epsilon_c`
  /// (Sec. 3.2.1's ε-pruning). A point that is barely slower but much
  /// cheaper is kept. Endpoints (fastest and cheapest) are always kept;
  /// `epsilon_c == 0` disables pruning entirely.
  void prune(double epsilon_t, double epsilon_c);

  /// Thin the curve to at most `max_points` by keeping evenly spaced
  /// indices (always including the fastest and cheapest endpoints).
  /// Deterministic; a no-op when the curve already fits. The ε-pruning
  /// above bounds *local* redundancy, this bounds the absolute width —
  /// on deep chain-like subjects cumulative cost spread grows with depth,
  /// so unbounded curves make the mapper quadratic in depth.
  void downsample(std::size_t max_points);

  /// Index of the cheapest point with arrival ≤ `required` after shifting
  /// each point by `load_shift × point.drive`; −1 when none qualifies.
  int best_within(double required, double load_shift = 0.0) const;

  /// Index of the minimum-arrival point (−1 when empty).
  int fastest() const;
  /// Index of the minimum-cost point (−1 when empty).
  int cheapest() const;

 private:
  std::vector<CurvePoint> points_;
};

}  // namespace minpower
