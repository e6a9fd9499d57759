#pragma once
// Evaluation of a mapped netlist: total cell area, pin-dependent critical
// path delay (Eq. 14 with actual loads), and average power (Eq. 1 with
// exact zero-delay switching activities) — the quantities of Tables 2/3.

#include <vector>

#include "map/mapper.hpp"

namespace minpower {

struct PowerParams {
  double vdd = 5.0;
  double t_cycle = 50e-9;  // 20 MHz
  double po_load = 2.0;    // unit loads on each primary output
  CircuitStyle style = CircuitStyle::kStatic;
  std::vector<double> pi_prob1;   // empty → 0.5
  std::vector<double> pi_arrival; // empty → 0

  /// Precomputed per-subject-node activities (indexed by NodeId); empty →
  /// computed from the BDDs.
  std::vector<double> activities;

  static PowerParams from(const MapOptions& o) {
    PowerParams p;
    p.vdd = o.vdd;
    p.t_cycle = o.t_cycle;
    p.po_load = o.po_load;
    p.style = o.style;
    p.pi_prob1 = o.pi_prob1;
    p.pi_arrival = o.pi_arrival;
    p.activities = o.activities;
    return p;
  }
};

struct MappedReport {
  double area = 0.0;
  double delay = 0.0;      // ns, worst PO arrival
  double power_uw = 0.0;   // average power, micro-Watts
  std::size_t num_gates = 0;
  std::vector<double> po_arrival;
};

/// Exact loads and arrival times of a mapped netlist, per subject signal.
struct MappedTiming {
  std::vector<double> load;     // Σ reader pin caps + PO loads
  std::vector<double> arrival;  // Eq. 14 with these loads; PIs at pi_arrival
};

/// Time `mn` under `params` (po_load, pi_arrival). Gates are topo-ordered.
MappedTiming mapped_timing(const MappedNetwork& mn, const PowerParams& params);

/// Evaluate with exact loads: C(signal) = Σ reader pin caps + PO loads.
/// Power sums over every driven net (gate outputs and primary inputs).
MappedReport evaluate_mapped(const MappedNetwork& mn,
                             const PowerParams& params);

}  // namespace minpower
