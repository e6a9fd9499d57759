#include "power/resize.hpp"

#include <numeric>

namespace minpower {

std::vector<const Gate*> equivalent_cells(const Library& lib, const Gate& g) {
  std::vector<const Gate*> out;
  const auto g_vars = g.function->variables();
  const int k = g.num_inputs();
  if (k > 10) return {&g};
  for (const Gate& h : lib.gates()) {
    if (h.num_inputs() != k) continue;
    const auto h_vars = h.function->variables();
    bool equal = true;
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << k) && equal; ++m) {
      std::vector<bool> in(static_cast<std::size_t>(k));
      for (int i = 0; i < k; ++i)
        in[static_cast<std::size_t>(i)] = (m >> i) & 1;
      if (g.function->eval(g_vars, in) != h.function->eval(h_vars, in))
        equal = false;
    }
    if (equal) out.push_back(&h);
  }
  return out;
}

namespace {

bool meets_required(const MappedNetwork& mn, const PowerParams& p,
                    const std::vector<double>& po_required) {
  const std::vector<double> arrival = mapped_timing(mn, p).arrival;
  for (std::size_t i = 0; i < mn.po_signal.size(); ++i) {
    const double a = arrival[static_cast<std::size_t>(mn.po_signal[i])];
    if (a > po_required[i] + 1e-9) return false;
  }
  return true;
}

/// Power cost attributable to one gate choice: its input pins' capacitance
/// weighted by the driving signals' activities.
double gate_power_cost(const MappedGateInst& g, const PowerParams& p) {
  double cost = 0.0;
  for (std::size_t i = 0; i < g.pin_nodes.size(); ++i)
    cost += load_power_uw(
        g.gate->pins[i].cap,
        p.activities[static_cast<std::size_t>(g.pin_nodes[i])], p.vdd,
        p.t_cycle);
  return cost;
}

}  // namespace

ResizeResult downsize_gates(MappedNetwork& mn, const ResizeOptions& options) {
  // One activity pass at most: every evaluation below reads `p.activities`.
  PowerParams p = options.power;
  if (p.activities.empty())
    p.activities = switching_activities(*mn.subject, p.style, p.pi_prob1);

  ResizeResult result;
  {
    const MappedReport before = evaluate_mapped(mn, p);
    result.power_before = before.power_uw;
    result.delay_before = before.delay;
  }

  // Required times: explicit, or freeze the starting arrivals.
  std::vector<double> po_required = options.po_required;
  if (po_required.empty()) {
    const std::vector<double> arrival = mapped_timing(mn, p).arrival;
    for (NodeId s : mn.po_signal)
      po_required.push_back(arrival[static_cast<std::size_t>(s)]);
  }
  MP_CHECK(po_required.size() == mn.po_signal.size());

  for (int pass = 0; pass < options.max_passes; ++pass) {
    int swaps_this_pass = 0;
    for (std::size_t gi = 0; gi < mn.gates.size(); ++gi) {
      MappedGateInst& inst = mn.gates[gi];
      const Gate* original = inst.gate;
      const double original_cost = gate_power_cost(inst, p);
      const Gate* best = original;
      double best_cost = original_cost;
      for (const Gate* candidate : equivalent_cells(*mn.lib, *original)) {
        if (candidate == original) continue;
        inst.gate = candidate;
        const double cost = gate_power_cost(inst, p);
        if (cost + 1e-12 < best_cost &&
            meets_required(mn, p, po_required)) {
          best = candidate;
          best_cost = cost;
        }
      }
      inst.gate = best;
      if (best != original) ++swaps_this_pass;
    }
    result.swaps += swaps_this_pass;
    if (swaps_this_pass == 0) break;
  }

  const MappedReport after = evaluate_mapped(mn, p);
  result.power_after = after.power_uw;
  result.delay_after = after.delay;
  return result;
}

}  // namespace minpower
