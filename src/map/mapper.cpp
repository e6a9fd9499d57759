#include "map/mapper.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/budget.hpp"

namespace minpower {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct InputCand {
  double t;      // contribution to the node's output arrival
  double cost;   // accumulated cost if this input point is chosen
};

}  // namespace

MapResult map_network(const Network& subject, const Library& lib,
                      const MapOptions& options) {
  trace::Span span("map", "map");
  span.arg("network", subject.name());
  metrics::counter("map.passes").add(1);
  subject.check();
  for (NodeId id = 0; id < static_cast<NodeId>(subject.capacity()); ++id) {
    const Node& n = subject.node(id);
    if (n.is_internal())
      MP_CHECK_MSG(subject.is_nand2(id) || subject.is_inv(id),
                   "mapper requires a NAND2/INV subject network");
  }

  const std::vector<double> activity =
      options.activities.empty()
          ? switching_activities(subject, options.style, options.pi_prob1)
          : options.activities;
  MP_CHECK(activity.size() == subject.capacity());
  const double c_def = lib.default_load();
  const std::vector<NodeId> topo = subject.topo_order();

  MapResult result;
  std::size_t points_pruned = 0;
  std::vector<Curve> curve(subject.capacity());

  const std::vector<int> fanout = subject.fanout_counts();
  // Method 1 (Eq. 15): charge each input's output-load power at the pin
  // that reads it; the fanout-edge term is never divided (Sec. 3.1
  // discussion).
  const bool charge_load = options.objective == MapObjective::kPower &&
                           options.accounting == PowerAccounting::kMethod1;

  // Scratch reused across matches/nodes: the inner loop runs millions of
  // times per pass, so per-match allocations dominate otherwise.
  std::vector<std::vector<InputCand>> cands;
  std::vector<std::size_t> next_cand;
  std::vector<CurvePoint> staircase;

  MatchTable matches;
  {
    trace::Span match_span("map.match", "map");
    matches = match_subject(subject, lib);
  }

  // ---- postorder: power-delay / area-delay curves --------------------------
  {
    trace::Span curves_span("map.curves", "map");
    for (NodeId id : topo) {
      budget_checkpoint("map");
      const Node& n = subject.node(id);
      if (n.is_pi() || n.is_const()) {
        CurvePoint p;
        if (n.is_pi()) {
          const auto it =
              std::find(subject.pis().begin(), subject.pis().end(), id);
          const std::size_t pi_index =
              static_cast<std::size_t>(it - subject.pis().begin());
          p.arrival = options.pi_arrival.empty() ? 0.0
                                                 : options.pi_arrival[pi_index];
        }
        curve[static_cast<std::size_t>(id)].insert(p);
        continue;
      }

      const std::size_t first_match = matches.first(id);
      const std::size_t num_matches = matches.count(id);
      MP_CHECK_MSG(num_matches != 0,
                   "no match at subject node (library too small)");
      result.total_matches += num_matches;
      // Per-node registry lookups are too hot for the inner loop; accumulate
      // locally and flush once per pass (handles stay valid across reset()).
      static metrics::Histogram& matches_per_node =
          metrics::histogram("map.matches_per_node");
      matches_per_node.record(num_matches);

      Curve& out = curve[static_cast<std::size_t>(id)];
      for (std::size_t mi = 0; mi < num_matches; ++mi) {
        const std::size_t m = first_match + mi;
        const Gate& gate = *matches.gate[m];
        const std::span<const NodeId> binding = matches.pins(m);
        const std::vector<GatePin>& pins = gate.pins;
        const int k = gate.num_inputs();

        // Candidate (t, cost) staircase per input: every input point, sorted by
        // t, keeping only those cheaper than every faster one. The cheapest
        // candidate with t <= T is then the last one at or before T.
        if (cands.size() < static_cast<std::size_t>(k))
          cands.resize(static_cast<std::size_t>(k));
        for (int i = 0; i < k; ++i) {
          const GatePin& pin = pins[static_cast<std::size_t>(i)];
          const NodeId s = binding[static_cast<std::size_t>(i)];
          const Curve& in = curve[static_cast<std::size_t>(s)];
          MP_CHECK(!in.empty());
          const double load_shift = pin.cap - c_def;
          const int fo = fanout[static_cast<std::size_t>(s)];
          const bool divide = options.dag == DagHeuristic::kFanoutDivision &&
                              subject.node(s).is_internal() && fo > 1;
          const double load_uw =
              charge_load ? load_power_uw(pin.cap,
                                          activity[static_cast<std::size_t>(s)],
                                          options.vdd, options.t_cycle)
                          : 0.0;
          auto& list = cands[static_cast<std::size_t>(i)];
          list.clear();
          for (const CurvePoint& p : in.points()) {
            InputCand c;
            // Timing recalculation (Sec. 3.2.3): the input now drives this
            // pin's capacitance instead of the default load.
            c.t = pin.intrinsic + pin.drive * c_def +
                  (p.arrival + load_shift * p.drive);
            c.cost = divide ? p.cost / fo : p.cost;
            if (charge_load) c.cost += load_uw;
            list.push_back(c);
          }
          const auto by_t_then_cost = [](const InputCand& a,
                                         const InputCand& b) {
            return a.t < b.t || (a.t == b.t && a.cost < b.cost);
          };
          if (!std::is_sorted(list.begin(), list.end(), by_t_then_cost))
            std::sort(list.begin(), list.end(), by_t_then_cost);
          std::size_t kept = 0;
          for (const InputCand& c : list)
            if (kept == 0 || c.cost < list[kept - 1].cost) list[kept++] = c;
          list.resize(kept);
        }

        // k-way sweep over the distinct candidate t (every output arrival
        // breakpoint), one cursor per input. The first feasible breakpoint is
        // where the slowest input's fastest candidate arrives. The cost sum
        // always runs gate term, pin 0, ..., pin k-1: floating-point addition
        // is not associative, and QoR is locked bit-exact to the baseline.
        double base =
            options.objective == MapObjective::kArea ? gate.area : 0.0;
        if (options.objective == MapObjective::kPower &&
            options.accounting == PowerAccounting::kMethod2) {
          // Method 2 (Eq. 16): the node's own output power with the default
          // (unknown) load; inherits the fanout division of its readers.
          base += load_power_uw(c_def, activity[static_cast<std::size_t>(id)],
                                options.vdd, options.t_cycle);
        }
        const double drive = gate.max_drive();
        next_cand.assign(static_cast<std::size_t>(k), 0);
        double t = cands[0].front().t;
        for (int i = 1; i < k; ++i)
          t = std::max(t, cands[static_cast<std::size_t>(i)].front().t);
        staircase.clear();
        for (;;) {
          double cost = base;
          double next_t = kInf;
          bool more = false;
          for (int i = 0; i < k; ++i) {
            const auto& list = cands[static_cast<std::size_t>(i)];
            std::size_t& j = next_cand[static_cast<std::size_t>(i)];
            while (j < list.size() && list[j].t <= t) ++j;
            cost += list[j - 1].cost;
            if (j < list.size()) {
              next_t = std::min(next_t, list[j].t);
              more = true;
            }
          }
          // Only points cheaper than every faster one of this match can
          // survive on the node's curve.
          if (staircase.empty() || cost < staircase.back().cost)
            staircase.push_back(
                CurvePoint{t, cost, static_cast<int>(mi), drive});
          if (!more) break;
          t = next_t;
        }
        out.merge(staircase);
      }
      const std::size_t before_prune = out.size();
      out.prune(options.epsilon_t, options.epsilon_c);
      if (options.max_curve_points != 0)
        out.downsample(options.max_curve_points);
      MP_CHECK(!out.empty());
      result.total_curve_points += out.size();
      points_pruned += before_prune - out.size();
      if (out.size() > result.max_curve_points)
        result.max_curve_points = out.size();
    }
  }
  metrics::counter("map.match_attempts").add(result.total_matches);
  metrics::counter("map.curve_points_kept").add(result.total_curve_points);
  metrics::counter("map.curve_points_pruned").add(points_pruned);
  metrics::gauge("map.curve_points_max").record_max(result.max_curve_points);

  // ---- required times at the primary outputs -------------------------------
  trace::Span select_span("map.select", "map");
  std::vector<double> load(subject.capacity(), 0.0);  // committed loads
  for (const PrimaryOutput& po : subject.pos())
    load[static_cast<std::size_t>(po.driver)] += options.po_load;

  std::vector<double> required(subject.capacity(), kInf);
  result.po_required_used.resize(subject.pos().size(), kInf);
  for (std::size_t j = 0; j < subject.pos().size(); ++j) {
    const NodeId d = subject.pos()[j].driver;
    const Curve& c = curve[static_cast<std::size_t>(d)];
    double req = kInf;
    if (!options.po_required.empty()) {
      req = options.po_required[j];
    } else if (options.policy != RequiredTimePolicy::kUnconstrained) {
      // Fastest achievable arrival at this PO, accounting for the PO load.
      const double shift = load[static_cast<std::size_t>(d)] - c_def;
      double tmin = kInf;
      for (std::size_t i = 0; i < c.size(); ++i)
        tmin = std::min(tmin, c[i].arrival + shift * c[i].drive);
      req = options.policy == RequiredTimePolicy::kMinDelay
                ? tmin
                : tmin * options.relax_factor;
    }
    result.po_required_used[j] = req;
    auto& r = required[static_cast<std::size_t>(d)];
    r = std::min(r, req);
  }

  // ---- preorder (reverse-topological) gate selection ------------------------
  // Readers are selected before their inputs, so by the time a node is
  // selected every committed pin load on it is known exactly — the
  // incremental load recalculation of Sec. 3.3.
  std::vector<char> needed(subject.capacity(), 0);
  std::vector<int> chosen_point(subject.capacity(), -1);
  for (const PrimaryOutput& po : subject.pos())
    needed[static_cast<std::size_t>(po.driver)] = 1;

  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId id = *it;
    if (!needed[static_cast<std::size_t>(id)]) continue;
    const Node& n = subject.node(id);
    if (!n.is_internal()) continue;

    const Curve& c = curve[static_cast<std::size_t>(id)];
    const double shift = load[static_cast<std::size_t>(id)] - c_def;
    int idx = c.best_within(required[static_cast<std::size_t>(id)], shift);
    if (idx < 0) {
      // Timing infeasible: take the fastest realization.
      idx = 0;
      double best = kInf;
      for (std::size_t i = 0; i < c.size(); ++i) {
        const double t = c[i].arrival + shift * c[i].drive;
        if (t < best) {
          best = t;
          idx = static_cast<int>(i);
        }
      }
    }
    chosen_point[static_cast<std::size_t>(id)] = idx;

    const CurvePoint& p = c[static_cast<std::size_t>(idx)];
    const std::size_t m = matches.first(id) + static_cast<std::size_t>(p.match);
    const std::span<const NodeId> binding = matches.pins(m);
    const std::vector<GatePin>& pins = matches.gate[m]->pins;
    for (std::size_t i = 0; i < binding.size(); ++i) {
      const NodeId s = binding[i];
      needed[static_cast<std::size_t>(s)] = 1;
      load[static_cast<std::size_t>(s)] += pins[i].cap;
      const double req_i = required[static_cast<std::size_t>(id)] -
                           pins[i].intrinsic -
                           pins[i].drive * load[static_cast<std::size_t>(id)];
      auto& r = required[static_cast<std::size_t>(s)];
      r = std::min(r, req_i);
    }
  }

  // ---- emit the mapped netlist ----------------------------------------------
  MappedNetwork& mn = result.mapped;
  mn.subject = &subject;
  mn.lib = &lib;
  for (NodeId id : topo) {
    if (!needed[static_cast<std::size_t>(id)]) continue;
    if (chosen_point[static_cast<std::size_t>(id)] < 0) continue;
    const Curve& c = curve[static_cast<std::size_t>(id)];
    const CurvePoint& p =
        c[static_cast<std::size_t>(chosen_point[static_cast<std::size_t>(id)])];
    const std::size_t m = matches.first(id) + static_cast<std::size_t>(p.match);
    const std::span<const NodeId> binding = matches.pins(m);
    MappedGateInst inst;
    inst.gate = matches.gate[m];
    inst.root = id;
    inst.pin_nodes.assign(binding.begin(), binding.end());
    mn.gates.push_back(std::move(inst));
  }
  for (const PrimaryOutput& po : subject.pos())
    mn.po_signal.push_back(po.driver);
  mn.check();
  span.arg("matches", static_cast<unsigned long long>(result.total_matches));
  span.arg("curve_points",
           static_cast<unsigned long long>(result.total_curve_points));
  return result;
}

}  // namespace minpower
