#include "power/report.hpp"

#include <algorithm>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace minpower {

MappedTiming mapped_timing(const MappedNetwork& mn,
                           const PowerParams& params) {
  const Network& subject = *mn.subject;
  MappedTiming t;
  t.load.assign(subject.capacity(), 0.0);
  for (const MappedGateInst& g : mn.gates)
    for (std::size_t i = 0; i < g.pin_nodes.size(); ++i)
      t.load[static_cast<std::size_t>(g.pin_nodes[i])] += g.gate->pins[i].cap;
  for (NodeId s : mn.po_signal)
    t.load[static_cast<std::size_t>(s)] += params.po_load;

  t.arrival.assign(subject.capacity(), 0.0);
  for (std::size_t i = 0; i < subject.pis().size(); ++i)
    t.arrival[static_cast<std::size_t>(subject.pis()[i])] =
        params.pi_arrival.empty() ? 0.0 : params.pi_arrival[i];
  for (const MappedGateInst& g : mn.gates) {
    double a = 0.0;
    for (std::size_t i = 0; i < g.pin_nodes.size(); ++i) {
      const GatePin& pin = g.gate->pins[i];
      a = std::max(a,
                   pin.intrinsic +
                       pin.drive * t.load[static_cast<std::size_t>(g.root)] +
                       t.arrival[static_cast<std::size_t>(g.pin_nodes[i])]);
    }
    t.arrival[static_cast<std::size_t>(g.root)] = a;
  }
  return t;
}

MappedReport evaluate_mapped(const MappedNetwork& mn,
                             const PowerParams& params) {
  trace::Span span("eval", "power");
  span.arg("network", mn.subject->name());
  span.arg("gates", static_cast<unsigned long long>(mn.gates.size()));
  metrics::counter("power.evals").add(1);
  const Network& subject = *mn.subject;
  MappedReport rep;
  rep.num_gates = mn.gates.size();
  rep.area = mn.total_area();
  const MappedTiming t = mapped_timing(mn, params);

  // Exact switching activities of the subject functions (zero-delay model).
  const std::vector<double> activity =
      params.activities.empty()
          ? switching_activities(subject, params.style, params.pi_prob1)
          : params.activities;
  MP_CHECK(activity.size() == subject.capacity());

  // Average power: every driven net (gate outputs and PIs). Eq. 1.
  for (const MappedGateInst& g : mn.gates)
    rep.power_uw +=
        load_power_uw(t.load[static_cast<std::size_t>(g.root)],
                      activity[static_cast<std::size_t>(g.root)], params.vdd,
                      params.t_cycle);
  for (NodeId pi : subject.pis())
    rep.power_uw += load_power_uw(t.load[static_cast<std::size_t>(pi)],
                                  activity[static_cast<std::size_t>(pi)],
                                  params.vdd, params.t_cycle);

  for (NodeId s : mn.po_signal) {
    rep.po_arrival.push_back(t.arrival[static_cast<std::size_t>(s)]);
    rep.delay = std::max(rep.delay, t.arrival[static_cast<std::size_t>(s)]);
  }
  return rep;
}

}  // namespace minpower
