#include "power/simulate.hpp"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "util/rng.hpp"

namespace minpower {

namespace {

struct Event {
  double time;
  NodeId signal;
  bool value;
  long long order;  // FIFO tie-break for determinism
  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    return order > o.order;
  }
};

}  // namespace

SimPowerReport simulate_power(const MappedNetwork& mn,
                              const SimPowerParams& params) {
  const Network& subject = *mn.subject;
  const std::size_t cap = subject.capacity();

  // Loads, for the per-(gate,pin) propagation delays.
  const std::vector<double> load = mapped_timing(mn, params.base).load;

  // Readers of each signal: (gate index, pin index).
  std::vector<std::vector<std::pair<int, int>>> readers(cap);
  for (std::size_t gi = 0; gi < mn.gates.size(); ++gi)
    for (std::size_t pi = 0; pi < mn.gates[gi].pin_nodes.size(); ++pi)
      readers[static_cast<std::size_t>(mn.gates[gi].pin_nodes[pi])]
          .emplace_back(static_cast<int>(gi), static_cast<int>(pi));

  // Cached variable-name order per gate for Expr::eval.
  std::vector<std::vector<std::string>> gate_vars;
  gate_vars.reserve(mn.gates.size());
  for (const MappedGateInst& g : mn.gates)
    gate_vars.push_back(g.gate->function->variables());

  auto gate_out = [&](std::size_t gi, const std::vector<char>& value) {
    const MappedGateInst& g = mn.gates[gi];
    std::vector<bool> in;
    in.reserve(g.pin_nodes.size());
    for (NodeId s : g.pin_nodes)
      in.push_back(value[static_cast<std::size_t>(s)] != 0);
    return g.gate->function->eval(gate_vars[gi], in);
  };

  Rng rng(params.seed);
  const std::size_t npi = subject.pis().size();
  std::vector<double> pi_p = params.base.pi_prob1;
  if (pi_p.empty()) pi_p.assign(npi, 0.5);

  std::vector<long long> transitions(cap, 0);
  std::vector<char> value(cap, 0);

  // Gate evaluation order for settling: producers before consumers. The
  // stored gate order is documented as topological, but nothing upstream
  // enforces it (hand-built or deserialized netlists may violate it), and
  // evaluating out of order silently yields wrong initial values — so
  // derive a topological order here (Kahn's algorithm over the
  // gate-reads-gate relation) and abort on combinational cycles.
  std::vector<std::size_t> eval_order;
  {
    std::vector<int> driver(cap, -1);
    for (std::size_t gi = 0; gi < mn.gates.size(); ++gi)
      driver[static_cast<std::size_t>(mn.gates[gi].root)] =
          static_cast<int>(gi);
    std::vector<int> pending(mn.gates.size(), 0);
    for (std::size_t gi = 0; gi < mn.gates.size(); ++gi)
      for (NodeId s : mn.gates[gi].pin_nodes)
        if (driver[static_cast<std::size_t>(s)] >= 0)
          ++pending[gi];
    eval_order.reserve(mn.gates.size());
    for (std::size_t gi = 0; gi < mn.gates.size(); ++gi)
      if (pending[gi] == 0) eval_order.push_back(gi);
    for (std::size_t head = 0; head < eval_order.size(); ++head) {
      const std::size_t gi = eval_order[head];
      for (const auto& [ri, pin] :
           readers[static_cast<std::size_t>(mn.gates[gi].root)]) {
        (void)pin;
        if (--pending[static_cast<std::size_t>(ri)] == 0)
          eval_order.push_back(static_cast<std::size_t>(ri));
      }
    }
    MP_CHECK_MSG(eval_order.size() == mn.gates.size(),
                 "mapped netlist has a combinational cycle");
  }

  auto settle = [&](const std::vector<bool>& pi_vals) {
    for (std::size_t i = 0; i < npi; ++i)
      value[static_cast<std::size_t>(subject.pis()[i])] = pi_vals[i] ? 1 : 0;
    for (NodeId id = 0; id < static_cast<NodeId>(cap); ++id)
      if (subject.node(id).is_const())
        value[static_cast<std::size_t>(id)] =
            subject.node(id).kind == NodeKind::kConstant1;
    for (const std::size_t gi : eval_order)
      value[static_cast<std::size_t>(mn.gates[gi].root)] =
          gate_out(gi, value) ? 1 : 0;
  };

  for (int trial = 0; trial < params.num_vector_pairs; ++trial) {
    std::vector<bool> v0(npi);
    std::vector<bool> v1(npi);
    for (std::size_t i = 0; i < npi; ++i) {
      v0[i] = rng.coin(pi_p[i]);
      v1[i] = rng.coin(pi_p[i]);
    }
    settle(v0);

    // Apply v1 at time 0 and propagate (transport delay: every scheduled
    // change that differs from the then-current value is applied).
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    long long order = 0;
    for (std::size_t i = 0; i < npi; ++i) {
      if (v1[i] != v0[i])
        queue.push(Event{0.0, subject.pis()[i], v1[i], order++});
    }
    int guard = 0;
    while (!queue.empty()) {
      const Event e = queue.top();
      queue.pop();
      auto& v = value[static_cast<std::size_t>(e.signal)];
      if ((v != 0) == e.value) continue;  // superseded change
      v = e.value ? 1 : 0;
      ++transitions[static_cast<std::size_t>(e.signal)];
      MP_CHECK_MSG(++guard < 1'000'000, "simulation did not settle");
      for (const auto& [gi, pin] : readers[static_cast<std::size_t>(e.signal)]) {
        const MappedGateInst& g = mn.gates[static_cast<std::size_t>(gi)];
        const bool out = gate_out(static_cast<std::size_t>(gi), value);
        const GatePin& p = g.gate->pins[static_cast<std::size_t>(pin)];
        const double d =
            p.intrinsic + p.drive * load[static_cast<std::size_t>(g.root)];
        queue.push(Event{e.time + d, g.root, out, order++});
      }
    }
  }

  // Average transitions → power.
  SimPowerReport rep;
  const double n = static_cast<double>(params.num_vector_pairs);
  double total_e = 0.0;
  std::size_t nets = 0;
  auto add_net = [&](NodeId s) {
    const double e = static_cast<double>(transitions[static_cast<std::size_t>(s)]) / n;
    rep.power_uw += load_power_uw(load[static_cast<std::size_t>(s)], e,
                                  params.base.vdd, params.base.t_cycle);
    total_e += e;
    ++nets;
  };
  for (const MappedGateInst& g : mn.gates) add_net(g.root);
  for (NodeId pi : subject.pis()) add_net(pi);
  rep.avg_transitions = nets ? total_e / static_cast<double>(nets) : 0.0;

  rep.zero_delay_uw = evaluate_mapped(mn, params.base).power_uw;
  rep.glitch_factor =
      rep.zero_delay_uw > 0.0 ? rep.power_uw / rep.zero_delay_uw : 1.0;
  return rep;
}

}  // namespace minpower
