#include "flow/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_map>

#include "decomp/package_merge.hpp"
#include "prob/probability.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/budget.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"

namespace minpower {

namespace {

constexpr Method kMethods[6] = {Method::kI,  Method::kII, Method::kIII,
                                Method::kIV, Method::kV,  Method::kVI};

/// Decomposition group of a method: I/IV → 0 (balanced), II/V → 1
/// (MINPOWER), III/VI → 2 (BH-MINPOWER).
std::size_t group_of(Method m) {
  switch (m) {
    case Method::kI:
    case Method::kIV:
      return 0;
    case Method::kII:
    case Method::kV:
      return 1;
    case Method::kIII:
    case Method::kVI:
      return 2;
  }
  return 0;
}

/// A representative method per group, used to derive the (identical)
/// decomposition options the pair shares.
constexpr Method kGroupMethod[3] = {Method::kI, Method::kII, Method::kIII};

/// One decomposed subject network shared by a method pair — the stage-1
/// product.
struct DecompGroup {
  NetworkDecompResult nd;
  std::vector<double> activities;
  ActivityPassStats astats;
  double decomp_ms = 0.0;
  double activity_ms = 0.0;
  TaskStatus status;
  int exact_fallbacks = 0;
};

/// Per-task budget: FlowOptions limits + fault injections armed against
/// this task's deterministic ordinal.
Budget make_budget(const FlowOptions& flow,
                   const std::vector<FaultInjection>& injections, long ordinal,
                   std::string label) {
  Budget b;
  b.bdd_node_limit = flow.bdd_node_limit;
  if (flow.task_deadline_ms > 0.0)
    b.deadline = Budget::Clock::now() +
                 std::chrono::duration_cast<Budget::Clock::duration>(
                     std::chrono::duration<double, std::milli>(
                         flow.task_deadline_ms));
  b.step_limit = flow.task_step_limit;
  b.ordinal = ordinal;
  b.label = std::move(label);
  b.arm(injections);
  return b;
}

/// Structured reason string for a blown budget: leads with the stable site
/// identifier and the BDD-cap watermark that was active when the limit
/// fired, so flow reports (and the sharded sidecar) show *which* limit at
/// *what* setting killed the task without parsing free-form text.
std::string exhausted_reason(const ResourceExhausted& e,
                             std::size_t bdd_cap) {
  return "resource-exhausted site=" + e.site() +
         " bdd_limit=" + std::to_string(bdd_cap) + ": " + e.what();
}

/// Whole lines only, under one mutex: concurrent tasks never interleave
/// partial status output.
void emit_status_line(const std::string& line) {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  std::fputs(line.c_str(), stderr);
}

/// Scope guard that reports a task's final status once its slot has been
/// written — including the early-return failure paths.
struct StatusLine {
  bool enabled;
  const char* stage;
  const std::string& label;
  const TaskStatus& status;
  ~StatusLine() {
    if (!enabled) return;
    std::string line = "[flow] ";
    line += stage;
    line += ' ';
    line += label;
    line += ' ';
    line += task_state_name(status.state);
    if (status.retries > 0) line += " retries=" + std::to_string(status.retries);
    for (const std::string& f : status.fallbacks) line += " fallback=" + f;
    if (!status.reason.empty()) line += " (" + status.reason + ")";
    line += '\n';
    emit_status_line(line);
  }
};

std::uint64_t us_since(std::chrono::steady_clock::time_point t0,
                       std::chrono::steady_clock::time_point t1) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
  return us > 0 ? static_cast<std::uint64_t>(us) : 0;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Run fn(0..n-1) across `threads` workers. Tasks are claimed from an
/// atomic counter; each task writes only its own output slot, so results
/// are independent of the interleaving.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  if (threads > n) threads = static_cast<unsigned>(n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

/// Work-unit key: structural hash ⊕ option fingerprint ⊕ a work-unit tag
/// (decomposition group 0–2 for stage 1, 8+method index for stage 2).
Hash128 work_key(const Hash128& net, const Hash128& opts, std::uint64_t tag) {
  StreamHash s;
  s.h128(net);
  s.h128(opts);
  s.u64(tag);
  return s.digest();
}

}  // namespace

Hash128 structural_hash(const Network& net) {
  // Per-node hashes derive from fanin hashes, so they are independent of
  // declaration order; the network hash combines PI and PO contributions as
  // sorted multisets, so it is too.
  std::vector<Hash128> h(net.capacity());
  for (NodeId id : net.topo_order()) {
    const Node& node = net.node(id);
    StreamHash s;
    switch (node.kind) {
      case NodeKind::kPrimaryInput:
        s.u64(1);
        s.str(node.name);  // PI names bind option vectors; internal names
                           // never participate
        break;
      case NodeKind::kConstant0:
        s.u64(2);
        break;
      case NodeKind::kConstant1:
        s.u64(3);
        break;
      case NodeKind::kInternal: {
        s.u64(4);
        s.u64(node.fanins.size());
        for (const NodeId f : node.fanins)
          s.h128(h[static_cast<std::size_t>(f)]);
        // Canonical cover: cube order is irrelevant to the function, so a
        // sorted copy makes the hash independent of it. Fanin order stays
        // significant (it binds cover variables) — permuting fanins with a
        // remapped cover yields a different key, which is safe.
        std::vector<Cube> cubes = node.cover.cubes();
        std::sort(cubes.begin(), cubes.end());
        s.u64(cubes.size());
        for (const Cube& c : cubes) {
          s.u64(c.pos());
          s.u64(c.neg());
        }
        break;
      }
      case NodeKind::kDead:
        continue;  // tombstones never reach topo_order, but be explicit
    }
    h[static_cast<std::size_t>(id)] = s.digest();
  }

  std::vector<Hash128> pi_h;
  pi_h.reserve(net.pis().size());
  for (const NodeId pi : net.pis()) pi_h.push_back(h[static_cast<std::size_t>(pi)]);
  std::sort(pi_h.begin(), pi_h.end());

  std::vector<Hash128> po_h;
  po_h.reserve(net.pos().size());
  for (const PrimaryOutput& po : net.pos()) {
    StreamHash s;
    s.u64(5);
    s.str(po.name);
    s.h128(po.driver == kNoNode ? Hash128{}
                                : h[static_cast<std::size_t>(po.driver)]);
    po_h.push_back(s.digest());
  }
  std::sort(po_h.begin(), po_h.end());

  StreamHash s;
  s.u64(0x6d70'6e65'7477'6f72ULL);  // "mpnetwor" domain tag
  s.u64(pi_h.size());
  for (const Hash128& x : pi_h) s.h128(x);
  s.u64(po_h.size());
  for (const Hash128& x : po_h) s.h128(x);
  return s.digest();
}

Hash128 option_fingerprint(const FlowOptions& o, const Network& net) {
  StreamHash s;
  s.u64(0x6d70'6f70'7469'6f6eULL);  // "mpoption" domain tag
  s.u64(static_cast<std::uint64_t>(o.style));
  s.f64(o.vdd);
  s.f64(o.t_cycle);
  s.f64(o.po_load);
  s.f64(o.epsilon_t);
  s.f64(o.epsilon_c);
  s.u64(o.max_curve_points);
  s.u64(static_cast<std::uint64_t>(o.policy));
  s.f64(o.relax_factor);
  s.u64(static_cast<std::uint64_t>(o.dag));
  // Budget limits shape degradation outcomes, so they are part of the key.
  s.u64(o.bdd_node_limit);
  s.f64(o.task_deadline_ms);
  s.u64(o.task_step_limit);

  // Per-PI statistics, bound by PI name in sorted-name order: a permuted
  // netlist with correspondingly permuted vectors fingerprints identically,
  // and an explicit all-default vector matches the empty one.
  struct PiStat {
    const std::string* name;
    double prob;
    double arrival;
  };
  std::vector<PiStat> stats;
  stats.reserve(net.pis().size());
  for (std::size_t i = 0; i < net.pis().size(); ++i) {
    const Node& pi = net.node(net.pis()[i]);
    stats.push_back({&pi.name, i < o.pi_prob1.size() ? o.pi_prob1[i] : 0.5,
                     i < o.pi_arrival.size() ? o.pi_arrival[i] : 0.0});
  }
  std::sort(stats.begin(), stats.end(),
            [](const PiStat& a, const PiStat& b) { return *a.name < *b.name; });
  s.u64(stats.size());
  for (const PiStat& p : stats) {
    s.str(*p.name);
    s.f64(p.prob);
    s.f64(p.arrival);
  }
  return s.digest();
}

FlowSession::FlowSession(const Library& lib, EngineOptions options)
    : lib_(lib), options_(std::move(options)) {}

unsigned FlowSession::effective_threads() const {
  if (options_.num_threads != 0) return options_.num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

EngineCounters FlowSession::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

void FlowSession::reset_counters() {
  std::lock_guard<std::mutex> lock(counters_mu_);
  counters_ = EngineCounters{};
}

std::vector<FlowResult> FlowSession::run_circuit(const Network& prepared) {
  const Network* one[] = {&prepared};
  std::vector<std::vector<FlowResult>> rs =
      run_suite(std::vector<const Network*>(one, one + 1));
  return std::move(rs.front());
}

std::vector<std::vector<FlowResult>> FlowSession::run_suite(
    const std::vector<const Network*>& circuits) {
  const FlowOptions& flow = options_.flow;
  const std::size_t n = circuits.size();
  const unsigned threads = effective_threads();

  // Armed faults: explicit options first, then the environment hook.
  std::vector<FaultInjection> injections = options_.injections;
  for (FaultInjection& f : fault_injections_from_env())
    injections.push_back(std::move(f));

  // Identical work units are shared within the batch. Armed faults disable
  // sharing, so every task ordinal in the injection scheme stays a live
  // task.
  const bool share = injections.empty();

  std::vector<Hash128> net_hash(n);
  std::vector<Hash128> opt_hash(n);
  if (share)
    for (std::size_t i = 0; i < n; ++i) {
      net_hash[i] = structural_hash(*circuits[i]);
      opt_hash[i] = option_fingerprint(flow, *circuits[i]);
    }

  // ---- stage 1 planning: one decomposition + one activity pass per
  // *distinct* subject; a duplicate aliases its first occurrence. ----------
  std::vector<std::size_t> alias(n * 3);
  std::vector<std::size_t> compute;
  compute.reserve(n * 3);
  {
    std::unordered_map<Hash128, std::size_t, Hash128Fold> owner;
    for (std::size_t t = 0; t < n * 3; ++t) {
      alias[t] = t;
      if (share) {
        const auto [it, fresh] = owner.try_emplace(
            work_key(net_hash[t / 3], opt_hash[t / 3], t % 3), t);
        if (!fresh) {
          alias[t] = it->second;
          continue;
        }
      }
      compute.push_back(t);
    }
  }

  // ---- stage 1 execution. Each task is fault-isolated: a blown budget
  // degrades (halved-cap retry, then Monte-Carlo activities) or fails this
  // group only. ------------------------------------------------------------
  const auto stage1_t0 = std::chrono::steady_clock::now();
  std::vector<DecompGroup> groups(n * 3);
  parallel_for(compute.size(), threads, [&](std::size_t i) {
    const std::size_t t = compute[i];
    const auto task_start = std::chrono::steady_clock::now();
    const Network& net = *circuits[t / 3];
    DecompGroup& g = groups[t];
    const long ordinal = static_cast<long>(t);
    const std::string label =
        net.name() + "/decomp[" + std::to_string(t % 3) + "]";
    trace::Span task_span("stage1", "engine");
    task_span.arg("task", label);
    task_span.arg("circuit", net.name());
    task_span.arg("group", static_cast<unsigned long long>(t % 3));
    task_span.arg("queue_wait_us", us_since(stage1_t0, task_start));
    const StatusLine report{options_.verbose, "stage1", label, g.status};
    const NetworkDecompOptions d =
        decomp_options_for(kGroupMethod[t % 3], flow);

    auto note_fallback = [&g](const char* name) {
      g.status.state = TaskState::kDegraded;
      for (const std::string& f : g.status.fallbacks)
        if (f == name) return;
      g.status.fallbacks.push_back(name);
    };

    // Decomposition with its own ladder: the exact probability pass inside
    // decompose_network builds BDDs too, so a blowup here retries at half
    // the node cap and then re-decomposes over Monte-Carlo probabilities
    // (which skips the BDD pass entirely).
    reset_bounded_exact_fallbacks();
    // Watermark of the most recent attempt, reported in failure reasons.
    std::size_t attempted_cap = flow.bdd_node_limit;
    auto decomp_pass = [&](std::size_t node_cap,
                           const std::vector<double>* node_prob) {
      Budget budget = make_budget(flow, injections, ordinal, label);
      budget.bdd_node_limit = attempted_cap = node_cap;
      BudgetScope scope(budget);
      NetworkDecompOptions dd = d;
      if (node_prob != nullptr) dd.node_prob = *node_prob;
      const auto t0 = std::chrono::steady_clock::now();
      g.nd = decompose_network(net, dd);
      g.decomp_ms += ms_since(t0);
    };
    try {
      try {
        decomp_pass(flow.bdd_node_limit, nullptr);
      } catch (const ResourceExhausted& e) {
        if (e.site() == "deadline") throw;
        g.status.retries += 1;
        decomp_pass(std::max<std::size_t>(flow.bdd_node_limit / 2, 2),
                    nullptr);
      }
    } catch (const ResourceExhausted& e) {
      const std::size_t failed_cap = attempted_cap;
      if (e.site() == "deadline" || e.site() == "decomp") {
        g.status.state = TaskState::kFailed;
        g.status.reason = exhausted_reason(e, failed_cap);
        return;
      }
      // MC signal probabilities: activity under kDynamicP is exactly P(=1).
      try {
        const std::vector<double> mc_prob = monte_carlo_activities(
            net, CircuitStyle::kDynamicP, flow.pi_prob1);
        decomp_pass(flow.bdd_node_limit, &mc_prob);
      } catch (const std::exception& e2) {
        g.status.state = TaskState::kFailed;
        g.status.reason = e2.what();
        return;
      }
      if (g.status.reason.empty())
        g.status.reason = exhausted_reason(e, failed_cap);
      note_fallback("mc-activity");
    } catch (const std::exception& e) {
      g.status.state = TaskState::kFailed;
      g.status.reason = e.what();
      return;
    }
    g.exact_fallbacks = static_cast<int>(bounded_exact_fallbacks());
    if (g.exact_fallbacks > 0) note_fallback("greedy-ladder");

    // Activity pass with the degradation ladder: full budget, one retry at
    // half the BDD node cap, then the Monte-Carlo estimator. Deadline and
    // unexpected errors fail the group instead of degrading.
    auto exact_pass = [&](std::size_t node_cap) {
      Budget budget = make_budget(flow, injections, ordinal,
                                  net.name() + "/activity[" +
                                      std::to_string(t % 3) + "]");
      budget.bdd_node_limit = attempted_cap = node_cap;
      BudgetScope scope(budget);
      const auto t0 = std::chrono::steady_clock::now();
      g.activities = switching_activities(g.nd.network, flow.style,
                                          flow.pi_prob1, &g.astats);
      g.activity_ms += ms_since(t0);
    };
    try {
      try {
        exact_pass(flow.bdd_node_limit);
      } catch (const ResourceExhausted& e) {
        if (e.site() == "deadline") throw;
        g.status.retries += 1;
        exact_pass(std::max<std::size_t>(flow.bdd_node_limit / 2, 2));
      }
    } catch (const ResourceExhausted& e) {
      if (e.site() == "deadline") {
        g.status.state = TaskState::kFailed;
        g.status.reason = exhausted_reason(e, attempted_cap);
        return;
      }
      // Fall back to Monte-Carlo activities: deterministic, BDD-free.
      const auto t0 = std::chrono::steady_clock::now();
      g.activities =
          monte_carlo_activities(g.nd.network, flow.style, flow.pi_prob1);
      g.activity_ms += ms_since(t0);
      if (g.status.reason.empty())
        g.status.reason = exhausted_reason(e, attempted_cap);
      note_fallback("mc-activity");
    } catch (const std::exception& e) {
      g.status.state = TaskState::kFailed;
      g.status.reason = e.what();
    }
  });

  // ---- stage 2 planning: map + evaluate each *distinct* (subject ×
  // method); duplicates reuse the result with the circuit name rewritten.
  std::vector<std::vector<FlowResult>> out(n, std::vector<FlowResult>(6));
  std::vector<std::size_t> alias2(n * 6);
  std::vector<std::size_t> compute2;
  compute2.reserve(n * 6);
  {
    std::unordered_map<Hash128, std::size_t, Hash128Fold> owner;
    for (std::size_t t = 0; t < n * 6; ++t) {
      alias2[t] = t;
      if (share) {
        const auto [it, fresh] = owner.try_emplace(
            work_key(net_hash[t / 6], opt_hash[t / 6], 8 + t % 6), t);
        if (!fresh) {
          alias2[t] = it->second;
          continue;
        }
      }
      compute2.push_back(t);
    }
  }

  // ---- stage 2 execution over the shared subjects. A method whose group
  // failed inherits that failure; its own budget covers mapping and
  // evaluation. ------------------------------------------------------------
  const auto stage2_t0 = std::chrono::steady_clock::now();
  parallel_for(compute2.size(), threads, [&](std::size_t i) {
    const std::size_t t = compute2[i];
    const auto task_start = std::chrono::steady_clock::now();
    const std::size_t ci = t / 6;
    const Method method = kMethods[t % 6];
    const Network& prepared = *circuits[ci];
    const DecompGroup& g = groups[alias[ci * 3 + group_of(method)]];
    const long ordinal = static_cast<long>(3 * n + t);
    const std::string label =
        prepared.name() + "/map[" + method_name(method) + "]";
    trace::Span task_span("stage2", "engine");
    task_span.arg("task", label);
    task_span.arg("circuit", prepared.name());
    task_span.arg("method", method_name(method));
    task_span.arg("queue_wait_us", us_since(stage2_t0, task_start));
    // References the result slot, not the local: every exit path moves the
    // local into the slot before the guard's destructor runs.
    const StatusLine report{options_.verbose, "stage2", label,
                            out[ci][t % 6].status};

    FlowResult r;
    r.circuit = prepared.name();
    r.method = method;
    r.status = g.status;  // inherit group degradation / failure context
    r.phases.decomp_ms = g.decomp_ms;
    r.phases.activity_ms = g.activity_ms;
    r.phases.bdd_nodes = g.astats.bdd_nodes;
    r.phases.shared_decomp = true;
    r.phases.shared_activity = true;
    r.phases.decomp_passes = 3;
    r.phases.activity_passes = 3;
    r.phases.exact_fallbacks = g.exact_fallbacks;
    r.phases.activity_retries = g.status.retries;

    if (g.status.state == TaskState::kFailed) {
      r.status.reason = "decomposition/activity failed: " + g.status.reason;
      out[ci][t % 6] = std::move(r);
      return;
    }
    r.tree_activity = g.nd.tree_activity;
    r.nand_depth = g.nd.unit_depth;
    r.nand_nodes = g.nd.network.num_internal();
    r.redecomposed = g.nd.redecomposed_nodes;
    r.phases.redecomp_iterations = g.nd.redecomposed_nodes;

    try {
      Budget budget = make_budget(flow, injections, ordinal, label);
      BudgetScope scope(budget);

      MapOptions m = map_options_for(method, flow);
      m.activities = g.activities;
      auto t0 = std::chrono::steady_clock::now();
      const MapResult mapped = map_network(g.nd.network, lib_, m);
      r.phases.map_ms = ms_since(t0);
      r.phases.matches = mapped.total_matches;
      r.phases.curve_points = mapped.total_curve_points;

      t0 = std::chrono::steady_clock::now();
      const MappedReport rep =
          evaluate_mapped(mapped.mapped, PowerParams::from(m));
      r.phases.eval_ms = ms_since(t0);
      r.area = rep.area;
      r.delay = rep.delay;
      r.power_uw = rep.power_uw;
      r.gates = rep.num_gates;
    } catch (const ResourceExhausted& e) {
      r.status.state = TaskState::kFailed;
      r.status.reason = exhausted_reason(e, flow.bdd_node_limit);
      r.area = r.delay = r.power_uw = 0.0;
      r.gates = 0;
    } catch (const std::exception& e) {
      r.status.state = TaskState::kFailed;
      r.status.reason = e.what();
      r.area = r.delay = r.power_uw = 0.0;
      r.gates = 0;
    }
    out[ci][t % 6] = std::move(r);
  });
  for (std::size_t t = 0; t < n * 6; ++t) {
    if (alias2[t] == t) continue;
    FlowResult r = out[alias2[t] / 6][alias2[t] % 6];
    r.circuit = circuits[t / 6]->name();
    out[t / 6][t % 6] = std::move(r);
  }

  // Task-outcome metrics over the executed tasks (batch duplicates did not
  // run). Retries/fallbacks originate in stage 1 and are counted there only
  // (stage-2 results inherit the group status verbatim).
  {
    std::uint64_t ok = 0;
    std::uint64_t degraded = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t exact_fb = 0;
    auto bump = [&](TaskState s) {
      switch (s) {
        case TaskState::kOk: ++ok; break;
        case TaskState::kDegraded: ++degraded; break;
        case TaskState::kFailed: ++failed; break;
      }
    };
    for (const std::size_t t : compute) {
      const DecompGroup& g = groups[t];
      bump(g.status.state);
      retries += static_cast<std::uint64_t>(g.status.retries);
      fallbacks += g.status.fallbacks.size();
      exact_fb += static_cast<std::uint64_t>(g.exact_fallbacks);
    }
    for (const std::size_t t : compute2) bump(out[t / 6][t % 6].status.state);
    metrics::counter("engine.tasks_ok").add(ok);
    metrics::counter("engine.tasks_degraded").add(degraded);
    metrics::counter("engine.tasks_failed").add(failed);
    metrics::counter("engine.retries").add(retries);
    metrics::counter("engine.fallbacks").add(fallbacks);
    metrics::counter("engine.exact_fallbacks").add(exact_fb);
  }

  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    counters_.decomp_passes += static_cast<int>(compute.size());
    counters_.activity_passes += static_cast<int>(compute.size());
    counters_.map_passes += static_cast<int>(compute2.size());
  }
  return out;
}

void write_flow_json(std::ostream& os,
                     const std::vector<std::vector<FlowResult>>& per_circuit,
                     const EngineCounters& counters, unsigned num_threads,
                     double elapsed_ms, const std::string& library_name,
                     const FlowJsonPolicy& policy) {
  // Task rollup: every (circuit × method) result carries the status of the
  // tasks that produced it.
  int ok = 0;
  int degraded = 0;
  int failed = 0;
  for (const std::vector<FlowResult>& methods : per_circuit)
    for (const FlowResult& r : methods) {
      switch (r.status.state) {
        case TaskState::kOk: ++ok; break;
        case TaskState::kDegraded: ++degraded; break;
        case TaskState::kFailed: ++failed; break;
      }
    }
  auto worst_of = [](const std::vector<FlowResult>& methods) {
    TaskState worst = TaskState::kOk;
    for (const FlowResult& r : methods)
      if (static_cast<int>(r.status.state) > static_cast<int>(worst))
        worst = r.status.state;
    return worst;
  };
  const auto wall = [&policy](double ms) {
    return policy.canonical ? 0.0 : ms;
  };

  JsonWriter w(os);
  w.begin_object();
  w.field("schema", "minpower.flow.v1");
  w.field("library", library_name);
  w.field("num_threads", num_threads);
  w.field("elapsed_ms", wall(elapsed_ms));
  w.key("engine");
  w.begin_object();
  w.field("decomp_passes", counters.decomp_passes);
  w.field("activity_passes", counters.activity_passes);
  w.field("map_passes", counters.map_passes);
  w.end_object();
  w.key("tasks");
  w.begin_object();
  w.field("ok", ok);
  w.field("degraded", degraded);
  w.field("failed", failed);
  w.end_object();
  if (!policy.canonical) {
    w.key("metrics");
    metrics::write_metrics_json(w, metrics::Registry::global().snapshot());
  }
  w.key("circuits");
  w.begin_array();
  for (const std::vector<FlowResult>& methods : per_circuit) {
    w.begin_object();
    w.field("name", methods.empty() ? std::string() : methods.front().circuit);
    w.field("status", task_state_name(worst_of(methods)));
    w.key("methods");
    w.begin_array();
    for (const FlowResult& r : methods) write_flow_result_json(w, r, policy);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void write_flow_result_json(JsonWriter& w, const FlowResult& r,
                            const FlowJsonPolicy& policy) {
  const auto wall = [&policy](double ms) {
    return policy.canonical ? 0.0 : ms;
  };
  w.begin_object();
  w.field("method", method_name(r.method));
  w.field("area", r.area);
  w.field("delay_ns", r.delay);
  w.field("power_uw", r.power_uw);
  w.field("gates", r.gates);
  w.field("tree_activity", r.tree_activity);
  w.field("nand_depth", r.nand_depth);
  w.field("nand_nodes", r.nand_nodes);
  w.field("redecomposed", r.redecomposed);
  w.key("status");
  w.begin_object();
  w.field("state", task_state_name(r.status.state));
  w.field("reason", r.status.reason);
  w.field("retries", r.status.retries);
  w.key("fallbacks");
  w.begin_array();
  for (const std::string& f : r.status.fallbacks) w.value(f);
  w.end_array();
  w.end_object();
  w.key("phases");
  w.begin_object();
  w.field("decomp_ms", wall(r.phases.decomp_ms));
  w.field("activity_ms", wall(r.phases.activity_ms));
  w.field("map_ms", wall(r.phases.map_ms));
  w.field("eval_ms", wall(r.phases.eval_ms));
  w.field("bdd_nodes", r.phases.bdd_nodes);
  w.field("matches", r.phases.matches);
  w.field("curve_points", r.phases.curve_points);
  w.field("redecomp_iterations", r.phases.redecomp_iterations);
  w.field("shared_decomp", r.phases.shared_decomp);
  w.field("shared_activity", r.phases.shared_activity);
  w.field("decomp_passes", r.phases.decomp_passes);
  w.field("activity_passes", r.phases.activity_passes);
  w.field("exact_fallbacks", r.phases.exact_fallbacks);
  w.field("activity_retries", r.phases.activity_retries);
  w.end_object();
  w.end_object();
}

bool parse_flow_result_json(const JsonValue& v, FlowResult* out,
                            std::string* error) {
  *out = FlowResult{};
  if (v.kind != JsonValue::Kind::kObject)
    return json_fail(error, "method cell is not an object");
  const JsonValue* method =
      json_member(v, "method", JsonValue::Kind::kString, error);
  if (method == nullptr) return false;
  if (!method_from_name(method->string, &out->method))
    return json_fail(error, "unknown method '" + method->string + "'");
  if (!json_number(v, "area", &out->area, error) ||
      !json_number(v, "delay_ns", &out->delay, error) ||
      !json_number(v, "power_uw", &out->power_uw, error) ||
      !json_size(v, "gates", &out->gates, error) ||
      !json_number(v, "tree_activity", &out->tree_activity, error) ||
      !json_int(v, "nand_depth", &out->nand_depth, error) ||
      !json_size(v, "nand_nodes", &out->nand_nodes, error) ||
      !json_int(v, "redecomposed", &out->redecomposed, error))
    return false;

  const JsonValue* status =
      json_member(v, "status", JsonValue::Kind::kObject, error);
  if (status == nullptr) return false;
  const JsonValue* state =
      json_member(*status, "state", JsonValue::Kind::kString, error);
  if (state == nullptr) return false;
  if (!task_state_from_name(state->string, &out->status.state))
    return json_fail(error, "unknown task state '" + state->string + "'");
  if (!json_string(*status, "reason", &out->status.reason, error) ||
      !json_int(*status, "retries", &out->status.retries, error))
    return false;
  const JsonValue* fallbacks =
      json_member(*status, "fallbacks", JsonValue::Kind::kArray, error);
  if (fallbacks == nullptr) return false;
  for (const JsonValue& f : fallbacks->items) {
    if (f.kind != JsonValue::Kind::kString)
      return json_fail(error, "non-string fallback entry");
    out->status.fallbacks.push_back(f.string);
  }

  const JsonValue* phases =
      json_member(v, "phases", JsonValue::Kind::kObject, error);
  if (phases == nullptr) return false;
  PhaseStats& p = out->phases;
  return json_number(*phases, "decomp_ms", &p.decomp_ms, error) &&
         json_number(*phases, "activity_ms", &p.activity_ms, error) &&
         json_number(*phases, "map_ms", &p.map_ms, error) &&
         json_number(*phases, "eval_ms", &p.eval_ms, error) &&
         json_size(*phases, "bdd_nodes", &p.bdd_nodes, error) &&
         json_size(*phases, "matches", &p.matches, error) &&
         json_size(*phases, "curve_points", &p.curve_points, error) &&
         json_int(*phases, "redecomp_iterations", &p.redecomp_iterations,
                  error) &&
         json_bool(*phases, "shared_decomp", &p.shared_decomp, error) &&
         json_bool(*phases, "shared_activity", &p.shared_activity, error) &&
         json_int(*phases, "decomp_passes", &p.decomp_passes, error) &&
         json_int(*phases, "activity_passes", &p.activity_passes, error) &&
         json_int(*phases, "exact_fallbacks", &p.exact_fallbacks, error) &&
         json_int(*phases, "activity_retries", &p.activity_retries, error);
}

}  // namespace minpower
