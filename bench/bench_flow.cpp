// bench_flow — the instrumented six-method flow over the paper suite, plus
// parameterized scale sweeps.
//
// Runs the FlowSession (shared decompositions, worker pool) on every circuit
// of the 17-circuit suite and emits the machine-readable per-phase report
// BENCH_flow.json (schema minpower.flow.v1; see DESIGN.md), plus a
// human-readable summary table.
//
//   bench_flow [--append] [--scale <family>:<n0>:<nmax>:<steps>] [--seed N]
//              [--mem-limit-mb N] [--map-curve-cap N]
//              [out.json] [max_circuits] [num_threads] [shards]
//
// Defaults: BENCH_flow.json, the full suite, hardware concurrency,
// in-process. max_circuits must be ≥ 1 (a prefix of the 17-circuit suite);
// num_threads must be a non-negative integer (0 = hardware concurrency).
// shards > 0 runs the crash-isolated multi-process supervisor instead of
// the in-process engine (DESIGN.md §14); the report is then rendered
// canonically (no metrics block, zeroed wall times).
// --append switches the output from the full report to one appended JSONL
// trajectory point (schema minpower.bench_trajectory.v1: benchgen profile,
// suite size, threads, shards, wall ms, peak BDD nodes and bytes, peak
// worker RSS, degradation/failure/retry counts), so repeated runs at
// different scales accumulate into a tracked scaling trajectory consumed by
// `minpower trend` instead of overwriting each other.
// --scale runs a synthetic-family sweep (DESIGN.md §16) instead of the
// paper suite: `steps` geometrically spaced sizes from n0 to nmax gates,
// each generated by benchgen (chain | cone | mesh, seeded by --seed),
// prepared, run through the *sharded* runner (shards defaults to 2 in this
// mode), and appended as one trajectory point per size to out.json (default
// BENCH_trajectory.jsonl).
// --mem-limit-mb arms the supervisor's per-worker RSS watermarks (sharded
// runs only): ~80% of the limit tightens budgets pre-emptively, the limit
// itself SIGKILLs the worker into the degrade/restart path.
// --map-curve-cap bounds the mapper's per-node curve width (0 = unlimited,
// the exact paper algorithm). Scale sweeps default to 64: deep synthetic
// chains otherwise grow curves linearly with depth and mapping goes
// quadratic. Paper-suite runs default to 0 so BENCH_flow.json stays exact.
// Set MINPOWER_TRACE=<file> to also record a Chrome trace of the run
// (chrome://tracing / ui.perfetto.dev); the JSON report always carries the
// metrics-registry snapshot in its `metrics` block (in-process runs only).

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>

#include "bench_util.hpp"
#include "benchgen/benchgen.hpp"
#include "flow/flow.hpp"
#include "flow/session.hpp"
#include "shard/supervisor.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/wire.hpp"
#include "util/json_writer.hpp"
#include "util/meminfo.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

using namespace minpower;

namespace {

constexpr const char* kUsage =
    "usage: bench_flow [--append] [--scale <family>:<n0>:<nmax>:<steps>]\n"
    "                  [--seed N] [--mem-limit-mb N] [--map-curve-cap N]\n"
    "                  [out.json] [max_circuits] [num_threads] [shards]\n"
    "  --append      append one JSONL trajectory point (schema\n"
    "                minpower.bench_trajectory.v1) to out.json instead of\n"
    "                writing the full minpower.flow.v1 report\n"
    "  --scale F:N0:NMAX:STEPS\n"
    "                sweep the benchgen family F (chain|cone|mesh) over\n"
    "                STEPS geometrically spaced targets in [N0, NMAX] gates\n"
    "                through the sharded runner, appending one trajectory\n"
    "                point per size (implies --append; out.json defaults to\n"
    "                BENCH_trajectory.jsonl; shards defaults to 2)\n"
    "  --seed N      benchgen seed for --scale instances (default 1)\n"
    "  --mem-limit-mb N\n"
    "                per-worker RSS watermarks for sharded runs: soft at\n"
    "                ~80%% (budget tightening), hard at N MiB (SIGKILL into\n"
    "                the degrade/restart path); 0 = off\n"
    "  --map-curve-cap N\n"
    "                per-node mapper curve width cap; 0 = unlimited (exact\n"
    "                paper algorithm). Default: 64 for --scale sweeps, 0 for\n"
    "                paper-suite runs\n"
    "  out.json      report path (minpower.flow.v1; default BENCH_flow.json)\n"
    "  max_circuits  suite prefix to run, >= 1 (default: all 17)\n"
    "  num_threads   worker threads, 0 = hardware concurrency (default 0)\n"
    "  shards        fork N crash-isolated worker processes (default 0 =\n"
    "                in-process engine)\n"
    "env: MINPOWER_TRACE=<file> records a Chrome trace of the run\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "bench_flow: %s\n%s", message.c_str(), kUsage);
  std::exit(1);
}

/// The value after the flag at argv[i], parsed strictly (parse_u64);
/// exits with `message` when it is missing or not an integer in [0, max].
std::uint64_t flag_u64(int argc, char** argv, int& i, std::uint64_t max,
                       const char* message) {
  const std::optional<std::uint64_t> v =
      i + 1 < argc ? parse_u64(argv[i + 1]) : std::nullopt;
  if (!v || *v > max) usage_error(message);
  ++i;
  return *v;
}

/// Count degraded/failed cells and budget-shrunk retries of a
/// [circuit][method] result grid.
void count_states(const std::vector<std::vector<FlowResult>>& results,
                  std::uint64_t* degraded, std::uint64_t* failed,
                  std::uint64_t* retries) {
  for (const std::vector<FlowResult>& rs : results)
    for (const FlowResult& r : rs) {
      if (r.status.state == TaskState::kDegraded) ++*degraded;
      else if (r.status.state == TaskState::kFailed) ++*failed;
      *retries += static_cast<std::uint64_t>(
          r.status.retries < 0 ? 0 : r.status.retries);
    }
}

/// One minpower.bench_trajectory.v1 point (the record `minpower trend`
/// parses; see src/report/trend.hpp).
struct TrajectoryRecord {
  std::string family = "paper-suite";  // benchgen profile
  std::uint64_t seed = 0;
  std::uint64_t target_gates = 0;  // 0 for fixed suites
  std::uint64_t gates = 0;         // generated internal nodes
  std::size_t suite = 0;           // circuits in the run
  unsigned threads = 0;
  unsigned shards = 0;
  double wall_ms = 0.0;
  std::uint64_t map_curve_cap = 0;  // 0 = exact (uncapped) mapper curves
  std::uint64_t peak_bdd_nodes = 0;
  std::uint64_t peak_bdd_node_bytes = 0;
  std::uint64_t peak_bdd_arena_bytes = 0;
  std::uint64_t peak_rss_kb = 0;  // max worker high-water (0 if unknown)
  std::uint64_t degradations = 0;
  std::uint64_t failures = 0;
  std::uint64_t retries = 0;
};

/// Append one trajectory point. Returns 0/1 as a process exit code.
int append_trajectory(const std::string& path, const TrajectoryRecord& t) {
  std::ofstream out(path, std::ios::app);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  {
    JsonWriter w(out, /*pretty=*/false);
    w.begin_object();
    w.field("schema", "minpower.bench_trajectory.v1");
    w.field("family", t.family);
    w.field("seed", static_cast<unsigned long long>(t.seed));
    w.field("target_gates", static_cast<unsigned long long>(t.target_gates));
    w.field("gates", static_cast<unsigned long long>(t.gates));
    w.field("suite", static_cast<unsigned long long>(t.suite));
    w.field("threads", t.threads);
    w.field("shards", t.shards);
    w.field("wall_ms", t.wall_ms);
    w.field("map_curve_cap",
            static_cast<unsigned long long>(t.map_curve_cap));
    w.field("peak_bdd_nodes",
            static_cast<unsigned long long>(t.peak_bdd_nodes));
    w.field("peak_bdd_node_bytes",
            static_cast<unsigned long long>(t.peak_bdd_node_bytes));
    w.field("peak_bdd_arena_bytes",
            static_cast<unsigned long long>(t.peak_bdd_arena_bytes));
    w.field("peak_rss_kb", static_cast<unsigned long long>(t.peak_rss_kb));
    w.field("degradations", static_cast<unsigned long long>(t.degradations));
    w.field("failures", static_cast<unsigned long long>(t.failures));
    w.field("retries", static_cast<unsigned long long>(t.retries));
    w.end_object();
  }
  out << '\n';
  std::printf("appended trajectory point [%s target=%llu] -> %s\n",
              t.family.c_str(),
              static_cast<unsigned long long>(t.target_gates), path.c_str());
  return 0;
}

/// Named gauge in a snapshot (0 when absent).
std::uint64_t gauge_of(const metrics::Snapshot& s, const char* name) {
  for (const auto& [n, value] : s.gauges)
    if (n == name) return value;
  return 0;
}

/// Fill the BDD peak fields of a record from a (merged) registry snapshot.
void fill_bdd_peaks(const metrics::Snapshot& s, TrajectoryRecord* t) {
  t->peak_bdd_nodes = gauge_of(s, "bdd.unique_table_peak");
  t->peak_bdd_node_bytes = gauge_of(s, "bdd.mem.node_bytes_peak");
  t->peak_bdd_arena_bytes = gauge_of(s, "bdd.mem.arena_bytes_peak");
}

/// Largest per-worker RSS high-water of a sharded run, in KiB.
std::uint64_t peak_worker_rss_kb(const shard::ShardRun& run) {
  std::uint64_t peak = 0;
  for (const shard::WorkerMemory& m : run.worker_memory) {
    const std::size_t hi = m.peak_hwm_kb > m.peak_rss_kb ? m.peak_hwm_kb
                                                         : m.peak_rss_kb;
    if (hi > peak) peak = hi;
  }
  return peak;
}

/// This process's RSS high-water (in-process runs), in KiB; 0 off-Linux.
std::uint64_t self_rss_kb() {
  MemSample m;
  if (!sample_self_memory(&m)) return 0;
  return m.hwm_kb > m.rss_kb ? m.hwm_kb : m.rss_kb;
}

struct ScaleSweep {
  std::string family;
  std::uint64_t n0 = 0;
  std::uint64_t nmax = 0;
  std::uint64_t steps = 0;
};

/// Parse "<family>:<n0>:<nmax>:<steps>"; exits with usage on malformed
/// specs — a typo must not silently run an empty sweep.
ScaleSweep parse_scale_spec(const char* spec) {
  ScaleSweep s;
  const std::string text(spec);
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (true) {
    const std::size_t colon = text.find(':', pos);
    parts.push_back(text.substr(pos, colon - pos));
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  if (parts.size() != 4)
    usage_error("--scale wants <family>:<n0>:<nmax>:<steps>, got '" + text +
                "'");
  s.family = parts[0];
  if (!is_scale_family(s.family)) {
    std::string known;
    for (const std::string& f : scale_families())
      known += (known.empty() ? "" : "|") + f;
    usage_error("unknown scale family '" + s.family + "' (want " + known +
                ")");
  }
  const std::optional<std::uint64_t> n0 = parse_u64(parts[1]);
  const std::optional<std::uint64_t> nmax = parse_u64(parts[2]);
  const std::optional<std::uint64_t> steps = parse_u64(parts[3]);
  if (n0) s.n0 = *n0;
  if (nmax) s.nmax = *nmax;
  if (steps) s.steps = *steps;
  if (!n0 || s.n0 == 0 || !nmax || s.nmax < s.n0 || !steps || s.steps == 0)
    usage_error("--scale wants 1 <= n0 <= nmax and steps >= 1, got '" + text +
                "'");
  if (s.steps > 1 && s.nmax == s.n0)
    usage_error("--scale: steps > 1 needs nmax > n0");
  return s;
}

/// The i-th of `steps` geometrically spaced targets in [n0, nmax].
std::uint64_t scale_target(const ScaleSweep& s, std::uint64_t i) {
  if (s.steps == 1) return s.n0;
  const double ratio = static_cast<double>(s.nmax) / static_cast<double>(s.n0);
  const double frac =
      static_cast<double>(i) / static_cast<double>(s.steps - 1);
  const double t = static_cast<double>(s.n0) * std::pow(ratio, frac);
  std::uint64_t v = static_cast<std::uint64_t>(std::llround(t));
  if (v < s.n0) v = s.n0;
  if (v > s.nmax) v = s.nmax;
  return v;
}

/// Run one sweep point through the sharded runner and append its record;
/// when tracing, the point's worker lanes join `lanes`. Returns a process
/// exit code (0 = ok).
int run_scale_point(const ScaleSweep& sweep, std::uint64_t target,
                    std::uint64_t seed, unsigned threads, unsigned shards,
                    std::uint64_t mem_limit_mb, std::uint64_t curve_cap,
                    const std::string& out_path,
                    std::vector<trace::ProcessLane>* lanes) {
  ScaleProfile profile;
  profile.family = sweep.family;
  profile.target_gates = static_cast<std::size_t>(target);
  profile.seed = seed;
  Network net = generate_scale_benchmark(profile);
  const std::uint64_t gates = net.num_internal();
  // wall_ms spans preparation too: the variable-order choice in
  // prepare_network builds BDDs of its own.
  const auto t0 = std::chrono::steady_clock::now();
  prepare_network(net);
  std::vector<const Network*> circuits{&net};

  shard::ShardOptions so;
  so.shards = shards;
  so.worker_threads = threads;
  so.mem_limit_mb = static_cast<std::size_t>(mem_limit_mb);
  FlowOptions fo;
  fo.max_curve_points = static_cast<std::size_t>(curve_cap);
  shard::ShardRun run;
  std::string error;
  if (!shard::run_sharded_suite(circuits, standard_library(), fo,
                                so, &run, &error)) {
    std::fprintf(stderr, "bench_flow: %s-%llu: %s\n", sweep.family.c_str(),
                 static_cast<unsigned long long>(target), error.c_str());
    return 1;
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  TrajectoryRecord t;
  t.family = sweep.family;
  t.seed = seed;
  t.target_gates = target;
  t.gates = gates;
  t.suite = circuits.size();
  t.threads = threads;
  t.shards = shards;
  t.wall_ms = wall_ms;
  t.map_curve_cap = curve_cap;
  // Worker registries only: they are fresh per point, so the BDD peaks are
  // per-point even when several points run in this one process.
  fill_bdd_peaks(trace::merge_snapshots(run.worker_metrics), &t);
  t.peak_rss_kb = peak_worker_rss_kb(run);
  count_states(run.per_circuit, &t.degradations, &t.failures, &t.retries);
  lanes->insert(lanes->end(), run.worker_lanes.begin(), run.worker_lanes.end());
  std::printf("scale %s target=%llu gates=%llu: %.1f ms, peak %llu BDD "
              "nodes, peak RSS %llu KiB, %llu degraded, %llu failed, %u "
              "mem-kill(s)\n",
              sweep.family.c_str(), static_cast<unsigned long long>(target),
              static_cast<unsigned long long>(gates), wall_ms,
              static_cast<unsigned long long>(t.peak_bdd_nodes),
              static_cast<unsigned long long>(t.peak_rss_kb),
              static_cast<unsigned long long>(t.degradations),
              static_cast<unsigned long long>(t.failures),
              run.stats.mem_kills);
  return append_trajectory(out_path, t);
}

}  // namespace

int main(int argc, char** argv) {
  bool append = false;
  const char* scale_spec = nullptr;
  std::uint64_t seed = 1;
  std::uint64_t mem_limit_mb = 0;
  // UINT64_MAX = unset: resolves to 64 for --scale sweeps (deep synthetic
  // chains need the cap to stay near-linear), 0 (exact) for the paper suite.
  std::uint64_t map_curve_cap = UINT64_MAX;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (std::strcmp(argv[i], "--append") == 0) {
      append = true;
      continue;
    }
    if (std::strcmp(argv[i], "--scale") == 0) {
      if (i + 1 >= argc) usage_error("--scale needs a value");
      scale_spec = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--seed") == 0) {
      seed = flag_u64(argc, argv, i, UINT64_MAX,
                      "--seed needs a non-negative integer");
      continue;
    }
    if (std::strcmp(argv[i], "--mem-limit-mb") == 0) {
      mem_limit_mb =
          flag_u64(argc, argv, i, 1u << 20,
                   "--mem-limit-mb needs an integer in [0, 1048576]");
      continue;
    }
    if (std::strcmp(argv[i], "--map-curve-cap") == 0) {
      map_curve_cap =
          flag_u64(argc, argv, i, 1u << 20,
                   "--map-curve-cap needs an integer in [0, 1048576]");
      continue;
    }
    if (argv[i][0] == '-' && argv[i][1] == '-')
      usage_error(std::string("unknown flag '") + argv[i] + "'");
    pos.push_back(argv[i]);
  }
  if (pos.size() > 4) usage_error("too many arguments");
  const std::string out_path =
      !pos.empty() ? pos[0]
                   : (scale_spec != nullptr ? "BENCH_trajectory.jsonl"
                                            : "BENCH_flow.json");
  std::size_t max_circuits = SIZE_MAX;
  if (pos.size() > 1) {
    const std::optional<std::uint64_t> v = parse_u64(pos[1]);
    if (!v)
      usage_error(std::string("max_circuits must be a non-negative integer, "
                              "got '") +
                  pos[1] + "'");
    if (*v == 0) usage_error("max_circuits must be >= 1");
    max_circuits = static_cast<std::size_t>(*v);
  }
  unsigned threads = 0;
  if (pos.size() > 2) {
    const std::optional<std::uint64_t> v = parse_u64(pos[2]);
    if (!v || *v > 1u << 16)
      usage_error(std::string("num_threads must be an integer in [0, 65536], "
                              "got '") +
                  pos[2] + "'");
    threads = static_cast<unsigned>(*v);
  }
  unsigned shards = 0;
  if (pos.size() > 3) {
    const std::optional<std::uint64_t> v = parse_u64(pos[3]);
    if (!v || *v > 1u << 10)
      usage_error(std::string("shards must be an integer in [0, 1024], "
                              "got '") +
                  pos[3] + "'");
    shards = static_cast<unsigned>(*v);
  }

  if (scale_spec != nullptr) {
    if (pos.size() > 1) usage_error("--scale generates its own circuits; "
                                    "max_circuits does not apply");
    const ScaleSweep sweep = parse_scale_spec(scale_spec);
    const unsigned sweep_shards = shards == 0 ? 2 : shards;
    const unsigned sweep_threads = threads == 0 ? 1 : threads;
    const std::uint64_t sweep_cap =
        map_curve_cap == UINT64_MAX ? 64 : map_curve_cap;
    // Workers inherit the enabled tracer and ship their spans back; the
    // merged file holds this process's lane plus every point's workers.
    const char* trace_path = std::getenv("MINPOWER_TRACE");
    const bool tracing = trace_path != nullptr && trace_path[0] != '\0';
    if (tracing) trace::set_enabled(true);
    shard::ShardRun traced;
    std::uint64_t prev_target = 0;
    for (std::uint64_t i = 0; i < sweep.steps; ++i) {
      const std::uint64_t target = scale_target(sweep, i);
      if (target == prev_target) continue;  // tiny ranges collapse steps
      prev_target = target;
      const int rc = run_scale_point(sweep, target, seed, sweep_threads,
                                     sweep_shards, mem_limit_mb, sweep_cap,
                                     out_path, &traced.worker_lanes);
      if (rc != 0) return rc;
    }
    if (tracing) {
      trace::set_enabled(false);
      std::ofstream tos(trace_path);
      if (!tos.good()) {
        std::fprintf(stderr, "cannot open %s\n", trace_path);
        return 1;
      }
      shard::write_shard_trace(tos, traced);
      std::printf("trace: supervisor + %zu worker lane(s) -> %s\n",
                  traced.worker_lanes.size(), trace_path);
    }
    return 0;
  }

  const std::uint64_t suite_cap =
      map_curve_cap == UINT64_MAX ? 0 : map_curve_cap;
  std::vector<Network> suite = bench::prepared_suite();
  if (suite.size() > max_circuits) suite.resize(max_circuits);
  std::vector<const Network*> circuits;
  for (const Network& net : suite) circuits.push_back(&net);
  std::uint64_t total_gates = 0;
  for (const Network* net : circuits) total_gates += net->num_internal();

  if (shards > 0) {
    shard::ShardOptions so;
    so.shards = shards;
    so.worker_threads = threads == 0 ? 1 : threads;
    so.mem_limit_mb = static_cast<std::size_t>(mem_limit_mb);
    FlowOptions fo;
    fo.max_curve_points = static_cast<std::size_t>(suite_cap);
    shard::ShardRun run;
    std::string error;
    const auto s0 = std::chrono::steady_clock::now();
    if (!shard::run_sharded_suite(circuits, standard_library(), fo, so,
                           &run, &error)) {
      std::fprintf(stderr, "bench_flow: %s\n", error.c_str());
      return 1;
    }
    const double sharded_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - s0)
            .count();
    std::printf("shards: %u spawned, %u crashes, %u restarts, %u mem-kills; "
                "cells: %zu computed, %zu failed (%zu circuits × 6 methods), "
                "%.1f ms\n",
                run.stats.workers_spawned, run.stats.worker_crashes,
                run.stats.worker_restarts, run.stats.mem_kills,
                run.stats.cells_computed, run.stats.cells_failed,
                circuits.size(), sharded_ms);
    if (append) {
      // Peak BDD nodes from the merged worker registries plus the
      // supervisor's own (prepare work runs pre-fork).
      std::vector<metrics::Snapshot> parts = run.worker_metrics;
      parts.push_back(metrics::Registry::global().snapshot());
      TrajectoryRecord t;
      t.seed = 0;
      t.gates = total_gates;
      t.suite = circuits.size();
      t.threads = so.worker_threads;
      t.shards = shards;
      t.wall_ms = sharded_ms;
      t.map_curve_cap = suite_cap;
      fill_bdd_peaks(trace::merge_snapshots(parts), &t);
      t.peak_rss_kb = peak_worker_rss_kb(run);
      count_states(run.per_circuit, &t.degradations, &t.failures, &t.retries);
      return append_trajectory(out_path, t);
    }
    std::ofstream out(out_path);
    if (!out.good()) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    shard::write_sharded_flow_json(out, run, shards, standard_library().name());
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
  }

  EngineOptions eo;
  eo.num_threads = threads;
  eo.flow.max_curve_points = static_cast<std::size_t>(suite_cap);
  FlowSession engine(standard_library(), eo);

  const char* trace_path = std::getenv("MINPOWER_TRACE");
  if (trace_path != nullptr && trace_path[0] != '\0')
    trace::set_enabled(true);

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::vector<FlowResult>> results =
      engine.run_suite(circuits);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  if (trace::enabled()) {
    trace::set_enabled(false);
    std::ofstream tos(trace_path);
    if (!tos.good()) {
      std::fprintf(stderr, "cannot open %s\n", trace_path);
      return 1;
    }
    trace::write_chrome_trace(tos);
    std::printf("trace: %zu events -> %s\n", trace::num_events(), trace_path);
  }

  std::printf("%-8s %-6s %8s %8s %10s %7s %9s %9s %9s\n", "circuit", "method",
              "area", "delay", "power", "gates", "decomp_ms", "activ_ms",
              "map_ms");
  bench::print_rule(86);
  RunningStats map_ms;
  for (const std::vector<FlowResult>& rs : results)
    for (const FlowResult& r : rs) {
      std::printf("%-8s %-6s %8.0f %8.2f %10.1f %7zu %9.2f %9.2f %9.2f\n",
                  r.circuit.c_str(), method_name(r.method), r.area, r.delay,
                  r.power_uw, r.gates, r.phases.decomp_ms,
                  r.phases.activity_ms, r.phases.map_ms);
      map_ms.add(r.phases.map_ms);
    }
  bench::print_rule(86);
  const int n = static_cast<int>(circuits.size());
  std::printf("engine: %d decompositions, %d activity passes, %d mappings "
              "(%zu circuits × 6 methods), %u thread(s)\n",
              3 * n, 3 * n, 6 * n, circuits.size(),
              engine.effective_threads());
  std::printf("map phase: mean %.2f ms, max %.2f ms; total wall %.1f ms\n",
              map_ms.mean(), map_ms.max(), elapsed_ms);

  if (append) {
    TrajectoryRecord t;
    t.gates = total_gates;
    t.suite = circuits.size();
    t.threads = engine.effective_threads();
    t.shards = 0;
    t.wall_ms = elapsed_ms;
    t.map_curve_cap = suite_cap;
    fill_bdd_peaks(metrics::Registry::global().snapshot(), &t);
    t.peak_rss_kb = self_rss_kb();
    count_states(results, &t.degradations, &t.failures, &t.retries);
    return append_trajectory(out_path, t);
  }

  std::ofstream out(out_path);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  write_flow_json(out, results, engine.effective_threads(), elapsed_ms,
                  standard_library().name());
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
