// perfbench — the repository benchmark program (see README.md beside this
// file for the workloads and the metric table).
//
// One process runs one workload on one FlowSession worker thread:
//
//   1. set-up, repeated and reported as a median: parse the cell library,
//      generate the workload's circuits from the seed, serialize them to
//      BLIF text (setup_s);
//   2. one traced pass doing the session's exact work through the layers'
//      public calls — per circuit 3 decompositions, 3 activity passes,
//      6 mappings, 6 evaluations — with a span and the metrics-registry
//      counter delta around each call, timed on this program's own clock;
//      after each circuit span, that circuit's probes: every mapped netlist
//      BDD-equivalent to its prepared source and every evaluated power
//      inside the Monte-Carlo band;
//   3. untraced passes for --seconds: read the BLIF text, prepare_network
//      each circuit, one FlowSession::run_suite over the batch — what
//      `minpower flow a.blif b.blif ...` does (flow_s, flow_cpu_s); the
//      process VmHWM right after them is peak_rss_mb;
//   4. checks: every session cell bit-identical across passes and to the
//      traced pass, and identical work counters in every pass and in every
//      earlier run of the same build, workload and seed.
//
// The last stdout line is the result object
//   {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A full record of the run lands in --out-dir.

#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/benchgen.hpp"
#include "flow/session.hpp"
#include "io/blif.hpp"
#include "library/library.hpp"
#include "trace/analysis.hpp"
#include "trace/metrics.hpp"
#include "util/budget.hpp"
#include "util/hash.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/meminfo.hpp"
#include "util/rng.hpp"
#include "verify/verify.hpp"

namespace {

using namespace minpower;
using Clock = std::chrono::steady_clock;

// Clock origin of every span this program writes. Set before any work, so
// no span can start before it (the tracer in src/trace sets its origin
// lazily and clamps the first span; this benchmark does not use it).
const Clock::time_point g_origin = Clock::now();

// ---------------------------------------------------------------- workloads
//
// Seed 0 runs the circuits the repository's own benches use. Any other
// seed runs a polarity variant of each: a seed-chosen half of the primary
// inputs is complemented in every cover that reads it. A variant computes
// a different function, so QoR and every counter may move, but its global
// BDDs have the same sizes and, under the flow's uniform 0.5 input
// probabilities, its nodes the same signal probabilities. Regenerating
// the circuits from other generator seeds was measured and rejected: BDD
// sizes of the random netlists vary by up to 25x from seed to seed (x3's
// activity BDD nodes 0.35M-4.4M, the mesh-900 probability pass
// 51 ms-1.2 s), which puts the per-seed spread of flow_s and peak_rss_mb
// far outside any usable regression bound.

void complement_inputs(Network& net, std::uint64_t seed, std::size_t index) {
  if (seed == 0) return;
  Rng rng(mix64(seed) + index);
  std::vector<char> flip(net.capacity(), 0);
  for (const NodeId pi : net.pis()) flip[static_cast<std::size_t>(pi)] = rng.coin();
  for (NodeId id = 0; id < static_cast<NodeId>(net.capacity()); ++id) {
    Node& node = net.node(id);
    if (!node.is_internal()) continue;
    std::uint64_t mask = 0;
    for (std::size_t k = 0; k < node.fanins.size(); ++k)
      if (flip[static_cast<std::size_t>(node.fanins[k])]) mask |= std::uint64_t{1} << k;
    for (Cube& c : node.cover.cubes())
      c = Cube{(c.pos() & ~mask) | (c.neg() & mask), (c.neg() & ~mask) | (c.pos() & mask)};
  }
}

struct Workload {
  const char* name;
  const char* params;  // recorded in the run record
  std::size_t max_curve_points;
  std::vector<Network> (*generate)();
};

std::vector<Network> paper_suite_circuits() {
  std::vector<Network> out;
  for (const BenchProfile& p : paper_suite()) out.push_back(generate_benchmark(p));
  return out;
}

std::vector<Network> scale_bdd_circuits() {
  std::vector<Network> out;
  out.push_back(generate_scale_benchmark({"chain", 1000, 1}));
  return out;
}

std::vector<Network> pla_wide_circuits() {
  std::vector<Network> out;
  for (int i = 0; i < 10; ++i) {
    PlaProfile p;
    p.name = "pla-wide-" + std::to_string(i);
    p.num_pi = 16;
    p.num_outputs = 16;
    p.cubes_per_output = 12;
    p.seed = static_cast<std::uint64_t>(i + 1);
    out.push_back(generate_pla(p));
  }
  return out;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper-suite",
       "the 17 paper_suite() stand-ins, exact mapper (max_curve_points=0)",
       0, paper_suite_circuits},
      {"scale-bdd",
       "the chain-1000 scale instance (generator seed 1), "
       "max_curve_points=64",
       64, scale_bdd_circuits},
      {"pla-wide",
       "10 generate_pla circuits: 16 PIs, 16 outputs, 12 cubes/output, "
       "density 0.5, generator seeds 1..10, exact mapper",
       0, pla_wide_circuits},
  };
  return all;
}

// ------------------------------------------------------------------ helpers

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Work counters the determinism check covers: the layers' event counts.
// Timings never enter the registry, so these repeat exactly run to run.
using Counts = std::map<std::string, std::uint64_t>;

bool tracked_counter(const std::string& name) {
  for (const char* prefix :
       {"activity.", "bdd.", "decomp.", "huffman.", "map.", "power."})
    if (name.rfind(prefix, 0) == 0) return true;
  return false;
}

Counts work_counts() {
  Counts c;
  for (const auto& [name, value] : metrics::Registry::global().snapshot().counters)
    if (value != 0 && tracked_counter(name)) c[name] = value;
  return c;
}

Counts counts_delta(const Counts& after, const Counts& before) {
  Counts d;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    if (value != base) d[name] = value - base;
  }
  return d;
}

std::uint64_t count_of(const Counts& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

std::uint64_t gauge_value(const std::string& name) {
  for (const auto& [n, v] : metrics::Registry::global().snapshot().gauges)
    if (n == name) return v;
  return 0;
}

// -------------------------------------------------------------------- set-up

struct Inputs {
  Library lib;
  std::vector<std::string> blifs;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in{Library::parse_genlib(standard_library_genlib(), "mp-lib2"), {}};
  std::vector<Network> nets = w.generate();
  for (std::size_t i = 0; i < nets.size(); ++i) {
    complement_inputs(nets[i], seed, i);
    in.blifs.push_back(write_blif_string(nets[i]));
  }
  return in;
}

// ---------------------------------------------------------- untraced passes

struct PassSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double session_s = 0.0;  // the run_suite call alone
};

using SuiteResults = std::vector<std::vector<FlowResult>>;

PassSample untraced_pass(const Inputs& in, const EngineOptions& eo,
                         SuiteResults* results) {
  const Clock::time_point t0 = Clock::now();
  const double c0 = cpu_seconds();
  std::vector<Network> nets;
  nets.reserve(in.blifs.size());
  for (const std::string& text : in.blifs) {
    nets.push_back(read_blif_string(text));
    prepare_network(nets.back());
  }
  std::vector<const Network*> batch;
  for (const Network& n : nets) batch.push_back(&n);
  const Clock::time_point ts = Clock::now();
  FlowSession session(in.lib, eo);
  *results = session.run_suite(batch);
  const Clock::time_point t1 = Clock::now();
  return {seconds_between(t0, t1), cpu_seconds() - c0, seconds_between(ts, t1)};
}

// ------------------------------------------------------------- traced pass

struct Span {
  std::string name;
  std::string cat;
  Clock::time_point start;
  Clock::time_point end;
  int circuit = -1;
  Counts counts;  // registry counter delta across the call
};

// Spans of the traced pass, kept in memory until the run ends.
class SpanLog {
 public:
  // Times `f()` as one span and attributes the registry counter delta
  // across it. The two snapshots sit inside the span (~10 µs per call), so
  // consecutive layer spans leave no gaps in their circuit span.
  template <typename F>
  auto record(const char* name, const char* cat, int circuit, F&& f) {
    Span s{name, cat, Clock::now(), {}, circuit, {}};
    const Counts before = work_counts();
    auto result = f();
    s.counts = counts_delta(work_counts(), before);
    s.end = Clock::now();
    spans_.push_back(std::move(s));
    return result;
  }

  void add(Span s) { spans_.push_back(std::move(s)); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Chrome trace-event JSON (what `minpower profile` reads): one lane, times
// in µs since g_origin. Both endpoints are floored against the same
// origin, so nested intervals stay nested.
void write_chrome_trace(std::ostream& os, const std::vector<Span>& spans,
                        const std::vector<std::string>& circuit_names) {
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  for (const Span& s : spans) {
    const auto us = [](Clock::time_point t) {
      return static_cast<unsigned long long>(
          std::chrono::duration_cast<std::chrono::microseconds>(t - g_origin)
              .count());
    };
    w.begin_object();
    w.field("name", s.name);
    w.field("cat", s.cat);
    w.field("ph", "X");
    w.field("ts", us(s.start));
    w.field("dur", us(s.end) - us(s.start));
    w.field("pid", 1);
    w.field("tid", 1);
    w.key("args");
    w.begin_object();
    if (s.circuit >= 0) {
      w.field("circuit_id", s.circuit);
      w.field("circuit", circuit_names[static_cast<std::size_t>(s.circuit)]);
    }
    for (const auto& [name, value] : s.counts)
      w.field(name, static_cast<unsigned long long>(value));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

// Decomposition group per method, as the session pairs them (I/IV, II/V,
// III/VI share one subject network and one activity vector).
constexpr Method kMethods[6] = {Method::kI,  Method::kII, Method::kIII,
                                Method::kIV, Method::kV,  Method::kVI};
constexpr const char* kDecompSpan[3] = {"decomp.balanced", "decomp.minpower",
                                        "decomp.bounded"};

struct Cell {
  std::string circuit;
  Method method = Method::kI;
  std::string problem;  // first failed check, empty when it passed
  double area = 0.0;
  double delay = 0.0;
  double power_uw = 0.0;
  std::size_t gates = 0;
  double mc_z = 0.0;    // |evaluate_mapped − Monte-Carlo| / stderr
};

struct TracedPass {
  SpanLog log;
  std::vector<std::string> names;
  std::vector<Cell> cells;    // circuit-major, Method order
  Counts session_counts;      // Σ layer-call deltas = the session's work
  std::uint64_t opt_nodes = 0;
  std::uint64_t opt_literals = 0;
  std::uint64_t nand_nodes = 0;
  std::uint64_t activity_bdd_nodes = 0;
  std::uint64_t unique_table_peak = 0;
  std::uint64_t node_bytes_peak = 0;
  std::uint64_t curve_points_max = 0;
  double mc_max_z = 0.0;
};

constexpr int kMcSamples = 1500;
constexpr double kMcSigmas = 6.0;  // the band `minpower verify` asserts

// The session's work, one public layer call at a time, each in a span whose
// parent is the circuit span. The session runs every task under a budget;
// the default budget carries the same BDD node cap. After each circuit
// span come that circuit's probes, in top-level spans that never count as
// flow work; the prepared-network probability pass alone is decomp.prob.
void traced_pass(const Inputs& in, const FlowOptions& flow, std::uint64_t seed,
                 TracedPass& tp) {
  SpanLog& log = tp.log;
  // Gauges are high-water marks: zero them so they describe this pass.
  metrics::Registry::global().reset();
  const auto budgeted = [&](auto&& call) {
    Budget budget;
    budget.bdd_node_limit = flow.bdd_node_limit;
    BudgetScope scope(budget);
    return call();
  };
  for (std::size_t ci = 0; ci < in.blifs.size(); ++ci) {
    const int id = static_cast<int>(ci);
    Span circuit{"circuit", "flow", Clock::now(), {}, id, {}};
    try {
      Network net = log.record("io.read", "io", id,
                               [&] { return read_blif_string(in.blifs[ci]); });
      tp.names.push_back(net.name());
      for (const Method m : kMethods)
        tp.cells.push_back(Cell{.circuit = net.name(), .method = m, .problem = {}});
      log.record("opt.prepare_network", "opt", id, [&] {
        prepare_network(net);
        return 0;
      });
      tp.opt_nodes += net.num_internal();
      tp.opt_literals += static_cast<std::uint64_t>(net.num_literals());

      std::array<NetworkDecompResult, 3> subject;
      std::array<std::vector<double>, 3> activity;
      for (int g = 0; g < 3; ++g) {
        subject[g] = log.record(kDecompSpan[g], "decomp", id, [&] {
          return budgeted([&] {
            return decompose_network(net, decomp_options_for(kMethods[g], flow));
          });
        });
        tp.nand_nodes += subject[g].network.num_internal();
        ActivityPassStats stats;
        activity[g] = log.record("activity", "prob", id, [&] {
          return budgeted([&] {
            return switching_activities(subject[g].network, flow.style,
                                        flow.pi_prob1, &stats);
          });
        });
        tp.activity_bdd_nodes += stats.bdd_nodes;
      }

      // The mapped netlists point into `subject`, which outlives them here.
      std::array<MapResult, 6> mapped;
      std::array<MapOptions, 6> options;
      for (int mi = 0; mi < 6; ++mi) {
        options[mi] = map_options_for(kMethods[mi], flow);
        options[mi].activities = activity[mi % 3];
        mapped[mi] = log.record(mi < 3 ? "map.area" : "map.power", "map", id, [&] {
          return budgeted([&] {
            return map_network(subject[mi % 3].network, in.lib, options[mi]);
          });
        });
        const MappedReport rep = log.record("power.eval", "power", id, [&] {
          return evaluate_mapped(mapped[mi].mapped, PowerParams::from(options[mi]));
        });
        Cell& cell = tp.cells[ci * 6 + static_cast<std::size_t>(mi)];
        cell.area = rep.area;
        cell.delay = rep.delay;
        cell.power_uw = rep.power_uw;
        cell.gates = rep.num_gates;
      }
      circuit.end = Clock::now();

      log.record("decomp.prob", "probe", id, [&] {
        return signal_probabilities(net, flow.pi_prob1);
      });
      for (int mi = 0; mi < 6; ++mi) {
        Cell& cell = tp.cells[ci * 6 + static_cast<std::size_t>(mi)];
        const bool equivalent = log.record("verify.equiv", "verify", id, [&] {
          return verify::mapped_network_equivalent(net, mapped[mi].mapped);
        });
        if (!equivalent && cell.problem.empty())
          cell.problem = "mapped netlist not BDD-equivalent to its source";
        const verify::McPowerEstimate mc = log.record("verify.mc_power", "verify", id, [&] {
          return verify::monte_carlo_power(mapped[mi].mapped, PowerParams::from(options[mi]),
                                           kMcSamples,
                                           mix64(seed) + ci * 6 + static_cast<std::uint64_t>(mi));
        });
        const double diff = std::abs(mc.power_uw - cell.power_uw);
        cell.mc_z = mc.stderr_uw > 0 ? diff / mc.stderr_uw : 0.0;
        tp.mc_max_z = std::max(tp.mc_max_z, cell.mc_z);
        if (diff > kMcSigmas * mc.stderr_uw + 1e-6 * (1.0 + cell.power_uw) &&
            cell.problem.empty())
          cell.problem = "evaluated power outside the Monte-Carlo band";
      }
    } catch (const std::exception& e) {
      if (circuit.end == Clock::time_point{}) circuit.end = Clock::now();
      if (tp.names.size() == ci) tp.names.push_back("circuit-" + std::to_string(ci));
      while (tp.cells.size() < (ci + 1) * 6)
        tp.cells.push_back(Cell{.circuit = tp.names.back(),
                                .method = kMethods[tp.cells.size() - ci * 6],
                                .problem = {}});
      for (std::size_t k = ci * 6; k < (ci + 1) * 6; ++k)
        if (tp.cells[k].problem.empty())
          tp.cells[k].problem = std::string("traced pass threw: ") + e.what();
    }
    log.add(std::move(circuit));
  }
  for (const Span& s : log.spans())
    if (s.cat != "probe" && s.cat != "verify")
      for (const auto& [name, value] : s.counts) tp.session_counts[name] += value;
  tp.unique_table_peak = gauge_value("bdd.unique_table_peak");
  tp.node_bytes_peak = gauge_value("bdd.mem.node_bytes_peak");
  tp.curve_points_max = gauge_value("map.curve_points_max");
}

// ------------------------------------------------------------------ records

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void write_metrics_object(JsonWriter& w, const std::vector<Metric>& ms) {
  w.begin_object();
  for (const Metric& m : ms) {
    w.key(m.name);
    w.begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

// Identity of this binary (size and modification time): only runs of the
// same build are expected to repeat each other's counters.
std::string build_id() {
  std::error_code ec;
  const std::filesystem::path exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return "";
  const auto size = std::filesystem::file_size(exe, ec);
  const auto mtime = std::filesystem::last_write_time(exe, ec);
  if (ec) return "";
  return std::to_string(size) + "-" +
         std::to_string(mtime.time_since_epoch().count());
}

// Counters recorded by an earlier run of the same build, workload and
// seed, if any (the record file is replaced by this run).
std::optional<Counts> previous_counts(const std::string& path, const std::string& build) {
  std::ifstream f(path);
  if (!f || build.empty()) return std::nullopt;
  std::stringstream ss;
  ss << f.rdbuf();
  std::string error;
  const std::optional<JsonValue> doc = parse_json(ss.str(), &error);
  if (!doc) return std::nullopt;
  const JsonValue* b = doc->find("build");
  const JsonValue* c = doc->find("counters");
  if (b == nullptr || b->string != build || c == nullptr ||
      c->kind != JsonValue::Kind::kObject)
    return std::nullopt;
  Counts out;
  for (const auto& [name, v] : c->members)
    out[name] = static_cast<std::uint64_t>(v.number);
  return out;
}

std::string first_counter_difference(const Counts& a, const Counts& b) {
  Counts all = a;
  for (const auto& [name, v] : b) all.emplace(name, v);
  for (const auto& [name, v] : all)
    if (count_of(a, name) != count_of(b, name))
      return name + " " + std::to_string(count_of(a, name)) + " vs " +
             std::to_string(count_of(b, name));
  return "";
}

// ---------------------------------------------------------------------- cli

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --out-dir <dir>\n"
               "workloads:",
               why.c_str());
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  std::uint64_t v = 0;
  for (const char* p = s; *p; ++p) {
    if (*p < '0' || *p > '9') return false;
    if (v > (UINT64_MAX - static_cast<std::uint64_t>(*p - '0')) / 10) return false;
    v = v * 10 + static_cast<std::uint64_t>(*p - '0');
  }
  *out = v;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &a.seed)) usage("--seed wants a non-negative integer");
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &n) || n < 1 || n > 600)
        usage("--seconds wants an integer in [1, 600]");
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace wants 0 or 1");
      a.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      a.out_dir = value;
      have_out = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_out) usage("--out-dir is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* wl = nullptr;
  for (const Workload& w : workloads())
    if (args.workload == w.name) wl = &w;
  if (wl == nullptr) usage("unknown workload '" + args.workload + "'");
  std::filesystem::create_directories(args.out_dir);
  const std::string stem =
      args.out_dir + "/" + wl->name + "-seed" + std::to_string(args.seed);

  // ---- 1. set-up, repeated. One set-up takes milliseconds, so a sample
  // is the mean over a batch of set-ups lasting >= 20 ms. Five samples are
  // taken here and five more after each untraced pass, so setup_s, their
  // median, spans the whole run rather than one burst at its start.
  std::vector<double> setup_samples;
  std::optional<Inputs> inputs;
  Clock::time_point t0 = Clock::now();
  inputs.emplace(make_inputs(*wl, args.seed));
  const double first_setup_s = std::max(seconds_between(t0, Clock::now()), 1e-6);
  const int batch = static_cast<int>(std::min(1000.0, std::ceil(0.02 / first_setup_s)));
  const auto sample_setup = [&] {
    for (int k = 0; k < 5; ++k) {
      const Clock::time_point b0 = Clock::now();
      for (int i = 0; i < batch; ++i) inputs.emplace(make_inputs(*wl, args.seed));
      setup_samples.push_back(seconds_between(b0, Clock::now()) / batch);
    }
  };
  sample_setup();
  const Inputs& in = *inputs;

  EngineOptions eo;
  eo.num_threads = 1;
  eo.flow.max_curve_points = wl->max_curve_points;
  const FlowOptions& flow = eo.flow;

  // ---- 2. the traced pass and the probes. Running them first also warms
  // the process, so every timed pass below starts from the same state.
  TracedPass tp;
  traced_pass(in, flow, args.seed, tp);

  // ---- 3. untraced passes: at least 2, and until --seconds have passed.
  std::vector<PassSample> passes;
  std::vector<Counts> pass_counts;
  SuiteResults reference;  // the first pass's cells
  std::vector<std::string> problems;
  std::vector<bool> cell_mismatch(tp.cells.size(), false);
  const Clock::time_point measure_t0 = Clock::now();
  while (passes.size() < 2 ||
         seconds_between(measure_t0, Clock::now()) < args.seconds) {
    SuiteResults results;
    const Counts before = work_counts();
    passes.push_back(untraced_pass(in, eo, &results));
    pass_counts.push_back(counts_delta(work_counts(), before));
    sample_setup();
    if (reference.empty()) {
      reference = std::move(results);
      continue;
    }
    for (std::size_t k = 0; k < cell_mismatch.size(); ++k) {
      const FlowResult& a = reference[k / 6][k % 6];
      const FlowResult& b = results[k / 6][k % 6];
      if (!same_bits(a.area, b.area) || !same_bits(a.delay, b.delay) ||
          !same_bits(a.power_uw, b.power_uw) || a.gates != b.gates ||
          a.status.state != b.status.state)
        cell_mismatch[k] = true;
    }
  }
  MemSample mem;
  sample_self_memory(&mem);

  // ---- checks.
  const std::size_t attempted = tp.cells.size();
  std::size_t failed = 0;
  std::size_t degraded = 0;
  std::vector<std::string> cell_problem(attempted);
  for (std::size_t k = 0; k < attempted; ++k) {
    const Cell& cell = tp.cells[k];
    const FlowResult& r = reference[k / 6][k % 6];
    std::string& p = cell_problem[k];
    if (r.status.state == TaskState::kFailed) p = "session task failed: " + r.status.reason;
    if (p.empty()) p = cell.problem;
    if (p.empty() && cell_mismatch[k])
      p = "session QoR differs between untraced passes";
    if (p.empty() && (!same_bits(r.area, cell.area) || !same_bits(r.delay, cell.delay) ||
                      !same_bits(r.power_uw, cell.power_uw) || r.gates != cell.gates))
      p = "session QoR differs from the traced layer-by-layer pass";
    if (r.status.state == TaskState::kDegraded) ++degraded;
    if (!p.empty()) {
      ++failed;
      problems.push_back(cell.circuit + "/" + method_name(cell.method) + ": " + p);
    }
  }
  for (std::size_t i = 0; i < pass_counts.size(); ++i) {
    const std::string diff = first_counter_difference(pass_counts[i], tp.session_counts);
    if (!diff.empty())
      problems.push_back("work counters of untraced pass " + std::to_string(i) +
                         " differ from the traced pass: " + diff);
  }
  const std::string record_path = stem + ".json";
  const std::string build = build_id();
  if (const std::optional<Counts> prev = previous_counts(record_path, build)) {
    const std::string diff = first_counter_difference(*prev, tp.session_counts);
    if (!diff.empty())
      problems.push_back("work counters differ from an earlier run of this seed: " + diff);
  }

  // ---- end-to-end metrics.
  std::vector<double> wall;
  std::vector<double> cpu;
  std::vector<double> session;
  for (const PassSample& s : passes) {
    wall.push_back(s.wall_s);
    cpu.push_back(s.cpu_s);
    session.push_back(s.session_s);
  }
  const double flow_s = median(wall);
  double log_power = 0.0;
  double log_area = 0.0;
  double log_delay = 0.0;
  std::size_t qor_cells = 0;
  for (const auto& row : reference)
    for (const FlowResult& r : row) {
      if (r.status.state == TaskState::kFailed || r.power_uw <= 0 || r.area <= 0 ||
          r.delay <= 0)
        continue;
      log_power += std::log(r.power_uw);
      log_area += std::log(r.area);
      log_delay += std::log(r.delay);
      ++qor_cells;
    }
  const auto geomean = [&](double sum_log) {
    return qor_cells ? std::exp(sum_log / static_cast<double>(qor_cells)) : 0.0;
  };
  const double n_cells = static_cast<double>(attempted);
  const std::vector<Metric> end_to_end = {
      {"setup_s", median(setup_samples), "s"},
      {"flow_s", flow_s, "s"},
      {"flow_cpu_s", median(cpu), "s"},
      {"peak_rss_mb", static_cast<double>(mem.hwm_kb) / 1024.0, "MB"},
      {"power_uw_geomean", geomean(log_power), "uW"},
      {"area_geomean", geomean(log_area), "area"},
      {"delay_ns_geomean", geomean(log_delay), "ns"},
      {"cells_passed_ratio", 1.0 - static_cast<double>(failed) / n_cells, "ratio"},
      {"cells_undegraded_ratio", 1.0 - static_cast<double>(degraded) / n_cells, "ratio"},
  };

  // ---- per-layer metrics, from the profiler's reading of the trace.
  std::ostringstream trace_json;
  write_chrome_trace(trace_json, tp.log.spans(), tp.names);
  trace::TraceProfile profile;
  std::string trace_error;
  if (!trace::analyze_chrome_trace(trace_json.str(), &profile, &trace_error))
    problems.push_back("profiler rejected the trace: " + trace_error);
  const auto self_ms = [&](const char* name) {
    double us = 0.0;
    for (const trace::PhaseTotals& p : profile.phases)
      if (p.name == name) us += static_cast<double>(p.self_us);
    return us / 1000.0;
  };
  double circuit_ms = 0.0;
  double coverage_min = 1.0;
  for (const trace::SpanRecord& s : profile.spans) {
    if (s.name != "circuit") continue;
    circuit_ms += static_cast<double>(s.dur_us) / 1000.0;
    if (s.dur_us > 0)
      coverage_min = std::min(coverage_min, 1.0 - static_cast<double>(s.self_us) /
                                                      static_cast<double>(s.dur_us));
  }
  const Counts& c = tp.session_counts;
  const double kept = static_cast<double>(count_of(c, "map.curve_points_kept"));
  const double pruned = static_cast<double>(count_of(c, "map.curve_points_pruned"));
  const double ite_calls = static_cast<double>(count_of(c, "bdd.ite_calls"));
  const double layer_ms = self_ms("decomp.balanced") + self_ms("decomp.minpower") +
                          self_ms("decomp.bounded") + self_ms("activity") +
                          self_ms("map.area") + self_ms("map.power") +
                          self_ms("power.eval");
  const double session_ms = median(session) * 1000.0;
  const std::vector<Metric> per_layer = {
      {"io.read_ms", self_ms("io.read"), "ms"},
      {"opt.rugged_lite_ms", self_ms("opt.prepare_network"), "ms"},
      {"opt.nodes_out", static_cast<double>(tp.opt_nodes), "count"},
      {"opt.literals_out", static_cast<double>(tp.opt_literals), "count"},
      {"decomp.balanced_ms", self_ms("decomp.balanced"), "ms"},
      {"decomp.minpower_ms", self_ms("decomp.minpower"), "ms"},
      {"decomp.bounded_ms", self_ms("decomp.bounded"), "ms"},
      {"decomp.prob_ms", self_ms("decomp.prob"), "ms"},
      {"decomp.nand_nodes", static_cast<double>(tp.nand_nodes), "count"},
      {"decomp.redecomp_iterations",
       static_cast<double>(count_of(c, "decomp.redecomp_iterations")), "count"},
      {"huffman.merges", static_cast<double>(count_of(c, "huffman.merges")), "count"},
      {"activity.ms", self_ms("activity"), "ms"},
      {"activity.bdd_nodes", static_cast<double>(tp.activity_bdd_nodes), "count"},
      {"bdd.ite_calls", ite_calls, "count"},
      {"bdd.ite_cache_hit_ratio",
       ite_calls > 0 ? static_cast<double>(count_of(c, "bdd.ite_cache_hits")) / ite_calls : 0.0,
       "ratio"},
      {"bdd.unique_lookups", static_cast<double>(count_of(c, "bdd.unique_lookups")), "count"},
      {"bdd.unique_table_peak", static_cast<double>(tp.unique_table_peak), "count"},
      {"bdd.mem.node_bytes_peak", static_cast<double>(tp.node_bytes_peak), "bytes"},
      {"map.area_ms", self_ms("map.area"), "ms"},
      {"map.power_ms", self_ms("map.power"), "ms"},
      {"map.curve_points_kept", kept, "count"},
      {"map.curve_keep_ratio", kept + pruned > 0 ? kept / (kept + pruned) : 0.0, "ratio"},
      {"map.max_curve_points", static_cast<double>(tp.curve_points_max), "count"},
      {"map.match_attempts", static_cast<double>(count_of(c, "map.match_attempts")), "count"},
      {"power.eval_ms", self_ms("power.eval"), "ms"},
      {"flow.session_ms", session_ms, "ms"},
      {"flow.self_ms", session_ms - layer_ms, "ms"},
      {"verify.equiv_ms", self_ms("verify.equiv"), "ms"},
      {"verify.mc_power_max_z", tp.mc_max_z, "sigma"},
      {"trace.overhead_ratio", flow_s > 0 ? circuit_ms / 1000.0 / flow_s : 0.0, "ratio"},
      {"trace.coverage_min", coverage_min, "ratio"},
  };
  if (coverage_min < 0.95)
    problems.push_back("layer spans cover only " + std::to_string(coverage_min) +
                       " of a circuit span");

  // ---- flow_s distribution: sample count and the highest percentile with
  // ten samples beyond it (none below eleven samples).
  std::vector<double> sorted_wall = wall;
  std::sort(sorted_wall.begin(), sorted_wall.end());
  const std::size_t n = sorted_wall.size();
  const double tail_pct = n >= 11 ? 100.0 * static_cast<double>(n - 10) / static_cast<double>(n) : 0.0;
  const double tail_s = n >= 11 ? sorted_wall[n - 11] : 0.0;

  // ---- record, trace, result.
  {
    std::ofstream f(record_path);
    JsonWriter w(f);
    w.begin_object();
    w.field("schema", "minpower.perfbench.v1");
    w.field("build", build);
    w.field("workload", wl->name);
    w.field("params", wl->params);
    w.field("seed", static_cast<unsigned long long>(args.seed));
    w.field("seconds", args.seconds);
    w.field("trace", args.trace);
    w.key("circuits");
    w.begin_array();
    for (const std::string& name : tp.names) w.value(name);
    w.end_array();
    w.key("setup_s");
    w.begin_array();
    for (double s : setup_samples) w.value(s);
    w.end_array();
    w.key("passes");
    w.begin_array();
    for (const PassSample& s : passes) {
      w.begin_object();
      w.field("wall_s", s.wall_s);
      w.field("cpu_s", s.cpu_s);
      w.field("session_s", s.session_s);
      w.end_object();
    }
    w.end_array();
    w.key("flow_s_tail");
    if (n >= 11) {
      w.begin_object();
      w.field("percentile", tail_pct);
      w.field("value", tail_s);
      w.end_object();
    } else {
      w.null();
    }
    w.key("end_to_end");
    write_metrics_object(w, end_to_end);
    w.key("per_layer");
    write_metrics_object(w, per_layer);
    w.field("attempted", static_cast<unsigned long long>(attempted));
    w.field("failed", static_cast<unsigned long long>(failed));
    w.field("degraded", static_cast<unsigned long long>(degraded));
    w.key("problems");
    w.begin_array();
    for (const std::string& p : problems) w.value(p);
    w.end_array();
    w.key("counters");
    w.begin_object();
    for (const auto& [name, value] : tp.session_counts)
      w.field(name, static_cast<unsigned long long>(value));
    w.end_object();
    w.key("cells");
    w.begin_array();
    for (std::size_t k = 0; k < attempted; ++k) {
      const FlowResult& r = reference[k / 6][k % 6];
      w.begin_object();
      w.field("circuit", tp.cells[k].circuit);
      w.field("method", method_name(tp.cells[k].method));
      w.field("state", task_state_name(r.status.state));
      w.field("area", r.area);
      w.field("delay", r.delay);
      w.field("power_uw", r.power_uw);
      w.field("gates", static_cast<unsigned long long>(r.gates));
      w.field("mc_z", tp.cells[k].mc_z);
      w.field("problem", cell_problem[k]);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    f << "\n";
  }
  if (args.trace) {
    std::ofstream f(stem + ".trace.json");
    f << trace_json.str() << "\n";
  }

  const bool correct = problems.empty();
  const std::vector<Metric>& shown = args.trace ? per_layer : end_to_end;
  std::printf("workload %s seed %llu: %zu circuits, %zu cells, %zu untraced passes\n",
              wl->name, static_cast<unsigned long long>(args.seed), tp.names.size(),
              attempted, n);
  if (n >= 11) std::printf("flow_s p%.0f %.4f s (median %.4f s)\n", tail_pct, tail_s, flow_s);
  for (const Metric& m : shown)
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& p : problems) std::printf("FAILED %s\n", p.c_str());
  std::printf("record %s\n", record_path.c_str());

  std::ostringstream line;
  {
    JsonWriter w(line, /*pretty=*/false);
    w.begin_object();
    w.field("correct", correct);
    w.field("attempted", static_cast<unsigned long long>(attempted));
    w.field("failed", static_cast<unsigned long long>(failed));
    w.key("metrics");
    write_metrics_object(w, shown);
    w.end_object();
  }
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
