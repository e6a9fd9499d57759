#pragma once
// End-to-end synthesis flows: the six method combinations of Tables 2 and 3.
//
//   Method I   : conventional decomposition + area-delay mapping
//   Method II  : MINPOWER decomposition     + area-delay mapping
//   Method III : BH-MINPOWER decomposition  + area-delay mapping
//   Method IV  : conventional decomposition + power-delay mapping
//   Method V   : MINPOWER decomposition     + power-delay mapping
//   Method VI  : BH-MINPOWER decomposition  + power-delay mapping
//
// Every method starts from the same technology-independent optimization
// (rugged-lite; the paper uses the SIS rugged script).
//
// Methods I/IV, II/V and III/VI operate on the *same* subject network (the
// pairs differ only in the mapping objective), so a full six-method run needs
// only three decompositions and three switching-activity passes. The
// FlowSession (session.hpp) exploits that and is the way to run all six;
// `run_method` runs one method standalone, the serial reference the
// session is tested against.

#include <string>
#include <vector>

#include "decomp/network_decompose.hpp"
#include "library/library.hpp"
#include "map/mapper.hpp"
#include "netlist/network.hpp"
#include "power/report.hpp"
#include "util/budget.hpp"

namespace minpower {

enum class Method { kI, kII, kIII, kIV, kV, kVI };

const char* method_name(Method m);

/// Inverse of method_name ("I".."VI"); false when `name` is not a method.
bool method_from_name(const std::string& name, Method* out);

/// Outcome of one fault-isolated engine task.
///   ok       — completed on the primary path;
///   degraded — completed, but on a fallback (MC activities, heuristic
///              ladder instead of the exact bounded-height search);
///   failed   — no result; `reason` explains, sibling tasks are unaffected.
enum class TaskState { kOk, kDegraded, kFailed };

const char* task_state_name(TaskState s);

/// Inverse of task_state_name ("ok"/"degraded"/"failed"); false otherwise.
bool task_state_from_name(const std::string& name, TaskState* out);

struct TaskStatus {
  TaskState state = TaskState::kOk;
  std::string reason;                  // empty when ok
  int retries = 0;                     // budget-shrunk re-attempts
  std::vector<std::string> fallbacks;  // e.g. "mc-activity", "greedy-ladder"
};

struct FlowOptions {
  CircuitStyle style = CircuitStyle::kStatic;
  double vdd = 5.0;
  double t_cycle = 50e-9;       // 20 MHz
  double po_load = 2.0;
  double epsilon_t = 0.02;
  double epsilon_c = 1e-3;      // curve ε-pruning, cost axis
  /// Hard cap on per-node mapper curve width (0 = unlimited, the exact
  /// paper algorithm). Scale sweeps set this: without it curve width grows
  /// with subject depth and mapping goes quadratic on chain-like circuits.
  std::size_t max_curve_points = 0;
  RequiredTimePolicy policy = RequiredTimePolicy::kRelaxedMinDelay;
  double relax_factor = 1.35;
  DagHeuristic dag = DagHeuristic::kFanoutDivision;

  /// Per-PI 1-probabilities (Network::pis() order); empty → 0.5 everywhere.
  /// Reaches decomposition, mapping, and power reporting.
  std::vector<double> pi_prob1;

  /// Per-PI arrival times in ns (Network::pis() order); empty → all zero.
  /// Reaches the bounded-height decomposition timing and the mapper's
  /// required-time computation.
  std::vector<double> pi_arrival;

  /// Resource budget applied to every engine task. A task that exhausts its
  /// budget degrades or fails in isolation (see TaskStatus); it never kills
  /// the run.
  std::size_t bdd_node_limit = kDefaultBddNodeLimit;
  double task_deadline_ms = 0.0;   // wall-clock per task; 0 = none
  std::size_t task_step_limit = 0; // budget checkpoints per task; 0 = none
};

/// Per-phase instrumentation of one method run (wall times are the only
/// fields that legitimately differ between repeated identical runs).
struct PhaseStats {
  double decomp_ms = 0.0;    // technology decomposition wall time
  double activity_ms = 0.0;  // BDD switching-activity pass wall time
  double map_ms = 0.0;       // curve construction + gate selection wall time
  double eval_ms = 0.0;      // mapped-netlist evaluation wall time

  std::size_t bdd_nodes = 0;     // BDD unique-table size, activity pass
  std::size_t matches = 0;       // matches enumerated during mapping
  std::size_t curve_points = 0;  // post-pruning curve points
  int redecomp_iterations = 0;   // bounded-height refinement loop count

  /// True when the decomposition / activity vector was computed once and
  /// shared with the sibling method (I↔IV, II↔V, III↔VI) by the FlowSession.
  bool shared_decomp = false;
  bool shared_activity = false;

  /// Pass totals of the producing run (an engine run over one circuit does
  /// 3 of each for 6 methods; a standalone `run_method` does 1 of each).
  int decomp_passes = 0;
  int activity_passes = 0;

  /// Degradation instrumentation: exact bounded-height searches that overran
  /// their step cap and fell back to the heuristic ladder, and halved-cap
  /// activity-pass retries taken before the result (or MC fallback) landed.
  int exact_fallbacks = 0;
  int activity_retries = 0;
};

struct FlowResult {
  std::string circuit;
  Method method = Method::kI;
  double area = 0.0;
  double delay = 0.0;        // ns
  double power_uw = 0.0;
  std::size_t gates = 0;
  // Decomposition-phase diagnostics:
  double tree_activity = 0.0;   // Σ internal switching activity of Γ'
  int nand_depth = 0;           // unit-delay depth of Γ'
  std::size_t nand_nodes = 0;
  int redecomposed = 0;         // bounded-height loop iterations
  // Phase instrumentation (FlowSession / run_method fill this in).
  PhaseStats phases;
  // Fault-isolation outcome of the task(s) that produced this result.
  TaskStatus status;
};

/// Apply rugged-lite preconditioning in place (every method's common start).
void prepare_network(Network& net);

/// Decomposition configuration of a method (shared by its sibling).
NetworkDecompOptions decomp_options_for(Method method,
                                        const FlowOptions& options);

/// Mapping configuration of a method. `activities` is left empty; callers
/// that share one activity pass across methods fill it in.
MapOptions map_options_for(Method method, const FlowOptions& options);

/// Run one method on an already-prepared network.
FlowResult run_method(const Network& prepared, Method method,
                      const Library& lib, const FlowOptions& options = {});

}  // namespace minpower
