#pragma once
// FlowSession: the shared-decomposition, multi-threaded runner behind the
// six-method evaluation of Tables 2–3 (DESIGN.md §7, §13).
//
// The method pairs I/IV, II/V and III/VI differ only in the mapping
// objective — they operate on the *same* decomposed subject network. A run
// therefore splits into two fan-out stages:
//
//   stage 1  (circuit × decomposition group, 3 per circuit):
//            decompose once, run one BDD switching-activity pass over the
//            resulting subject network;
//   stage 2  (circuit × method, 6 per circuit):
//            map the shared subject with the method's objective and
//            evaluate the mapped netlist, reusing the shared activities.
//
// Intra-batch work sharing: each stage-1 and stage-2 unit is keyed on the
// circuit's structural hash ⊕ option fingerprint ⊕ the unit's tag, and
// identical units within one run_suite batch are computed once, with the
// duplicates reusing the result (circuit name rewritten). Planning is
// serial, so results and pass counters are independent of thread count.
// Nothing outlives the call: each run_suite computes every distinct unit
// afresh.
//
// Threading model: independent tasks are executed on a std::thread worker
// pool (work-stealing via an atomic task index). Every task that needs BDDs
// builds its own BddManager internally — the manager is not thread-safe and
// is never shared across threads. All shared inputs (Network, Library,
// options) are read-only during a run. Results are written to pre-sized
// slots indexed by (circuit, method), so output ordering — and every
// computed value — is deterministic and independent of the thread count.
//
// Fault isolation: every task runs under its own Budget (FlowOptions carries
// the per-task limits). A task that exhausts its budget degrades (MC
// activity fallback, heuristic-ladder decomposition) or fails, recording a
// TaskStatus into its pre-sized result slot; sibling tasks and the pool are
// untouched and the run completes with partial results.
//
// Deterministic fault injection matches tasks by *ordinal* — the task's slot
// index, not a temporal counter — so an injected fault hits the same task at
// any thread count:
//   stage-1 task (decomp + activity):  ordinal = circuit*3 + group
//   stage-2 task (map + evaluate):     ordinal = 3*num_circuits
//                                                + circuit*6 + method_index
// (a single-circuit run thus has stage-1 ordinals 0–2, stage-2 3–8).
// A run with armed faults disables intra-batch work sharing so every
// ordinal above stays a live task.

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "flow/flow.hpp"
#include "util/budget.hpp"
#include "util/hash.hpp"

namespace minpower {

class JsonWriter;   // util/json_writer.hpp
struct JsonValue;   // util/json_reader.hpp

struct EngineOptions {
  FlowOptions flow;
  /// Worker threads (0 → hardware concurrency). 1 runs inline.
  unsigned num_threads = 1;
  /// Armed faults, merged with MINPOWER_INJECT_FAULT at each run_suite
  /// call (see the ordinal scheme above). A run with armed faults bypasses
  /// the intra-batch dedup so every task ordinal stays live.
  std::vector<FaultInjection> injections;
  /// Emit one live stderr status line per finished task. Lines are built
  /// whole and written under a mutex, so threads never interleave output.
  bool verbose = false;
};

/// Cumulative computed-pass counts over the session's lifetime. Intra-batch
/// duplicates do not count — these are passes actually run.
struct EngineCounters {
  int decomp_passes = 0;    // decompose_network invocations
  int activity_passes = 0;  // switching_activities invocations
  int map_passes = 0;       // map_network invocations
};

/// Canonical structural hash of a network: invariant under PI/node
/// declaration-order permutations (node hashes are derived from fanin
/// hashes; PI and PO contributions are combined as sorted multisets), and
/// sensitive to any functional change — a single-literal flip, an
/// added/removed cube, a different PO binding. Node and PI *names* of
/// internal nodes do not participate; PI/PO names do (they bind option
/// vectors and outputs). The BDD variable order (pi_variable_order) enters
/// as (PI name, variable) pairs, so networks that would run their BDD
/// passes under different orders never share work.
Hash128 structural_hash(const Network& net);

/// Fingerprint of every FlowOptions field that can change a result,
/// with per-PI probabilities/arrivals bound by PI *name* (so a permuted
/// netlist with correspondingly permuted vectors fingerprints identically).
Hash128 option_fingerprint(const FlowOptions& options, const Network& net);

class FlowSession {
 public:
  explicit FlowSession(const Library& lib, EngineOptions options = {});

  FlowSession(const FlowSession&) = delete;
  FlowSession& operator=(const FlowSession&) = delete;

  /// All six methods of one prepared circuit, in Method order.
  std::vector<FlowResult> run_circuit(const Network& prepared);

  /// Fan out (circuit × method) over the pool; result [i] holds circuit i's
  /// six methods in Method order. Concurrent calls on one session are safe:
  /// each fans out its own workers and the counters are locked.
  std::vector<std::vector<FlowResult>> run_suite(
      const std::vector<const Network*>& circuits);

  EngineCounters counters() const;
  void reset_counters();

  /// The thread count a run will actually use (resolves 0).
  unsigned effective_threads() const;

 private:
  const Library& lib_;
  EngineOptions options_;
  /// Guards counters_ (concurrent run_suite calls accumulate).
  mutable std::mutex counters_mu_;
  EngineCounters counters_;
};

/// Serialization policy for `write_flow_json`. The default produces the
/// classic CLI/bench document; `canonical` zeroes the wall-time fields and
/// drops the (process-global, scheduling-dependent) metrics snapshot, so
/// sharded, journaled and resumed runs of one suite render byte-identically.
struct FlowJsonPolicy {
  bool canonical = false;
};

/// Serialize per-circuit six-method results (plus engine pass counters and
/// a `metrics` block snapshotting the global metrics registry) as the
/// machine-readable flow-bench schema `minpower.flow.v1` — see
/// DESIGN.md §"Flow engine" for the field list.
void write_flow_json(std::ostream& os,
                     const std::vector<std::vector<FlowResult>>& per_circuit,
                     const EngineCounters& counters, unsigned num_threads,
                     double elapsed_ms, const std::string& library_name,
                     const FlowJsonPolicy& policy = {});

/// Render one method cell exactly as it appears in the `methods[]` array of
/// `minpower.flow.v1` (the inner loop of write_flow_json). The shard journal
/// and the pipe protocol between shard workers and the supervisor serialize
/// cells through this single path, so a result that round-trips through
/// parse_flow_result_json re-renders byte-identically (doubles are emitted
/// as %.17g, which strtod recovers exactly).
void write_flow_result_json(JsonWriter& w, const FlowResult& r,
                            const FlowJsonPolicy& policy = {});

/// Inverse of write_flow_result_json over a parsed JSON object. The circuit
/// name is not part of the method object; callers fill `out->circuit`.
/// False (with `error`) on a missing/mistyped field or unknown enum name.
bool parse_flow_result_json(const JsonValue& v, FlowResult* out,
                            std::string* error);

}  // namespace minpower
