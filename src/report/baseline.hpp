#pragma once
// QoR baseline / regression-compare subsystem (DESIGN.md §11).
//
// Loads two `minpower.flow.v1` reports and diffs them cell by cell, where a
// cell is one (circuit × method) result:
//
//   - QoR values (power_uw, area, delay_ns, gates) and the task status are
//     an *exact lock* by default: any drift beyond the configured tolerance
//     — including an improvement — is a gate failure, because baselines
//     record what the code computes, and improvements must be banked by
//     regenerating the baseline deliberately (MINPOWER_REGEN_BASELINE=1).
//   - Metrics-registry counters/gauges/histograms are deterministic and
//     thread-count independent (DESIGN.md §10), so they compare exactly —
//     but only when both reports cover the same circuit set; a subset run
//     (the CI gate) skips them with a recorded reason. Histogram drift is
//     additionally summarized as p50/p90/p99 shifts estimated from the
//     log-2 buckets (the estimate is the inclusive lower bound of the
//     bucket holding the quantile sample).
//   - Wall times are noisy, so they gate only on *slowdown* beyond a
//     configurable band (default +20%), and per-phase times below a floor
//     (default 1 ms) are ignored entirely.
//
// Cells present only in the baseline are "skipped" (a subset candidate is
// fine unless require_all is set); cells only in the candidate are "new"
// and never fail the gate.
//
// Consumed by `minpower compare <baseline> <candidate>`, which prints the
// verdict table, emits `minpower.compare.v1`, and exits 3 on regression.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "flow/flow.hpp"
#include "trace/metrics.hpp"

namespace minpower::report {

/// Nearest-rank q-quantile estimated from the log-2 buckets: the inclusive
/// lower bound of the bucket containing the ⌈q·count⌉-th sample. Exact for
/// the bucket, a factor-2 under-estimate of the sample at worst.
std::uint64_t histogram_percentile(const metrics::Snapshot::Hist& h, double q);

/// A parsed `minpower.flow.v1` document, reduced to what compare needs.
/// Each part has the reader the rest of the tool uses: cells come from
/// parse_flow_result_json (the shard journal's and pipe's reader), with
/// `circuit` filled in here; the metrics block from
/// trace::parse_metrics_value (empty when the report has none).
struct FlowReportDoc {
  std::string path;     // label for messages/reports
  std::string library;
  double elapsed_ms = 0.0;
  std::vector<std::string> circuits;  // order of appearance
  std::vector<FlowResult> cells;
  metrics::Snapshot metrics;
};

/// Parse a report from JSON text. Returns false (with `error`) on
/// malformed JSON, a wrong/missing schema marker, or a malformed cell or
/// field; the message names the circuit and the field.
bool load_flow_report(std::string_view json_text, const std::string& label,
                      FlowReportDoc* out, std::string* error);

/// Convenience: read + parse a report file.
bool load_flow_report_file(const std::string& path, FlowReportDoc* out,
                           std::string* error);

struct CompareOptions {
  /// QoR tolerance: |cand − base| ≤ abs_tol + rel_tol·|base| passes.
  /// Both default to 0 — exact match.
  double qor_rel_tol = 0.0;
  double qor_abs_tol = 0.0;
  /// Allowed fractional wall-time slowdown (0.2 = +20%). Negative
  /// disables every wall-time check. Speedups never fail.
  double time_band = 0.20;
  /// Per-phase times with a baseline below this floor are ignored (they
  /// are scheduling noise, not signal).
  double time_floor_ms = 1.0;
  /// Treat baseline cells missing from the candidate as regressions
  /// (full-suite lock) instead of "skipped" (subset gate).
  bool require_all = false;
  /// Compare the metrics-registry block (counters/gauges/histograms).
  /// Disable (`--qor-only`) when vetting an intentional engine change whose
  /// operation counts legitimately move but whose QoR must stay locked —
  /// the gate that precedes a deliberate baseline regeneration.
  bool check_metrics = true;
};

enum class Verdict {
  kOk,             // within tolerance
  kQorRegressed,   // QoR value drifted worse than tolerance
  kQorImproved,    // QoR value drifted better — still fails the exact lock
  kStatusChanged,  // task state differs (e.g. ok → degraded)
  kSlow,           // wall time beyond the slowdown band
  kSkipped,        // in baseline only (subset candidate)
  kNew,            // in candidate only
};

const char* verdict_name(Verdict v);

/// One offending metric of a cell.
struct Delta {
  std::string metric;
  double base = 0.0;
  double cand = 0.0;
};

struct CellResult {
  std::string circuit;
  std::string method;
  Verdict verdict = Verdict::kOk;
  std::vector<Delta> deltas;  // offending metrics only
};

struct MetricDiff {
  std::string name;
  std::uint64_t base = 0;
  std::uint64_t cand = 0;
};

struct HistDiff {
  std::string name;
  std::uint64_t base_count = 0, cand_count = 0;
  std::uint64_t base_sum = 0, cand_sum = 0;
  std::uint64_t base_p50 = 0, cand_p50 = 0;
  std::uint64_t base_p90 = 0, cand_p90 = 0;
  std::uint64_t base_p99 = 0, cand_p99 = 0;
};

struct CompareReport {
  std::string baseline_path;
  std::string candidate_path;
  CompareOptions options;
  std::vector<CellResult> cells;  // every baseline ∪ candidate cell
  // Registry comparison (exact); skipped when circuit sets differ.
  bool metrics_checked = false;
  std::string metrics_skip_reason;
  std::vector<MetricDiff> counter_diffs;  // differing entries only
  std::vector<MetricDiff> gauge_diffs;
  std::vector<HistDiff> histogram_diffs;
  // Whole-run wall time.
  double base_elapsed_ms = 0.0;
  double cand_elapsed_ms = 0.0;
  bool elapsed_slow = false;
  // Verdict tallies over `cells`.
  int ok = 0, qor_regressed = 0, qor_improved = 0, status_changed = 0,
      slow = 0, skipped = 0, added = 0;

  bool regression() const {
    return qor_regressed + qor_improved + status_changed + slow > 0 ||
           !counter_diffs.empty() || !gauge_diffs.empty() ||
           !histogram_diffs.empty() || elapsed_slow ||
           (options.require_all && skipped > 0);
  }
};

CompareReport compare_flow_reports(const FlowReportDoc& base,
                                   const FlowReportDoc& cand,
                                   const CompareOptions& options);

/// Emit the `minpower.compare.v1` document.
void write_compare_json(std::ostream& os, const CompareReport& r);

/// Human-readable verdict table: summary line + every non-ok cell with its
/// offending metrics, plus registry and wall-time findings.
void print_compare(std::ostream& os, const CompareReport& r);

}  // namespace minpower::report
