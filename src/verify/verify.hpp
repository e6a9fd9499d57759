#pragma once
// Differential verification harness for the decompose → map → power pipeline.
//
// Every stage of the flow is cross-checked against an independent reference:
//   * equivalence oracle — global BDDs prove the optimized network, its
//     NAND2/INV decomposition and the mapped gate netlist all compute the
//     source functions (Sections 2.3 and 3 both rest on this);
//   * activity oracle — for small-PI circuits, exact switching activity by
//     weighted exhaustive enumeration must match the Eq. 2 BDD traversal,
//     and the analytic mapped power must agree with a zero-delay Monte-Carlo
//     estimate within statistical bounds;
//   * optimality oracles — Huffman (Theorem 2.2) and package-merge
//     (BOUNDED-HEIGHT MINSUM) results are compared with plain brute-force /
//     DP references for small leaf counts;
//   * curve invariants — every Curve stays non-inferior, sorted, insertion-
//     order independent and prune-idempotent (Lemma 3.1), and the mapper's
//     Curve::merge keeps exactly what sequential insert keeps.
//
// Seed convention: every failure records the single seed that reproduces it
// via `minpower verify --seed <seed> --count 1`. The harness derives all of
// one iteration's randomness from that one seed, so a CI failure with a
// date-derived base seed is one command away from a local repro.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "decomp/model.hpp"
#include "map/mapped.hpp"
#include "netlist/network.hpp"
#include "power/report.hpp"

namespace minpower::verify {

struct VerifyOptions {
  std::uint64_t seed = 1;  // iteration i uses seed + i
  int count = 200;         // seeded iterations (one random circuit each)

  /// Exhaustive activity oracle runs only when the circuit has at most this
  /// many PIs (2^n weighted assignments per network).
  int max_exhaustive_pis = 12;

  /// Monte-Carlo vector(-pair) samples for the power convergence check;
  /// 0 disables the check.
  int mc_samples = 1500;

  /// Acceptance band for the Monte-Carlo estimate, in standard errors.
  double mc_sigmas = 6.0;

  bool check_circuits = true;  // equivalence + activity + Monte-Carlo
  bool check_trees = true;     // Huffman / package-merge optimality
  bool check_curves = true;    // Curve invariants
};

struct VerifyFailure {
  std::string check;   // stable id, e.g. "decomp-equivalence"
  std::uint64_t seed;  // reproduce: minpower verify --seed <seed> --count 1
  std::string detail;
};

struct VerifyReport {
  int circuits = 0;            // random circuits pushed through the pipeline
  int equivalence_checks = 0;  // BDD equivalence assertions
  int activity_checks = 0;     // exhaustive-vs-BDD probability assertions
  int monte_carlo_checks = 0;  // analytic-vs-simulated power assertions
  int tree_checks = 0;         // tree/level optimality assertions
  int curve_checks = 0;        // curve invariant assertions

  /// Informational Table-1-style rate: Modified Huffman hits the brute-force
  /// optimum in `modified_huffman_optimal` of `modified_huffman_total`
  /// static-style instances (a heuristic — not asserted, just reported).
  int modified_huffman_optimal = 0;
  int modified_huffman_total = 0;

  std::vector<VerifyFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Run every enabled oracle on `count` seeded iterations. Deterministic in
/// the options.
VerifyReport run_verification(const VerifyOptions& options);

/// Single-seed entry points used by run_verification and the tests.
void verify_circuit(std::uint64_t seed, const VerifyOptions& options,
                    VerifyReport& report);
void verify_trees(std::uint64_t seed, VerifyReport& report);
void verify_curves(std::uint64_t seed, VerifyReport& report);

/// BDD equivalence of a mapped netlist against the source network it
/// realizes: PIs matched by name, POs by name, gate functions composed from
/// their genlib expressions.
bool mapped_network_equivalent(const Network& source,
                               const MappedNetwork& mapped);

/// Exact per-node signal probabilities by weighted exhaustive enumeration
/// over all 2^n PI assignments (oracle for the BDD pass; n small). An empty
/// `pi_prob1` means 0.5 at every PI.
std::vector<double> exhaustive_signal_probabilities(
    const Network& net, const std::vector<double>& pi_prob1);

/// Zero-delay Monte-Carlo power estimate of a mapped netlist under the same
/// net-load model as evaluate_mapped. Returns the estimate and its standard
/// error, both in µW. Deterministic in the seed.
struct McPowerEstimate {
  double power_uw = 0.0;
  double stderr_uw = 0.0;
};
McPowerEstimate monte_carlo_power(const MappedNetwork& mapped,
                                  const PowerParams& params, int samples,
                                  std::uint64_t seed);

/// Independent minimum of Σ w_i·l_i over level assignments with l_i ≤
/// max_level and Kraft equality (the BOUNDED-HEIGHT MINSUM objective;
/// rearrangement-inequality enumeration, n ≤ 12).
double reference_length_limited_cost(const std::vector<double>& weights,
                                     int max_level);

/// Plain recursive minimum of internal tree cost over all merge orders — no
/// pruning, optionally height-bounded (max_height < 0 = unbounded). The
/// fully independent oracle for huffman_tree / best_tree_exhaustive /
/// bounded_height_minpower_tree; practical for n ≤ 6.
double reference_best_tree_cost(const std::vector<double>& leaf_probs,
                                const DecompModel& model, int max_height = -1);

/// Machine-readable `minpower.verify.v1` report (schema in DESIGN.md §8).
void write_verify_json(std::ostream& os, const VerifyOptions& options,
                       const VerifyReport& report);

}  // namespace minpower::verify
