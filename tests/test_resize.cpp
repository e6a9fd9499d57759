#include <gtest/gtest.h>

#include "decomp/network_decompose.hpp"
#include "helpers.hpp"
#include "power/resize.hpp"
#include "trace/metrics.hpp"
#include "util/rng.hpp"

namespace minpower {
namespace {

TEST(EquivalentCells, InverterFamily) {
  const Library& lib = standard_library();
  const auto cells = equivalent_cells(lib, *lib.find("inv2"));
  ASSERT_GE(cells.size(), 3u);  // inv1, inv2, inv4
  for (const Gate* g : cells) EXPECT_EQ(g->num_inputs(), 1);
}

TEST(EquivalentCells, Nand2IsNotNor2) {
  const Library& lib = standard_library();
  const auto cells = equivalent_cells(lib, *lib.find("nand2"));
  for (const Gate* g : cells) EXPECT_NE(g->name, "nor2");
}

MapResult map_circuit(std::uint64_t seed, Network& subject_out,
                      RequiredTimePolicy policy) {
  Network raw = testing::random_network(seed, 6, 14, 3);
  NetworkDecompOptions d;
  subject_out = decompose_network(raw, d).network;
  MapOptions o;
  o.policy = policy;
  // Bias toward larger drive choices by mapping for minimum delay, leaving
  // room for the resizer to downsize.
  o.objective = MapObjective::kArea;
  return map_network(subject_out, standard_library(), o);
}

TEST(Resize, NeverDegradesPowerOrViolatesTiming) {
  for (std::uint64_t seed = 900; seed < 908; ++seed) {
    Network subject;
    MapResult r = map_circuit(seed, subject, RequiredTimePolicy::kMinDelay);
    if (r.mapped.gates.empty()) continue;
    ResizeOptions o;
    const ResizeResult res = downsize_gates(r.mapped, o);
    EXPECT_LE(res.power_after, res.power_before + 1e-9) << seed;
    // Required times default to the starting arrivals: delay must not grow.
    EXPECT_LE(res.delay_after, res.delay_before + 1e-9) << seed;
  }
}

TEST(Resize, RunsAtMostOneActivityPass) {
  Network subject;
  MapResult r = map_circuit(903, subject, RequiredTimePolicy::kMinDelay);
  ASSERT_FALSE(r.mapped.gates.empty());
  metrics::Counter& passes = metrics::counter("activity.passes");
  ResizeOptions o;
  MappedNetwork copy = r.mapped;
  std::uint64_t before = passes.value();
  const ResizeResult computed = downsize_gates(copy, o);
  EXPECT_EQ(passes.value() - before, 1u);

  o.power.activities = switching_activities(subject, o.power.style);
  before = passes.value();
  const ResizeResult supplied = downsize_gates(r.mapped, o);
  EXPECT_EQ(passes.value() - before, 0u);
  EXPECT_EQ(supplied.swaps, computed.swaps);
  EXPECT_EQ(supplied.power_after, computed.power_after);
}

TEST(Resize, PreservesFunction) {
  for (std::uint64_t seed = 910; seed < 915; ++seed) {
    Network subject;
    MapResult r = map_circuit(seed, subject, RequiredTimePolicy::kMinDelay);
    if (r.mapped.gates.empty()) continue;
    // Record behaviour before.
    Rng rng(seed);
    std::vector<std::vector<bool>> vectors;
    std::vector<std::vector<bool>> expected;
    for (int t = 0; t < 40; ++t) {
      std::vector<bool> pi(subject.pis().size());
      for (std::size_t i = 0; i < pi.size(); ++i) pi[i] = rng.coin();
      expected.push_back(r.mapped.eval(pi));
      vectors.push_back(std::move(pi));
    }
    ResizeOptions o;
    downsize_gates(r.mapped, o);
    r.mapped.check();
    for (std::size_t t = 0; t < vectors.size(); ++t)
      EXPECT_EQ(r.mapped.eval(vectors[t]), expected[t]) << seed;
  }
}

TEST(Resize, LooseRequiredTimesAllowMoreSwaps) {
  Network subject;
  MapResult tight_map =
      map_circuit(77, subject, RequiredTimePolicy::kMinDelay);
  Network subject2;
  MapResult loose_map =
      map_circuit(77, subject2, RequiredTimePolicy::kMinDelay);
  if (tight_map.mapped.gates.empty()) GTEST_SKIP();

  ResizeOptions tight;  // required = starting arrivals
  const ResizeResult rt = downsize_gates(tight_map.mapped, tight);

  ResizeOptions loose;
  loose.po_required.assign(loose_map.mapped.po_signal.size(), 1e9);
  const ResizeResult rl = downsize_gates(loose_map.mapped, loose);

  EXPECT_LE(rl.power_after, rt.power_after + 1e-9);
  EXPECT_GE(rl.swaps, rt.swaps);
}

TEST(Resize, ReportsConsistentNumbers) {
  Network subject;
  MapResult r = map_circuit(88, subject, RequiredTimePolicy::kMinDelay);
  if (r.mapped.gates.empty()) GTEST_SKIP();
  ResizeOptions o;
  const ResizeResult res = downsize_gates(r.mapped, o);
  const MappedReport now = evaluate_mapped(r.mapped, o.power);
  EXPECT_NEAR(res.power_after, now.power_uw, 1e-9);
  EXPECT_NEAR(res.delay_after, now.delay, 1e-9);
}

}  // namespace
}  // namespace minpower
