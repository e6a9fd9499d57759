// Observability subsystem (DESIGN.md §10): the metrics registry contract
// (deterministic, thread-count-independent counters; stable handles across
// reset) and the span tracer contract (zero events when disabled; exported
// Chrome trace JSON parses, carries the required keys, and spans nest
// properly per thread).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/session.hpp"
#include "helpers.hpp"
#include "library/library.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/budget.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"

namespace minpower {
namespace {

std::string snapshot_json() {
  std::ostringstream os;
  JsonWriter w(os);
  metrics::write_metrics_json(w, metrics::Registry::global().snapshot());
  return os.str();
}

std::vector<Network> test_circuits() {
  std::vector<Network> circuits;
  for (const std::uint64_t seed : {11u, 22u}) {
    Network net = testing::random_network(seed, /*num_pi=*/6,
                                          /*num_nodes=*/14, /*num_po=*/3);
    prepare_network(net);
    circuits.push_back(std::move(net));
  }
  return circuits;
}

void run_flow_suite(const std::vector<Network>& circuits,
                    unsigned num_threads) {
  EngineOptions eo;
  eo.num_threads = num_threads;
  FlowSession engine(standard_library(), eo);
  std::vector<const Network*> ptrs;
  for (const Network& c : circuits) ptrs.push_back(&c);
  engine.run_suite(ptrs);
}

TEST(Metrics, CountersGaugesHistogramsAndReset) {
  metrics::Registry::global().reset();
  metrics::Counter& c = metrics::counter("test.counter");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name → same handle.
  EXPECT_EQ(&metrics::counter("test.counter"), &c);

  metrics::Gauge& g = metrics::gauge("test.gauge");
  g.record_max(7);
  g.record_max(3);
  EXPECT_EQ(g.value(), 7u);

  metrics::Histogram& h = metrics::histogram("test.hist");
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(1024);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.bucket(metrics::Histogram::bucket_of(0)), 1u);
  EXPECT_EQ(h.bucket(metrics::Histogram::bucket_of(5)), 1u);

  // Reset zeroes values but keeps the registered handles valid.
  metrics::Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.add(2);
  EXPECT_EQ(metrics::counter("test.counter").value(), 2u);
}

TEST(Metrics, HistogramLogBucketEdges) {
  using H = metrics::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0);
  EXPECT_EQ(H::bucket_of(1), 1);
  EXPECT_EQ(H::bucket_of(2), 2);
  EXPECT_EQ(H::bucket_of(3), 2);
  EXPECT_EQ(H::bucket_of(4), 3);
  EXPECT_EQ(H::bucket_of(1023), 10);
  EXPECT_EQ(H::bucket_of(1024), 11);
  EXPECT_EQ(H::bucket_lo(0), 0u);
  EXPECT_EQ(H::bucket_lo(1), 1u);
  EXPECT_EQ(H::bucket_lo(11), 1024u);
  // Bucket lower bound is always <= the smallest value mapping to it.
  for (const std::uint64_t v : {1u, 2u, 3u, 7u, 8u, 100u, 65535u, 65536u})
    EXPECT_LE(H::bucket_lo(H::bucket_of(v)), v) << v;
}

TEST(Metrics, SnapshotIsSortedAndSerializes) {
  metrics::Registry::global().reset();
  metrics::counter("z.last").add(1);
  metrics::counter("a.first").add(2);
  const metrics::Snapshot s = metrics::Registry::global().snapshot();
  for (std::size_t i = 1; i < s.counters.size(); ++i)
    EXPECT_LT(s.counters[i - 1].first, s.counters[i].first);

  std::string error;
  const auto parsed = parse_json(snapshot_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_NE(parsed->find("counters"), nullptr);
  ASSERT_NE(parsed->find("gauges"), nullptr);
  ASSERT_NE(parsed->find("histograms"), nullptr);
}

TEST(Metrics, BudgetCheckpointCountsPerSite) {
  metrics::Registry::global().reset();
  // No budget installed: the checkpoint is a no-op for governance but still
  // counts per site (alternating sites exercises the thread-local cache).
  budget_checkpoint("decomp");
  budget_checkpoint("map");
  budget_checkpoint("decomp");
  budget_checkpoint("decomp");
  budget_checkpoint("map");
  EXPECT_EQ(metrics::counter("budget.checkpoint.decomp").value(), 3u);
  EXPECT_EQ(metrics::counter("budget.checkpoint.map").value(), 2u);
}

TEST(Metrics, FlowCountersAreThreadCountInvariant) {
  // The acceptance criterion, asserted at the registry level: the full
  // metrics snapshot after a suite run is byte-identical at 1 and 8
  // threads.
  const std::vector<Network> circuits = test_circuits();

  metrics::Registry::global().reset();
  run_flow_suite(circuits, 1);
  const std::string serial = snapshot_json();

  metrics::Registry::global().reset();
  run_flow_suite(circuits, 8);
  const std::string parallel = snapshot_json();

  EXPECT_EQ(serial, parallel)
      << "metrics counters differ between --threads 1 and --threads 8";
  EXPECT_NE(serial.find("bdd.unique_lookups"), std::string::npos);
  EXPECT_NE(serial.find("huffman.merges"), std::string::npos);
  EXPECT_NE(serial.find("map.match_attempts"), std::string::npos);
  EXPECT_NE(serial.find("engine.tasks_ok"), std::string::npos);
}

TEST(Trace, DisabledProducesNoEvents) {
  trace::set_enabled(false);
  trace::clear();
  {
    trace::Span s("should-not-record", "test");
    s.arg("k", 1);
  }
  run_flow_suite(test_circuits(), 2);
  EXPECT_EQ(trace::num_events(), 0u);

  std::ostringstream os;
  trace::write_chrome_trace(os);
  std::string error;
  const auto parsed = parse_json(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const JsonValue& e : events->items)
    EXPECT_NE(e.find("ph")->string, "X") << "span event recorded while off";
}

TEST(Trace, FlowTraceParsesAndSpansNest) {
  trace::set_enabled(false);
  trace::clear();
  trace::set_enabled(true);
  run_flow_suite(test_circuits(), 4);
  trace::set_enabled(false);

  ASSERT_GT(trace::num_events(), 0u);
  std::ostringstream os;
  trace::write_chrome_trace(os);

  std::string error;
  const auto parsed = parse_json(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << "trace JSON invalid: " << error;
  const JsonValue* events = parsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(events->items.empty());

  struct Interval {
    double ts;
    double end;
    std::string name;
  };
  std::map<double, std::vector<Interval>> by_tid;
  std::set<std::string> names;
  for (const JsonValue& e : events->items) {
    for (const char* key : {"name", "ph", "pid", "tid"})
      ASSERT_NE(e.find(key), nullptr) << key;
    const std::string& ph = e.find("ph")->string;
    ASSERT_TRUE(ph == "X" || ph == "M") << ph;
    if (ph == "M") continue;
    for (const char* key : {"cat", "ts", "dur", "args"})
      ASSERT_NE(e.find(key), nullptr) << key;
    const double ts = e.find("ts")->number;
    const double dur = e.find("dur")->number;
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(dur, 0.0);
    names.insert(e.find("name")->string);
    by_tid[e.find("tid")->number].push_back(
        Interval{ts, ts + dur, e.find("name")->string});
  }
  // The whole instrumented pipeline shows up.
  for (const char* expected :
       {"stage1", "stage2", "decomp", "activity", "map", "eval"})
    EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;

  // Per thread, spans nest: any two intervals are disjoint or one contains
  // the other — a partial overlap would mean an end-before-begin or a
  // cross-thread buffer mixup.
  for (const auto& [tid, spans] : by_tid) {
    for (std::size_t i = 0; i < spans.size(); ++i)
      for (std::size_t j = i + 1; j < spans.size(); ++j) {
        const Interval& a = spans[i];
        const Interval& b = spans[j];
        const bool partial_overlap =
            (b.ts > a.ts && b.ts < a.end && b.end > a.end) ||
            (a.ts > b.ts && a.ts < b.end && a.end > b.end);
        EXPECT_FALSE(partial_overlap)
            << "tid " << tid << ": " << a.name << " [" << a.ts << ","
            << a.end << ") partially overlaps " << b.name << " [" << b.ts
            << "," << b.end << ")";
      }
  }
  trace::clear();
}

TEST(Trace, SpanArgsAreTyped) {
  trace::set_enabled(false);
  trace::clear();
  trace::set_enabled(true);
  {
    trace::Span s("typed", "test");
    s.arg("str", "hello");
    s.arg("num", 2.5);
    s.arg("int", -3);
    s.arg("uint", 7u);
  }
  trace::set_enabled(false);
  std::ostringstream os;
  trace::write_chrome_trace(os);
  std::string error;
  const auto parsed = parse_json(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue* args = nullptr;
  for (const JsonValue& e : parsed->find("traceEvents")->items)
    if (e.find("name")->string == "typed") args = e.find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("str")->string, "hello");
  EXPECT_EQ(args->find("num")->number, 2.5);
  EXPECT_EQ(args->find("int")->number, -3.0);
  EXPECT_EQ(args->find("uint")->number, 7.0);
  trace::clear();
}

// Enabling tracing starts the tracer origin, so the first span a fresh
// process closes is timed from its own start: an origin started at that
// span's close would clamp its start to the origin and record ~0 µs. The
// threadsafe death-test style re-executes the binary, so the statement runs
// in a process whose tracer has never been touched.
TEST(Trace, FirstSpanInFreshProcessCoversItsSleep) {
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
#endif
  EXPECT_EXIT(
      {
        constexpr std::uint64_t kSleepUs = 20'000;
        trace::set_enabled(true);
        {
          trace::Span first("first", "test");
          std::this_thread::sleep_for(std::chrono::microseconds(kSleepUs));
        }
        std::uint64_t dur_us = 0;
        for (const trace::ThreadEvents& t : trace::snapshot_events())
          for (const trace::Event& e : t.events)
            if (e.name == "first") dur_us = e.dur_us;
        std::fprintf(stderr, "first span: %llu us\n",
                     static_cast<unsigned long long>(dur_us));
        std::exit(dur_us >= kSleepUs ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "first span");
}

}  // namespace
}  // namespace minpower
