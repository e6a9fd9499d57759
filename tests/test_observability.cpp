// Unit tests for the cross-process observability plane (DESIGN.md §15):
// the span/metrics wire format (trace/wire.hpp) must round-trip exactly,
// snapshot merging must be partition-invariant, and the profiler must
// rebuild multi-pid traces into per-process forests with lifecycle instants
// and the supervisor-blocking breakdown.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "trace/analysis.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/wire.hpp"

namespace minpower {
namespace {

trace::Event make_event(const char* name, const char* cat, std::int64_t ts,
                        std::int64_t dur, char ph = 'X') {
  trace::Event e;
  e.name = name;
  e.cat = cat;
  e.ts_us = ts;
  e.dur_us = dur;
  e.ph = ph;
  return e;
}

TEST(Wire, EventsRoundTripExactly) {
  std::vector<trace::ThreadEvents> lanes(2);
  lanes[0].tid = 1;
  trace::Event span = make_event("stage1", "engine", 100, 50);
  trace::detail::add_arg(span, "circuit", std::string("c17"));
  trace::detail::add_arg(span, "group", static_cast<long long>(-2));
  trace::detail::add_arg(span, "nodes", static_cast<unsigned long long>(77));
  trace::detail::add_arg(span, "score", 0.5);
  lanes[0].events.push_back(span);
  trace::Event instant = make_event("worker-start", "shard", 120, 0, 'i');
  trace::detail::add_arg(instant, "pid", static_cast<long long>(4242));
  lanes[0].events.push_back(instant);
  lanes[1].tid = 7;
  lanes[1].events.push_back(make_event("map", "map", 10, 3));

  std::ostringstream os;
  trace::write_events_json(os, lanes);
  const std::string wire = os.str();
  // One '\n'-framable line: the pipe protocol ships it as `TRACE <json>`.
  EXPECT_EQ(wire.find('\n'), std::string::npos);

  std::string error;
  const auto parsed = trace::parse_events_json(wire, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 2u);
  const trace::ThreadEvents& t0 = (*parsed)[0];
  EXPECT_EQ(t0.tid, 1);
  ASSERT_EQ(t0.events.size(), 2u);
  const trace::Event& s = t0.events[0];
  EXPECT_EQ(s.name, "stage1");
  EXPECT_EQ(s.cat, "engine");
  EXPECT_EQ(s.ph, 'X');
  EXPECT_EQ(s.ts_us, 100);
  EXPECT_EQ(s.dur_us, 50);
  ASSERT_EQ(s.args.size(), 4u);
  EXPECT_EQ(s.args[0].key, "circuit");
  EXPECT_EQ(s.args[0].s, "c17");
  EXPECT_EQ(s.args[1].i, -2);
  EXPECT_EQ(s.args[2].u, 77u);
  EXPECT_EQ(s.args[3].d, 0.5);
  const trace::Event& i = t0.events[1];
  EXPECT_EQ(i.ph, 'i');
  EXPECT_EQ(i.name, "worker-start");
  EXPECT_EQ((*parsed)[1].tid, 7);
}

TEST(Wire, RejectsMalformedPayloads) {
  std::string error;
  EXPECT_FALSE(trace::parse_events_json("not json", &error).has_value());
  EXPECT_FALSE(trace::parse_events_json("{}", &error).has_value());
  EXPECT_FALSE(trace::parse_metrics_json("[1,2]", &error).has_value());
}

metrics::Snapshot snapshot_of(
    std::vector<std::pair<std::string, std::uint64_t>> counters,
    std::vector<std::pair<std::string, std::uint64_t>> gauges) {
  metrics::Snapshot s;
  s.counters = std::move(counters);
  s.gauges = std::move(gauges);
  return s;
}

TEST(Wire, MetricsRoundTripAndMerge) {
  metrics::Snapshot a = snapshot_of({{"bdd.ite_calls", 100}, {"x", 1}},
                                    {{"bdd.unique_table_peak", 500}});
  metrics::Snapshot::Hist h;
  h.name = "map.matches_per_node";
  h.count = 3;
  h.sum = 9;
  h.buckets = {{0, 1}, {2, 2}};
  a.histograms.push_back(h);

  std::ostringstream os;
  {
    JsonWriter w(os, /*pretty=*/false);
    metrics::write_metrics_json(w, a);
  }
  std::string error;
  const auto back = trace::parse_metrics_json(os.str(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->counters, a.counters);
  EXPECT_EQ(back->gauges, a.gauges);
  ASSERT_EQ(back->histograms.size(), 1u);
  EXPECT_EQ(back->histograms[0].buckets, h.buckets);

  // Merge: counters sum, gauges max, histogram buckets add.
  metrics::Snapshot b = snapshot_of({{"bdd.ite_calls", 11}},
                                    {{"bdd.unique_table_peak", 200}});
  metrics::Snapshot::Hist h2 = h;
  h2.count = 1;
  h2.sum = 4;
  h2.buckets = {{4, 1}};
  b.histograms = {h2};
  const metrics::Snapshot merged = trace::merge_snapshots({a, b});
  ASSERT_EQ(merged.counters.size(), 2u);
  EXPECT_EQ(merged.counters[0].first, "bdd.ite_calls");
  EXPECT_EQ(merged.counters[0].second, 111u);
  EXPECT_EQ(merged.gauges[0].second, 500u);  // max, not sum
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count, 4u);
  EXPECT_EQ(merged.histograms[0].sum, 13u);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want = {
      {0, 1}, {2, 2}, {4, 1}};
  EXPECT_EQ(merged.histograms[0].buckets, want);

  // Partition invariance: merging {a,b} equals merging {b} then {a} as
  // singleton parts in any split.
  const metrics::Snapshot merged2 =
      trace::merge_snapshots({trace::merge_snapshots({b}), a});
  EXPECT_EQ(merged2.counters, merged.counters);
  EXPECT_EQ(merged2.gauges, merged.gauges);
}

TEST(TraceCore, InstantsAndPidLaneExport) {
  trace::clear();
  trace::set_enabled(true);
  const int old_pid = trace::pid();
  trace::set_pid(4242);
  {
    trace::Instant i("worker-start", "shard");
    i.arg("pid", 7);
  }
  { trace::Span s("work", "engine"); }
  trace::set_enabled(false);

  const std::vector<trace::ThreadEvents> lanes = trace::snapshot_events();
  ASSERT_EQ(lanes.size(), 1u);
  ASSERT_EQ(lanes[0].events.size(), 2u);
  const trace::Event& instant = lanes[0].events[0];
  EXPECT_EQ(instant.ph, 'i');
  EXPECT_EQ(instant.name, "worker-start");
  ASSERT_EQ(instant.args.size(), 1u);
  EXPECT_EQ(instant.args[0].i, 7);
  EXPECT_EQ(lanes[0].events[1].ph, 'X');

  // The exporter stamps the configured pid on every event, and renders the
  // instant as a process-scoped mark without a duration.
  std::ostringstream os;
  trace::write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"pid\":4242"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"p\""), std::string::npos) << json;

  trace::set_pid(old_pid);
  trace::clear();

  // Disabled handles never record.
  {
    trace::Instant i("ignored", "shard");
    trace::Span s("ignored", "engine");
    EXPECT_FALSE(i.active());
    EXPECT_FALSE(s.active());
  }
  EXPECT_EQ(trace::num_events(), 0u);
}

TEST(MultiPidProfile, MergedLanesRebuildPerProcessForests) {
  // Synthetic merged trace: a supervisor lane (supervise span + lifecycle
  // instants) and two worker lanes with engine spans, exactly the shape
  // write_shard_trace emits.
  std::vector<trace::ProcessLane> lanes(3);
  lanes[0].pid = 100;
  lanes[0].name = "supervisor (pid 100)";
  trace::ThreadEvents sup;
  sup.tid = 1;
  {
    trace::Event sv = make_event("supervise", "shard", 0, 1000);
    trace::detail::add_arg(sv, "poll_wait_us",
                           static_cast<unsigned long long>(800));
    trace::detail::add_arg(sv, "polls", static_cast<unsigned long long>(20));
    sup.events.push_back(sv);
    trace::Event ws = make_event("worker-start", "shard", 5, 0, 'i');
    trace::detail::add_arg(ws, "pid", static_cast<long long>(200));
    sup.events.push_back(ws);
    sup.events.push_back(make_event("worker-crash", "shard", 400, 0, 'i'));
    sup.events.push_back(make_event("worker-restart", "shard", 450, 0, 'i'));
  }
  lanes[0].threads.push_back(sup);

  for (int wi = 0; wi < 2; ++wi) {
    trace::ProcessLane& lane = lanes[static_cast<std::size_t>(wi) + 1];
    lane.pid = 200 + wi;
    lane.name = "worker-" + std::to_string(wi);
    trace::ThreadEvents te;
    te.tid = 1;
    const std::int64_t base = 100 + 300 * wi;
    trace::Event s1 = make_event("stage1", "engine", base, 40 + 10 * wi);
    trace::detail::add_arg(s1, "circuit", std::string("c") +
                                              std::to_string(wi));
    trace::detail::add_arg(s1, "group", static_cast<long long>(0));
    trace::detail::add_arg(s1, "task", std::string("t1"));
    te.events.push_back(s1);
    trace::Event s2 = make_event("stage2", "engine", base + 60, 100 + 20 * wi);
    trace::detail::add_arg(s2, "circuit", std::string("c") +
                                              std::to_string(wi));
    trace::detail::add_arg(s2, "method", std::string("I"));
    trace::detail::add_arg(s2, "task", std::string("t2"));
    te.events.push_back(s2);
    lane.threads.push_back(te);
  }

  std::ostringstream os;
  trace::write_merged_chrome_trace(os, lanes);

  trace::TraceProfile p;
  std::string error;
  ASSERT_TRUE(trace::analyze_chrome_trace(os.str(), &p, &error)) << error;

  ASSERT_EQ(p.processes.size(), 3u);
  EXPECT_EQ(p.processes[0].pid, 100);
  EXPECT_EQ(p.processes[0].name, "supervisor (pid 100)");
  EXPECT_FALSE(p.processes[0].critical.available);
  EXPECT_EQ(p.processes[1].pid, 200);
  ASSERT_TRUE(p.processes[1].critical.available);
  EXPECT_EQ(p.processes[1].critical.barrier_us, 140u);  // 40 + 100
  ASSERT_TRUE(p.processes[2].critical.available);
  EXPECT_EQ(p.processes[2].critical.barrier_us, 170u);  // 50 + 120
  // Trace-level path is the dominant per-process one.
  EXPECT_EQ(p.critical.barrier_us, 170u);

  // Threads carry their pid; self time within each lane sums to busy.
  ASSERT_EQ(p.threads.size(), 3u);
  for (const trace::ThreadTotals& t : p.threads)
    EXPECT_EQ(t.self_us, t.busy_us);  // no nesting in this synthetic trace

  // Lifecycle instants in timestamp order, attributed to the supervisor.
  ASSERT_EQ(p.lifecycle.size(), 3u);
  EXPECT_EQ(p.lifecycle[0].name, "worker-start");
  EXPECT_EQ(p.lifecycle[0].pid, 100);
  ASSERT_NE(p.lifecycle[0].find_num("pid"), nullptr);
  EXPECT_EQ(*p.lifecycle[0].find_num("pid"), 200.0);
  EXPECT_EQ(p.lifecycle[1].name, "worker-crash");
  EXPECT_EQ(p.lifecycle[2].name, "worker-restart");

  // Supervisor-blocking breakdown from the supervise span args.
  ASSERT_TRUE(p.supervisor.available);
  EXPECT_EQ(p.supervisor.supervise_us, 1000u);
  EXPECT_EQ(p.supervisor.poll_wait_us, 800u);
  EXPECT_EQ(p.supervisor.busy_us(), 200u);
  EXPECT_EQ(p.supervisor.polls, 20u);

  // The JSON document renders without tripping assertions and keeps the
  // v1 top-level contract.
  std::ostringstream json;
  trace::write_profile_json(json, p, "synthetic", 10);
  EXPECT_NE(json.str().find("\"num_processes\": 3"), std::string::npos);
  std::ostringstream text;
  trace::print_profile(text, p, 10);
  EXPECT_NE(text.str().find("process lanes:"), std::string::npos);
  EXPECT_NE(text.str().find("lifecycle events:"), std::string::npos);
  EXPECT_NE(text.str().find("supervisor: supervise"), std::string::npos);
}

}  // namespace
}  // namespace minpower
