#include "shard/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <thread>

#include "shard/journal.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/wire.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/meminfo.hpp"

namespace minpower::shard {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMethodsPerCircuit = 6;
constexpr Method kMethods[kMethodsPerCircuit] = {
    Method::kI, Method::kII, Method::kIII,
    Method::kIV, Method::kV, Method::kVI};

/// Restart floor for the halved-per-restart BDD cap: low enough that a
/// genuine blowup degrades through the engine's ladder, high enough that
/// suite-sized circuits still complete on the primary path (byte-exact
/// cells after a restart).
constexpr std::size_t kMinWorkerBddLimit = 1u << 20;

bool is_worker_site(const std::string& site) {
  return site == "worker-abort" || site == "worker-hang" ||
         site == "worker-oom" || site == "worker-bloat";
}

/// One compact MEM protocol line from an OS memory sample.
std::string mem_record(const MemSample& m) {
  return "MEM {\"rss_kb\":" + std::to_string(m.rss_kb) +
         ",\"hwm_kb\":" + std::to_string(m.hwm_kb) + "}\n";
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Child-side pipe writer; the heartbeat thread and the compute loop share
/// the fd, so lines are written whole under a mutex.
class PipeWriter {
 public:
  explicit PipeWriter(int fd) : fd_(fd) {}

  bool write_line(std::string_view line) {
    std::lock_guard<std::mutex> lock(mu_);
    while (!line.empty()) {
      const ssize_t n = ::write(fd_, line.data(), line.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;  // supervisor gone
      }
      line.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

 private:
  int fd_;
  std::mutex mu_;
};

/// Body of a forked worker. Streams START/CELL/BEAT/MEM/DONE lines to the
/// supervisor and leaves only via _exit() — no static destructors, no
/// stdio flush of buffers inherited from the parent.
[[noreturn]] void worker_main(int pipe_fd,
                              const std::vector<std::size_t>& assigned,
                              const std::vector<const Network*>& circuits,
                              const Library& lib, const FlowOptions& flow,
                              const ShardOptions& options,
                              const std::vector<char>& skip_injection) {
  ::signal(SIGPIPE, SIG_IGN);
  // fork() copied the parent's span buffers and metrics registry; drop the
  // inherited values so this worker ships only its own work. The tracer
  // origin survives the clear — that shared CLOCK_MONOTONIC zero is what
  // keeps worker timestamps on the supervisor's timebase.
  trace::clear();
  metrics::Registry::global().reset();
  PipeWriter out(pipe_fd);
  std::atomic<bool> beating{true};
  std::thread heartbeat;
  if (options.heartbeat_ms > 0) {
    heartbeat = std::thread([&] {
      while (beating.load(std::memory_order_relaxed)) {
        if (!out.write_line("BEAT\n")) ::_exit(1);
        // Memory self-sample on the heartbeat tick: the kernel's view of
        // this worker (VmRSS/VmHWM) rides the same liveness cadence, so the
        // supervisor sees pressure building while the worker still lives.
        MemSample m;
        if (sample_self_memory(&m) && !out.write_line(mem_record(m)))
          ::_exit(1);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.heartbeat_ms));
      }
    });
  }

  // worker-* sites are consumed below; everything else reaches the engine
  // with its usual in-process semantics. The env var must NOT leak into the
  // worker's engine: the engine disables result sharing whenever any
  // injection is armed, which would change the surviving cells' shared_*
  // flags and break byte-exactness against un-injected runs.
  ::unsetenv("MINPOWER_INJECT_FAULT");
  std::vector<FaultInjection> engine_injections;
  for (const FaultInjection& f : options.injections)
    if (!is_worker_site(f.site)) engine_injections.push_back(f);
  FlowSession session(
      lib, EngineOptions{flow, options.worker_threads, engine_injections,
                         /*verbose=*/false});

  int code = 0;
  try {
    for (const std::size_t ci : assigned) {
      if (!out.write_line("START " + std::to_string(ci) + "\n")) ::_exit(1);
      if (!skip_injection[ci]) {
        for (const FaultInjection& f : options.injections) {
          if (f.ordinal != static_cast<long>(ci) || !is_worker_site(f.site))
            continue;
          if (f.site == "worker-abort") std::abort();
          if (f.site == "worker-oom") ::raise(SIGKILL);
          if (f.site == "worker-hang") {
            beating.store(false, std::memory_order_relaxed);
            for (;;) ::pause();  // silent until the supervisor SIGKILLs us
          }
          if (f.site == "worker-bloat") {
            // Allocate and touch a ~160 MiB ballast, then hold it across
            // several heartbeat periods so shipped MEM samples cross the
            // supervisor's watermarks while BEATs keep flowing — any kill
            // under --mem-limit-mb must come from memory governance, not
            // the heartbeat reaper. Without a limit the ballast is simply
            // released and the circuit computes normally.
            std::vector<char> ballast(std::size_t{160} << 20);
            for (std::size_t off = 0; off < ballast.size(); off += 4096)
              ballast[off] = 1;
            const int tick =
                options.heartbeat_ms > 0 ? options.heartbeat_ms : 50;
            std::this_thread::sleep_for(std::chrono::milliseconds(tick * 8));
          }
        }
      }
      const std::vector<FlowResult> results =
          session.run_circuit(*circuits[ci]);
      for (std::size_t mi = 0; mi < results.size(); ++mi) {
        std::ostringstream cell;
        {
          JsonWriter w(cell, /*pretty=*/false);
          write_flow_result_json(w, results[mi]);
        }
        if (!out.write_line("CELL " + std::to_string(ci) + " " +
                            std::to_string(mi) + " " + cell.str() + "\n"))
          ::_exit(1);
      }
    }
    // Ship the observability snapshots before DONE: run_circuit has joined
    // all engine tasks, so the buffers/registry are quiescent here.
    if (trace::enabled()) {
      std::ostringstream events;
      trace::write_events_json(events, trace::snapshot_events());
      if (!out.write_line("TRACE " + events.str() + "\n")) ::_exit(1);
    }
    {
      std::ostringstream snap;
      {
        JsonWriter w(snap, /*pretty=*/false);
        metrics::write_metrics_json(w, metrics::Registry::global().snapshot());
      }
      if (!out.write_line("METRICS " + snap.str() + "\n")) ::_exit(1);
    }
    // Final memory sample: VmHWM here is the incarnation's true peak even
    // when the heartbeat cadence missed a short-lived spike.
    {
      MemSample m;
      if (sample_self_memory(&m) && !out.write_line(mem_record(m)))
        ::_exit(1);
    }
    out.write_line("DONE\n");
  } catch (const std::exception&) {
    // Engine tasks are individually fault-isolated, so an escaping
    // exception is unexpected; die visibly and let the supervisor restart.
    code = 3;
  }
  beating.store(false, std::memory_order_relaxed);
  ::_exit(code);
}

std::string describe_death(int status) {
  if (WIFEXITED(status))
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    return "killed by signal " + std::to_string(sig) + " (" +
           strsignal(sig) + ")";
  }
  return "died with wait status " + std::to_string(status);
}

struct WorkerState {
  pid_t pid = -1;
  int fd = -1;  // pipe read end (nonblocking); -1 when not running
  std::string buf;
  std::vector<std::size_t> queue;  // owned circuits not yet complete
  long current = -1;               // circuit last STARTed, -1 between
  int restarts = 0;
  bool restart_pending = false;
  bool kill_sent = false;      // reaper/mem SIGKILL already delivered
  bool mem_soft_seen = false;  // soft watermark instant already raised
  Clock::time_point last_activity;
  Clock::time_point restart_at;

  bool live() const { return pid >= 0; }
  bool finished() const { return !live() && !restart_pending; }
};

}  // namespace

bool run_sharded_suite(const std::vector<const Network*>& circuits,
                       const Library& lib, const FlowOptions& flow,
                       const ShardOptions& options, ShardRun* out,
                       std::string* error) {
  // Construct the tracer singleton before any fork so every worker inherits
  // this process's CLOCK_MONOTONIC origin (shared timebase for the merged
  // trace).
  trace::ensure_origin();
  const std::size_t n = circuits.size();
  ShardRun run;
  run.mem_limit_mb = options.mem_limit_mb;
  run.per_circuit.assign(n, std::vector<FlowResult>(kMethodsPerCircuit));
  std::vector<std::string> names(n);
  for (std::size_t ci = 0; ci < n; ++ci) {
    names[ci] = circuits[ci]->name();
    for (std::size_t mi = 0; mi < kMethodsPerCircuit; ++mi) {
      run.per_circuit[ci][mi].circuit = names[ci];
      run.per_circuit[ci][mi].method = kMethods[mi];
    }
  }
  std::vector<std::vector<char>> done(n,
                                      std::vector<char>(kMethodsPerCircuit, 0));
  const std::string fingerprint = suite_fingerprint(circuits, flow);

  // Resume: validate the journal against this exact suite, then seed the
  // merged report with its cells.
  Journal resumed;
  bool have_resume = false;
  if (!options.resume_path.empty()) {
    if (!load_journal(options.resume_path, &resumed, error)) return false;
    if (resumed.library != lib.name())
      return fail(error, "journal " + options.resume_path + " was written "
                         "for library '" + resumed.library + "', not '" +
                         lib.name() + "'");
    if (resumed.suite_hash != fingerprint || resumed.circuits != names)
      return fail(error, "journal " + options.resume_path + " does not match "
                         "this suite (different circuits or flow options)");
    for (const JournalCell& c : resumed.cells) {
      if (done[c.ci][c.mi]) continue;  // duplicate line: first wins
      run.per_circuit[c.ci][c.mi] = c.result;
      done[c.ci][c.mi] = 1;
      ++run.stats.cells_resumed;
    }
    have_resume = true;
  }

  JournalWriter journal;
  if (!options.journal_path.empty()) {
    if (have_resume && options.journal_path == options.resume_path) {
      if (!journal.open_append(options.journal_path, error)) return false;
    } else {
      if (!journal.create(options.journal_path, lib.name(), fingerprint,
                          names, error))
        return false;
      // Re-journal resumed cells so the new journal stands on its own.
      for (const JournalCell& c : resumed.cells)
        if (done[c.ci][c.mi]) journal.append_cell(c.ci, c.mi, c.result);
    }
  }

  // Circuits still needing work, partitioned round-robin across shards.
  std::vector<std::size_t> pending;
  for (std::size_t ci = 0; ci < n; ++ci)
    for (std::size_t mi = 0; mi < kMethodsPerCircuit; ++mi)
      if (!done[ci][mi]) {
        pending.push_back(ci);
        break;
      }
  const unsigned shards = std::max(
      1u, std::min<unsigned>(std::max(options.shards, 1u),
                             static_cast<unsigned>(
                                 std::max<std::size_t>(pending.size(), 1))));

  std::vector<WorkerState> workers(shards);
  for (std::size_t i = 0; i < pending.size(); ++i)
    workers[i % shards].queue.push_back(pending[i]);

  std::vector<int> crash_count(n, 0);

  // Supervisor diagnostics, verbose runs only: each event is one whole
  // `[shard:info] …` stderr line, written by a single call.
  const auto log = [&](const char* fmt, auto... args) {
    if (!options.verbose) return;
    char msg[1024];
    std::snprintf(msg, sizeof msg, fmt, args...);
    std::fprintf(stderr, "[shard:info] %s\n", msg);
  };

  const auto spawn = [&](WorkerState& w) -> bool {
    int fds[2];
    if (::pipe(fds) != 0)
      return fail(error, std::string("pipe: ") + std::strerror(errno));
    // Restarted workers skip the one-shot process faults of circuits that
    // already crashed (otherwise recovery could never be observed) and run
    // under a halved BDD cap per restart, handing a genuine blowup to the
    // engine's degradation ladder instead of crashing again.
    std::vector<char> skip(n, 0);
    for (std::size_t ci = 0; ci < n; ++ci) skip[ci] = crash_count[ci] > 0;
    FlowOptions tightened = flow;
    const int shift = std::min(w.restarts, 20);
    tightened.bdd_node_limit =
        std::max(flow.bdd_node_limit >> shift, kMinWorkerBddLimit);
    if (shift > 0 && tightened.bdd_node_limit < flow.bdd_node_limit) {
      trace::Instant i("budget-tighten", "shard");
      i.arg("restarts", w.restarts);
      i.arg("bdd_node_limit", tightened.bdd_node_limit);
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return fail(error, std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      ::close(fds[0]);
      worker_main(fds[1], w.queue, circuits, lib, tightened, options, skip);
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    w.pid = pid;
    w.fd = fds[0];
    w.buf.clear();
    w.current = -1;
    w.restart_pending = false;
    w.kill_sent = false;
    w.mem_soft_seen = false;
    w.last_activity = Clock::now();
    ++run.stats.workers_spawned;
    {
      trace::Instant i("worker-start", "shard");
      i.arg("pid", static_cast<long long>(pid));
      i.arg("circuits", w.queue.size());
      i.arg("bdd_node_limit", tightened.bdd_node_limit);
      i.arg("restarts", w.restarts);
    }
    log("spawned worker pid %d (%zu circuits, bdd cap %zu)",
        static_cast<int>(pid), w.queue.size(), tightened.bdd_node_limit);
    return true;
  };

  const auto mark_cell = [&](std::size_t ci, std::size_t mi,
                             FlowResult result) {
    if (done[ci][mi]) return;  // journaled/earlier value wins
    result.circuit = names[ci];
    result.method = kMethods[mi];
    if (result.status.state != TaskState::kFailed)
      journal.append_cell(ci, mi, result);
    run.per_circuit[ci][mi] = std::move(result);
    done[ci][mi] = 1;
    ++run.stats.cells_computed;
  };

  const auto circuit_complete = [&](std::size_t ci) {
    for (std::size_t mi = 0; mi < kMethodsPerCircuit; ++mi)
      if (!done[ci][mi]) return false;
    return true;
  };

  const auto fail_circuit = [&](std::size_t ci, const std::string& death) {
    for (std::size_t mi = 0; mi < kMethodsPerCircuit; ++mi) {
      if (done[ci][mi]) continue;
      FlowResult& r = run.per_circuit[ci][mi];
      r.status.state = TaskState::kFailed;
      r.status.reason = "shard worker " + death + " while computing " +
                        names[ci] + "; " +
                        std::to_string(options.max_circuit_retries) +
                        " retries exhausted";
      r.status.retries = options.max_circuit_retries;
      done[ci][mi] = 1;
      ++run.stats.cells_failed;
    }
    {
      trace::Instant i("retry-exhausted", "shard");
      i.arg("circuit", names[ci]);
      i.arg("crashes", crash_count[ci]);
    }
    log("circuit %s abandoned after %d crashes", names[ci].c_str(),
        crash_count[ci]);
  };

  // One OS memory sample for a worker (MEM record or direct /proc read):
  // fold it into the per-incarnation peaks, mirror it into the merged trace
  // as a ph:"C" counter series on the supervisor lane, and enforce the
  // mem-limit watermarks. The sample value itself never reaches the
  // canonical merged report — it is not deterministic.
  const auto note_worker_memory = [&](WorkerState& w, std::size_t rss_kb,
                                      std::size_t hwm_kb) {
    const int idx = static_cast<int>(&w - workers.data());
    WorkerMemory* slot = nullptr;
    for (auto it = run.worker_memory.rbegin(); it != run.worker_memory.rend();
         ++it)
      if (it->pid == static_cast<int>(w.pid)) {
        slot = &*it;
        break;
      }
    if (slot == nullptr) {
      run.worker_memory.push_back(
          WorkerMemory{idx, static_cast<int>(w.pid), 0, 0});
      slot = &run.worker_memory.back();
    }
    slot->peak_rss_kb = std::max(slot->peak_rss_kb, rss_kb);
    slot->peak_hwm_kb = std::max(slot->peak_hwm_kb, hwm_kb);
    if (trace::enabled()) {
      trace::Event e;
      e.name = "mem.worker-" + std::to_string(idx);
      e.cat = "shard";
      e.ph = 'C';
      e.ts_us = trace::detail::to_us(trace::Tracer::Clock::now() -
                                     trace::Tracer::instance().origin());
      trace::detail::add_arg(e, "rss_kb",
                             static_cast<unsigned long long>(rss_kb));
      trace::detail::add_arg(e, "hwm_kb",
                             static_cast<unsigned long long>(hwm_kb));
      trace::Tracer::instance().record(std::move(e));
    }
    if (options.mem_limit_mb == 0 || !w.live() || w.kill_sent) return;
    const std::size_t limit_kb = options.mem_limit_mb * 1024;
    const std::size_t soft_kb = limit_kb - limit_kb / 5;  // ~80%
    if (rss_kb >= limit_kb) {
      ++run.stats.mem_pressure_events;
      {
        trace::Instant i("mem-pressure", "shard");
        i.arg("level", "hard");
        i.arg("pid", static_cast<long long>(w.pid));
        i.arg("rss_kb", static_cast<unsigned long long>(rss_kb));
        i.arg("limit_mb",
              static_cast<unsigned long long>(options.mem_limit_mb));
      }
      {
        trace::Instant i("sigkill", "shard");
        i.arg("pid", static_cast<long long>(w.pid));
        i.arg("reason", "mem-limit");
      }
      log("worker pid %d rss %zu kB breached the %zu MiB limit; SIGKILL",
          static_cast<int>(w.pid), rss_kb, options.mem_limit_mb);
      ::kill(w.pid, SIGKILL);
      w.kill_sent = true;
      ++run.stats.mem_kills;
    } else if (rss_kb >= soft_kb && !w.mem_soft_seen) {
      w.mem_soft_seen = true;
      ++run.stats.mem_pressure_events;
      trace::Instant i("mem-pressure", "shard");
      i.arg("level", "soft");
      i.arg("pid", static_cast<long long>(w.pid));
      i.arg("rss_kb", static_cast<unsigned long long>(rss_kb));
      i.arg("limit_mb", static_cast<unsigned long long>(options.mem_limit_mb));
      log("worker pid %d rss %zu kB crossed the soft watermark (%zu kB)",
          static_cast<int>(w.pid), rss_kb, soft_kb);
    }
  };

  // One complete protocol line from a worker. False on a protocol breach
  // (the worker is then killed and handled through the crash path).
  const auto handle_line = [&](WorkerState& w,
                               const std::string& line) -> bool {
    if (line == "BEAT" || line == "DONE") return true;
    if (line.rfind("MEM ", 0) == 0) {
      std::string parse_error;
      const std::optional<JsonValue> v =
          parse_json(line.substr(4), &parse_error);
      if (!v || v->kind != JsonValue::Kind::kObject) return false;
      std::size_t rss_kb = 0;
      std::size_t hwm_kb = 0;
      if (const JsonValue* r = v->find("rss_kb"))
        rss_kb = r->number > 0 ? static_cast<std::size_t>(r->number) : 0;
      if (const JsonValue* h = v->find("hwm_kb"))
        hwm_kb = h->number > 0 ? static_cast<std::size_t>(h->number) : 0;
      note_worker_memory(w, rss_kb, hwm_kb);
      return true;
    }
    if (line.rfind("TRACE ", 0) == 0) {
      std::string parse_error;
      std::optional<std::vector<trace::ThreadEvents>> threads =
          trace::parse_events_json(line.substr(6), &parse_error);
      if (!threads) return false;
      trace::ProcessLane lane;
      lane.pid = static_cast<int>(w.pid);
      lane.name = "worker-" +
                  std::to_string(static_cast<std::size_t>(&w - workers.data())) +
                  " (pid " + std::to_string(static_cast<int>(w.pid)) + ")";
      lane.threads = std::move(*threads);
      run.worker_lanes.push_back(std::move(lane));
      return true;
    }
    if (line.rfind("METRICS ", 0) == 0) {
      std::string parse_error;
      std::optional<metrics::Snapshot> snap =
          trace::parse_metrics_json(line.substr(8), &parse_error);
      if (!snap) return false;
      run.worker_metrics.push_back(std::move(*snap));
      return true;
    }
    if (line.rfind("START ", 0) == 0) {
      char* end = nullptr;
      const long ci = std::strtol(line.c_str() + 6, &end, 10);
      if (end == line.c_str() + 6 || ci < 0 ||
          ci >= static_cast<long>(n))
        return false;
      w.current = ci;
      return true;
    }
    if (line.rfind("CELL ", 0) == 0) {
      std::istringstream head(line.substr(5));
      std::size_t ci = 0;
      std::size_t mi = 0;
      if (!(head >> ci >> mi) || ci >= n || mi >= kMethodsPerCircuit)
        return false;
      std::string payload;
      std::getline(head, payload);
      std::string parse_error;
      std::optional<JsonValue> v = parse_json(payload, &parse_error);
      if (!v) return false;
      FlowResult result;
      if (!parse_flow_result_json(*v, &result, &parse_error)) return false;
      mark_cell(ci, mi, std::move(result));
      if (circuit_complete(ci)) {
        w.queue.erase(std::remove(w.queue.begin(), w.queue.end(), ci),
                      w.queue.end());
        if (w.current == static_cast<long>(ci)) w.current = -1;
      }
      return true;
    }
    return false;
  };

  const auto handle_death = [&](WorkerState& w) -> bool {
    ::close(w.fd);
    w.fd = -1;
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    const std::string death = describe_death(status);
    w.pid = -1;
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (w.queue.empty() && clean) {
      log("worker finished cleanly");
      return true;
    }
    // Crash (or a clean exit that abandoned work, which is the same breach).
    ++run.stats.worker_crashes;
    const std::size_t victim = w.current >= 0
                                   ? static_cast<std::size_t>(w.current)
                                   : (w.queue.empty() ? n : w.queue.front());
    {
      trace::Instant i("worker-crash", "shard");
      i.arg("death", death);
      if (victim < n) i.arg("circuit", names[victim]);
    }
    log("worker %s (current circuit: %s)", death.c_str(),
        victim < n ? names[victim].c_str() : "none");
    if (victim < n) {
      ++crash_count[victim];
      if (crash_count[victim] > options.max_circuit_retries) {
        fail_circuit(victim, death);
        w.queue.erase(std::remove(w.queue.begin(), w.queue.end(), victim),
                      w.queue.end());
      }
    }
    w.current = -1;
    if (w.queue.empty()) return true;  // nothing left worth restarting for
    const int shift = std::min(w.restarts, 20);
    const long long delay =
        std::min<long long>(static_cast<long long>(options.backoff_ms)
                                << shift,
                            options.max_backoff_ms);
    w.restart_at = Clock::now() + std::chrono::milliseconds(delay);
    w.restart_pending = true;
    ++w.restarts;
    ++run.stats.worker_restarts;
    {
      trace::Instant i("worker-restart", "shard");
      i.arg("backoff_ms", delay);
      i.arg("circuits_left", w.queue.size());
      i.arg("restarts", w.restarts);
    }
    log("restarting in %lld ms (%zu circuits left)", delay, w.queue.size());
    return true;
  };

  for (WorkerState& w : workers) {
    if (w.queue.empty()) continue;
    if (!spawn(w)) return false;
  }

  const auto all_finished = [&] {
    for (const WorkerState& w : workers)
      if (!w.finished()) return false;
    return true;
  };

  // The supervise span wraps the whole multiplex loop; its args feed the
  // profiler's supervisor-blocking breakdown (blocked-in-poll vs draining
  // pipes / lifecycle handling).
  trace::Span supervise_span("supervise", "shard");
  std::uint64_t poll_wait_us = 0;
  std::uint64_t poll_calls = 0;
  const auto charge_wait = [&](const Clock::time_point t0) {
    poll_wait_us += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              t0)
            .count());
  };

  Clock::time_point last_mem_sample{};  // epoch → first loop samples

  while (!all_finished()) {
    const Clock::time_point now = Clock::now();

    // Due restarts.
    for (WorkerState& w : workers)
      if (w.restart_pending && now >= w.restart_at)
        if (!spawn(w)) return false;

    // Memory governance: under a limit the supervisor also samples each
    // live worker's /proc/<pid>/status directly at heartbeat cadence — a
    // worker wedged inside a huge allocation ships no MEM records, but the
    // kernel still tells the truth about it.
    if (options.mem_limit_mb > 0 &&
        now - last_mem_sample >= std::chrono::milliseconds(
                                     std::max(options.heartbeat_ms, 1))) {
      last_mem_sample = now;
      for (WorkerState& w : workers) {
        if (!w.live() || w.kill_sent) continue;
        MemSample m;
        if (sample_process_memory(static_cast<long>(w.pid), &m))
          note_worker_memory(w, m.rss_kb, m.hwm_kb);
      }
    }

    // Heartbeat reaper.
    if (options.heartbeat_timeout_ms > 0) {
      for (WorkerState& w : workers) {
        if (!w.live() || w.kill_sent) continue;
        if (now - w.last_activity >
            std::chrono::milliseconds(options.heartbeat_timeout_ms)) {
          {
            trace::Instant i("heartbeat-timeout", "shard");
            i.arg("pid", static_cast<long long>(w.pid));
          }
          {
            trace::Instant i("sigkill", "shard");
            i.arg("pid", static_cast<long long>(w.pid));
            i.arg("reason", "heartbeat-timeout");
          }
          log("worker pid %d missed heartbeat deadline; SIGKILL",
              static_cast<int>(w.pid));
          ::kill(w.pid, SIGKILL);
          w.kill_sent = true;
          ++run.stats.heartbeat_kills;
        }
      }
    }

    std::vector<pollfd> fds;
    std::vector<WorkerState*> owners;
    for (WorkerState& w : workers) {
      if (!w.live()) continue;
      fds.push_back(pollfd{w.fd, POLLIN, 0});
      owners.push_back(&w);
    }
    if (fds.empty()) {
      // Only pending restarts remain; sleep toward the nearest one.
      const Clock::time_point t0 = Clock::now();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      charge_wait(t0);
      continue;
    }
    const Clock::time_point poll_start = Clock::now();
    const int rc = ::poll(fds.data(), fds.size(), /*timeout_ms=*/50);
    charge_wait(poll_start);
    ++poll_calls;
    if (rc < 0 && errno != EINTR)
      return fail(error, std::string("poll: ") + std::strerror(errno));

    for (std::size_t i = 0; i < fds.size(); ++i) {
      WorkerState& w = *owners[i];
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool eof = false;
      char chunk[4096];
      for (;;) {
        const ssize_t got = ::read(w.fd, chunk, sizeof(chunk));
        if (got > 0) {
          w.buf.append(chunk, static_cast<std::size_t>(got));
          continue;
        }
        if (got == 0) {
          eof = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        eof = true;  // unexpected read error: treat as worker loss
        break;
      }
      std::size_t start = 0;
      bool breach = false;
      for (;;) {
        const std::size_t nl = w.buf.find('\n', start);
        if (nl == std::string::npos) break;
        const std::string line = w.buf.substr(start, nl - start);
        start = nl + 1;
        w.last_activity = now;
        if (!handle_line(w, line)) {
          log("protocol breach from pid %d: '%s'", static_cast<int>(w.pid),
              line.c_str());
          breach = true;
          break;
        }
      }
      w.buf.erase(0, start);
      if (breach && w.live() && !w.kill_sent) {
        {
          trace::Instant i("sigkill", "shard");
          i.arg("pid", static_cast<long long>(w.pid));
          i.arg("reason", "protocol-breach");
        }
        ::kill(w.pid, SIGKILL);
        w.kill_sent = true;
        continue;  // EOF (and the crash path) follows on the next poll
      }
      if (eof && !handle_death(w)) return false;
    }
  }
  supervise_span.arg("poll_wait_us", static_cast<long long>(poll_wait_us));
  supervise_span.arg("polls", static_cast<long long>(poll_calls));

  // Defensive: every cell must be accounted for (computed, resumed, or
  // failed). A hole here is a supervisor bug; surface it as failed cells
  // rather than an incomplete document.
  for (std::size_t ci = 0; ci < n; ++ci)
    for (std::size_t mi = 0; mi < kMethodsPerCircuit; ++mi)
      if (!done[ci][mi]) {
        FlowResult& r = run.per_circuit[ci][mi];
        r.status.state = TaskState::kFailed;
        r.status.reason = "shard supervisor lost this cell";
        ++run.stats.cells_failed;
      }

  *out = std::move(run);
  return true;
}

void write_sharded_flow_json(std::ostream& os, const ShardRun& run,
                             unsigned shards,
                             const std::string& library_name) {
  // The canonical cold per-circuit pass counts (3 decomp + 3 activity + 6
  // map), independent of worker placement, restarts, or resume — counter
  // drift would break resumed-vs-uninterrupted byte identity.
  EngineCounters counters;
  const int n = static_cast<int>(run.per_circuit.size());
  counters.decomp_passes = 3 * n;
  counters.activity_passes = 3 * n;
  counters.map_passes = 6 * n;
  FlowJsonPolicy policy;
  policy.canonical = true;
  write_flow_json(os, run.per_circuit, counters, shards, /*elapsed_ms=*/0.0,
                  library_name, policy);
}

void write_shard_trace(std::ostream& os, const ShardRun& run) {
  std::vector<trace::ProcessLane> lanes;
  trace::ProcessLane sup;
  sup.pid = static_cast<int>(::getpid());
  sup.name = "supervisor (pid " + std::to_string(sup.pid) + ")";
  sup.threads = trace::snapshot_events();
  lanes.push_back(std::move(sup));
  lanes.insert(lanes.end(), run.worker_lanes.begin(), run.worker_lanes.end());
  trace::write_merged_chrome_trace(os, lanes);
}

void write_shard_metrics_json(std::ostream& os, const ShardRun& run,
                              unsigned shards) {
  // The supervisor's own registry joins the fold: circuit preparation
  // (rugged_lite BDD work) runs in this process before the forks, and
  // workers reset the inherited copy — without this lane the merged
  // counters would undercount exactly that prep work relative to a
  // single-process run.
  std::vector<metrics::Snapshot> parts = run.worker_metrics;
  parts.push_back(metrics::Registry::global().snapshot());
  const metrics::Snapshot merged = trace::merge_snapshots(parts);
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.field("schema", "minpower.shard_metrics.v1");
  w.field("shards", static_cast<unsigned long long>(shards));
  w.field("workers_reporting",
          static_cast<unsigned long long>(run.worker_metrics.size()));
  w.key("metrics");
  metrics::write_metrics_json(w, merged);
  w.key("shard");
  w.begin_object();
  w.field("workers_spawned",
          static_cast<unsigned long long>(run.stats.workers_spawned));
  w.field("worker_crashes",
          static_cast<unsigned long long>(run.stats.worker_crashes));
  w.field("worker_restarts",
          static_cast<unsigned long long>(run.stats.worker_restarts));
  w.field("heartbeat_kills",
          static_cast<unsigned long long>(run.stats.heartbeat_kills));
  w.field("mem_kills", static_cast<unsigned long long>(run.stats.mem_kills));
  w.field("mem_pressure_events",
          static_cast<unsigned long long>(run.stats.mem_pressure_events));
  w.field("cells_resumed",
          static_cast<unsigned long long>(run.stats.cells_resumed));
  w.field("cells_computed",
          static_cast<unsigned long long>(run.stats.cells_computed));
  w.field("cells_failed",
          static_cast<unsigned long long>(run.stats.cells_failed));
  w.end_object();
  // OS memory peaks per worker incarnation (kB, kernel-reported). These are
  // observational, not deterministic — which is exactly why they live here
  // and never in the canonical merged report.
  w.key("memory");
  w.begin_object();
  w.field("limit_mb", static_cast<unsigned long long>(run.mem_limit_mb));
  w.key("workers");
  w.begin_array();
  for (const WorkerMemory& m : run.worker_memory) {
    w.begin_object();
    w.field("worker", m.worker);
    w.field("pid", m.pid);
    w.field("peak_rss_kb", static_cast<unsigned long long>(m.peak_rss_kb));
    w.field("peak_hwm_kb", static_cast<unsigned long long>(m.peak_hwm_kb));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  os << '\n';
}

}  // namespace minpower::shard
