// Benchmark steps: runs one step of a perfbench workload in-process and
// prints one JSON object per line. perfbench/run.py orchestrates the steps,
// times the subprocess workloads and checks every decision output.
//
//   perfbench_plain  setup  --workload=W --seed=S
//   perfbench_plain  export --workload=W --seed=S --stream=F --log=G
//   perfbench_plain  replay --workload=W --stream=F --log=G --seconds=X
//                           [--times=T]
//   perfbench_plain  grid   --spec=F --trials=T --seed=S --threads=N
//   perfbench_plain  selftest
//   perfbench_plain  measure --usage=F -- PROGRAM ARGS...
//
// perfbench_traced takes the same commands and additionally reports the
// per-layer counters of tracer.hpp; `--spans=F` dumps its kept spans.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "exp/experiment.hpp"
#include "exp/sweep.hpp"
#include "metrics/aggregate.hpp"
#include "online/online_scheduler.hpp"
#include "online/replay.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"
#include "tracer.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/spec_parser.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"

namespace perfbench {
namespace {

using namespace taskdrop;

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

/// The PET matrix of the in-process steps is the paper's configuration, not
/// an input: --seed varies the task streams only.
constexpr std::uint64_t kScenarioSeed = 42;

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

/// serve-stream: one long PAM+heuristic trial with machine failures.
ExperimentConfig serve_config(std::uint64_t seed) {
  ExperimentConfig c;
  c.mapper = "PAM";
  c.dropper = DropperConfig::heuristic();
  c.workload.n_tasks = 60000;
  c.workload.oversubscription = 3.0;
  c.failures.enabled = true;
  c.seed = seed;
  return c;
}

/// fig8-grid's per-event probe: the optimal-dropper cell of the 30k level,
/// the cell that dominates the grid's time.
ExperimentConfig fig8_probe_config(std::uint64_t seed) {
  ExperimentConfig c;
  c.mapper = "PAM";
  c.dropper = DropperConfig::optimal();
  c.workload.n_tasks = 3000;
  c.workload.oversubscription = 3.0;
  c.seed = seed;
  return c;
}

ExperimentConfig workload_config(const std::string& workload,
                                 std::uint64_t seed) {
  if (workload == "serve-stream") return serve_config(seed);
  if (workload == "fig8-grid") return fig8_probe_config(seed);
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

/// The set-up probe of fig8-grid builds the PET the sweep builds: the
/// sweep takes one seed for its PET and its task streams.
std::uint64_t scenario_seed(const std::string& workload, std::uint64_t seed) {
  return workload == "fig8-grid" ? seed : kScenarioSeed;
}

std::uint64_t seed_flag(const Flags& flags) {
  const std::int64_t seed = flags.get_int("seed", 42);
  if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
  return static_cast<std::uint64_t>(seed);
}

/// run_trial with the decorators installed (traced binary) — the same
/// construction as exp/experiment.cpp, so decisions must match it exactly.
TrialMetrics traced_trial(const ExperimentConfig& config,
                          const Scenario& scenario, const CostModel& cost,
                          std::size_t trial, int unit, std::int64_t& gen_ns) {
  Tracer& tracer = Tracer::local();
  WorkloadConfig workload = config.workload;
  workload.seed = Rng::derive(config.seed, trial)();
  const std::int64_t g0 = now_ns();
  const Trace trace =
      generate_trace(scenario.pet, scenario.machine_count(), workload);
  gen_ns += now_ns() - g0;

  auto mapper = make_mapper(config.mapper, config.candidate_window);
  auto dropper = make_dropper(config.dropper);
  TracedMapper traced_mapper(*mapper);
  TracedDropper traced_dropper(*dropper);

  EngineConfig ec;
  ec.queue_capacity = config.queue_capacity;
  ec.engagement = config.engagement;
  ec.condition_running = config.condition_running;
  ec.paranoid_invalidate = config.paranoid_invalidate;
  ec.exec_seed = Rng::derive(config.seed, 1000 + trial)();
  ec.failures = config.failures;
  ec.failures.seed = Rng::derive(config.seed, 2000 + trial)();
  ec.approx = config.approx;
  if (config.dropper.kind == DropperConfig::Kind::Approx) {
    ec.approx.enabled = true;
  }
  Engine engine(scenario.pet, scenario.profile.machine_types, traced_mapper,
                traced_dropper, ec);
  tracer.begin_unit(unit);
  const SimResult result = engine.run(trace);
  tracer.end_unit();
  return compute_trial_metrics(result, cost, config.exclude_head,
                               config.exclude_tail,
                               ec.approx.utility_weight);
}

/// Merged counters of every thread plus the workload-generation time, as a
/// JSON object; dumps the kept spans to `spans_path` when given.
std::string layers_json(std::int64_t gen_ns, const std::string& spans_path) {
  Counters c;
  std::vector<Span> kept;
  for (Tracer* t : Tracer::all()) {
    c.merge(t->counters());
    kept.insert(kept.end(), t->kept().begin(), t->kept().end());
  }
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    out << "name\tstart_ns\tend_ns\tparent\tunit\tprob_ns\n";
    for (const Span& s : kept) {
      out << span_name(s.kind) << '\t' << s.start_ns << '\t' << s.end_ns
          << '\t' << s.parent << '\t' << s.unit << '\t' << s.prob_ns << '\n';
    }
  }
  const auto ms = [](std::int64_t ns) { return num(static_cast<double>(ns) / 1e6); };
  const auto k = [](SpanKind kind) { return static_cast<int>(kind); };
  std::ostringstream o;
  o << "{\"prob.shift_calls\":" << c.prob_shift
    << ",\"prob.direct_calls\":" << c.prob_direct
    << ",\"prob.fft_calls\":" << c.prob_fft
    << ",\"prob.bin_products\":" << num(c.prob_bin_products)
    << ",\"prob.ms\":" << ms(c.prob_ns)
    << ",\"core.chain.convs\":" << c.chain_convs
    << ",\"core.chain.ms\":" << ms(c.chain_ns)
    << ",\"core.dropper.window_convs\":" << c.window_convs
    << ",\"core.dropper.window_ms\":" << ms(c.window_ns)
    << ",\"core.dropper.calls\":" << c.dropper_calls
    << ",\"core.dropper.effective\":" << c.dropper_effective
    << ",\"core.dropper.ms\":" << ms(c.incl_ns[k(SpanKind::Dropper)])
    << ",\"core.dropper.self_ms\":" << ms(c.self_ns[k(SpanKind::Dropper)])
    << ",\"sched.mapper.calls\":" << c.mapper_calls
    << ",\"sched.mapper.effective\":" << c.mapper_effective
    << ",\"sched.mapper.ms\":" << ms(c.incl_ns[k(SpanKind::Mapper)])
    << ",\"sched.mapper.self_ms\":" << ms(c.self_ns[k(SpanKind::Mapper)])
    << ",\"online.callbacks\":" << c.callbacks
    << ",\"online.callback_self_ms\":" << ms(c.self_ns[k(SpanKind::Callback)])
    << ",\"root.self_ms\":" << ms(c.self_ns[k(SpanKind::Root)])
    << ",\"root.ms\":" << ms(c.incl_ns[k(SpanKind::Root)])
    << ",\"workload.gen_ms\":" << ms(gen_ns) << "}";
  return o.str();
}

// ---- stream export / replay ------------------------------------------------

/// One line of the serve stream protocol (tools/taskdrop_cli.cpp).
struct StreamEvent {
  char op = 'a';  // a(rrive) f(inish) d(own) u(p) v (advance)
  Tick t = 0;
  long long a = 0, b = 0;
};

/// Writes `log`'s environment trace as serve stream lines (Start events
/// are dropped: the daemon confirms its own starts) and its decisions in
/// the daemon's log format.
void export_stream(const ReplayLog& log, std::ostream& stream,
                   std::ostream& decisions) {
  for (const ReplayEvent& e : log.events) {
    switch (e.kind) {
      case ReplayEvent::Kind::Arrive: {
        const TaskSpec& spec = log.tasks[static_cast<std::size_t>(e.task)];
        stream << "arrive " << e.time << ' ' << spec.type << ' '
               << spec.deadline << '\n';
        break;
      }
      case ReplayEvent::Kind::Start: break;
      case ReplayEvent::Kind::Finish:
        stream << "finish " << e.time << ' ' << e.machine << '\n';
        break;
      case ReplayEvent::Kind::Down:
        stream << "down " << e.time << ' ' << e.machine << '\n';
        break;
      case ReplayEvent::Kind::Up:
        stream << "up " << e.time << ' ' << e.machine << '\n';
        break;
      case ReplayEvent::Kind::Advance:
        stream << "advance " << e.time << '\n';
        break;
    }
  }
  for (const Decision& d : log.decisions) decisions << d << '\n';
}

std::vector<StreamEvent> parse_stream(std::istream& in) {
  std::vector<StreamEvent> events;
  std::string op;
  while (in >> op) {
    StreamEvent e;
    e.op = op == "advance" ? 'v' : op[0];
    in >> e.t;
    if (e.op == 'a') {
      in >> e.a >> e.b;
    } else if (e.op != 'v') {
      in >> e.a;
    }
    if (!in || (op != "arrive" && op != "finish" && op != "down" &&
                op != "up" && op != "advance")) {
      throw std::runtime_error("malformed stream line '" + op + "'");
    }
    events.push_back(e);
  }
  return events;
}

OnlineConfig online_config(const ExperimentConfig& c) {
  OnlineConfig oc;
  oc.queue_capacity = c.queue_capacity;
  oc.engagement = c.engagement;
  oc.condition_running = c.condition_running;
  oc.volatile_machines = c.failures.enabled;
  return oc;
}

struct ReplayResult {
  std::string log;                   // decisions, daemon log format
  std::vector<double> event_ns;      // callback + start confirmations
  double wall_ms = 0;
  long long arrivals = 0;
};

/// Drives a fresh scheduler through `events` exactly as `taskdrop_cli
/// serve` does (arrivals register tasks, every Start is confirmed at once).
ReplayResult replay_stream(const ExperimentConfig& config,
                           const Scenario& scenario,
                           const std::vector<StreamEvent>& events,
                           bool traced) {
  auto mapper = make_mapper(config.mapper, config.candidate_window);
  auto dropper = make_dropper(config.dropper);
  TracedMapper traced_mapper(*mapper);
  TracedDropper traced_dropper(*dropper);
  Mapper& m = traced ? static_cast<Mapper&>(traced_mapper) : *mapper;
  Dropper& d = traced ? static_cast<Dropper&>(traced_dropper) : *dropper;
  OnlineScheduler sched(scenario.pet, scenario.profile.machine_types, m, d,
                        online_config(config));
  ReplayResult r;
  r.event_ns.reserve(events.size());
  std::ostringstream log;
  Tracer& tracer = Tracer::local();
  if (traced) tracer.begin_unit(0);
  const std::int64_t w0 = now_ns();
  for (const StreamEvent& e : events) {
    const std::int64_t t0 = now_ns();
    if (traced) tracer.open(SpanKind::Callback);
    const std::vector<Decision>* out = nullptr;
    switch (e.op) {
      case 'a':
        ++r.arrivals;
        out = &sched.task_arrived(e.t, static_cast<TaskTypeId>(e.a), e.b);
        break;
      case 'f': out = &sched.task_finished(e.t, static_cast<MachineId>(e.a)); break;
      case 'd': out = &sched.machine_down(e.t, static_cast<MachineId>(e.a)); break;
      case 'u': out = &sched.machine_up(e.t, static_cast<MachineId>(e.a)); break;
      default: out = &sched.advance(e.t); break;
    }
    for (const Decision& dec : *out) {
      if (dec.kind == DecisionKind::Start) {
        sched.task_started(e.t, dec.machine, dec.task);
      }
    }
    if (traced) {
      tracer.close();
      ++tracer.counters().callbacks;
    }
    r.event_ns.push_back(static_cast<double>(now_ns() - t0));
    for (const Decision& dec : *out) log << dec << '\n';
  }
  r.wall_ms = ms_since(w0);
  if (traced) tracer.end_unit();
  r.log = log.str();
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// ---- commands --------------------------------------------------------------

int cmd_setup(const Flags& flags) {
  const std::string workload = flags.get("workload", "");
  const std::uint64_t seed = seed_flag(flags);
  workload_config(workload, seed);
  const Scenario scenario =
      make_scenario(ScenarioKind::SpecHC, scenario_seed(workload, seed));
  const CostModel cost(scenario.profile.cost_per_hour);
  return 0;
}

int cmd_export(const Flags& flags) {
  const std::string workload = flags.get("workload", "");
  const std::uint64_t seed = seed_flag(flags);
  const ExperimentConfig config = workload_config(workload, seed);
  const Scenario scenario = make_scenario(ScenarioKind::SpecHC, kScenarioSeed);
  const CostModel cost(scenario.profile.cost_per_hour);
  ReplayLog log;
  run_trial(config, scenario, cost, 0, &log);
  std::ofstream stream(flags.get("stream", ""));
  std::ofstream decisions(flags.get("log", ""));
  export_stream(log, stream, decisions);
  if (!stream || !decisions) throw std::runtime_error("export write failed");
  std::cout << "{\"arrivals\":" << log.tasks.size()
            << ",\"decisions\":" << log.decisions.size() << "}\n";
  return 0;
}

int cmd_replay(const Flags& flags) {
  const std::string workload = flags.get("workload", "");
  const std::uint64_t seed = seed_flag(flags);
  const ExperimentConfig config = workload_config(workload, seed);
  const std::int64_t gen_ns = now_ns();
  const Scenario scenario = make_scenario(ScenarioKind::SpecHC, kScenarioSeed);
  const double scenario_ms = ms_since(gen_ns);
  std::ifstream in(flags.get("stream", ""));
  if (!in) throw std::runtime_error("cannot read " + flags.get("stream", ""));
  const std::vector<StreamEvent> events = parse_stream(in);
  const std::string expected = read_file(flags.get("log", ""));
  const double seconds = flags.get_double("seconds", 0);
  const std::int64_t reps = flags.get_int("reps", 0);
  // Every event time of every rep but the first (which grows the heap),
  // as native doubles in ns, for run.py to pool across a run.
  std::ofstream times;
  if (flags.has("times")) {
    times.open(flags.get("times", ""), std::ios::binary | std::ios::trunc);
    if (!times) throw std::runtime_error("cannot write " + flags.get("times", ""));
  }
  const std::int64_t start = now_ns();
  for (std::int64_t rep = 0;; ++rep) {
    // At least two timed reps: run.py discards the first as warm-up.
    if (reps > 0 ? rep >= reps : (rep > 1 && ms_since(start) >= seconds * 1e3)) {
      break;
    }
    const ReplayResult r = replay_stream(config, scenario, events, kTraced);
    std::cout << "{\"rep\":" << rep << ",\"events\":" << r.event_ns.size()
              << ",\"arrivals\":" << r.arrivals
              << ",\"wall_ms\":" << num(r.wall_ms) << ",\"kernel_ms\":"
              << num(std::accumulate(r.event_ns.begin(), r.event_ns.end(), 0.0) / 1e6)
              << ",\"match\":" << (r.log == expected ? "true" : "false")
              << "}\n";
    if (times.is_open() && rep > 0) {
      times.write(reinterpret_cast<const char*>(r.event_ns.data()),
                  static_cast<std::streamsize>(r.event_ns.size() * sizeof(double)));
    }
  }
  if (times.is_open() && !times.flush()) {
    throw std::runtime_error("event time write failed");
  }
  std::cout << "{\"done\":true";
  if (kTraced) std::cout << ",\"layers\":" << layers_json(static_cast<std::int64_t>(scenario_ms * 1e6),
                                           flags.get("spans", ""));
  std::cout << "}\n";
  return 0;
}

int cmd_grid(const Flags& flags) {
  SpecMap map = parse_spec_file(flags.get("spec", ""));
  map["trials"] = {flags.get("trials", "30")};
  map["seed"] = {std::to_string(seed_flag(flags))};
  const SweepSpec spec = SweepSpec::from_map(map);
  const std::vector<SweepCell> cells = expand(spec);
  const auto threads = static_cast<std::size_t>(flags.get_int("threads", 1));
  const std::size_t trials = static_cast<std::size_t>(spec.trials);
  const std::int64_t g0 = now_ns();
  std::vector<Scenario> scenarios;
  std::vector<CostModel> costs;
  for (const SweepCell& cell : cells) {
    scenarios.push_back(build_scenario(cell.config));
    costs.emplace_back(scenarios.back().profile.cost_per_hour);
  }
  std::vector<TrialMetrics> results(cells.size() * trials);
  std::vector<double> unit_ms(results.size());
  std::atomic<std::int64_t> gen_ns{now_ns() - g0};
  const std::int64_t start = now_ns();
  ThreadPool::parallel_for(
      results.size(),
      [&](std::size_t u) {
        const std::size_t c = u / trials;
        const std::size_t t = u % trials;
        const std::int64_t t0 = now_ns();
        std::int64_t local = 0;
        results[u] = kTraced ? traced_trial(cells[c].config, scenarios[c],
                                            costs[c], t, static_cast<int>(u),
                                            local)
                             : run_trial(cells[c].config, scenarios[c],
                                         costs[c], t);
        unit_ms[u] = ms_since(t0);
        gen_ns += local;
      },
      threads);
  const double wall = ms_since(start);
  double unit_sum = 0;
  for (double ms : unit_ms) unit_sum += ms;
  std::cout << "{\"wall_ms\":" << num(wall) << ",\"unit_ms_sum\":"
            << num(unit_sum) << ",\"threads\":" << threads << ",\"cells\":[";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::vector<TrialMetrics> cell(results.begin() + static_cast<std::ptrdiff_t>(c * trials),
                                   results.begin() + static_cast<std::ptrdiff_t>((c + 1) * trials));
    const ExperimentResult r = summarize_trials(std::move(cell));
    std::cout << (c ? "," : "") << "[" << num(r.robustness.mean) << ","
              << num(r.robustness.ci95) << "," << num(r.utility.mean) << ","
              << num(r.utility.ci95) << "," << num(r.normalized_cost.mean)
              << "," << num(r.normalized_cost.ci95) << ","
              << num(r.reactive_share.mean) << ","
              << num(r.reactive_share.ci95) << "]";
  }
  std::cout << "]";
  if (kTraced) std::cout << ",\"layers\":" << layers_json(gen_ns.load(), flags.get("spans", ""));
  std::cout << "}\n";
  return 0;
}

/// Runs `argv` as a child of this small process and writes the child's
/// own peak RSS and CPU time to `usage_path`; returns its exit code. A
/// child's ru_maxrss starts at the RSS of the process that spawned it, so
/// run.py, a Python interpreter of about 16 MB, cannot read the peak of a
/// smaller program directly.
int cmd_measure(char** argv, const std::string& usage_path) {
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // The child dies with this process (run.py kills it on a timeout).
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    execv(argv[0], argv);
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) < 0) {
    throw std::runtime_error("wait4 failed");
  }
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  std::ofstream out(usage_path);
  out << "{\"maxrss_kb\":" << usage.ru_maxrss << ",\"cpu_s\":"
      << num(seconds(usage.ru_utime) + seconds(usage.ru_stime)) << "}\n";
  if (!out) throw std::runtime_error("cannot write " + usage_path);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

// ---- self-tests ------------------------------------------------------------

int failures = 0;
void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << '\n';
  }
}

int cmd_selftest() {
  // Exporter round trip: a small failure-injected trial, exported, parsed
  // back and served in-process, reproduces the engine's decision log.
  ExperimentConfig config = serve_config(7);
  config.workload.n_tasks = 400;
  config.failures.mean_time_between_failures = 2000.0;
  config.failures.mean_time_to_repair = 300.0;
  const Scenario scenario = make_scenario(ScenarioKind::SpecHC, kScenarioSeed);
  const CostModel cost(scenario.profile.cost_per_hour);
  ReplayLog log;
  run_trial(config, scenario, cost, 0, &log);
  std::ostringstream stream, decisions;
  export_stream(log, stream, decisions);
  std::istringstream in(stream.str());
  const std::vector<StreamEvent> events = parse_stream(in);
  long long arrivals = 0, downs = 0;
  for (const StreamEvent& e : events) {
    arrivals += e.op == 'a';
    downs += e.op == 'd';
  }
  expect(arrivals == 400, "export keeps every arrival");
  expect(downs > 0, "the round-trip trial injects failures");
  const ReplayResult r = replay_stream(config, scenario, events, false);
  expect(r.log == decisions.str(), "replayed log equals the engine's");
  expect(r.event_ns.size() == events.size(), "one timing per event");
  const ReplayResult rt = replay_stream(config, scenario, events, true);
  expect(rt.log == r.log, "decorated replay decides identically");

  // Self time on a synthetic tree: root [0,100) with prob 5; children
  // A [10,40) and B [30,60) overlap; A has child C [15,20) and prob 3.
  std::vector<Span> spans(4);
  spans[0] = {0, 100, 5, -1, 0, SpanKind::Root};
  spans[1] = {10, 40, 3, 0, 0, SpanKind::Mapper};
  spans[2] = {30, 60, 0, 0, 0, SpanKind::Dropper};
  spans[3] = {15, 20, 0, 1, 0, SpanKind::Callback};
  const std::vector<std::int64_t> self = self_times(spans);
  expect(self[0] == 100 - 50 - 5, "root self = duration - union(A,B) - prob");
  expect(self[1] == 30 - 5 - 3, "A self = duration - C - prob");
  expect(self[2] == 30, "B self = duration");
  expect(self[3] == 5, "leaf self = duration");
  // A child sticking out of its parent only covers the overlap.
  std::vector<Span> clipped(2);
  clipped[0] = {0, 10, 0, -1, 0, SpanKind::Root};
  clipped[1] = {5, 20, 0, 0, 0, SpanKind::Mapper};
  expect(self_times(clipped)[0] == 5, "coverage is clipped to the parent");

  std::cout << "{\"selftest\":" << (failures == 0 ? "true" : "false")
            << ",\"failures\":" << failures << "}\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("missing command");
    const std::string command = argv[1];
    using namespace perfbench;
    if (command == "measure") {
      // measure --usage=F -- PROGRAM ARGS...
      if (argc < 5 || std::string(argv[3]) != "--" ||
          std::string(argv[2]).rfind("--usage=", 0) != 0) {
        throw std::invalid_argument("usage: measure --usage=F -- PROGRAM ARGS...");
      }
      return cmd_measure(argv + 4, std::string(argv[2]).substr(8));
    }
    const taskdrop::Flags flags(argc - 1, argv + 1);
    if (command == "setup") return cmd_setup(flags);
    if (command == "export") return cmd_export(flags);
    if (command == "replay") return cmd_replay(flags);
    if (command == "grid") return cmd_grid(flags);
    if (command == "selftest") return cmd_selftest();
    throw std::invalid_argument("unknown command '" + command + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
