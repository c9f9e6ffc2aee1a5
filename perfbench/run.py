#!/usr/bin/env python3
"""End-to-end benchmark of taskdrop: builds the program from source, runs
one workload for a fixed time, checks every decision output, and prints
one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload fig8-grid --seed 1 --seconds 20 --trace 0

Run it from the repository root. --trace 0 prints the end-to-end metrics
(timed without tracing); --trace 1 runs the same inputs through the traced
binary, checks that it decides exactly as the plain one, and prints the
per-layer split. perfbench/NOTES.md explains the workloads and metrics.
"""

import argparse
import array
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
FIG8_SPEC = "specs/fig8.sweep"
FIG8_TRIALS = 30
# The seed the committed references in refs/ were recorded at. Every run
# checks a small reference case at this seed, whatever its --seed.
REF_SEED = 42
REF_FIG8_TRIALS = 2
# Set-up is about 10 ms of process start and PET build: a run times it in
# chunks of this many processes at its start, middle and end.
SETUP_CHUNK = 35
# serve-stream alternates serves and latency reps in this many rounds.
SERVE_ROUNDS = 3
# Every step must end well inside the 180 s one run is allowed.
STEP_TIMEOUT = 150

WORKLOADS = ("fig8-grid", "serve-stream")

END_TO_END = {
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_pct": "%",
    "event_us_p50": "us",
    "event_us_p99": "us",
}

PER_LAYER = {
    "core.dropper.ms": "ms",
    "core.dropper.self_ms": "ms",
    "core.dropper.calls": "count",
    "core.dropper.window_convs": "count",
    "core.dropper.window_ms": "ms",
    "core.dropper.effective_ratio": "ratio",
    "core.chain.convs": "count",
    "core.chain.ms": "ms",
    "sched.mapper.ms": "ms",
    "sched.mapper.self_ms": "ms",
    "sched.mapper.calls": "count",
    "sched.mapper.assign_ratio": "ratio",
    "prob.shift_calls": "count",
    "prob.direct_calls": "count",
    "prob.fft_calls": "count",
    "prob.bin_products": "count",
    "prob.ms": "ms",
    "online.callbacks": "count",
    "online.self_ms": "ms",
    "exp.unit_ms_sum": "ms",
    "exp.parallel_efficiency": "ratio",
    "tools.serve_io_ms": "ms",
    "workload.gen_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark could not run at all. Wrong outputs are not errors:
    they count as failed operations."""


class Tally:
    """Operations attempted and failed (wrong or missing output)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


class Bench:
    """Paths, process helpers and options of one invocation."""

    def __init__(self, root, build_dir, work, workload, seed, seconds,
                 threads, perturb):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.threads = threads
        self.perturb = perturb
        self.plain = build_dir / "perfbench_plain"
        self.traced = build_dir / "perfbench_traced"
        self.cli = build_dir / "taskdrop" / "tools" / "taskdrop_cli"
        self.spans = build_dir / f"spans-{workload}.tsv"
        self.peak_rss_kb = 0
        self.setup_args = None
        self.setup_walls = []
        self.setup_cpu = []
        self.last_cpu_s = 0.0
        self.event_ns = array.array("d")
        self.tally = Tally()

    def spawn(self, args, measured=False):
        """Runs args from the checkout root; returns (wall_s, stdout).

        peak_rss_mb takes the peak RSS of the `measured` processes, the
        program under test, and not of the benchmark's own helpers. They
        run under `perfbench_plain measure`, which reads their own peak:
        a process spawned from Python inherits the interpreter's."""
        out_path = self.work / "stdout.txt"
        err_path = self.work / "stderr.txt"
        usage_path = self.work / "usage.json"
        name = f"{Path(str(args[0])).name} {args[1]}"
        if measured:
            args = [self.plain, "measure", f"--usage={usage_path}", "--",
                    *args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err, \
                open(os.devnull, "rb") as inp:
            start = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in args], cwd=self.root,
                                    stdin=inp, stdout=out, stderr=err)
            timer = threading.Timer(STEP_TIMEOUT, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.last_cpu_s = usage.ru_utime + usage.ru_stime
        if proc.returncode != 0:
            raise BenchError(f"{name} exited "
                             f"{proc.returncode}: "
                             f"{err_path.read_text()[-400:]}")
        if measured:
            peak = json.loads(usage_path.read_text())["maxrss_kb"]
            self.peak_rss_kb = max(self.peak_rss_kb, peak)
        return wall, out_path.read_text()

    def lines(self, args, measured=False):
        wall, out = self.spawn(args, measured=measured)
        return wall, [json.loads(line) for line in out.splitlines() if line]

    def time_setup(self):
        """Times one chunk of processes that only set up. Chunks at the
        start, middle and end of a run sample the host over all of it
        rather than over one second."""
        for _ in range(SETUP_CHUNK):
            self.setup_walls.append(self.spawn(self.setup_args)[0])
            self.setup_cpu.append(self.last_cpu_s)

    def setup_s(self):
        """Median CPU time (user + system) of the set-up processes: process
        start and PET build. Their wall time only adds the wait for a CPU,
        which on a shared host varies far more than the work does."""
        return median(self.setup_cpu)

    def export(self, workload, name):
        """Records one trial of `workload` and writes it as a serve stream
        plus the expected decision log."""
        stream = self.work / f"{name}.stream"
        log = self.work / f"{name}.log"
        _, out = self.lines([self.plain, "export", f"--workload={workload}",
                             f"--seed={self.seed}", f"--stream={stream}",
                             f"--log={log}"])
        return stream, log, out[-1]

    def replay(self, binary, workload, stream, log, seconds=None, reps=None,
               extra=()):
        """In-process serve replay; each rep's decision log must equal the
        exported one. Returns (rep lines, final line)."""
        budget = f"--reps={reps}" if reps else f"--seconds={seconds}"
        _, out = self.lines([binary, "replay", f"--workload={workload}",
                             f"--seed={self.seed}", f"--stream={stream}",
                             f"--log={log}", budget, *extra])
        reps_out = [r for r in out if "rep" in r]
        for r in reps_out:
            self.tally.check(r["match"], f"replay rep {r['rep']} diverged")
        return reps_out, out[-1]

    def time_events(self, workload, seconds, stream, log):
        """Replays an exported trial for `seconds`, each rep timing every
        event of the stream. The first rep grows the heap and is checked
        but not timed; the others' event times join the run's."""
        times = self.work / "times.bin"
        self.replay(self.plain, workload, stream, log, seconds=seconds,
                    extra=[f"--times={times}"])
        self.event_ns.frombytes(times.read_bytes())

    def event_latency(self):
        """Per-event callback latency: percentiles of every timed event of
        the run, pooled (see rate() for why not a median over reps)."""
        ns = sorted(self.event_ns)

        def pct(q):
            return ns[max(0, math.ceil(q * len(ns)) - 1)] / 1e3

        return {"event_us_p50": pct(0.50), "event_us_p99": pct(0.99),
                "event_samples": len(ns)}


def median(values):
    return statistics.median(values)


def rate(ops):
    """Tasks per second over (tasks, seconds) operations: their total work
    over their total time. The host's speed shifts between states every
    0.3-5 s, so a median over short operations jumps from one state to
    another, while a total or a pooled percentile moves in proportion to
    the time spent in each."""
    return sum(n for n, _ in ops) / sum(s for _, s in ops)


def build(root, build_dir):
    for needed in ("CMakeLists.txt", "src", FIG8_SPEC):
        if not (root / needed).exists():
            raise BenchError(f"{needed} not found: run from the root of a "
                             "full checkout of the repository")
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j4", "--target",
         "perfbench_plain", "perfbench_traced", "taskdrop_cli"],
    ]
    for step in steps:
        if subprocess.call(step, cwd=root, stdout=sys.stderr,
                           timeout=850) != 0:
            raise BenchError("build failed: " + " ".join(step[:2]))


def host_info(threads):
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "build_type": "Release",
            "sweep_threads": threads}


def perturbed(text):
    """The decision output with its first record's time shifted: the
    self-test hook proving a wrong output is reported as failed."""
    head, _, rest = text.partition("\n")
    return head.replace("t=", "t=1", 1) + "\n" + rest


# ---- fig8-grid -------------------------------------------------------------

def fig8_args(bench, seed=None, trials=FIG8_TRIALS):
    return [bench.cli, "sweep", f"--spec={FIG8_SPEC}", f"--trials={trials}",
            f"--seed={bench.seed if seed is None else seed}",
            f"--threads={bench.threads}", "--json"]


def grid_args(bench):
    return ["grid", f"--spec={FIG8_SPEC}", f"--trials={FIG8_TRIALS}",
            f"--seed={bench.seed}", f"--threads={bench.threads}"]


def check_fig8_reference(bench):
    """A small grid at the reference seed, equal byte for byte to the
    committed one: a regression shows whatever the run's seed."""
    _, text = bench.spawn(fig8_args(bench, REF_SEED, REF_FIG8_TRIALS))
    check_fig8(bench, text, None, REF_SEED, REF_FIG8_TRIALS)


def fig8_tasks(report):
    return sum(c["config"]["tasks"] * c["config"]["trials"]
               for c in report["cells"])


def perturbed_report(text):
    """The sweep report with its first robustness mean lowered by 1%: still
    in range, so only a comparison can catch it."""
    report = json.loads(text)
    report["cells"][0]["metrics"]["robustness_pct"]["mean"] *= 0.99
    return json.dumps(report, indent=2)


def check_fig8(bench, text, first, seed=None, trials=FIG8_TRIALS):
    """One grid output of `seed` (the run's by default): well formed,
    identical to the run's first output (the grid is deterministic for any
    thread count) and, at the reference seed, identical to the committed
    reference."""
    try:
        if bench.perturb:
            text = perturbed_report(text)
        report = json.loads(text)
        cells = report["cells"]
        ok = len(cells) == 9 and all(
            0.0 <= c["metrics"]["robustness_pct"]["mean"] <= 100.0
            and c["config"]["trials"] == trials for c in cells)
    except (ValueError, KeyError, TypeError, IndexError):
        bench.tally.check(False, "fig8 grid output unreadable")
        return None
    ok = ok and (first is None or text == first)
    if (bench.seed if seed is None else seed) == REF_SEED:
        ref = REFS / f"fig8-grid.seed{REF_SEED}.trials{trials}.json"
        ok = ok and text == ref.read_text()
    bench.tally.check(ok, "fig8 grid output differs")
    return report


def fig8_cells(report):
    keys = ("robustness_pct", "utility_pct", "normalized_cost",
            "reactive_share_pct")
    return [[c["metrics"][k][s] for k in keys for s in ("mean", "ci95")]
            for c in report["cells"]]


def run_fig8(bench, trace):
    if trace:
        return trace_fig8(bench)
    bench.setup_args = [bench.plain, "setup", "--workload=fig8-grid",
                        f"--seed={bench.seed}"]
    bench.time_setup()
    probe, probe_log, _ = bench.export("fig8-grid", "probe")
    grids, first = [], None
    deadline = time.perf_counter() + 0.8 * bench.seconds
    while first is None or time.perf_counter() < deadline:
        wall, text = bench.spawn(fig8_args(bench), measured=True)
        report = check_fig8(bench, text, first)
        if report is None:
            raise BenchError("fig8 grid output is not a sweep report")
        if first is None:
            first = text
            expected = fig8_cells(report)
        grids.append((fig8_tasks(report), wall))
        # Latency reps between the grids see the same host phases.
        bench.time_events("fig8-grid", 0.05 * bench.seconds, probe,
                          probe_log)
    bench.time_setup()
    # The same grid computed in-process, trial by trial with run_trial,
    # must give the sweep's numbers.
    _, grid = bench.lines([bench.plain] + grid_args(bench))
    bench.tally.check(grid[-1]["cells"] == expected,
                      "in-process grid differs from the sweep")
    check_fig8_reference(bench)
    bench.time_setup()
    metrics = {"tasks_per_s": rate(grids), "setup_s": bench.setup_s()}
    metrics.update(bench.event_latency())
    return metrics


def trace_fig8(bench):
    _, text = bench.spawn(fig8_args(bench))
    report = check_fig8(bench, text, None)
    _, plain = bench.lines([bench.plain] + grid_args(bench))
    _, traced = bench.lines([bench.traced] + grid_args(bench) +
                            [f"--spans={bench.spans}"])
    plain, traced = plain[-1], traced[-1]
    expected = fig8_cells(report) if report else None
    bench.tally.check(plain["cells"] == expected,
                      "in-process grid differs from the sweep")
    bench.tally.check(traced["cells"] == expected,
                      "traced grid differs from the sweep")
    layers = traced["layers"]
    return layer_metrics(
        layers, overhead=traced["wall_ms"] / plain["wall_ms"],
        unit_ms_sum=traced["unit_ms_sum"],
        efficiency=traced["unit_ms_sum"] / (bench.threads *
                                            traced["wall_ms"]),
        serve_io_ms=0.0)


# ---- serve-stream ----------------------------------------------------------

SERVE_FLAGS = ["--scenario=spec_hc", "--mapper=PAM", "--dropper=heuristic",
               "--volatile", "--seed=42"]


def serve_args(bench, stream, out_log):
    return [bench.cli, "serve"] + SERVE_FLAGS + [
        f"--stream={stream}", f"--out={out_log}",
        f"--stats-out={bench.work / 'stats.txt'}"]


def serve(bench, stream, out_log):
    return bench.spawn(serve_args(bench, stream, out_log), measured=True)[0]


def check_serve(bench, got_path, expected):
    got = got_path.read_text()
    if bench.perturb:
        got = perturbed(got)
    bench.tally.check(got == expected, "serve log differs from the engine's")


def run_serve(bench, trace):
    stream, log, exported = bench.export("serve-stream", "serve")
    expected = log.read_text()
    out_log = bench.work / "served.log"
    # Set-up: serving an empty stream.
    empty = bench.work / "empty.stream"
    empty.write_text("")
    bench.setup_args = serve_args(bench, empty, bench.work / "empty.log")
    bench.time_setup()
    if trace:
        return trace_serve(bench, stream, log, expected)
    # The first serve warms the page cache and is checked but not timed.
    serve(bench, stream, out_log)
    check_serve(bench, out_log, expected)
    # Serves and latency reps alternate in rounds, so both sample the host
    # over the whole run: its speed shifts every few seconds, and a rep of
    # this stream takes about one.
    serves = []
    for round_ in range(SERVE_ROUNDS):
        deadline = time.perf_counter() + 0.1 * bench.seconds
        while True:
            wall = serve(bench, stream, out_log)
            check_serve(bench, out_log, expected)
            serves.append((exported["arrivals"], wall))
            if time.perf_counter() >= deadline:
                break
        bench.time_events("serve-stream", 0.18 * bench.seconds, stream, log)
        if round_ == SERVE_ROUNDS // 2:
            bench.time_setup()
    bench.time_setup()
    metrics = {"tasks_per_s": rate(serves), "setup_s": bench.setup_s()}
    metrics.update(bench.event_latency())
    return metrics


def trace_serve(bench, stream, log, expected):
    out_log = bench.work / "served.log"
    serve_walls = []
    for _ in range(3):
        serve_walls.append(serve(bench, stream, out_log))
        check_serve(bench, out_log, expected)
    # One fresh-process rep each, so both pay the same heap warm-up the
    # serve process pays.
    plain_reps, _ = bench.replay(bench.plain, "serve-stream", stream, log,
                                 reps=1)
    traced_reps, traced = bench.replay(
        bench.traced, "serve-stream", stream, log, reps=1,
        extra=[f"--spans={bench.spans}"])
    plain_ms = plain_reps[0]["wall_ms"]
    traced_ms = traced_reps[0]["wall_ms"]
    # What the daemon spends beyond set-up and the decision kernels:
    # stream parsing, validation and decision-log output.
    kernel_ms = plain_reps[0]["kernel_ms"]
    return layer_metrics(
        traced["layers"], overhead=traced_ms / plain_ms,
        unit_ms_sum=traced_ms, efficiency=1.0,
        serve_io_ms=1e3 * (median(serve_walls) - median(bench.setup_walls)) -
        kernel_ms)


# ---- per-layer metrics -----------------------------------------------------

def layer_metrics(layers, overhead, unit_ms_sum, efficiency, serve_io_ms):
    def ratio(num, den):
        return layers[num] / layers[den] if layers[den] else 0.0

    return {
        "core.dropper.ms": layers["core.dropper.ms"],
        "core.dropper.self_ms": layers["core.dropper.self_ms"],
        "core.dropper.calls": layers["core.dropper.calls"],
        "core.dropper.window_convs": layers["core.dropper.window_convs"],
        "core.dropper.window_ms": layers["core.dropper.window_ms"],
        "core.dropper.effective_ratio": ratio("core.dropper.effective",
                                              "core.dropper.calls"),
        "core.chain.convs": layers["core.chain.convs"],
        "core.chain.ms": layers["core.chain.ms"],
        "sched.mapper.ms": layers["sched.mapper.ms"],
        "sched.mapper.self_ms": layers["sched.mapper.self_ms"],
        "sched.mapper.calls": layers["sched.mapper.calls"],
        "sched.mapper.assign_ratio": ratio("sched.mapper.effective",
                                           "sched.mapper.calls"),
        "prob.shift_calls": layers["prob.shift_calls"],
        "prob.direct_calls": layers["prob.direct_calls"],
        "prob.fft_calls": layers["prob.fft_calls"],
        "prob.bin_products": layers["prob.bin_products"],
        "prob.ms": layers["prob.ms"],
        # Every mapping event runs the mapper exactly once.
        "online.callbacks": layers["sched.mapper.calls"],
        # Engine workloads cannot time single callbacks from outside, so
        # their online/sim time is the trial's own; the replay times each.
        "online.self_ms": (layers["online.callback_self_ms"]
                           if layers["online.callbacks"]
                           else layers["root.self_ms"]),
        "exp.unit_ms_sum": unit_ms_sum,
        "exp.parallel_efficiency": efficiency,
        "tools.serve_io_ms": serve_io_ms,
        "workload.gen_ms": layers["workload.gen_ms"],
        "trace.overhead_pct": 100.0 * (overhead - 1.0),
    }


RUNNERS = {"fig8-grid": run_fig8, "serve-stream": run_serve}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=4,
                        help="sweep worker threads of fig8-grid")
    parser.add_argument("--perturb", action="store_true",
                        help="self-test hook: corrupt one decision output "
                             "before it is checked")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.threads < 1:
        parser.error("--seed must be >= 0, --seconds and --threads > 0")

    root = Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    work = build_dir / "work" / f"{args.workload}-{os.getpid()}"
    try:
        build(root, build_dir)
        work.mkdir(parents=True, exist_ok=True)
        bench = Bench(root, build_dir, work, args.workload, args.seed,
                      args.seconds, args.threads, args.perturb)
        metrics = RUNNERS[args.workload](bench, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = bench.tally
    print(json.dumps({"host": host_info(args.threads),
                      "workload": args.workload, "seed": args.seed,
                      "event_samples": metrics.pop("event_samples", None),
                      "failures": tally.notes[:10]}))
    if args.trace:
        table = PER_LAYER
    else:
        table = END_TO_END
        metrics["peak_rss_mb"] = bench.peak_rss_kb / 1024.0
        metrics["ok_pct"] = 100.0 * (1 - tally.failed / max(1, tally.attempted))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in table.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
