"""meanforge benchmark: one seeded workload per run, one op in flight.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload balance --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload cli --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload verify --seed 1 --seconds 5 --profile ordering

Workloads (see ``workloads.py``): ``balance``, ``invariant``, ``verify`` and
``cli``.  Each is a closed loop: one client, no threads, the next op starts
when the previous one has returned.  The program is imported from ``src/`` of
the checkout; without it the run exits with code 2 and prints no result.

``--trace 0`` measures the end-to-end metrics with tracing off.  Every time
is corrected for the speed of a shared host (``hostspeed.py``); the
uncorrected wall-clock values are in the provenance line.

- ``ops_per_s``   completed ops / time of the timed phase (ops/s)
- ``op_ms_p50``   median op latency (ms)
- ``op_ms_tail``  op latency at the workload's tail percentile (ms): p99,
  or p90 for ``cli``
- ``setup_s``     median over several set-ups in the run of everything before
  the first timed op: import, building the pool, parsing, one warm-up op (s)
- ``peak_rss_mb`` peak RSS of this process, or for ``cli`` of its children (MB)

``failed_ratio`` (failed / attempted ops) is printed with them but is not a
gated metric because it is 0 on a correct program; the same counts are the
``attempted`` and ``failed`` fields of the result.  An op fails on a raised
error, a traceback, a wrong exit code, or an answer its oracle rejects.

``--trace 1`` runs the ops untraced for half the time, then replays the same
inputs with spans around each layer-boundary function (``spans.py``) and
reports the per-layer metrics; traced and untraced answers must be identical.
Spans of in-process workloads are written to ``.perfbench_out/``.

``--profile LAYER`` runs the workload under cProfile and prints the top
functions by self time in that module (``all`` for every function).  It
prints no metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records provenance (interpreter, git SHA, CPU count, seed, sample counts).
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import importlib
import itertools
import json
import math
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAYERS = ("ordering", "means", "implicit", "invariance", "sampling", "checks",
          "dsl", "cli")
SETUP_RUNS = {"cli": 5}
DEFAULT_SETUP_RUNS = 11
CLI_FLOOR_RUNS = 10
PROFILE_TOP = 25


class Phase:
    """The timed ops of one phase: latencies, answers and failures.

    ``elapsed`` and ``latencies`` are wall-clock; ``corrected`` and
    ``corrected_latencies()`` are scaled by each chunk's host-speed factor.
    """

    def __init__(self):
        self.latencies = array("d")
        self.factors = []  # (ops in the chunk, host-speed factor)
        self.answers = []
        self.failed = 0
        self.problems = []
        self.elapsed = 0.0
        self.corrected = 0.0
        self.digest = hashlib.sha256()

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def rate(self) -> float:
        return self.ops / self.corrected

    def corrected_latencies(self) -> array:
        out, start = array("d"), 0
        for count, factor in self.factors:
            out.extend(x * factor for x in self.latencies[start:start + count])
            start += count
        return out


def fresh_import():
    """Import the package anew from ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "meanforge" or n.startswith("meanforge.")]:
        del sys.modules[name]
    mf = importlib.import_module("meanforge")
    if Path(mf.__file__).resolve().parent != (SRC / "meanforge").resolve():
        raise RuntimeError(f"imported meanforge from {mf.__file__}, not {SRC}")
    return mf


def run_op(workload, state, item):
    try:
        return workload.run(state, item)
    except Exception as exc:  # a failed op is counted, not fatal
        return f"error {type(exc).__name__}: {exc}"


def set_up(workload, seed, work_dir, runs):
    """Set up ``runs`` times; returns the last state, every duration (wall,
    corrected), and the problems the oracle found with the warm-up ops."""
    warm_item = next(workload.items(seed, "warmup"))
    times, problems = [], []
    for _ in range(runs):
        before = hostspeed.kernel_seconds()
        t0 = time.perf_counter()
        mf = None if workload.name == "cli" else fresh_import()
        state = workload.setup(mf, seed, work_dir)
        answer = run_op(workload, state, warm_item)
        wall = time.perf_counter() - t0
        times.append((wall, wall * hostspeed.factor(before, hostspeed.kernel_seconds())))
        problem = workload.check(state, warm_item, answer)
        if problem is not None:
            problems.append(f"warm-up {warm_item!r:.300}: {problem}")
    return state, times, problems


def timed_phase(workload, state, seed, seconds, max_ops, recorder=None,
                keep_answers=False) -> Phase:
    """Run ops until ``seconds`` of op time or ``max_ops`` ops have passed.

    Inputs are generated and answers checked between chunks of ops, with the
    clock stopped, so the timed wall time holds only the ops themselves.  The
    host-speed kernel is timed right before and right after each chunk.
    """
    phase = Phase()
    items = workload.items(seed)
    clock = time.perf_counter
    stop = False
    while not stop and phase.ops < max_ops:
        chunk = list(itertools.islice(items, min(workload.chunk, max_ops - phase.ops)))
        answers = []
        before = hostspeed.kernel_seconds()
        start = clock()
        for item in chunk:
            if recorder is not None:
                recorder.op_id = phase.ops + len(answers)
            t0 = clock()
            answer = run_op(workload, state, item)
            t1 = clock()
            answers.append(answer)
            phase.latencies.append(t1 - t0)
            if phase.elapsed + (t1 - start) >= seconds or (
                    recorder is not None and recorder.full):
                stop = True
                break
        wall = clock() - start
        factor = hostspeed.factor(before, hostspeed.kernel_seconds())
        phase.elapsed += wall
        phase.corrected += wall * factor
        phase.factors.append((len(answers), factor))
        for item, answer in zip(chunk, answers):
            text = repr(answer)
            phase.digest.update(text.encode() + b"\n")
            if keep_answers:
                phase.answers.append(text)
            problem = workload.check(state, item, answer)
            if problem is not None:
                phase.failed += 1
                if len(phase.problems) < 5:
                    phase.problems.append(f"{item!r:.300}: {problem}")
    return phase


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def git_sha():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def process_ms(argv, env, cwd):
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=cwd, check=True, capture_output=True, timeout=120)
    return (time.perf_counter() - t0) * 1e3


def end_to_end(workload, phase, setup_times):
    """Host-corrected metrics, and provenance with the wall-clock ones."""
    corrected = phase.corrected_latencies()
    tail, beyond = percentile(corrected, workload.tail_percentile)
    metrics = {
        "ops_per_s": (phase.rate, "ops/s"),
        "op_ms_p50": (statistics.median(corrected) * 1e3, "ms"),
        "op_ms_tail": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(c for _, c in setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    info = {
        "percentile_samples": {
            "op_ms_p50": {"percentile": 50, "samples": phase.ops},
            "op_ms_tail": {"percentile": workload.tail_percentile,
                           "samples": phase.ops, "beyond": beyond},
            "setup_s": {"percentile": 50, "samples": len(setup_times)}},
        "wall_clock": {
            "ops_per_s": phase.ops / phase.elapsed,
            "op_ms_p50": statistics.median(phase.latencies) * 1e3,
            "op_ms_tail": percentile(phase.latencies, workload.tail_percentile)[0] * 1e3,
            "setup_s": statistics.median(w for w, _ in setup_times)},
        "host_factor_median": statistics.median(f for _, f in phase.factors),
    }
    return metrics, info


def traced_run(workload, state, seed, seconds, max_ops, work_dir):
    """Untraced ops, then the same inputs traced; per-layer metrics."""
    base = timed_phase(workload, state, seed, seconds / 2, max_ops, keep_answers=True)
    if workload.name == "cli":
        trace_file = Path(work_dir) / "spans.jsonl"
        traced_state = dict(state, prefix=[sys.executable, str(HERE / "cli_child.py")],
                            env=workload.env({"PERFBENCH_TRACE_OUT": str(trace_file)}))
        traced = timed_phase(workload, traced_state, seed, seconds / 2, base.ops,
                             keep_answers=True)
        summary = spans.merge(json.loads(line)
                              for line in trace_file.read_text().splitlines())
    else:
        recorder = spans.Recorder()
        recorder.install()
        try:
            traced = timed_phase(workload, state, seed, seconds / 2, base.ops,
                                 recorder=recorder, keep_answers=True)
        finally:
            recorder.restore()
        summary = recorder.summary()
        recorder.write_spans(OUT / f"spans-{workload.name}-seed{seed}.tsv.gz")
    metrics = spans.layer_metrics(summary, traced.ops)
    floor = {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.command_ms": 0.0}
    if workload.name == "cli":
        bare, imported = [], []
        for _ in range(CLI_FLOOR_RUNS):
            bare.append(process_ms([sys.executable, "-c", "pass"], state["env"], work_dir))
            imported.append(process_ms([sys.executable, "-c", "import meanforge.cli"],
                                       state["env"], work_dir))
        interpreter = statistics.median(bare)
        floor = {"cli.interpreter_ms": interpreter,
                 "cli.import_ms": statistics.median(imported) - interpreter,
                 "cli.command_ms": summary["main_ns"] / 1e6 / traced.ops}
    for name, value in floor.items():
        metrics[name] = (value, "ms")
    metrics["trace.overhead_ratio"] = (base.rate / traced.rate, "ratio")
    mismatched = sum(a != b for a, b in zip(base.answers, traced.answers))
    return base, traced, metrics, mismatched


def profile_run(workload, state, seed, seconds, max_ops, layer, work_dir):
    """Print the top functions by self time; cli profiles its children."""
    if workload.name == "cli":
        prof_dir = Path(work_dir) / "profiles"
        prof_dir.mkdir()
        state = dict(state, prefix=[sys.executable, str(HERE / "cli_child.py")],
                     env=workload.env({"PERFBENCH_PROFILE_OUT": str(prof_dir)}))
        phase = timed_phase(workload, state, seed, seconds, max_ops)
        stats = pstats.Stats(*[str(p) for p in sorted(prof_dir.iterdir())])
    else:
        profiler = cProfile.Profile()
        profiler.enable()
        phase = timed_phase(workload, state, seed, seconds, max_ops)
        profiler.disable()
        stats = pstats.Stats(profiler)
    print(f"# {workload.name}: {phase.ops} ops under cProfile, "
          f"{phase.failed} failed; top {PROFILE_TOP} by self time in {layer}")
    stats.stream = sys.stdout
    stats.sort_stats("tottime")
    if layer == "all":
        stats.print_stats(PROFILE_TOP)
    else:
        stats.print_stats(rf"meanforge[/\\]{layer}\.py", PROFILE_TOP)


def run_all(args) -> int:
    """Run every workload in its own process; exit 1 if any op failed."""
    code = 0
    for name in workloads.NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--max-ops", str(args.max_ops)]
        if args.profile:
            argv += ["--profile", args.profile]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not (args.profile or json.loads(lines[-1])["correct"]):
            code = 1
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",),
                        help="one workload, or all four one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=10 ** 12,
                        help="stop after this many ops (fixed-size runs)")
    parser.add_argument("--profile", choices=("all",) + LAYERS, metavar="LAYER",
                        help="print a cProfile of the workload instead of metrics")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "meanforge" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'meanforge'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and the processes it starts, so that the
    # host-speed kernel runs where the ops run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = workloads.make(args.workload, ROOT)
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        runs = 1 if args.trace or args.profile else SETUP_RUNS.get(
            workload.name, DEFAULT_SETUP_RUNS)
        state, setup_times, warm_problems = set_up(workload, args.seed, work_dir, runs)
        if args.profile:
            profile_run(workload, state, args.seed, args.seconds, args.max_ops,
                        args.profile, work_dir)
            return 0
        # The warm-up ops are checked and counted like the timed ones.
        attempted, failed = len(setup_times), len(warm_problems)
        extra = {}
        if args.trace:
            phase, traced, metrics, mismatched = traced_run(
                workload, state, args.seed, args.seconds, args.max_ops, work_dir)
            attempted += phase.ops + traced.ops
            failed += phase.failed + traced.failed + mismatched
            extra = {"traced_ops": traced.ops, "traced_mismatches": mismatched}
            warm_problems += traced.problems
        else:
            phase = timed_phase(workload, state, args.seed, args.seconds, args.max_ops)
            metrics, extra = end_to_end(workload, phase, setup_times)
            attempted += phase.ops
            failed += phase.failed
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{workload.name:9s} {name:48s} {value:14.6g} {unit}")
    print(f"{workload.name:9s} {'failed_ratio':48s} {failed / attempted:14.6g} ratio")
    provenance = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "implementation": sys.implementation.name, "git_sha": git_sha(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "ops": phase.ops, "failed_ratio": failed / attempted,
        "answers_sha256": phase.digest.hexdigest(),
        "failures": (warm_problems + phase.problems)[:5], **extra,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
