"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.  It checks
that every workload runs with no failed op, that one seed gives bit-identical
answers across runs and between traced and untraced ops, that the printed
metric names and units match ``BENCHMARK.json``, that the oracles reject
wrong answers, that the span wrapper leaves no rebinding behind, and that
without the program the benchmark fails without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import spans
import workloads

TINY_OPS = {"balance": 84, "invariant": 48, "verify": 36, "cli": 9}
SEED = 3
failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload, trace, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "60", "--trace", str(trace),
         "--max-ops", str(TINY_OPS[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return proc.returncode, None, None, proc.stderr
    return (proc.returncode, json.loads(lines[-2])["provenance"],
            json.loads(lines[-1]), proc.stderr)


def check_workloads(declared):
    for name in workloads.NAMES:
        runs = {}
        for trace in (0, 0, 1):
            code, provenance, result, stderr = bench(name, trace)
            if result is None:
                expect(False, f"{name} --trace {trace} exits 0 (exit {code}: {stderr[-500:]})")
                break
            runs.setdefault(trace, []).append((provenance, result))
            kind = "per_layer" if trace else "end_to_end"
            units = {m: v["unit"] for m, v in result["metrics"].items()}
            expect(units == declared[kind],
                   f"{name} --trace {trace}: metric names and units match BENCHMARK.json {kind}")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > TINY_OPS[name],
                   f"{name} --trace {trace}: failed_ratio 0 over {result['attempted']} ops"
                   + "".join(f"\n     {p}" for p in provenance["failures"]))
        if len(runs.get(0, ())) == 2 and 1 in runs:
            (first, _), (second, _) = runs[0]
            traced = runs[1][0][0]
            expect(first["answers_sha256"] == second["answers_sha256"]
                   == traced["answers_sha256"],
                   f"{name}: one seed gives bit-identical answers across runs")
            expect(traced["traced_ops"] == TINY_OPS[name]
                   and traced["traced_mismatches"] == 0,
                   f"{name}: traced answers identical to untraced ones")


def check_oracles():
    """A perturbed answer must be rejected by the workload's oracle."""
    mf = run.fresh_import()
    for name in ("balance", "invariant", "verify"):
        workload = workloads.make(name, run.ROOT)
        state = workload.setup(mf, SEED, None)
        rejected = 0
        items = list(zip(range(24), workload.items(SEED)))
        for _, item in items:
            answer = workload.run(state, item)
            if isinstance(answer, float):
                wrong = answer * (1 + 1e-3)
            elif isinstance(answer, bool):
                wrong = not answer
            elif answer[0] in ("sampled", "refuted"):
                wrong = ("certified", answer[1], None)
            else:
                wrong = (not answer[0],) + answer[1:]
            rejected += workload.check(state, item, answer) is None and \
                workload.check(state, item, wrong) is not None
        expect(rejected == len(items),
               f"{name}: oracle accepts {len(items)} answers and rejects them perturbed"
               f" ({rejected} ok)")


def check_wrapper():
    mf = run.fresh_import()
    before = {(m.__name__, attr): value for m in spans._modules()
              for attr, value in vars(m).items() if callable(value)}
    recorder = spans.Recorder()
    recorder.install()
    try:
        installed = spans.leftover_wrappers()
        mf.eval_mean(mf.implicit_mean([mf.PowerMean(0)], [mf.PowerMean(-1), mf.PowerMean(1)],
                                      mf.Sum()), (2.0, 8.0))
    finally:
        recorder.restore()
    expect("meanforge.implicit.eval_outer" in installed
           and "meanforge.implicit.sample_vectors" in installed,
           f"wrapper rebinds module-level imports ({len(installed)} globals)")
    calls = recorder.summary()["calls"]
    expect(calls[spans.SOLVE] == 1 and calls[spans.OUTER] > 1,
           "wrapper records solve_scalar and its eval_outer calls")
    after = {(m.__name__, attr): value for m in spans._modules()
             for attr, value in vars(m).items() if callable(value)}
    expect(not spans.leftover_wrappers() and before == after,
           "wrapper leaves no rebinding behind")


def check_without_program():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, _, result, _ = bench("balance", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    expect(code != 0 and result is None, f"without src/ the benchmark exits {code}, no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                for kind in ("end_to_end", "per_layer")}
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
           "BENCHMARK.json lists every workload")
    sys.path.insert(0, str(run.SRC))
    check_wrapper()
    check_oracles()
    check_workloads(declared)
    check_without_program()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
