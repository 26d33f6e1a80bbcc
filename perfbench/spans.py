"""Spans around the program's layer-boundary functions, from outside the program.

``Recorder.install()`` rebinds every ``meanforge.*`` module global that refers
to a boundary function (modules import by name, so ``implicit`` holds its own
``eval_outer``) to a wrapper that records a span: name, start, end, parent span
and op id.  ``restore()`` puts the originals back.  Spans stay in flat arrays
in memory until the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous, so the children are
disjoint and lie inside the parent.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from pathlib import Path

# (module, function) pairs whose calls are the layer boundaries.
BOUNDARY = (
    ("ordering", "as_vector"),
    ("ordering", "is_embedded_within"),
    ("ordering", "is_ordered_majorized"),
    ("means", "power_mean"),
    ("means", "beta_mean"),
    ("means", "eval_mean"),
    ("means", "eval_outer"),
    ("means", "check_mean_property"),
    ("implicit", "solve_scalar"),
    ("implicit", "verify_embedding"),
    ("implicit", "compare_implicit_means"),
    ("invariance", "gauss_iterate"),
    ("invariance", "verify_invariance"),
    ("dsl", "parse"),
    ("dsl", "parse_mean_list"),
)
NAMES = tuple(f"{module}.{fn}" for module, fn in BOUNDARY)
SOLVE = NAMES.index("implicit.solve_scalar")
OUTER = NAMES.index("means.eval_outer")
GAUSS = NAMES.index("invariance.gauss_iterate")
# Returned values that carry a step count.
STEPS = {SOLVE: "iterations", GAUSS: "iterations"}
# Spans kept in one run; beyond this the traced phase stops early.
SPAN_CAP = 600_000
WRAPPED = "_perfbench_original"


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "meanforge" or name.startswith("meanforge."))]


class Recorder:
    def __init__(self):
        self.name = array("b")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self.steps = array("l")
        self.errors = [0] * len(NAMES)
        self.vectors = 0
        self.op_id = -1
        self._stack = [-1]
        self._bindings = []

    @property
    def full(self) -> bool:
        return len(self.name) >= SPAN_CAP

    def _wrap(self, index, fn):
        name, parent, op, start, end, steps = (
            self.name, self.parent, self.op, self.start, self.end, self.steps)
        stack, errors, clock = self._stack, self.errors, time.perf_counter_ns
        attr = STEPS.get(index)

        def wrapper(*args, **kwargs):
            span = len(name)
            name.append(index)
            parent.append(stack[-1])
            op.append(self.op_id)
            start.append(0)
            end.append(0)
            steps.append(-1)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[index] += 1
                raise
            finally:
                end[span] = clock()
                start[span] = t0
                stack.pop()
            if attr is not None:
                steps[span] = getattr(result, attr)
            return result

        setattr(wrapper, WRAPPED, fn)
        return wrapper

    def _count_vectors(self, fn):
        def sample_vectors(plan):
            for v in fn(plan):
                self.vectors += 1
                yield v

        setattr(sample_vectors, WRAPPED, fn)
        return sample_vectors

    def install(self) -> None:
        """Rebind every module global that refers to a boundary function."""
        if self._bindings:
            raise RuntimeError("recorder already installed")
        originals = {}
        for index, (module, fn) in enumerate(BOUNDARY):
            original = getattr(sys.modules[f"meanforge.{module}"], fn)
            originals[id(original)] = (original, self._wrap(index, original))
        sampler = sys.modules["meanforge.sampling"].sample_vectors
        originals[id(sampler)] = (sampler, self._count_vectors(sampler))
        for module in _modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def summary(self) -> dict:
        """Additive totals per boundary function, mergeable across processes."""
        k = len(NAMES)
        calls, self_ns = [0] * k, [0] * k
        solve_steps = solve_zero = solve_outer = gauss_steps = 0
        name, parent, steps = self.name, self.parent, self.steps
        for span in range(len(name)):
            index = name[span]
            duration = self.end[span] - self.start[span]
            calls[index] += 1
            self_ns[index] += duration
            up = parent[span]
            if up >= 0:
                self_ns[name[up]] -= duration
                if index == OUTER and name[up] == SOLVE:
                    solve_outer += 1
            if index == SOLVE:
                solve_steps += steps[span]
                solve_zero += steps[span] == 0
            elif index == GAUSS:
                gauss_steps += steps[span]
        return {"calls": calls, "self_ns": self_ns, "errors": list(self.errors),
                "solve_steps": solve_steps, "solve_zero": solve_zero,
                "solve_outer": solve_outer, "gauss_steps": gauss_steps,
                "vectors": self.vectors}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            for span in range(len(self.name)):
                out.write(f"{NAMES[self.name[span]]}\t{self.start[span]}\t"
                          f"{self.end[span]}\t{self.parent[span]}\t{self.op[span]}\n")


def merge(summaries) -> dict:
    total = None
    for s in summaries:
        if total is None:
            total = {key: (list(val) if isinstance(val, list) else val)
                     for key, val in s.items()}
            continue
        for key, val in s.items():
            if isinstance(val, list):
                total[key] = [a + b for a, b in zip(total[key], val)]
            else:
                total[key] += val
    return total if total is not None else Recorder().summary()


def layer_metrics(summary: dict, ops: int) -> dict:
    """Per-layer metrics from a summary: per-op counts and self times."""
    metrics = {}
    for index, name in enumerate(NAMES):
        calls = summary["calls"][index]
        metrics[f"{name}.calls_per_op"] = (calls / ops, "count")
        metrics[f"{name}.self_us_per_op"] = (summary["self_ns"][index] / 1e3 / ops, "us")
        metrics[f"{name}.errors"] = (summary["errors"][index], "count")
    solves = summary["calls"][SOLVE]
    gausses = summary["calls"][GAUSS]
    metrics["implicit.solve_scalar.steps_per_call"] = (
        summary["solve_steps"] / solves if solves else 0.0, "count")
    metrics["implicit.solve_scalar.zero_step_ratio"] = (
        summary["solve_zero"] / solves if solves else 0.0, "ratio")
    metrics["implicit.solve_scalar.outer_evals_per_call"] = (
        summary["solve_outer"] / solves if solves else 0.0, "count")
    metrics["invariance.gauss_iterate.iterations_per_call"] = (
        summary["gauss_steps"] / gausses if gausses else 0.0, "count")
    metrics["sampling.sample_vectors.vectors_per_op"] = (summary["vectors"] / ops, "count")
    return metrics


def leftover_wrappers() -> list:
    """Module globals still bound to a wrapper; empty after ``restore()``."""
    return [f"{m.__name__}.{attr}" for m in _modules()
            for attr, value in vars(m).items() if hasattr(value, WRAPPED)]
