"""The four benchmark workloads: seeded inputs, the op, and its oracle check.

Every workload is a closed loop with one client and one op in flight.  Inputs
come only from ``random.Random(seed)``; the program receives the generated
values (DSL text, vectors, sample-plan seeds) and nothing else.  Means come
from a pool built once in set-up and reused, while vectors are fresh for every
op, so per-mean precomputation can pay off but per-vector memoization cannot.

A workload object has:

- ``setup(mf, seed, work_dir)``: builds the pool with the program and returns
  the state the op needs;
- ``items(seed, stream)``: the infinite, deterministic stream of op inputs
  (``"ops"`` for the timed phase, ``"warmup"`` for the set-up op);
- ``run(state, item)``: one op, returning a plain, comparable answer;
- ``check(state, item, answer)``: ``None`` or the reason the answer is wrong;
- ``chunk``: how many ops run between two rounds of input generation and
  checking, which happen with the clock stopped;
- ``tail_percentile``: the percentile reported as ``op_ms_tail``.  It is p99
  for the in-process workloads: p99.9 is set by the host preempting the
  process, which makes a few ops in ten thousand 10-100 times slower, and on
  ``invariant`` also by which costly complementary means the seed draws.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import oracles

# Exponents and orders are drawn from the quarter grid on [-4, 4], the values
# a user types into the DSL.
GRID = tuple(k / 4 for k in range(-16, 17))
LOW, HIGH = 0.5, 100.0
# qa[exp] amplifies rounding by exp(max - root): over (0.5, 100) the root is
# not determined in double precision by any method, so its vectors stay in a
# window where the closed form and the solver are both accurate to 1e-9.
EXP_HIGH = 8.0
NEAR_CONSTANT_SPREAD = 1e-7


def fmt(x: float) -> str:
    """DSL text of a grid number, as the program's canonical printer writes it."""
    return f"{x:g}"


def fmt_vector(v) -> str:
    return ",".join(repr(x) for x in v)


def family_text(orders) -> str:
    return "[" + ",".join(f"P[{fmt(s)}]" for s in orders) + "]"


def window_prefix(rng: random.Random, beta, m: int, interior: bool = False):
    """Exponents alpha, len m < len(beta), embedded in the ascending beta.

    alpha_k is drawn from the window [beta_k, beta_{k+n-m}], and any such
    draw, sorted, is embedded in beta.  ``interior`` keeps alpha off the
    window ends, which keeps the balance root off the bracket ends.
    """
    n = len(beta)
    alpha = sorted(rng.choice([g for g in GRID if beta[k] <= g <= beta[k + n - m]
                               and not (interior and g in (beta[k], beta[k + n - m]))])
                   for k in range(m))
    if not oracles.embedded(alpha, beta):
        raise AssertionError(f"generator bug: {alpha} not embedded in {beta}")
    return alpha


def exponent_window(rng: random.Random, m: int, n: int):
    """Exponents (alpha, beta), len m < n: beta is n distinct grid values and
    alpha is embedded in it."""
    beta = sorted(rng.sample(GRID, n))
    return window_prefix(rng, beta, m), beta


def spaced_orders(rng: random.Random, gaps):
    """Grid orders with the given gaps, at a seeded place in [-4, 4]."""
    start = rng.choice([g for g in GRID if g + sum(gaps) <= GRID[-1]])
    return tuple(itertools.accumulate(gaps, initial=start))


def vector(rng: random.Random, index: int, arity: int, high: float = HIGH):
    """One in ten near-constant; two in ten log-uniform; the rest uniform."""
    slot = index % 10
    if slot == 0:
        base = rng.uniform(LOW, high - 1e-6)
        return tuple(base + NEAR_CONSTANT_SPREAD * rng.random() for _ in range(arity))
    if slot in (3, 7):
        a, b = math.log(LOW), math.log(high)
        return tuple(math.exp(rng.uniform(a, b)) for _ in range(arity))
    return tuple(rng.uniform(LOW, high) for _ in range(arity))


def outer_text(kind: int, rng: random.Random) -> str:
    return (
        "sum",
        "prod",
        f"powsum[{fmt(rng.choice((0.5, 1.5, 2.0)))}]",
        "qa[log]",
        "qa[exp]",
        f"qa[pow[{fmt(rng.choice((0.5, 1.5, 2.0)))}]]",
        f"mean[P[{fmt(rng.choice(GRID))}]]",
    )[kind]


def power_values(orders, v):
    return [oracles.power_mean(s, v) for s in orders]


# ---------------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------------

class Balance:
    """eval_mean of pooled implicit and generalized-Beta means."""

    name = "balance"
    tail_percentile = 99
    chunk = 840

    def _pool_specs(self, seed: int):
        """Per outer: one implicit mean for each (m, n) with m < n <= 5, two
        generalized-Beta means.  Only the exponents depend on the seed."""
        rng = random.Random(f"balance-pool:{seed}")
        specs = []
        for kind in range(7):
            for n in range(2, 6):
                for m in range(1, n):
                    outer = outer_text(kind, rng)
                    alpha, beta = exponent_window(rng, m, n)
                    specs.append(("implicit", outer, tuple(alpha), tuple(beta),
                                  f"T{{mu={outer}; S={family_text(alpha)}; "
                                  f"M={family_text(beta)}}}"))
            for _ in range(2):
                outer, base = outer_text(kind, rng), rng.choice(GRID)
                specs.append(("gb", outer, (base,), None,
                              f"beta{{S=P[{fmt(base)}]; mu={outer}}}"))
        return specs

    def setup(self, mf, seed, work_dir):
        pool = []
        for kind, _, _, _, text in self._pool_specs(seed):
            expr = mf.parse(text)
            if kind == "implicit":
                expr = mf.implicit_mean(expr.small, expr.big, expr.outer)
            pool.append(expr)
        return {"mf": mf, "pool": pool, "specs": self._pool_specs(seed)}

    def items(self, seed, stream="ops"):
        rng = random.Random(f"balance-{stream}:{seed}")
        specs = self._pool_specs(seed)
        for i in itertools.count():
            j = i % len(specs)
            high = EXP_HIGH if specs[j][1] == "qa[exp]" else HIGH
            # The pass number shifts the vector kind, so every mean meets each.
            yield j, vector(rng, i + i // len(specs), 2 + i % 5, high)

    def run(self, state, item):
        j, v = item
        return state["mf"].eval_mean(state["pool"][j], v)

    def check(self, state, item, answer):
        j, v = item
        kind, outer, small, big, _ = state["specs"][j]
        if not isinstance(answer, float):
            return f"{answer}"
        if kind == "gb":
            s_values, m_values = power_values(small, v), list(v)
        else:
            s_values, m_values = power_values(small, v), power_values(big, v)
        return oracles.check_balance(outer, s_values, m_values, answer)


# ---------------------------------------------------------------------------
# invariant
# ---------------------------------------------------------------------------

PAIR_GAPS = tuple((d,) for d in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0))
TRIPLE_GAPS = ((0.5, 0.5), (0.5, 1.5), (1.0, 1.0), (1.0, 2.0), (1.5, 1.5),
               (0.5, 3.0), (2.0, 2.0), (1.0, 3.0))


class Invariant:
    """eval_mean of invariant means, with one op in eight complementary."""

    name = "invariant"
    tail_percentile = 99
    chunk = 448
    complementary_stride = 8

    def _pool_specs(self, seed: int):
        """A-H, A-G, 24 power pairs and 24 triples; 64 complementary means.

        The cost of an invariant mean grows with the spread of its orders, so
        the spreads are fixed and only where the orders sit depends on the
        seed; prefixes stay inside their windows, off the bracket ends.
        """
        rng = random.Random(f"invariant-pool:{seed}")
        invariant = [("ah", (1.0, -1.0)), ("ag", (1.0, 0.0))]
        for gaps in PAIR_GAPS * 3 + TRIPLE_GAPS * 3:
            invariant.append(("power", spaced_orders(rng, gaps)))
        complementary = []
        for m, gaps in [(1, g) for g in PAIR_GAPS * 4] + [
                (m, g) for g in TRIPLE_GAPS * 2 for m in (1, 2)]:
            beta = spaced_orders(rng, gaps)
            alpha = window_prefix(rng, beta, m, interior=True)
            complementary.append(("complementary", tuple(alpha), beta))
        return invariant, complementary

    def setup(self, mf, seed, work_dir):
        invariant, complementary = self._pool_specs(seed)
        inv = [mf.invariant_mean(mf.parse_mean_list(family_text(orders)))
               for _, orders in invariant]
        comp = [mf.complementary_mean(mf.parse_mean_list(family_text(alpha)),
                                      mf.parse_mean_list(family_text(beta)))
                for _, alpha, beta in complementary]
        return {"mf": mf, "pool": (inv, comp), "specs": (invariant, complementary)}

    def items(self, seed, stream="ops"):
        rng = random.Random(f"invariant-{stream}:{seed}")
        invariant, complementary = self._pool_specs(seed)
        n_inv = n_comp = 0
        for i in itertools.count():
            if i % self.complementary_stride == self.complementary_stride - 1:
                j = n_comp % len(complementary)
                yield 1, j, vector(rng, n_comp, 2 + n_comp % 3)
                n_comp += 1
            else:
                j = n_inv % len(invariant)
                yield 0, j, vector(rng, n_inv, len(invariant[j][1]))
                n_inv += 1

    def run(self, state, item):
        which, j, v = item
        return state["mf"].eval_mean(state["pool"][which][j], v)

    def check(self, state, item, answer):
        which, j, v = item
        if not isinstance(answer, float):
            return f"{answer}"
        if which == 1:
            _, small, family = state["specs"][1][j]
            s_values, m_values = power_values(small, v), power_values(family, v)
            lo, hi = min(m_values), max(m_values)
            slack = oracles.BRACKET_SLACK * hi
            if not lo - slack <= answer <= hi + slack:
                return f"complementary value {answer!r} outside [{lo!r}, {hi!r}]"
            fill = len(family) - len(small)
            return oracles.check_close(
                oracles.gauss_limit(family, s_values + [answer] * fill),
                oracles.gauss_limit(family, m_values),
                oracles.COMPLEMENTARY_RTOL, "invariance residual")
        kind, orders = state["specs"][0][j]
        if kind == "ah":
            want = oracles.power_mean(0.0, v)
        elif kind == "ag":
            want = oracles.agm(*v)
        else:
            want = oracles.gauss_limit(orders, v)
        return oracles.check_close(answer, want, oracles.INVARIANT_RTOL,
                                   f"{kind} limit")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# Families whose embedding holds by construction, so the verifier samples:
# beta{S=P[1]; mu=mean[P[0]]} is the Beta-type mean B, B <= P[1];
# beta{S=P[1]; mu=sum} is P[1], which lies between P[0] and P[2].
SAMPLED_FAMILIES = (
    ("[beta{S=P[1]; mu=mean[P[0]]}]", "[B,P[1]]"),
    ("[beta{S=P[1]; mu=sum}]", "[P[0],P[2]]"),
    ("[B,P[2]]", "[beta{S=P[1]; mu=mean[P[0]]},P[1],P[3]]"),
)
# Means whose mean property and symmetry hold by construction.
MEAN_TEXTS = ("P[-2.5]", "P[0]", "P[3]", "B", "beta{S=P[-1]; mu=sum}",
              "beta{S=P[2]; mu=qa[log]}", "beta{S=P[0.5]; mu=mean[P[2]]}")
# (candidate, family, verdict): G is invariant for (A, H); A is not.
INVARIANCE_CASES = (("P[0]", "[P[1],P[-1]]", True),
                    ("invariant", "[P[2],P[-0.5]]", True),
                    ("invariant", "[P[1],P[0],P[-3]]", True),
                    ("P[1]", "[P[1],P[-1]]", False))
# One op in this cycle per verifier; "pred" is one raw ordering predicate.
VERIFY_CYCLE = ("pred", "refuted", "pred", "property", "pred", "invariance",
                "pred", "sampled", "pred", "compare", "pred", "pred")
SAMPLED_COUNT = 24
PROPERTY_COUNT = 24
INVARIANCE_COUNT = 32
COMPARE_COUNT = 8
REFUTE_COUNT = 64


def ordering_pair(rng: random.Random, relation: str, holds: bool):
    """Vectors (v, w) of length 1-8 whose relation is known by construction."""
    if relation == "embedded":
        n = rng.randint(1, 8)
        m = rng.randint(1, n)
    else:
        n, m = rng.randint(1, 8), rng.randint(1, 8)
    w = [rng.uniform(-100.0, 100.0) for _ in range(n)]
    asc = sorted(w)
    if not holds:
        # Every entry of v above max(w) breaks both relations.
        v = [asc[-1] + rng.uniform(0.5, 10.0) for _ in range(m)]
    elif relation == "embedded":
        v = [rng.uniform(asc[k], asc[k + n - m]) for k in range(m)]
    elif m <= n:
        v = [x - rng.random() * 10.0 for x in asc[n - m:]]
    else:
        v = [x - rng.random() * 10.0 for x in asc]
        v += [rng.uniform(-100.0, 100.0) for _ in range(m - n)]
    rng.shuffle(v)
    return tuple(v), tuple(w)


def comparability(rng: random.Random, m: int, n: int):
    """Exponents (alpha, beta, beta_star) for the comparability law.

    beta_star is beta shifted down, so it is ordered majorized by beta; alpha
    sits in windows of beta narrowed by the shift, so it is embedded in both
    beta and beta_star.  The prefix family is the same on both sides.
    """
    shift = rng.choice((0.25, 0.5))
    beta = sorted(rng.sample([g for g in GRID if g * 2 == int(g * 2)], n))
    alpha = sorted(rng.choice([g for g in GRID
                               if beta[k] <= g <= beta[k + n - m] - shift])
                   for k in range(m))
    beta_star = [b - shift for b in beta]
    if not (oracles.ordered_majorized(beta_star, beta)
            and oracles.embedded(alpha, beta) and oracles.embedded(alpha, beta_star)):
        raise AssertionError(f"generator bug: {alpha}, {beta}, {beta_star}")
    return tuple(alpha), tuple(beta), tuple(beta_star)


class Verify:
    """One verdict from a sampled verifier or a raw ordering predicate."""

    name = "verify"
    tail_percentile = 99
    chunk = 120

    def _pool_specs(self, seed: int):
        rng = random.Random(f"verify-pool:{seed}")
        refuted = []
        for m, n in ((1, 2), (2, 3), (2, 4), (3, 4)):
            beta = sorted(rng.sample([g for g in GRID if g <= 3.0], n))
            alpha = sorted(rng.sample(GRID, m - 1)
                           + [rng.choice([g for g in GRID if g > beta[-1]])])
            if oracles.embedded(alpha, beta):
                raise AssertionError(f"generator bug: {alpha} embedded in {beta}")
            refuted.append((tuple(alpha), tuple(beta)))
        compare = [(outer,) + comparability(rng, m, n) for outer, m, n in
                   (("sum", 1, 2), ("prod", 1, 3), ("sum", 2, 3), ("prod", 2, 4))]
        return refuted, compare

    def setup(self, mf, seed, work_dir):
        refuted, compare = self._pool_specs(seed)
        pl = mf.parse_mean_list
        invariance = []
        for candidate, family, verdict in INVARIANCE_CASES:
            fam = pl(family)
            cand = mf.invariant_mean(fam) if candidate == "invariant" else mf.parse(candidate)
            invariance.append((cand, fam, verdict))
        pool = {
            "refuted": [(pl(family_text(a)), pl(family_text(b))) for a, b in refuted],
            "sampled": [(pl(s), pl(b)) for s, b in SAMPLED_FAMILIES],
            "property": [mf.parse(t) for t in MEAN_TEXTS],
            "invariance": invariance,
            "compare": [(mf.parse_outer(o), pl(family_text(a)), pl(family_text(b)),
                         pl(family_text(bs))) for o, a, b, bs in compare],
        }
        return {"mf": mf, "pool": pool, "specs": {"refuted": refuted}}

    def items(self, seed, stream="ops"):
        rng = random.Random(f"verify-{stream}:{seed}")
        sizes = {"refuted": 4, "sampled": len(SAMPLED_FAMILIES),
                 "property": len(MEAN_TEXTS), "invariance": len(INVARIANCE_CASES),
                 "compare": 4}
        turn = dict.fromkeys(sizes, 0)
        n_pred = 0
        for i in itertools.count():
            kind = VERIFY_CYCLE[i % len(VERIFY_CYCLE)]
            if kind == "pred":
                relation = ("embedded", "majorized")[n_pred % 2]
                holds = n_pred % 4 < 2
                n_pred += 1
                yield ("pred", relation, holds, ordering_pair(rng, relation, holds))
            else:
                j = turn[kind] % sizes[kind]
                turn[kind] += 1
                yield (kind, j, rng.randint(2, 4), rng.randrange(2 ** 32))

    def run(self, state, item):
        mf, pool = state["mf"], state["pool"]
        kind = item[0]
        if kind == "pred":
            _, relation, _, (v, w) = item
            if relation == "embedded":
                return mf.is_embedded(v, w).embedded
            return mf.is_ordered_majorized(v, w).holds
        _, j, arity, plan_seed = item
        if kind in ("refuted", "sampled"):
            count = REFUTE_COUNT if kind == "refuted" else SAMPLED_COUNT
            small, big = pool[kind][j]
            report = mf.verify_embedding(
                small, big, plan=mf.SamplePlan(arity, count, plan_seed, LOW, HIGH))
            witness = report.counterexample
            return (report.mode, report.samples_checked,
                    tuple(witness["vector"]) if witness else None)
        if kind == "property":
            plan = mf.SamplePlan(arity, PROPERTY_COUNT, plan_seed, LOW, HIGH)
            report = mf.check_mean_property(pool["property"][j], plan)
        elif kind == "invariance":
            candidate, family, _ = pool["invariance"][j]
            plan = mf.SamplePlan(len(family), INVARIANCE_COUNT, plan_seed, LOW, HIGH)
            report = mf.verify_invariance(candidate, family, plan)
        else:
            outer, small, big, big_star = pool["compare"][j]
            plan = mf.SamplePlan(arity, COMPARE_COUNT, plan_seed, LOW, HIGH)
            report = mf.compare_implicit_means(small, big, small, big_star, outer, plan)
        return (report.passed, report.samples_checked)

    def check(self, state, item, answer):
        kind = item[0]
        if kind == "pred":
            want = item[2]
            return None if answer is want else f"{item[1]} verdict {answer} != {want}"
        if isinstance(answer, str):
            return answer
        j = item[1]
        if kind == "refuted":
            mode, _, witness = answer
            if mode != "refuted" or witness is None:
                return f"expected a refutation, got {mode}"
            alpha, beta = state["specs"]["refuted"][j]
            if oracles.embedded(power_values(alpha, witness), power_values(beta, witness)):
                return f"witness {witness} does not refute"
            return None
        if kind == "sampled":
            if answer[:2] != ("sampled", SAMPLED_COUNT):
                return f"expected ('sampled', {SAMPLED_COUNT}), got {answer[:2]}"
            return None
        if kind == "invariance":
            want = INVARIANCE_CASES[j][2]
        else:
            want = True
        if answer[0] is not want:
            return f"{kind} verdict {answer[0]} != {want}"
        return None


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# What the ``meanforge`` console script runs.
ENTRY = "import sys; from meanforge.cli import main; sys.exit(main())"
SESSION_FAMILY = (1.0, 0.0)  # registered as "agm"
CLI_OUTERS = ("sum", "prod", "qa[log]", "powsum[2]", "qa[pow[0.5]]")


class Cli:
    """One ``meanforge --format json`` process run to exit."""

    name = "cli"
    tail_percentile = 90
    # Small chunks keep the host-speed kernel close in time to each process.
    chunk = 3
    cycle = ("eval-power", "eval-beta", "eval-outer", "eval-session", "parse",
             "solve", "embed-certified", "embed-refuted", "invariant")

    def __init__(self, root: Path):
        self.root = root

    def env(self, extra=None):
        env = dict(os.environ)
        env.pop("MEANFORGE_SEED", None)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env.update(extra or {})
        return env

    def spawn(self, state, argv):
        proc = subprocess.run(state["prefix"] + argv, env=state["env"],
                              cwd=state["work_dir"], capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout, "Traceback" in proc.stderr

    def setup(self, mf, seed, work_dir):
        session = Path(work_dir) / "session.json"
        if session.exists():
            session.unlink()
        state = {"prefix": [sys.executable, "-c", ENTRY], "env": self.env(),
                 "work_dir": str(work_dir)}
        code, out, traceback = self.spawn(state, [
            "invariant", family_text(SESSION_FAMILY), "--as-mean", "agm",
            "--session", str(session), "--format", "json"])
        if code != 0 or traceback or json.loads(out)["kind"] != "invariant-register":
            raise RuntimeError(f"session registration failed: exit {code}: {out}")
        return state

    def items(self, seed, stream="ops"):
        rng = random.Random(f"cli-{stream}:{seed}")
        for i in itertools.count():
            yield self._command(self.cycle[i % len(self.cycle)], i, rng)

    def _command(self, kind, i, rng):
        """(kind, argv, expected exit code, expected JSON kind, oracle data)."""
        json_flag = ["--format", "json"]
        if kind == "eval-power":
            s, v = rng.choice(GRID), vector(rng, i, rng.randint(2, 5))
            return (kind, ["eval", f"P[{fmt(s)}]", "--at", fmt_vector(v)] + json_flag,
                    0, "eval", oracles.power_mean(s, v))
        if kind == "eval-beta":
            v = vector(rng, i, rng.randint(2, 5))
            return (kind, ["eval", "B", "--at", fmt_vector(v)] + json_flag,
                    0, "eval", oracles.beta_mean(v))
        if kind == "eval-outer":
            outer, v = rng.choice(CLI_OUTERS), vector(rng, i, rng.randint(2, 5))
            return (kind, ["eval", outer, "--at", fmt_vector(v)] + json_flag,
                    0, "eval", oracles.outer_value(outer, v))
        if kind == "eval-session":
            v = vector(rng, i, 2)
            return (kind, ["eval", "agm", "--at", fmt_vector(v), "--session",
                           "session.json"] + json_flag, 0, "eval", oracles.agm(*v))
        if kind in ("parse", "solve"):
            n = rng.randint(2, 5)
            alpha, beta = exponent_window(rng, rng.randint(1, n - 1), n)
            outer = rng.choice(("sum", "prod"))
            canonical = f"T{{mu={outer}; S={family_text(alpha)}; M={family_text(beta)}}}"
            if kind == "parse":
                spaced = canonical.replace(";", " ;\n ").replace("=", " = ")
                return (kind, ["parse", spaced] + json_flag, 0, "parse", canonical)
            v = vector(rng, i, rng.randint(2, 5))
            return (kind, ["solve", canonical, "--at", fmt_vector(v)] + json_flag,
                    0, "solve", (outer, power_values(alpha, v), power_values(beta, v)))
        if kind == "embed-certified":
            n = rng.randint(2, 5)
            alpha, beta = exponent_window(rng, rng.randint(1, n - 1), n)
            return (kind, ["embed", family_text(alpha), family_text(beta)] + json_flag,
                    0, "embed", "certified")
        if kind == "embed-refuted":
            n = rng.randint(2, 4)
            beta = sorted(rng.sample([g for g in GRID if g <= 3.0], n))
            alpha = [rng.choice([g for g in GRID if g > beta[-1]])]
            return (kind, ["embed", family_text(alpha), family_text(beta),
                           "--samples", "64", "--seed", str(rng.randrange(2 ** 31))]
                    + json_flag, 4, "embed", "refuted")
        orders = tuple(rng.sample(GRID, 2))
        v = vector(rng, i, 2)
        return (kind, ["invariant", family_text(orders), "--at", fmt_vector(v)]
                + json_flag, 0, "invariant", oracles.gauss_limit(orders, v))

    def run(self, state, item):
        return self.spawn(state, item[1])

    def check(self, state, item, answer):
        kind, _, want_code, want_kind, want = item
        code, out, traceback = answer
        if traceback:
            return "traceback on stderr"
        if code != want_code:
            return f"exit {code}, expected {want_code}"
        try:
            record = json.loads(out.splitlines()[-1])
        except (IndexError, ValueError):
            return f"no JSON record in {out!r}"
        if record.get("kind") != want_kind:
            return f"JSON kind {record.get('kind')!r} != {want_kind!r}"
        output = record["output"]
        if kind == "parse":
            if output != {"canonical": want, "type": "problem"}:
                return f"parse output {output}"
            return None
        if kind == "solve":
            if output["status"] != "converged":
                return f"solve status {output['status']}"
            return oracles.check_balance(want[0], want[1], want[2], output["root"])
        if kind.startswith("embed"):
            return None if output["mode"] == want else f"embed mode {output['mode']}"
        if kind == "invariant":
            if output["converged"] is not True:
                return "invariant did not converge"
            return oracles.check_close(output["limit"], want,
                                       oracles.INVARIANT_RTOL, "invariant limit")
        rtol = oracles.INVARIANT_RTOL if kind == "eval-session" else oracles.CLOSED_FORM_RTOL
        return oracles.check_close(output, want, rtol, kind)


def make(name: str, root: Path):
    if name == "cli":
        return Cli(root)
    return {"balance": Balance, "invariant": Invariant, "verify": Verify}[name]()


NAMES = ("balance", "invariant", "verify", "cli")
