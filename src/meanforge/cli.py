"""Command-line front end: ``meanforge <eval|solve|embed|invariant|check|parse>``.

``eval`` evaluates an outer function or any mean, a ``T{...}`` problem too:
its value is the root that ``solve`` prints with bracket, residual and steps.
Exit codes: 0 success, 1 a check suite reported failures, 2 unparseable
input, 3 domain or arity violation, 4 a mathematical hypothesis failed
(embedding refuted or violated), 5 non-convergence.  ``--format json``
prints one JSON object per line with fields ``{kind, input, output,
residual?, witness?}``; with a fixed ``--seed`` the output is byte-identical
across runs.  ``MEANFORGE_SEED`` supplies the seed when ``--seed`` is absent.

A session file (``--session``) is a JSON map of registered derived means; it
stores definitions (the DSL text of the iterated family), not values, and
means are rebuilt on load in file order, each entry seeing only earlier
names, usable as identifiers in any expression.  ``main`` reads the file once,
before any command runs, so every command that takes ``--session`` (``check``
included) rejects a malformed file, or one with an unparseable entry, with
exit 3.  A registration after which the file would not load is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional

from . import dsl, invariance
from .errors import (
    ArityError,
    ConvergenceError,
    DomainError,
    HypothesisViolation,
    MeanForgeError,
    ParseError,
)
from .implicit import _sample_arity, solve_scalar, verify_embedding
from .means import DEFAULT_TOL, MeanExpr, eval_mean, eval_outer, is_mean_expr
from .sampling import SamplePlan

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_HYPOTHESIS = 4
EXIT_NO_CONVERGENCE = 5

DEFAULT_SAMPLES = 200


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ParseError(f"bad {what} literal {text!r}", 1, 1,
                         ("comma-separated decimals",)) from None


def _parse_domain(text: Optional[str]) -> tuple[float, float]:
    if text is None:
        return SamplePlan.lower, SamplePlan.upper
    values = _parse_floats(text, "domain")
    if len(values) != 2 or not values[0] < values[1]:
        raise ParseError(f"bad domain {text!r}", 1, 1, ("lo,hi with lo < hi",))
    return values[0], values[1]


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MEANFORGE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"MEANFORGE_SEED must be an integer, got {env!r}") from None
    return 0


def _emit(args, record: dict, human_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(record))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# session registry
# ---------------------------------------------------------------------------

def _read_session(path: str) -> dict:
    """The JSON object stored in the session file (empty when there is none)."""
    file = Path(path)
    if not file.exists():
        return {}
    try:
        data = json.loads(file.read_text(encoding="utf-8"), parse_int=float)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read session file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"session file {path} must hold a JSON object")
    return data


def _build_registry(data: dict) -> dict[str, MeanExpr]:
    """Rebuild the registered means in file order; an entry sees only earlier names."""
    registry: dict[str, MeanExpr] = {}
    for name, entry in data.items():
        if not isinstance(entry, dict) or entry.get("kind") != "invariant":
            raise DomainError(f"session entry {name!r} is not an invariant-mean object")
        texts, tol = entry.get("means"), entry.get("tol", DEFAULT_TOL)
        if not (isinstance(texts, list) and all(isinstance(t, str) for t in texts)
                and isinstance(tol, float)):
            raise DomainError(f"session entry {name!r} needs \"means\", a list of "
                              "mean texts, and a numeric \"tol\"")
        family = tuple(dsl.parse_mean(text, registry) for text in texts)
        try:
            registry[name] = invariance.invariant_mean(family, tol, name)
        except (DomainError, ArityError) as exc:
            raise DomainError(f"session entry {name!r}: {exc}") from None
    return registry


def _save_registration(path: str, name: str, mean_texts: list[str], tol: float) -> None:
    """Add one entry to the session file, replacing the file atomically.

    The new contents must load; otherwise the file is left untouched.  The
    entry's own faults (tolerance, strictness) raise as they would on load;
    a text that no longer parses in file order is refused as a domain error.
    """
    file = Path(path)
    data = _read_session(path)
    data[name] = {"kind": "invariant", "means": mean_texts, "tol": tol}
    try:
        _build_registry(data)
    except ParseError as exc:
        raise DomainError(f"refusing to register {name!r}: the session file "
                          f"would no longer load ({exc})") from None
    try:
        fd, tmp = tempfile.mkstemp(dir=file.parent, prefix=f".{file.name}.", suffix=".tmp")
    except OSError as exc:
        raise DomainError(f"cannot write session file {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            out.write(json.dumps(data, indent=2) + "\n")
        os.replace(tmp, file)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_eval(args, registry: dict[str, MeanExpr]) -> int:
    expr = dsl.parse(args.expr, registry)
    at = _parse_floats(args.at, "vector")
    value = eval_mean(expr, at) if is_mean_expr(expr) else eval_outer(expr, at)
    record = {"kind": "eval",
              "input": {"expr": dsl.format_expr(expr), "at": list(at)},
              "output": value}
    _emit(args, record, [f"{value:.17g}"])
    return EXIT_OK


def _cmd_solve(args, registry: dict[str, MeanExpr]) -> int:
    problem = dsl.parse(args.problem, registry)
    if not isinstance(problem, dsl.ProblemSpec):
        raise DomainError("expected a problem specification T{mu=...; S=[...]; M=[...]}")
    at = _parse_floats(args.at, "vector")
    prefix = tuple(eval_mean(s, at) for s in problem.small)
    target = tuple(eval_mean(m, at) for m in problem.big)
    result = solve_scalar(problem.outer, prefix, target, tol=args.tol)
    record = {"kind": "solve",
              "input": {"problem": dsl.format_expr(problem), "at": list(at)},
              "output": {"root": result.root,
                         "bracket": list(result.bracket),
                         "iterations": result.iterations,
                         "status": result.status},
              "residual": result.residual}
    lines = [f"root       {result.root:.17g}",
             f"bracket    [{result.bracket[0]:.17g}, {result.bracket[1]:.17g}]",
             f"residual   {result.residual:.3e}",
             f"iterations {result.iterations}",
             f"status     {result.status}"]
    _emit(args, record, lines)
    return EXIT_OK if result.status == "converged" else EXIT_NO_CONVERGENCE


def _cmd_embed(args, registry: dict[str, MeanExpr]) -> int:
    if args.samples < 1:
        raise DomainError(f"--samples must be at least 1, got {args.samples}")
    small = dsl.parse_mean_list(args.small, registry)
    big = dsl.parse_mean_list(args.big, registry)
    lo, hi = _parse_domain(args.domain)
    arity = _sample_arity(small + big) if args.arity is None else args.arity
    plan = SamplePlan(arity=arity, count=args.samples, seed=_seed(args),
                      lower=lo, upper=hi)
    report = verify_embedding(small, big, plan)
    output = {"mode": report.mode, "samples_checked": report.samples_checked}
    if report.certificate is not None:
        output["certificate"] = report.certificate
    record = {"kind": "embed",
              "input": {"S": dsl.format_expr(small), "M": dsl.format_expr(big),
                        "samples": args.samples, "seed": _seed(args),
                        "arity": arity},
              "output": output}
    lines = [report.mode]
    if report.mode == "sampled":
        lines = [f"sampled: no violation at {report.samples_checked} points "
                 "(not a proof)"]
    if report.counterexample is not None:
        record["witness"] = report.counterexample
        at = ",".join(f"{x!r}" for x in report.counterexample["vector"])
        lines.append("counterexample vector: " + at)
        session = ""
        if args.session is not None:
            import shlex  # deferred: only a refutation replays
            session = " --session " + shlex.quote(args.session)
        for mean in tuple(small) + tuple(big):
            lines.append(f'  meanforge eval "{mean}" --at {at}{session}')
    _emit(args, record, lines)
    return EXIT_HYPOTHESIS if report.mode == "refuted" else EXIT_OK


def _cmd_invariant(args, registry: dict[str, MeanExpr]) -> int:
    family = dsl.parse_mean_list(args.means, registry)
    if args.as_mean is None and args.at is None:
        raise DomainError("nothing to do: pass --at VECTOR and/or --as-mean NAME")
    exit_code = EXIT_OK
    if args.as_mean is not None:
        if not dsl.is_valid_name(args.as_mean):
            raise DomainError(f"{args.as_mean!r} is not a registrable name "
                              "(identifier syntax, not a reserved word)")
        if args.session is None:
            raise DomainError("--as-mean needs --session FILE to store the registration")
        _save_registration(args.session, args.as_mean,
                           [str(m) for m in family], args.tol)
        record = {"kind": "invariant-register",
                  "input": {"M": dsl.format_expr(family), "tol": args.tol},
                  "output": args.as_mean}
        _emit(args, record, [f"registered {args.as_mean!r} in {args.session}"])
    if args.at is not None:
        at = _parse_floats(args.at, "vector")
        trace = invariance.gauss_iterate(family, at, tol=args.tol)
        record = {"kind": "invariant",
                  "input": {"M": dsl.format_expr(family), "at": list(at),
                            "tol": args.tol},
                  "output": {"limit": trace.limit,
                             "iterations": trace.iterations,
                             "final_spread": trace.final_spread,
                             "converged": trace.converged}}
        lines = [f"limit      {trace.limit:.17g}",
                 f"iterations {trace.iterations}",
                 f"spread     {trace.final_spread:.3e}",
                 f"converged  {trace.converged}"]
        _emit(args, record, lines)
        if not trace.converged:
            exit_code = EXIT_NO_CONVERGENCE
    return exit_code


def _cmd_check(args, registry: dict[str, MeanExpr]) -> int:
    from . import checks  # deferred: no other command compiles the suites
    if args.suite not in checks.SUITE_NAMES + ("all",):
        print(f"error: unknown suite {args.suite!r}; choose from "
              f"{', '.join(checks.SUITE_NAMES)} or all", file=sys.stderr)
        return EXIT_PARSE
    if args.samples < 1:
        raise DomainError(f"--samples must be at least 1, got {args.samples}")
    records = checks.run_suite(args.suite, samples=args.samples, seed=_seed(args))
    failed = 0
    for record in records:
        if record["output"] != "PASS":
            failed += 1
        if args.format == "human":
            print(f"{record['output']:4s} {record['kind']}")
            if "witness" in record:
                print(f"     witness: {record['witness']}")
        else:
            print(json.dumps(record))
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_parse(args, registry: dict[str, MeanExpr]) -> int:
    expr = dsl.parse(args.text, registry)
    if isinstance(expr, dsl.ProblemSpec):
        kind = "problem"
    elif is_mean_expr(expr):
        kind = "mean"
    else:
        kind = "outer"
    canonical = dsl.format_expr(expr)
    record = {"kind": "parse", "input": {"text": args.text},
              "output": {"canonical": canonical, "type": kind}}
    _emit(args, record, [f"{kind}: {canonical}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub, *, fmt_default: str = "human") -> None:
    sub.add_argument("--format", choices=("human", "json"), default=fmt_default,
                     help=f"output format (default {fmt_default})")
    sub.add_argument("--session", default=None, metavar="FILE",
                     help="JSON session file with registered derived means")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanforge",
        description="Evaluate means, solve mean balance equations, certify "
                    "embeddability, compute invariant means, and run the "
                    "property-check suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a mean or outer-function expression")
    p.add_argument("expr", help='DSL text, e.g. "P[0]", "T{...}" or "qa[log]"')
    p.add_argument("--at", required=True, metavar="V",
                   help="comma-separated vector, e.g. 2,8")
    _add_common(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("solve", help="solve the balance equation of a T{...} problem")
    p.add_argument("problem", help='problem text: "T{mu=...; S=[...]; M=[...]}"')
    p.add_argument("--at", required=True, metavar="V", help="comma-separated vector")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"relative root tolerance (default {DEFAULT_TOL})")
    _add_common(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("embed", help="certify, sample, or refute embeddability "
                                     "of one mean family in another")
    p.add_argument("small", help='prefix family, e.g. "[P[0],P[2]]"')
    p.add_argument("big", help='target family, e.g. "[P[-2],P[-1],P[1],P[3]]"')
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--arity", type=int, default=None,
                   help="vector length for sampled checks (default: the arity "
                        "the means pin, else 3)")
    p.add_argument("--domain", default=None, metavar="LO,HI",
                   help="sampling interval (default 0,100)")
    _add_common(p)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("invariant", help="iterate a mean-type mapping to its "
                                         "invariant mean")
    p.add_argument("means", help='family text, e.g. "[P[1],P[-1]]"')
    p.add_argument("--at", default=None, metavar="V", help="evaluate at this vector")
    p.add_argument("--as-mean", dest="as_mean", default=None, metavar="NAME",
                   help="register the invariant mean under NAME (needs --session)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_common(p)
    p.set_defaults(handler=_cmd_invariant)

    p = sub.add_parser("check", help="run the seeded property suites")
    p.add_argument("--suite", default="all", metavar="NAME",
                   help="suite to run, or all (default all)")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p, fmt_default="json")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("parse", help="parse DSL text and print its canonical form")
    p.add_argument("text")
    _add_common(p)
    p.set_defaults(handler=_cmd_parse)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            registry = {} if args.session is None else _build_registry(_read_session(args.session))
        except ParseError as exc:  # an entry's text: the file is at fault, not the argv
            raise DomainError(f"session file {args.session} does not load: {exc}") from None
        return args.handler(args, registry)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HypothesisViolation as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"witness: {json.dumps(exc.witness)}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except MeanForgeError as exc:  # any structured error not mapped above
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
