"""Command-line front end: ``meanforge <eval|solve|embed|invariant|check|parse>``.

``eval`` evaluates an outer function or any mean, ``invariant{M=[...]}`` and a
``T{...}`` problem too: a problem's value is the root that ``solve`` prints with
bracket, residual and steps.
Exit codes: 0 success, 1 a check suite reported failures, 2 unparseable
input, 3 domain or arity violation, 4 a mathematical hypothesis failed
(embedding refuted or violated), 5 non-convergence.  ``--format json``
prints one JSON object per line with fields ``{kind, input, output,
residual?, witness?}``; a fixed ``--seed`` (default 0) makes the output
byte-identical across runs.  The CLI checks an input's shape only; its rules
belong to ``SamplePlan`` and ``run_suite``, so a well-formed value that
breaks one (``--domain=5,1``, ``--samples 0``) exits 3.

A session file (``--session``; ``check`` resolves no name and takes none) is
a JSON map of registered derived means; it stores definitions (the DSL text
of the iterated family), not values, and means are rebuilt on load in file
order, each entry seeing only earlier names, usable as identifiers in any
expression.  ``main`` loads it once, before any command runs: a fault of the
file or of one entry (a name that is not registrable, a text that does not
parse or names a later entry, a family the ``InvariantMean`` node refuses)
exits 3, naming the file and the entry, as does input nested too deeply.  A
registration after which the file would not load is refused.
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
    ConvergenceError,
    DomainError,
    HypothesisViolation,
    MeanForgeError,
    ParseError,
)
from .implicit import _balance, _sample_arity, verify_embedding
from .means import DEFAULT_TOL, MeanExpr, OuterFn, eval_mean, eval_outer
from .ordering import as_vector
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
    """The two values of ``lo,hi``; :class:`SamplePlan` judges the interval."""
    if text is None:
        return SamplePlan.lower, SamplePlan.upper
    values = _parse_floats(text, "domain")
    if len(values) != 2:
        raise ParseError(f"bad domain {text!r}", 1, 1, ("lo,hi",))
    return values


def _emit(args, record: dict, human_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(record))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# session registry
# ---------------------------------------------------------------------------

def _load_session(path: str, update: Optional[dict] = None) -> tuple[dict, dict[str, MeanExpr]]:
    """The session file's JSON object, with ``update`` merged in, and the means it registers.

    The means are rebuilt in file order, each entry seeing only earlier names
    (an absent file holds none).  A fault of the file or of one entry raises one
    ``DomainError`` naming both, or refusing the registration of an ``update`` entry at fault.
    """
    file, name, means = Path(path), None, ""
    try:
        data = json.loads(file.read_text(encoding="utf-8") if file.exists() else "{}",
                          parse_int=float)
        if not isinstance(data, dict):
            raise DomainError("it must hold a JSON object")
        data.update(update or {})
        registry: dict[str, MeanExpr] = {}
        for name, entry in data.items():
            means = ""
            if not dsl.is_valid_name(name):
                raise DomainError(f"{name!r} is not a registrable name "
                                  "(identifier syntax, not a reserved word)")
            if not (isinstance(entry, dict) and entry.get("kind") == "invariant"
                    and isinstance(texts := entry.get("means"), list)
                    and all(isinstance(t, str) for t in texts)
                    and isinstance(tol := entry.get("tol", DEFAULT_TOL), float)):
                raise DomainError('an entry must be {"kind": "invariant", "means": '
                                  '[mean texts], "tol": number (optional)}')
            means = f" (means {json.dumps(texts)})"  # parse positions count within a text
            try:
                family = tuple(dsl.parse_mean(text, registry) for text in texts)
            except ParseError as exc:  # a later entry's name is unknown here, yet in the file
                if exc.name == name or exc.name not in data:
                    raise
                raise DomainError(f"{exc}; {exc.name!r} is a later entry, and each entry "
                                  "sees only the names before it") from None
            registry[name] = invariance.invariant_mean(family, tol, name)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, MeanForgeError) as exc:
        if name in (update or ()):  # the entry being added is at fault, not the file
            raise DomainError(f"refusing to register {name!r}{means}: {exc}") from None
        where = "" if name is None else f", entry {name!r}{means}"
        raise DomainError(f"session file {path} does not load{where}: {exc}") from None
    return data, registry


def _save_registration(path: str, name: str, mean_texts: list[str], tol: float) -> None:
    """Add one entry to the session file, replacing the file atomically.

    The new contents must load, and a write that fails raises ``DomainError``;
    either way the file is left untouched and no temporary file is left behind.
    """
    file, entry = Path(path), {"kind": "invariant", "means": mean_texts, "tol": tol}
    data, _ = _load_session(path, {name: entry})
    try:
        fd, tmp = tempfile.mkstemp(dir=file.parent, prefix=f".{file.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as out:
                out.write(json.dumps(data, indent=2) + "\n")
            os.replace(tmp, file)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise DomainError(f"cannot write session file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_eval(args, registry: dict[str, MeanExpr]) -> int:
    expr = dsl.parse(args.expr, registry)
    at = _parse_floats(args.at, "vector")
    value = eval_outer(expr, at) if isinstance(expr, OuterFn) else eval_mean(expr, at)
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
    result = _balance(problem, as_vector(at), args.tol)  # eval's call, at --tol
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
    small = dsl.parse_mean_list(args.small, registry)
    big = dsl.parse_mean_list(args.big, registry)
    lo, hi = _parse_domain(args.domain)
    arity = _sample_arity(small + big) if args.arity is None else args.arity
    plan = SamplePlan(arity=arity, count=args.samples, seed=args.seed, lower=lo, upper=hi)
    report = verify_embedding(small, big, plan)
    output = {"mode": report.mode, "samples_checked": report.samples_checked}
    if report.certificate is not None:
        output["certificate"] = report.certificate
    record = {"kind": "embed",
              "input": {"S": dsl.format_expr(small), "M": dsl.format_expr(big),
                        "samples": args.samples, "seed": args.seed,
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
        if args.session is None:
            raise DomainError("--as-mean needs --session FILE to store the registration")
        # the argv's own faults keep their exit codes: a bad --tol 3, a non-strict family 4;
        # the name is judged with the file, which must load with the new entry
        invariance.invariant_mean(family, args.tol, args.as_mean)
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
    try:
        checks.suite_names(args.suite)
    except ValueError as exc:  # a name outside the argv's choices, as argparse would refuse it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    records = checks.run_suite(args.suite, samples=args.samples, seed=args.seed)
    for record in records:
        lines = [f"{record['output']:4s} {record['kind']}"]
        if "witness" in record:
            lines.append(f"     witness: {record['witness']}")
        _emit(args, record, lines)
    return EXIT_CHECK_FAILED if any(r["output"] != "PASS" for r in records) else EXIT_OK


def _cmd_parse(args, registry: dict[str, MeanExpr]) -> int:
    expr = dsl.parse(args.text, registry)
    kind = ("problem" if isinstance(expr, dsl.ProblemSpec)
            else "outer" if isinstance(expr, OuterFn) else "mean")
    canonical = dsl.format_expr(expr)
    record = {"kind": "parse", "input": {"text": args.text},
              "output": {"canonical": canonical, "type": kind}}
    _emit(args, record, [f"{kind}: {canonical}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--format", choices=("human", "json"), default="human",
                     help="output format (default human)")
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("human", "json"), default="json",
                   help="output format (default json)")  # and no --session: no name to resolve
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("parse", help="parse DSL text and print its canonical form")
    p.add_argument("text")
    _add_common(p)
    p.set_defaults(handler=_cmd_parse)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        path = getattr(args, "session", None)  # check takes no session
        registry = {} if path is None else _load_session(path)[1]
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
    except RecursionError:  # a deep chain of session names, or deep JSON in the file
        print("error: the input nests too deeply", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
