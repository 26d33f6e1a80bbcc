"""Record ``dsl_corpus.json``: seeded DSL texts and what the parser makes of each.

Run from the repository root::

    PYTHONPATH=src python tests/data/make_dsl_corpus.py

Each case is ``[rule, registry, text, outcome]``.  ``rule`` names the entry
point (``parse``, ``mean``, ``outer`` or ``list``), ``registry`` is 1 when the
text is parsed with the invariant means the file's ``registry`` names, and
``outcome`` is ``"ok: " + format_expr(result)`` or ``"<ErrorClass>: " +
str(error)``.  ``tests/test_dsl.py`` re-parses every text and requires the
same outcome, so a change to the scanner or the parser that moves a result,
an error message, a position or the expected tokens fails there.  Re-record
only when such a change is intended.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from meanforge import PowerMean, invariant_mean
from meanforge.dsl import MAX_NESTING, format_expr, parse, parse_mean, parse_mean_list, parse_outer
from meanforge.errors import MeanForgeError

CORPUS = Path(__file__).with_name("dsl_corpus.json")
RULES = {"parse": parse, "mean": parse_mean, "outer": parse_outer, "list": parse_mean_list}

NUMBERS = ("0", "1", "2", "3", "-1", "-2", "+3", "2.5", "-0.5", "0.25", "10", "007",
           "1.000", "-3.75", "12345678901234567890", "0.0", "-0", "+0.5")
# str.isspace() characters beyond the ASCII space, and look-alikes that are not
SPACES = ("\t", "\x0b", "\x0c", "\r", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u3000")
ODD = ("@", "!", ".", "e", "x", "_", "9", "\u200b", "\u0663", "\xe9", "\U0001d7d8", "\x00",
       "(", ")", "+", "-", "'", '"', "#")
_PIECE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|[+-]?[0-9]+(?:\.[0-9]+)?|\S")


# registered names, as a session file would rebuild them: name -> power-mean orders
REGISTRY = {"agm": [1.0, 0.0], "ahm": [1.0, -1.0], "tri_3": [1.0, 0.0, -1.0]}


def corpus_registry(orders: dict) -> dict:
    return {name: invariant_mean(tuple(PowerMean(p) for p in family), name=name)
            for name, family in orders.items()}


def gen_number(rng):
    if rng.random() < 0.7:
        return rng.choice(NUMBERS)
    return f"{rng.uniform(-60, 60):.{rng.randint(0, 4)}f}"


def gen_mean(rng, depth, names):
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return f"P[{gen_number(rng)}]"
    if r < 0.4:
        return "B"
    if r < 0.6 and names:
        return rng.choice(names)
    if r < 0.75:
        return f"beta{{S={gen_mean(rng, depth - 1, names)}; mu={gen_outer(rng, depth - 1, names)}}}"
    m = rng.randint(1, 3)
    n = rng.randint(m + 1, m + 3) if rng.random() < 0.9 else rng.randint(1, m)
    return (f"T{{mu={gen_outer(rng, depth - 1, names)}; "
            f"S={gen_list(rng, depth - 1, names, m)}; M={gen_list(rng, depth - 1, names, n)}}}")


def gen_list(rng, depth, names, length):
    return "[" + ",".join(gen_mean(rng, depth, names) for _ in range(length)) + "]"


def gen_outer(rng, depth, names):
    r = rng.random()
    if r < 0.2:
        return "sum"
    if r < 0.35:
        return "prod"
    if r < 0.5:
        return f"powsum[{gen_number(rng)}]"
    if r < 0.75:
        gen = rng.choice(("log", "exp", "id", f"pow[{gen_number(rng)}]"))
        return f"qa[{gen}]"
    return f"mean[{gen_mean(rng, depth - 1, names) if depth > 0 else 'P[1]'}]"


def gen_text(rng, names):
    """(rule, text) for a grammar-valid text of a random rule."""
    rule = rng.choice(("parse", "parse", "mean", "outer", "list"))
    depth = rng.randint(0, 2)
    if rule == "outer" or (rule == "parse" and rng.random() < 0.3):
        return rule, gen_outer(rng, depth, names)
    if rule == "list":
        return rule, gen_list(rng, depth, names, rng.randint(1, 4))
    return rule, gen_mean(rng, depth, names)


def gen_invariant(rng, depth, names):
    """An ``invariant{...}`` text: mostly strict members, with and without ``tol``."""
    members = [gen_mean(rng, depth, names) if rng.random() < 0.2
               else rng.choice(("B", f"P[{gen_number(rng)}]", *names))
               for _ in range(rng.randint(1, 3))]
    tol = rng.choice(("", "", "; tol=0.001", "; tol=0.5", "; tol=0.000000000001",
                      f"; tol={gen_number(rng)}"))
    return f"invariant{{M=[{','.join(members)}]{tol}}}"


def gen_invariant_text(rng, names):
    """(rule, text) for a text holding ``invariant{...}``, alone or inside another node."""
    inner = gen_invariant(rng, rng.randint(0, 2), names)
    where = rng.randrange(5)
    if where == 0:
        return "outer", f"mean[{inner}]"
    if where == 1:
        return "mean", f"beta{{S={inner}; mu={gen_outer(rng, 1, names)}}}"
    if where == 2:
        big = gen_list(rng, 0, names, rng.randint(2, 3))
        return "parse", f"T{{mu=mean[{inner}]; S=[P[1]]; M={big}}}"
    if where == 3:
        return "list", f"[{inner},{gen_mean(rng, 1, names)}]"
    return rng.choice(("parse", "mean")), inner


def respace(rng, text, spaces):
    """Rejoin the pieces of ``text`` with separators drawn from ``spaces``."""
    out = []
    for piece in _PIECE.findall(text):
        out.append(piece)
        if rng.random() < 0.4:
            out.append("".join(rng.choice(spaces) for _ in range(rng.randint(1, 3))))
    return "".join(out)


def mutate(rng, text):
    chars = list(text)
    alphabet = text + "[]{};,=" + "".join(ODD) + " \n\t"
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        pos = rng.randrange(len(chars) + 1)
        if op == 0 and chars:
            del chars[min(pos, len(chars) - 1)]
        elif op == 1:
            chars.insert(pos, rng.choice(alphabet))
        elif op == 2 and chars:
            chars[min(pos, len(chars) - 1)] = rng.choice(alphabet)
        elif op == 3:
            chars = chars[:pos]
        else:
            end = min(len(chars), pos + rng.randint(1, 8))
            chars[pos:pos] = chars[pos:end]
    return "".join(chars)


def nesting_text(rng):
    """A text whose brackets nest near or past ``MAX_NESTING``."""
    depth = MAX_NESTING + rng.randint(-3, 4)
    opener = rng.choice(("beta{S=", "mean[", "qa[", "[", "{", "P[", "T{mu=sum; S=["))
    prefix = rng.choice(("", "", "]]", "}]}", "P[1]", "@"))
    tail = rng.choice(("P[1]", "B", "", "]" * depth, "; mu=sum}" * 3, "\n@"))
    text = prefix + opener * depth + tail
    return mutate(rng, text) if rng.random() < 0.3 else text


def outcome(rule, text, registry):
    try:
        return "ok: " + format_expr(RULES[rule](text, registry))
    except MeanForgeError as exc:
        return f"{type(exc).__name__}: {exc}"


def build_cases():
    rng = random.Random("dsl-corpus:1")
    registry = corpus_registry(REGISTRY)
    names = sorted(registry)
    cases = []

    def add(rule, text, with_registry):
        cases.append([rule, int(with_registry), text,
                      outcome(rule, text, registry if with_registry else None)])

    for _ in range(1500):  # grammar-valid, with plain spaces
        rule, text = gen_text(rng, [])
        add(rule, respace(rng, text, (" ",)), rng.random() < 0.5)
    for _ in range(2400):  # mutated
        rule, text = gen_text(rng, names if rng.random() < 0.3 else [])
        add(rng.choice((rule, "parse")), mutate(rng, respace(rng, text, (" ",))),
            rng.random() < 0.5)
    for _ in range(500):  # multi-line
        rule, text = gen_text(rng, [])
        text = respace(rng, text, ("\n", "\n", " ", "\r\n", "\n\n  "))
        add(rule, mutate(rng, text) if rng.random() < 0.5 else text, rng.random() < 0.5)
    for _ in range(500):  # tabs and other whitespace
        rule, text = gen_text(rng, [])
        text = respace(rng, text, SPACES + ("\u200b", " "))
        add(rule, mutate(rng, text) if rng.random() < 0.3 else text, False)
    for _ in range(150):  # near and past the nesting limit
        add("parse", nesting_text(rng), False)
    for _ in range(700):  # registered names, with and without the registry
        rule, text = gen_text(rng, names)
        if rng.random() < 0.3:
            text = mutate(rng, text)
        add(rule, respace(rng, text, (" ", "\n", "\t")), rng.random() < 0.8)
    rng = random.Random("dsl-corpus:invariant")  # its own stream: the cases above stay put
    for _ in range(300):  # invariant{...}: grammar-valid
        rule, text = gen_invariant_text(rng, [])
        add(rule, respace(rng, text, (" ",)), rng.random() < 0.5)
    for _ in range(300):  # invariant{...}: mutated
        rule, text = gen_invariant_text(rng, names if rng.random() < 0.3 else [])
        add(rng.choice((rule, "parse")), mutate(rng, respace(rng, text, (" ",))),
            rng.random() < 0.5)
    for _ in range(150):  # invariant{...} over registered names
        rule, text = gen_invariant_text(rng, names)
        add(rule, respace(rng, text, (" ", "\n", "\t")), rng.random() < 0.8)
    return cases


def main():
    cases = build_cases()
    body = ",\n".join(json.dumps(case) for case in cases)
    CORPUS.write_text(f'{{"max_nesting": {MAX_NESTING}, "registry": {json.dumps(REGISTRY)},\n'
                      f'"cases": [\n{body}\n]}}\n', encoding="utf-8")
    print(f"{len(cases)} cases written to {CORPUS}")


if __name__ == "__main__":
    main()
