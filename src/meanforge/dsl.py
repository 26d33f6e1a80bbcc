"""Parser and printer for the textual mean-expression language.

Grammar (whitespace-insensitive)::

    mean    := "P" "[" number "]" | "B" | "beta" "{" "S=" mean ";" "mu=" outer "}"
             | problem | ident
    outer   := "sum" | "prod" | "powsum" "[" number "]" | "qa" "[" gen "]" | "mean" "[" mean "]"
    gen     := "log" | "exp" | "pow" "[" number "]" | "id"
    list    := "[" mean { "," mean } "]"
    problem := "T" "{" "mu=" outer ";" "S=" list ";" "M=" list "}"
    number  := decimal with optional sign and fraction

``ident`` resolves named derived means registered at runtime (for example an
invariant mean stored in a session file); an unknown name is an error.  A
``problem`` is the implicit mean its balance equation defines, so it parses
wherever a mean does: at the top level, in a mean list, inside ``beta{...}``.
Every ``sum``/``powsum``/``qa`` outer is one ``Sum`` node, printed in its
canonical spelling ``sum``, ``powsum[p]``, ``qa[log]`` or ``qa[exp]``;
``qa[id]`` and ``qa[pow[p]]`` are accepted aliases of ``sum`` and
``powsum[p]``.  ``parse(format(x))`` reproduces ``x`` structurally for
everything the grammar can construct.  Parsing is total: any input either
parses or raises a structured error, never anything else.  Brackets nest at
most ``MAX_NESTING`` deep, which bounds the recursion of the parser and of
printing and evaluating what it builds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .errors import ParseError
from .means import (
    BetaMean,
    GeneralizedBetaMean,
    MeanExpr,
    MeanOuter,
    OuterFn,
    PowerMean,
    ProblemSpec,
    Product,
    Sum,
)

__all__ = [
    "ProblemSpec",
    "RESERVED_WORDS",
    "MAX_NESTING",
    "parse",
    "parse_mean",
    "parse_outer",
    "parse_mean_list",
    "format_expr",
    "is_valid_name",
]

RESERVED_WORDS = frozenset(
    ["P", "B", "T", "S", "M", "mu", "beta", "sum", "prod", "powsum",
     "qa", "mean", "log", "exp", "pow", "id"])

_NAME_PATTERN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def is_valid_name(name: str) -> bool:
    """Whether ``name`` can be registered as a derived-mean identifier."""
    return bool(_NAME_PATTERN.match(name)) and name not in RESERVED_WORDS


Expr = Union[MeanExpr, OuterFn]


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_NUMBER_RE = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_PUNCT = "[]{};,="
# Every recursive rule opens a bracket, so this also caps the parse depth.
MAX_NESTING = 64


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "punct" | "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    depth = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            depth += (ch in "[{") - (ch in "]}")
            if depth > MAX_NESTING:
                raise ParseError(f"brackets nested deeper than {MAX_NESTING}", line, col)
            tokens.append(_Token("punct", ch, line, col))
            col += 1
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m and (ch.isdigit() or ch in "+-"):
            tokens.append(_Token("number", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser
# ---------------------------------------------------------------------------

_OUTER_KEYWORDS = ("sum", "prod", "powsum", "qa", "mean")


class _Parser:
    def __init__(self, text: str, registry: Optional[Mapping[str, MeanExpr]]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.registry = dict(registry) if registry else {}

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def _fail(self, expected: tuple[str, ...]) -> ParseError:
        tok = self._peek()
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        return ParseError(f"unexpected {found}", tok.line, tok.column, expected)

    def _expect_punct(self, ch: str) -> None:
        tok = self._peek()
        if tok.kind == "punct" and tok.text == ch:
            self._advance()
            return
        raise self._fail((repr(ch),))

    def _expect_label(self, label: str) -> None:
        tok = self._peek()
        if tok.kind == "ident" and tok.text == label:
            self._advance()
            self._expect_punct("=")
            return
        raise self._fail((f"'{label}='",))

    def _number(self) -> float:
        tok = self._peek()
        if tok.kind != "number":
            raise self._fail(("number",))
        self._advance()
        return float(tok.text)

    def _bracketed_number(self) -> float:
        self._expect_punct("[")
        value = self._number()
        self._expect_punct("]")
        return value

    def mean(self) -> MeanExpr:
        tok = self._peek()
        if tok.kind != "ident":
            raise self._fail(("mean expression",))
        if tok.text == "P":
            self._advance()
            return PowerMean(self._bracketed_number())
        if tok.text == "B":
            self._advance()
            return BetaMean()
        if tok.text == "T":
            self._advance()
            self._expect_punct("{")
            self._expect_label("mu")
            outer = self.outer()
            self._expect_punct(";")
            self._expect_label("S")
            small = self.mean_list()
            self._expect_punct(";")
            self._expect_label("M")
            big = self.mean_list()
            self._expect_punct("}")
            return ProblemSpec(outer, small, big)
        if tok.text == "beta":
            self._advance()
            self._expect_punct("{")
            self._expect_label("S")
            base = self.mean()
            self._expect_punct(";")
            self._expect_label("mu")
            outer = self.outer()
            self._expect_punct("}")
            return GeneralizedBetaMean(base, outer)
        if tok.text in RESERVED_WORDS:
            raise self._fail(("mean expression",))
        if tok.text in self.registry:
            self._advance()
            return self.registry[tok.text]
        raise ParseError(f"unknown mean name {tok.text!r}",
                         tok.line, tok.column, ("registered name",))

    def outer(self) -> OuterFn:
        tok = self._peek()
        if tok.kind != "ident" or tok.text not in _OUTER_KEYWORDS:
            raise self._fail(_OUTER_KEYWORDS)
        self._advance()
        if tok.text == "sum":
            return Sum()
        if tok.text == "prod":
            return Product()
        if tok.text == "powsum":
            return Sum("pow", self._bracketed_number())
        if tok.text == "qa":
            self._expect_punct("[")
            outer = self.generator()
            self._expect_punct("]")
            return outer
        self._expect_punct("[")
        inner = self.mean()
        self._expect_punct("]")
        return MeanOuter(inner)

    def generator(self) -> Sum:
        """The ``gen`` of ``qa[gen]``, returned as the ``Sum`` it aggregates with."""
        tok = self._peek()
        if tok.kind == "ident" and tok.text in ("log", "exp", "id"):
            self._advance()
            return Sum(tok.text)
        if tok.kind == "ident" and tok.text == "pow":
            self._advance()
            return Sum("pow", self._bracketed_number())
        raise self._fail(("log", "exp", "pow", "id"))

    def mean_list(self) -> tuple[MeanExpr, ...]:
        self._expect_punct("[")
        items = [self.mean()]
        while True:
            tok = self._peek()
            if tok.kind == "punct" and tok.text == ",":
                self._advance()
                items.append(self.mean())
            else:
                break
        self._expect_punct("]")
        return tuple(items)

    def _done(self) -> None:
        tok = self._peek()
        if tok.kind != "end":
            raise self._fail(("end of input",))

    def expression(self) -> Expr:
        tok = self._peek()
        if tok.kind == "ident" and tok.text in _OUTER_KEYWORDS:
            return self.outer()
        return self.mean()


def _parse_whole(text: str, registry: Optional[Mapping[str, MeanExpr]], rule):
    """Apply the grammar rule ``rule`` (a ``_Parser`` method) to all of ``text``."""
    parser = _Parser(text, registry)
    result = rule(parser)
    parser._done()
    return result


def parse(text: str, registry: Optional[Mapping[str, MeanExpr]] = None) -> Expr:
    """Parse a mean (a problem included) or an outer-function expression."""
    return _parse_whole(text, registry, _Parser.expression)


def parse_mean(text: str, registry: Optional[Mapping[str, MeanExpr]] = None) -> MeanExpr:
    return _parse_whole(text, registry, _Parser.mean)


def parse_outer(text: str, registry: Optional[Mapping[str, MeanExpr]] = None) -> OuterFn:
    return _parse_whole(text, registry, _Parser.outer)


def parse_mean_list(text: str,
                    registry: Optional[Mapping[str, MeanExpr]] = None) -> tuple[MeanExpr, ...]:
    return _parse_whole(text, registry, _Parser.mean_list)


def format_expr(obj: Union[Expr, Sequence[MeanExpr]]) -> str:
    """Canonical text for a mean (a problem included), outer function, or mean list."""
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(str(m) for m in obj) + "]"
    return str(obj)
