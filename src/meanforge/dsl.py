"""Parser and printer for the textual mean-expression language.

Grammar (whitespace-insensitive)::

    mean    := "P" "[" number "]" | "B" | "beta" "{" "S=" mean ";" "mu=" outer "}"
             | problem | "invariant" "{" "M=" list [ ";" "tol=" number ] "}" | ident
    outer   := "sum" | "prod" | "powsum" "[" number "]" | "qa" "[" gen "]" | "mean" "[" mean "]"
    gen     := "log" | "exp" | "pow" "[" number "]" | "id"
    list    := "[" mean { "," mean } "]"
    problem := "T" "{" "mu=" outer ";" "S=" list ";" "M=" list "}"
    number  := decimal with optional sign and fraction

``ident`` resolves named derived means registered at runtime (for example an
invariant mean stored in a session file); an unknown name is an error.  A
``problem`` is the implicit mean its balance equation defines and ``invariant{...}``
the invariant mean of its family, so each parses wherever a mean does: at the
top level, in a mean list, inside ``beta{...}``.
Every ``sum``/``powsum``/``qa`` outer is one ``Sum`` node, printed in its
canonical spelling ``sum``, ``powsum[p]``, ``qa[log]`` or ``qa[exp]``;
``qa[id]`` and ``qa[pow[p]]`` are accepted aliases of ``sum`` and
``powsum[p]``.  ``parse(format(x))`` reproduces ``x`` structurally for every
node; a registered invariant mean prints its name, which parses given the registry.
Parsing is total: any input either parses or raises a structured error,
never anything else.  Brackets nest at most ``MAX_NESTING`` deep in one text,
bounding the recursion of parsing, printing and evaluating it, except through
registered names: a session's chain of names can nest evaluation further.
"""

from __future__ import annotations

import re
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .errors import ParseError
from .means import (
    BetaMean,
    GeneralizedBetaMean,
    InvariantMean,
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
    ["P", "B", "T", "S", "M", "mu", "beta", "invariant", "tol", "sum", "prod", "powsum",
     "qa", "mean", "log", "exp", "pow", "id"])

_NAME_PATTERN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def is_valid_name(name: str) -> bool:
    """Whether ``name`` can be registered as a derived-mean identifier."""
    return bool(_NAME_PATTERN.match(name)) and name not in RESERVED_WORDS


Expr = MeanExpr | OuterFn  # not typing.Union, whose cache outlives a reload


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

# One alternative per lexical class, tried in order; "other" takes any character left.
_TOKEN_RE = re.compile(r"(?P<newline>\n)|(?P<space>[^\S\n]+)"
                       r"|(?P<number>[+-]?[0-9]+(?:\.[0-9]+)?)"
                       r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<punct>[][{};,=])|(?P<other>.)")
# Every recursive rule opens a bracket, so this also caps the parse depth.
MAX_NESTING = 64


class _Token(NamedTuple):
    kind: str  # "number" | "ident" | "punct" | "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0  # the column of index i is i - line_start + 1
    depth = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "newline":
            line, line_start = line + 1, m.end()
            continue
        ch, col = m.group(), m.start() - line_start + 1
        if kind == "punct":
            depth += (ch in "[{") - (ch in "]}")
            if depth > MAX_NESTING:
                raise ParseError(f"brackets nested deeper than {MAX_NESTING}", line, col)
        elif kind == "other":
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append(_Token(kind, ch, line, col))
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# recursive-descent parser
# ---------------------------------------------------------------------------

_OUTER_KEYWORDS = ("sum", "prod", "powsum", "qa", "mean")
_GENERATORS = ("log", "exp", "pow", "id")


class _Parser:
    def __init__(self, text: str, registry: Optional[Mapping[str, MeanExpr]]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.registry = dict(registry) if registry else {}

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> None:  # only past a token already checked, never past "end"
        self.pos += 1

    def _fail(self, expected: tuple[str, ...]) -> ParseError:
        tok = self._peek()
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        return ParseError(f"unexpected {found}", tok.line, tok.column, expected)

    def _accept(self, ch: str) -> bool:
        """Consume the punctuation ``ch`` if it comes next."""
        tok = self._peek()
        if tok.kind == "punct" and tok.text == ch:
            self._advance()
            return True
        return False

    def _expect_punct(self, ch: str) -> None:
        if not self._accept(ch):
            raise self._fail((repr(ch),))

    def _take(self, kind: str, expected: tuple[str, ...],
              texts: Optional[tuple[str, ...]] = None) -> str:
        """Consume and return the next token's text if it is a ``kind`` among ``texts``."""
        tok = self._peek()
        if tok.kind != kind or (texts is not None and tok.text not in texts):
            raise self._fail(expected)
        self._advance()
        return tok.text

    def _number(self) -> float:
        return float(self._take("number", ("number",)))

    def _bracketed(self, rule):
        """``"[" rule "]"``: the value of the grammar rule ``rule`` in brackets."""
        self._expect_punct("[")
        value = rule()
        self._expect_punct("]")
        return value

    def _record(self, *fields, optional=0):
        """``"{" label "=" rule { ";" label "=" rule } "}"``, one (label, rule) pair
        of ``fields`` per field in order, the last ``optional`` omissible: the values read."""
        values = []
        for i, (label, rule) in enumerate(fields):
            punct, may_end = ";" if i else "{", i >= len(fields) - optional
            if may_end and self._accept("}"):
                return values
            if not self._accept(punct):
                raise self._fail((repr(punct), "'}'") if may_end else (repr(punct),))
            self._take("ident", (f"'{label}='",), (label,))
            self._expect_punct("=")
            values.append(rule())
        self._expect_punct("}")
        return values

    def mean(self) -> MeanExpr:
        tok = self._peek()
        if tok.kind != "ident":
            raise self._fail(("mean expression",))
        if tok.text == "P":
            self._advance()
            return PowerMean(self._bracketed(self._number))
        if tok.text == "B":
            self._advance()
            return BetaMean()
        if tok.text == "T":
            self._advance()
            return ProblemSpec(*self._record(("mu", self.outer), ("S", self.mean_list),
                                             ("M", self.mean_list)))
        if tok.text == "beta":
            self._advance()
            return GeneralizedBetaMean(*self._record(("S", self.mean), ("mu", self.outer)))
        if tok.text == "invariant":
            self._advance()
            return InvariantMean(*self._record(("M", self.mean_list), ("tol", self._number),
                                               optional=1))
        if tok.text in RESERVED_WORDS:
            raise self._fail(("mean expression",))
        if tok.text in self.registry:
            self._advance()
            return self.registry[tok.text]
        raise ParseError(f"unknown mean name {tok.text!r}",
                         tok.line, tok.column, ("registered name",), tok.text)

    def outer(self) -> OuterFn:
        keyword = self._take("ident", _OUTER_KEYWORDS, _OUTER_KEYWORDS)
        if keyword == "sum":
            return Sum()
        if keyword == "prod":
            return Product()
        if keyword == "powsum":
            return Sum("pow", self._bracketed(self._number))
        if keyword == "qa":
            return self._bracketed(self.generator)
        return MeanOuter(self._bracketed(self.mean))

    def generator(self) -> Sum:
        """The ``gen`` of ``qa[gen]``, returned as the ``Sum`` it aggregates with."""
        generator = self._take("ident", _GENERATORS, _GENERATORS)
        if generator == "pow":
            return Sum("pow", self._bracketed(self._number))
        return Sum(generator)

    def mean_list(self) -> tuple[MeanExpr, ...]:
        self._expect_punct("[")
        items = [self.mean()]
        while self._accept(","):
            items.append(self.mean())
        self._expect_punct("]")
        return tuple(items)

    def expression(self) -> Expr:
        tok = self._peek()
        if tok.kind == "ident" and tok.text in _OUTER_KEYWORDS:
            return self.outer()
        return self.mean()


def _parse_whole(text: str, registry: Optional[Mapping[str, MeanExpr]], rule):
    """Apply the grammar rule ``rule`` (a ``_Parser`` method) to all of ``text``."""
    parser = _Parser(text, registry)
    result = rule(parser)
    if parser._peek().kind != "end":
        raise parser._fail(("end of input",))
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
