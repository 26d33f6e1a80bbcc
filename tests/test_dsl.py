import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from meanforge import (
    ArityError,
    BetaMean,
    DomainError,
    GeneralizedBetaMean,
    HypothesisViolation,
    InvariantMean,
    MeanForgeError,
    MeanOuter,
    ParseError,
    PowerMean,
    ProblemSpec,
    Product,
    Sum,
    complementary_mean,
    eval_mean,
    format_expr,
    invariant_mean,
    parse,
    parse_mean,
    parse_mean_list,
    parse_outer,
)
from meanforge.dsl import MAX_NESTING, is_valid_name
from meanforge.means import DEFAULT_TOL

CORPUS = Path(__file__).parent / "data" / "dsl_corpus.json"


class TestParsing:
    def test_power_mean(self):
        assert parse("P[2]") == PowerMean(2.0)
        assert parse(" P [ -2.5 ] ") == PowerMean(-2.5)

    def test_beta(self):
        assert parse("B") == BetaMean()

    def test_generalized_beta(self):
        node = parse("beta{S=P[1]; mu=mean[P[0]]}")
        assert node == GeneralizedBetaMean(PowerMean(1.0), MeanOuter(PowerMean(0.0)))

    def test_outers(self):
        assert parse("sum") == Sum()
        assert parse("prod") == Product()
        assert parse("powsum[3]") == Sum("pow", 3.0)
        assert parse("qa[log]") == Sum("log")
        assert parse("qa[exp]") == Sum("exp")
        assert parse_outer("mean[P[2]]") == MeanOuter(PowerMean(2.0))

    def test_quasi_arithmetic_aliases(self):
        assert parse("qa[id]") == parse("sum") == Sum()
        assert parse("qa[pow[2]]") == parse("powsum[2]") == Sum("pow", 2.0)
        assert format_expr(parse("qa[id]")) == "sum"
        assert format_expr(parse("qa[pow[2]]")) == "powsum[2]"
        assert [format_expr(parse(t)) for t in ("qa[log]", "qa[exp]")] == \
            ["qa[log]", "qa[exp]"]

    def test_exponent_rule_is_shared_by_both_spellings(self):
        for bad in ("0", "-2"):
            messages = set()
            for text in (f"powsum[{bad}]", f"qa[pow[{bad}]]"):
                with pytest.raises(DomainError, match="must be positive") as err:
                    parse(text)
                messages.add(str(err.value))
            assert len(messages) == 1

    def test_problem(self):
        spec = parse("T{mu=sum; S=[P[0],P[2]]; M=[P[-2],P[-1],P[1],P[3]]}")
        assert isinstance(spec, ProblemSpec)
        assert spec.outer == Sum()
        assert spec.small == (PowerMean(0.0), PowerMean(2.0))
        assert spec.big == (PowerMean(-2.0), PowerMean(-1.0),
                            PowerMean(1.0), PowerMean(3.0))

    def test_mean_list(self):
        assert parse_mean_list("[P[1], B]") == (PowerMean(1.0), BetaMean())

    def test_problem_parses_wherever_a_mean_does(self):
        spec = ProblemSpec(Sum(), (PowerMean(0.0),), (PowerMean(-1.0), PowerMean(1.0)))
        text = str(spec)
        assert parse_mean(text) == parse(text) == spec
        assert parse_mean_list(f"[{text}, B]") == (spec, BetaMean())
        assert parse(f"beta{{S={text}; mu=sum}}") == GeneralizedBetaMean(spec, Sum())
        outer = ProblemSpec(Product(), (spec,), (PowerMean(-1.0), PowerMean(2.0)))
        assert parse(str(outer)) == outer
        with pytest.raises(ParseError) as err:
            parse("T[1]")
        assert err.value.expected == ("'{'",)

    def test_registry_idents(self):
        named = invariant_mean((PowerMean(1), PowerMean(-1)))
        registry = {"agh": named}
        assert parse("agh", registry) is named
        assert eval_mean(parse_mean("agh", registry), (2, 8)) == pytest.approx(4.0)

    def test_unknown_ident(self):
        with pytest.raises(ParseError, match="unknown mean name") as err:
            parse("mystery")
        assert err.value.name == "mystery"


class TestErrorKinds:
    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("P[2")
        assert err.value.line == 1 and err.value.column == 4
        assert err.value.expected

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("P[2] extra")

    def test_arity_mismatch_is_distinct(self):
        with pytest.raises(ArityError):
            parse("T{mu=sum; S=[P[0],P[2],P[5]]; M=[P[1],P[3]]}")

    def test_domain_violation_is_distinct(self):
        with pytest.raises(DomainError):
            parse("powsum[0]")
        with pytest.raises(DomainError):
            parse("qa[pow[-2]]")
        with pytest.raises(DomainError):
            parse("mean[beta{S=P[1]; mu=sum}]")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse("P[2]@")

    def test_number_needs_digits_after_dot(self):
        with pytest.raises(ParseError):
            parse("P[2.]")


# -- structural round-trip ----------------------------------------------------

nice_orders = st.one_of(
    st.integers(-9, 9).map(float),
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
)
positive_exponents = st.floats(min_value=0.1, max_value=20,
                               allow_nan=False, allow_infinity=False)

generators = st.one_of(
    st.sampled_from([Sum("log"), Sum("exp"), Sum("id")]),
    positive_exponents.map(lambda p: Sum("pow", p)),
)

base_means = st.one_of(nice_orders.map(PowerMean), st.just(BetaMean()))
# the default tolerance prints no tol field; any other in (0, 1) does
tols = st.one_of(st.just(DEFAULT_TOL),
                 st.floats(min_value=1e-20, max_value=0.9, allow_nan=False))


def invariants(min_size=1, max_size=3):
    """Invariant means of strict members; a family of n means takes n entries."""
    return st.builds(InvariantMean,
                     st.lists(base_means, min_size=min_size, max_size=max_size).map(tuple), tols)


def outer_strategy(means, arity=None):
    """Outers; ``mean[invariant{...}]`` pins ``arity`` entries when one is given."""
    return st.one_of(
        st.just(Sum()),
        st.just(Product()),
        positive_exponents.map(lambda p: Sum("pow", p)),
        generators,
        nice_orders.map(lambda s: MeanOuter(PowerMean(s))),
        invariants(arity or 1, arity or 3).map(MeanOuter),
    )


mean_exprs = st.recursive(
    st.one_of(base_means, invariants()),
    lambda children: st.builds(GeneralizedBetaMean, children, outer_strategy(children)),
    max_leaves=4,
)

problems = st.lists(st.one_of(base_means, invariants()), min_size=3, max_size=8).flatmap(
    lambda means: st.builds(lambda outer: ProblemSpec(outer, tuple(means[:1]), tuple(means[1:])),
                            outer_strategy(base_means, len(means) - 1)))

expressions = st.one_of(mean_exprs, outer_strategy(base_means), problems)


def problems_of(means):
    return st.builds(
        lambda outer, small, big: ProblemSpec(outer, tuple(small), tuple(big)),
        outer_strategy(base_means, 3),
        st.lists(means, min_size=1, max_size=2),
        st.lists(means, min_size=3, max_size=3),
    )


# problems nested in mean lists and in beta{...}, and beta{...} in problems;
# invariant means among the leaves and as the outers mean[...]
nested_means = st.recursive(
    st.one_of(base_means, invariants()),
    lambda children: st.one_of(
        problems_of(children),
        st.builds(GeneralizedBetaMean, children, outer_strategy(children))),
    max_leaves=6,
)


class TestRoundTrip:
    @given(expressions)
    def test_parse_format_identity(self, expr):
        assert parse(format_expr(expr)) == expr

    @given(nested_means)
    def test_nested_problem_round_trip(self, mean):
        assert parse(str(mean)) == mean
        assert parse_mean_list(format_expr([mean, mean])) == (mean, mean)

    def test_worked_example_round_trip(self):
        text = "T{mu=sum; S=[P[0],P[2]]; M=[P[-2],P[-1],P[1],P[3]]}"
        spec = parse(text)
        assert parse(format_expr(spec)) == spec
        assert format_expr(spec) == text

    @given(invariants())
    def test_invariant_text_round_trip(self, mean):
        text = str(mean)
        assert parse(text) == mean and parse(text).tol == mean.tol
        assert ("; tol=" in text) == (mean.tol != DEFAULT_TOL)

    def test_complementary_mean_text_round_trip(self):
        # the paper's mu = K: the Pexider solution under the invariant mean of A and H
        complement = complementary_mean((PowerMean(1),), (PowerMean(1), PowerMean(-1)))
        text = str(complement)
        assert text == "T{mu=mean[invariant{M=[P[1],P[-1]]}]; S=[P[1]]; M=[P[1],P[-1]]}"
        assert parse(text) == complement
        value = eval_mean(complement, (2, 8))
        assert eval_mean(parse(text), (2, 8)).hex() == value.hex() and value == 3.2

    def test_invariant_parses_wherever_a_mean_does(self):
        agm = InvariantMean((PowerMean(1), PowerMean(0)), 0.001)
        assert parse("invariant{ M = [P[1], P[0]] ; tol = 0.001 }") == agm
        assert parse("mean[invariant{M=[P[1],P[0]]; tol=0.001}]") == MeanOuter(agm)
        assert parse("beta{S=invariant{M=[P[1],P[0]]; tol=0.001}; mu=sum}") == \
            GeneralizedBetaMean(agm, Sum())
        assert parse_mean_list("[invariant{M=[P[1],P[0]]; tol=0.001},P[2]]") == \
            (agm, PowerMean(2))

    @pytest.mark.parametrize("text, error", [
        ("invariant{M=[P[1],beta{S=P[1]; mu=sum}]}", HypothesisViolation),
        ("invariant{M=[P[1],P[0]]; tol=0}", DomainError),
        ("invariant{M=[P[1],P[0]]; tol=1}", DomainError),
        ("invariant{M=[P[1],invariant{M=[P[1],P[0],P[2]]}]}", ArityError),
        ("invariant{M=[P[1]];}", ParseError),
        ("invariant{tol=0.5; M=[P[1]]}", ParseError),
        ("invariant{M=[P[1]]; tol=0.5; tol=0.5}", ParseError),
        ("invariant", ParseError),
    ])
    def test_invariant_refusals(self, text, error):
        with pytest.raises(error):
            parse(text)

    def test_record_that_may_end_expects_either(self, capsys):
        from meanforge.cli import main
        assert main(["parse", "invariant{M=[P[1]] x}"]) == 2
        assert capsys.readouterr() == ("", "parse error: unexpected 'x' at line 1, column 20 "
                                           "(expected ';' | '}')\n")
        with pytest.raises(ParseError) as err:  # a field that must follow: ';' alone
            parse("T{mu=sum x")
        assert err.value.expected == ("';'",)

    def test_registered_name_round_trip(self):
        named = invariant_mean((PowerMean(1), PowerMean(0)), name="agm")
        registry = {"agm": named}
        assert parse(format_expr(named), registry) is named


class TestTotality:
    @settings(max_examples=300)
    @given(st.binary(max_size=40))
    def test_random_bytes_never_crash(self, blob):
        text = blob.decode("utf-8", errors="replace")
        try:
            parse(text)
        except MeanForgeError:
            pass  # structured rejection is the contract

    def test_mutated_grammar_text(self):
        rng = random.Random(123)
        seed_text = "T{mu=sum; S=[P[0],P[2]]; M=[P[-2],P[-1],P[1],P[3]]}"
        alphabet = seed_text + "xz!9"
        for _ in range(2000):
            chars = list(seed_text)
            for _ in range(rng.randint(1, 5)):
                pos = rng.randrange(len(chars))
                chars[pos] = rng.choice(alphabet)
            try:
                parse("".join(chars))
            except MeanForgeError:
                pass


def _beta_chain(depth: int) -> str:
    """``depth`` generalized-Beta means nested in each other's S slot."""
    return "beta{S=" * depth + "P[1]" + "; mu=sum}" * depth


def _problem_chain(depth: int) -> str:
    """``depth`` implicit means nested in each other's S list."""
    text = "P[1]"
    for _ in range(depth):
        text = f"T{{mu=sum; S=[{text}]; M=[P[0],P[2]]}}"
    return text


# every bracket-opening fragment of the grammar, and some that close or break it
_OPENERS = ("beta{S=", "T{mu=sum; S=[", "mean[", "qa[", "[", "{", "P[")
_FRAGMENTS = _OPENERS + ("P[1]", "B", "]", "}", ";", ",", "; mu=sum}", "]; M=[P[0],P[2]]}",
                         "mu=", "S=", "agm", "@", "-", "9" * 400, " ", "\n")


class TestNesting:
    def test_past_the_limit_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested deeper than") as err:
            parse(_beta_chain(400))
        # the first "{" past the limit: 7 characters per "beta{S=", "{" the 5th
        assert (err.value.line, err.value.column) == (1, 7 * MAX_NESTING + 5)

    def test_deepest_accepted_nodes_print_and_evaluate(self):
        # MAX_NESTING - 1 beta{ and the innermost P[ fill the limit exactly
        beta = parse(_beta_chain(MAX_NESTING - 1))
        problem = parse(_problem_chain(MAX_NESTING // 2 - 1))
        # at (2, 8) each T lies between P[0] = 4 and P[2] = sqrt(34)
        for node, lo, hi in ((beta, 2.0, 8.0), (problem, 4.0, 34 ** 0.5)):
            assert parse(str(node)) == node
            assert lo <= eval_mean(node, (2.0, 8.0)) <= hi
        with pytest.raises(ParseError):
            parse(_beta_chain(MAX_NESTING))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 3 * MAX_NESTING), st.sampled_from(_OPENERS),
           st.lists(st.sampled_from(_FRAGMENTS), max_size=30))
    def test_any_text_raises_only_structured_errors(self, depth, opener, tail):
        # syntax and depth fail with ParseError; a node constructor may still
        # refuse what parsed (DomainError, ArityError), never anything else.
        # Each opener nests one bracket deeper, so past the limit only
        # ParseError is possible.
        text = opener * depth + "".join(tail)
        try:
            parse(text)
        except ParseError:
            return
        except (DomainError, ArityError):
            pass
        assert depth <= MAX_NESTING


class TestGoldenCorpus:
    """Every recorded text gives the recorded canonical text or error, exactly.

    ``data/dsl_corpus.json`` holds grammar-valid, mutated, multi-line and
    odd-whitespace texts, texts past ``MAX_NESTING`` and texts using
    registered names; ``data/make_dsl_corpus.py`` documents and re-records it.
    """

    RULES = {"parse": parse, "mean": parse_mean, "outer": parse_outer,
             "list": parse_mean_list}

    def outcome(self, rule, text, registry):
        try:
            return "ok: " + format_expr(self.RULES[rule](text, registry))
        except MeanForgeError as exc:
            return f"{type(exc).__name__}: {exc}"

    def test_recorded_outcomes(self):
        corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
        assert corpus["max_nesting"] == MAX_NESTING
        assert len(corpus["cases"]) >= 5000
        registry = {name: invariant_mean(tuple(PowerMean(p) for p in orders), name=name)
                    for name, orders in corpus["registry"].items()}
        moved = [(text, expected, got)
                 for rule, with_registry, text, expected in corpus["cases"]
                 if (got := self.outcome(rule, text, registry if with_registry else None))
                 != expected]
        assert moved == []


class TestNames:
    def test_valid_names(self):
        assert is_valid_name("agm2")
        assert is_valid_name("_k")

    def test_reserved_and_malformed(self):
        for bad in ("P", "beta", "sum", "mu", "invariant", "tol", "2ab", "a-b", ""):
            assert not is_valid_name(bad)
