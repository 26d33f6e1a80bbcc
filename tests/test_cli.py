import contextlib
import io
import json
import math
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from meanforge.cli import main
from meanforge.implicit import DEFAULT_TOL

M1_AT_1_4 = 1.8738824415736874
EXAMPLE_PROBLEM = "T{mu=sum; S=[P[0],P[2]]; M=[P[-2],P[-1],P[1],P[3]]}"


# 400 nested generalized-Beta means: past the DSL nesting limit
DEEP_PARSE_ARGV = ["parse", "beta{S=" * 400 + "P[1]" + "; mu=sum}" * 400]
# Sampling domains far below 1 and narrower than 1e-6: every sample lies
# inside, so B, P[0] and P[2] (all homogeneous) are refuted on the tiny domain
# as on the default one, and on the narrow one every vector is near-constant.
TINY_DOMAIN_ARGV = ["embed", "[B]", "[P[0],P[2]]", "--domain", "1e-12,1e-10",
                    "--format", "json"]
NARROW_DOMAIN_ARGV = ["embed", "[B]", "[P[0],P[2]]", "--domain", "5,5.0000001",
                      "--format", "json"]
# agm (a session name) pins arity 2 from inside the Beta-type mean's base.
NESTED_PIN_ARGV = ["embed", "[beta{S=agm; mu=sum}]", "[P[-1],P[1]]", "--format", "json"]
# Entries that do not parse in file order: the session file is at fault (exit 3).
UNPARSEABLE_SESSION = '{"agm": {"kind": "invariant", "means": ["P["], "tol": 1e-12}}'
FORWARD_REFERENCE_SESSION = ('{"a": {"kind": "invariant", "means": ["b", "P[1]"]}, '
                             '"b": {"kind": "invariant", "means": ["P[1]", "P[0]"]}}')
# An entry whose family has a member not known to be strict: the file is at fault.
NON_STRICT_SESSION = ('{"x": {"kind": "invariant", '
                      '"means": ["T{mu=sum; S=[P[1]]; M=[P[0],P[2]]}", "P[1]"]}}')
# An entry under a name no text can reach (here an outer function's): the
# session file is at fault (exit 3), as for any name --as-mean refuses.
RESERVED_NAME_SESSION = '{"sum": {"kind": "invariant", "means": ["P[1]", "P[0]"]}}'
# The one refusal of a member not known to be strict, from the library and the
# CLI alike; it names no assert_strict(), which no longer exists.
STRICT_ADVICE = ("is not known to be strict; strict means are power means P[s], B, invariant "
                 "means (invariant{M=[...]} or a registered name) and, from the library, a "
                 "DerivedMean built with strict=True")
# Session input deeper than the interpreter's recursion limit, though no mean
# text nests a bracket: 400 names, each the invariant mean of P[1] and the
# name before it, and JSON nested 100,000 deep.
CHAINED_SESSION = json.dumps({f"a{i}": {"kind": "invariant",
                                        "means": ["P[1]", f"a{i - 1}" if i else "P[0]"]}
                              for i in range(400)})
DEEP_JSON_SESSION = "[" * 100_000 + "]" * 100_000
EXPECTED_OUTCOME = {tuple(TINY_DOMAIN_ARGV): (4, "refuted"),
                    tuple(NARROW_DOMAIN_ARGV): (0, "sampled"),
                    tuple(NESTED_PIN_ARGV): (4, "refuted")}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def pinned_session(capsys, tmp_path):
    """A session file registering agm (arity 2) and tri (arity 3)."""
    session = str(tmp_path / "session.json")
    for name, means in (("agm", "[P[1],P[0]]"), ("tri", "[P[1],P[0],P[-1]]")):
        code, _, _ = run(capsys, "invariant", means, "--as-mean", name,
                         "--session", session)
        assert code == 0
    return session


class TestEval:
    def test_beta(self, capsys):
        code, out, _ = run(capsys, "eval", "B", "--at", "2,8")
        assert code == 0
        assert float(out) == 3.2

    def test_geometric(self, capsys):
        code, out, _ = run(capsys, "eval", "P[0]", "--at", "2,8")
        assert code == 0
        assert float(out) == 4.0

    def test_negative_order(self, capsys):
        code, out, _ = run(capsys, "eval", "P[-2]", "--at", "1,4")
        assert code == 0
        assert float(out) == pytest.approx(1.3719886811400708, rel=1e-15)

    def test_seventeen_significant_digits(self, capsys):
        _, out, _ = run(capsys, "eval", "P[1]", "--at", "1,2")
        assert out.strip() == "1.5"
        _, out, _ = run(capsys, "eval", "B", "--at", "2,8")
        assert out.strip() == "3.2000000000000002"

    def test_outer_expression(self, capsys):
        code, out, _ = run(capsys, "eval", "qa[log]", "--at", "2,8")
        assert code == 0
        assert float(out) == pytest.approx(2.772588722239781)

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "eval", "P[1]", "--at", "2,8", "--format", "json")
        record = json.loads(out)
        assert record["kind"] == "eval"
        assert record["input"] == {"expr": "P[1]", "at": [2.0, 8.0]}
        assert record["output"] == 5.0

    def test_problem_is_a_mean(self, capsys):
        problem = "T{mu=sum; S=[P[0]]; M=[P[-1],P[1]]}"
        code, out, _ = run(capsys, "eval", problem, "--at", "2,8", "--format", "json")
        assert code == 0
        value = json.loads(out)["output"]
        code, out, _ = run(capsys, "solve", problem, "--at", "2,8", "--format", "json")
        assert code == 0
        # sum's root is (3.2 + 5 - 4) / 1 in closed form, 4.2 exactly as a rational in floats
        assert value == json.loads(out)["output"]["root"] == 4.2

    def test_wide_ratio_values(self, capsys):
        for expr, at, want in (("P[0]", "1e-310,1.7e308", 0.13038404810405),
                               ("P[0]", "1e-300,1e300,1e300", 1e100),
                               ("B", "1e200,1.7e308,1.7e308", 1.5968719422671312e254)):
            code, out, err = run(capsys, "eval", expr, "--at", at)
            assert code == 0, err
            assert float(out) == pytest.approx(want, rel=1e-12)
        code, out, err = run(capsys, "solve", "T{mu=sum; S=[P[0]]; M=[P[-1],P[1]]}",
                             "--at", "1e-300,1e300,1e300", "--format", "json")
        assert code == 0, err
        assert json.loads(out)["output"]["root"] == pytest.approx(2e300 / 3, rel=1e-12)

    @pytest.mark.parametrize("expr, at, want", [
        ("beta{S=P[1]; mu=qa[exp]}", "709.7,1,1", 709.00685281944010),
        ("beta{S=P[1]; mu=sum}", "1.7e308,1,1", 5.6666666666666665e307),
        ("beta{S=P[1]; mu=powsum[2]}", "1.3e154,1,1", 8.6666666666666663e153),
    ])
    def test_sum_outer_overflowing_at_the_bracket_end(self, capsys, expr, at, want):
        # the outer overflows at fill copies of max(v), though its value at the
        # root is finite; roots from mpmath at 50 digits
        code, out, err = run(capsys, "eval", expr, "--at", at, "--format", "json")
        assert code == 0, err
        assert json.loads(out)["output"] == pytest.approx(want, rel=DEFAULT_TOL)

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "P[", "--at", "2,8")
        assert code == 2 and "parse error" in err

    def test_domain_error_exit_3(self, capsys):
        code, _, err = run(capsys, "eval", "P[0]", "--at=-2,8")
        assert code == 3 and "positive" in err

    def test_bad_vector_literal_exit_2(self, capsys):
        code, _, _ = run(capsys, "eval", "P[0]", "--at", "2;8")
        assert code == 2


class TestFloatRangeEnds:
    """Brackets and iterates whose ends sum past the largest float or have no float inside."""

    def test_agm_where_the_ends_sum_past_the_largest_float(self, capsys):
        mpmath = pytest.importorskip("mpmath")
        code, out, err = run(capsys, "eval", "invariant{M=[P[1],P[0]]}", "--at", "1.7e308,1e308",
                             "--format", "json")
        assert code == 0, err
        value = json.loads(out)["output"]
        assert value == 1.3268198717019799e+308
        with mpmath.workdps(50):
            want = mpmath.agm(mpmath.mpf(1.7e308), mpmath.mpf(1e308))
            assert abs(value - want) / want <= DEFAULT_TOL

    def test_constant_start_at_the_largest_floats(self, capsys):
        code, out, err = run(capsys, "invariant", "[P[1],P[0]]", "--at", "1.7e308,1.7e308",
                             "--format", "json")
        assert code == 0, err
        output = json.loads(out)["output"]
        assert (output["limit"], output["converged"]) == (1.7e308, True)

    def test_complementary_mean_where_the_ends_sum_past_the_largest_float(self, capsys):
        # the complement of A under the arithmetic-harmonic invariant mean is H
        mpmath = pytest.importorskip("mpmath")
        code, out, err = run(capsys, "eval",
                             "T{mu=mean[invariant{M=[P[1],P[-1]]}]; S=[P[1]]; M=[P[1],P[-1]]}",
                             "--at", "1.7e308,1e308", "--format", "json")
        assert code == 0, err
        value = json.loads(out)["output"]
        assert value == pytest.approx(1.2592592592592593e+308, rel=DEFAULT_TOL)
        with mpmath.workdps(50):
            a, b = mpmath.mpf(1.7e308), mpmath.mpf(1e308)
            assert abs(value - 2 * a * b / (a + b)) / value <= DEFAULT_TOL

    @pytest.mark.parametrize("expr", ["beta{S=P[-1]; mu=sum}", "beta{S=P[0]; mu=mean[P[2]]}"])
    def test_balance_roots_where_the_ends_sum_past_the_largest_float(self, capsys, expr):
        # x solves H(v) + x = a + b, or G(v)^2 + x^2 = a^2 + b^2
        mpmath = pytest.importorskip("mpmath")
        code, out, err = run(capsys, "eval", expr, "--at", "1e300,1e308", "--format", "json")
        assert code == 0, err
        value = json.loads(out)["output"]
        with mpmath.workdps(50):
            a, b = mpmath.mpf(1e300), mpmath.mpf(1e308)
            if "sum" in expr:
                want = a + b - 2 * a * b / (a + b)
            else:
                want = mpmath.sqrt(a ** 2 + b ** 2 - a * b)
            assert abs(value - want) / want <= 1e-12

    @pytest.mark.parametrize("at, rtol", [("5e-324,1", 0.0), ("1e-200,1e200,1", 1e-13)])
    def test_beta_type_mean_through_its_balance_equation(self, capsys, oracle, at, rtol):
        # beta{S=P[1]; mu=mean[P[0]]} is B = (k*prod(v)/sum(v))**(1/(k-1)): within
        # rtol of it, or one float spacing at a subnormal root
        code, out, err = run(capsys, "eval", "beta{S=P[1];mu=mean[P[0]]}", "--at", at,
                             "--format", "json")
        assert code == 0, err
        value = json.loads(out)["output"]
        with oracle.mpmath.workdps(50):
            want = oracle.exact_beta_mean([float(x) for x in at.split(",")])
            assert abs(value - want) <= max(rtol * want, math.ulp(float(want)))

    @pytest.mark.parametrize("expr, at, want", [
        ("B", "1e-300,1e300,1", 1.7320508075688772e-150),
        # at the largest float the scaled root rounds one ulp past it before the clamp
        ("B", ",".join([repr(sys.float_info.max)] * 3), sys.float_info.max),
        ("mean[B]", ",".join([repr(sys.float_info.max)] * 3), sys.float_info.max)])
    def test_beta_type_mean_across_the_float_range(self, capsys, expr, at, want):
        # B's binary exponents sum exactly, so the span costs it no accuracy
        code, out, err = run(capsys, "eval", expr, "--at", at, "--format", "json")
        assert code == 0, err
        value = json.loads(out)["output"]
        assert abs(value - want) <= 1e-15 * want

    def test_power_mean_at_the_largest_floats_is_finite(self, capsys):
        # the anchored value overflowed to inf here before it was clamped to [min, max]
        code, out, err = run(capsys, "eval", "P[-1]", "--at",
                             "1.7976931348623157e308,1.7976931348623157e308,1.7976931348623155e308",
                             "--format", "json")
        assert code == 0, err
        assert json.loads(out)["output"] == 1.7976931348623157e308

    def test_subnormal_start_with_no_float_inside(self, capsys):
        code, out, err = run(capsys, "eval", "invariant{M=[P[1],P[0]]}", "--at", "5e-324,1e-323",
                             "--format", "json")
        assert code == 0, err
        assert 5e-324 <= json.loads(out)["output"] <= 1e-323


class TestSolve:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "solve", EXAMPLE_PROBLEM, "--at", "1,4",
                           "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["kind"] == "solve"
        assert record["output"]["status"] == "converged"
        assert record["output"]["root"] == pytest.approx(M1_AT_1_4, rel=1e-9)
        lo, hi = record["output"]["bracket"]
        assert lo <= record["output"]["root"] <= hi
        assert record["residual"] <= 1e-9

    def test_constant_vector(self, capsys):
        code, out, _ = run(capsys, "solve", EXAMPLE_PROBLEM, "--at", "5,5,5",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["output"]["root"] == 5.0

    def test_hypothesis_violation_exit_4(self, capsys):
        code, _, err = run(capsys, "solve", "T{mu=sum; S=[P[5]]; M=[P[1],P[2]]}",
                           "--at", "1,4")
        assert code == 4 and "hypothesis" in err

    def test_prefix_below_a_wide_target_exit_4(self, capsys):
        # S = P[-3] = 1.26 lies 37 % below min(M) = 2.0, which an absolute slack
        # of 1e-9*max(M) admitted (exit 0 with a residual of a fifth of the goal)
        code, out, err = run(capsys, "solve", "T{mu=mean[P[0]]; S=[P[-3]]; M=[P[-1],P[1]]}",
                             "--at", "1,1e10", "--format", "json")
        assert (code, out) == (4, "")
        witness = json.loads(err.splitlines()[-1].removeprefix("witness: "))
        assert (witness["minorized"], witness["majorized"], witness["witness_index"]) == \
            (False, True, 1)

    def test_non_problem_exit_3(self, capsys):
        code, _, _ = run(capsys, "solve", "P[2]", "--at", "1,4")
        assert code == 3

    def test_bisection_step_limit_exit_5(self, capsys):
        # the root is 1e-150; halving a bracket of 0.5 to reach it takes
        # about 500 steps
        code, out, _ = run(capsys, "solve", "T{mu=prod; S=[P[0]]; M=[P[-1],P[1]]}",
                           "--at", "1e-300,1", "--format", "json")
        record = json.loads(out)["output"]
        assert code == 5 and record["status"] == "max-iterations"
        assert record["iterations"] == 200

    @pytest.mark.parametrize("problem", [
        EXAMPLE_PROBLEM,
        "T{mu=sum; S=[P[0]]; M=[agm,P[-1],P[1]]}",
        "T{mu=mean[B]; S=[P[0]]; M=[P[-1],P[1]]}",
        "T{mu=mean[invariant{M=[P[1],P[-1]]}]; S=[P[1]]; M=[P[1],P[-1]]}",
        # mean[P[s]] outers, whose roots have a closed form
        "T{mu=mean[P[0]]; S=[P[1]]; M=[P[0],P[2]]}",
        "T{mu=mean[P[-1]]; S=[P[0]]; M=[P[-2],P[1]]}",
    ], ids=["worked-example", "session-name-in-M", "mean-B", "complementary", "mean-P0",
            "mean-P-1"])
    def test_solve_and_eval_print_the_same_root(self, capsys, pinned_session, problem):
        flags = ("--at", "2,8", "--session", pinned_session, "--format", "json")
        code, out, err = run(capsys, "solve", problem, *flags)
        assert code == 0, err
        root = json.loads(out)["output"]["root"]
        code, out, err = run(capsys, "eval", problem, *flags)
        assert code == 0, err
        assert json.loads(out)["output"].hex() == root.hex()

    def test_s_error_wins_over_m_error(self, capsys):
        # at one entry, B has no exponent 1/(k-1) and the two-mean invariant no coordinates
        problem = "T{mu=sum; S=[B]; M=[P[1],invariant{M=[P[1],P[0]]}]}"
        expected = ("error: Beta-type mean needs at least 2 entries "
                    "(the exponent 1/(k-1) is undefined for k=1)\n")
        assert run(capsys, "solve", problem, "--at", "5") == (3, "", expected)
        assert run(capsys, "eval", problem, "--at", "5") == (3, "", expected)

    def test_eval_of_the_same_problem_exit_5(self, capsys):
        # eval reaches the step limit through balance_value's ConvergenceError
        code, out, err = run(capsys, "eval", "T{mu=prod; S=[P[0]]; M=[P[-1],P[1]]}",
                             "--at", "1e-300,1", "--format", "json")
        assert code == 5 and out == ""
        assert err.startswith("no convergence: ") and "200 bisection steps" in err


class TestEmbed:
    def test_certified(self, capsys):
        code, out, _ = run(capsys, "embed", "[P[0],P[2]]",
                           "[P[-2],P[-1],P[1],P[3]]")
        assert code == 0
        assert out.strip() == "certified"

    def test_identical_families(self, capsys):
        code, out, _ = run(capsys, "embed", "[P[1],B]", "[P[1],B]")
        assert code == 0
        assert out.strip() == "certified"

    def test_refuted_exit_4_with_replay(self, capsys):
        code, out, _ = run(capsys, "embed", "[P[5]]", "[P[-2],P[-1],P[1],P[3]]",
                           "--seed", "1")
        assert code == 4
        assert "refuted" in out
        assert 'meanforge eval "P[5]" --at ' in out

    def test_tiny_domain_witness_lies_inside(self, capsys):
        code, out, _ = run(capsys, *TINY_DOMAIN_ARGV)
        assert code == 4
        record = json.loads(out)
        assert all(1e-12 < x < 1e-10 for x in record["witness"]["vector"])

    def test_replay_keeps_the_session(self, capsys, tmp_path):
        session = str(tmp_path / "session.json")
        code, _, _ = run(capsys, "invariant", "[P[1],P[0]]", "--as-mean", "agm",
                         "--session", session)
        assert code == 0
        code, out, _ = run(capsys, "embed", "[P[3]]", "[agm,P[1]]", "--session", session,
                           "--samples", "16", "--arity", "2")
        assert code == 4
        replays = [shlex.split(line) for line in out.splitlines()
                   if line.lstrip().startswith("meanforge eval")]
        assert [argv[2] for argv in replays] == ["P[3]", "agm", "P[1]"]
        for argv in replays:
            assert argv[-2:] == ["--session", session]
            code, out, err = run(capsys, *argv[1:])
            assert code == 0 and float(out) > 0.0, err

    def test_json_witness(self, capsys):
        code, out, _ = run(capsys, "embed", "[P[5]]", "[P[-2],P[-1],P[1],P[3]]",
                           "--seed", "1", "--format", "json")
        assert code == 4
        record = json.loads(out)
        assert record["output"]["mode"] == "refuted"
        assert "witness" in record and "vector" in record["witness"]

    def test_arity_defaults_to_the_pinned_arity(self, capsys, pinned_session):
        session = pinned_session
        code, out, _ = run(capsys, "embed", "[P[3]]", "[agm,P[1]]", "--session", session,
                           "--format", "json")
        record = json.loads(out)
        assert code == 4 and record["input"]["arity"] == 2
        assert len(record["witness"]["vector"]) == 2
        code, out, _ = run(capsys, "embed", "[B]", "[P[-1],P[1]]", "--format", "json")
        assert code == 0 and json.loads(out)["input"]["arity"] == 3
        code, out, err = run(capsys, "embed", "[agm]", "[tri,P[1]]", "--session", session)
        assert code == 3 and out == "" and "pin different arities" in err

    @pytest.mark.parametrize("small, big, expected", [
        ("[beta{S=agm; mu=sum}]", "[P[-1],P[1]]", (4, "refuted")),
        ("[T{mu=sum; S=[P[0]]; M=[agm,P[-1]]}]", "[P[-1],P[1]]", (0, "sampled")),
        ("[P[0]]", "[beta{S=P[1]; mu=mean[agm]},P[1]]", (0, "sampled")),
    ], ids=["beta-base", "problem-member", "beta-outer"])
    def test_arity_follows_nested_pins(self, capsys, pinned_session, small, big, expected):
        code, out, err = run(capsys, "embed", small, big, "--session", pinned_session,
                             "--format", "json")
        record = json.loads(out)
        assert (code, record["output"]["mode"]) == expected, err
        assert record["input"]["arity"] == 2

    def test_disagreeing_nested_pins_exit_3(self, capsys, pinned_session):
        code, out, err = run(capsys, "embed", "[T{mu=sum; S=[agm]; M=[tri,P[-1]]}]",
                             "[P[-1],P[1]]", "--session", pinned_session)
        assert code == 3 and out == "" and "pin different arities" in err

    def test_json_certificate(self, capsys):
        code, out, _ = run(capsys, "embed", "[P[0],P[2]]",
                           "[P[-2],P[-1],P[1],P[3]]", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["output"]["mode"] == "certified"
        assert record["output"]["certificate"]["rule"] == "power-mean-exponents"


class TestInvariant:
    def test_arithmetic_harmonic(self, capsys):
        code, out, _ = run(capsys, "invariant", "[P[1],P[-1]]", "--at", "2,8",
                           "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["output"]["converged"] is True
        assert record["output"]["limit"] == pytest.approx(4.0, rel=1e-12)

    def test_agm(self, capsys):
        code, out, _ = run(capsys, "invariant", "[P[1],P[0]]", "--at", "1,2",
                           "--format", "json")
        record = json.loads(out)
        assert record["output"]["limit"] == pytest.approx(1.4567910310469068,
                                                          rel=1e-12)

    def test_constant_input(self, capsys):
        code, out, _ = run(capsys, "invariant", "[P[1],P[0]]", "--at", "3,3",
                           "--format", "json")
        record = json.loads(out)
        assert record["output"]["iterations"] == 0

    def test_requires_some_action(self, capsys):
        code, _, _ = run(capsys, "invariant", "[P[1],P[0]]")
        assert code == 3

    @pytest.mark.parametrize("family", ["[T{mu=sum; S=[P[1]]; M=[P[0],P[2]]},P[1]]",
                                        "[beta{S=P[1]; mu=sum},P[0]]"])
    def test_non_strict_family_exit_4(self, capsys, family):
        code, out, err = run(capsys, "invariant", family, "--at", "1,2")
        assert (code, out) == (4, "")
        assert STRICT_ADVICE in err and "assert_strict" not in err

    def test_strictness_is_judged_after_the_tol(self, capsys):
        # a non-strict family and a bad --tol: the node checks its tol first (exit 3)
        code, out, err = run(capsys, "invariant", "[beta{S=P[1]; mu=sum},P[0]]",
                             "--at", "1,2", "--tol", "2")
        assert (code, out) == (3, "") and "tolerance must lie strictly between" in err

    def test_unconverged_exit_5(self, capsys, monkeypatch):
        from meanforge import invariance
        monkeypatch.setattr(invariance, "DEFAULT_CAP", 2)
        code, out, _ = run(capsys, "invariant", "[P[1],P[-1]]", "--at", "1,100",
                           "--format", "json")
        assert code == 5
        output = json.loads(out)["output"]
        assert (output["converged"], output["iterations"]) == (False, 2)

    def test_float_resolution_ends_the_iteration(self, capsys):
        # a spread of 1e-300 relative is below the float spacing at the limit:
        # the iterate settles as a bisection bracket does, with no float inside
        mpmath = pytest.importorskip("mpmath")
        code, out, _ = run(capsys, "invariant", "[P[1],P[0]]", "--at", "1,3",
                           "--tol", "1e-300", "--format", "json")
        assert code == 0
        output = json.loads(out)["output"]
        assert output["converged"] is True and output["iterations"] <= 10
        with mpmath.workdps(50):
            want = mpmath.agm(1, 3)
            assert abs(output["limit"] - want) / want <= 2.3e-16


class TestSession:
    @pytest.mark.parametrize("content", [
        "[1, 2]",
        '{"gm": 5}',
        '{"gm": {"kind": "invariant"}}',
        '{"gm": {"kind": "invariant", "means": "P[1]"}}',
        '{"gm": {"kind": "invariant", "means": [1]}}',
        '{"gm": {"kind": "invariant", "means": ["P[1]", "P[0]"], "tol": "x"}}',
        '{"gm": {"kind": "invariant", "means": ["P[1]", "P[0]"], "tol": Infinity}}',
        '{"gm": {"kind": "invariant", "means": []}}',
        UNPARSEABLE_SESSION,
        FORWARD_REFERENCE_SESSION,
        RESERVED_NAME_SESSION,
        '{"1x": {"kind": "invariant", "means": ["P[1]", "P[0]"]}}',
        '{"P": {"kind": "invariant", "means": ["P[1]", "P[0]"]}}',
    ], ids=["list", "entry-not-object", "no-means", "means-not-list",
            "means-not-strings", "bad-tol", "infinite-tol", "empty-family",
            "unparseable-entry", "forward-reference", "named-sum", "named-1x", "named-P"])
    def test_malformed_session_exit_3(self, capsys, tmp_path, content):
        session = tmp_path / "session.json"
        session.write_text(content, encoding="utf-8")
        code, out, err = run(capsys, "eval", "P[1]", "--at", "2,8",
                             "--session", str(session))
        assert code == 3 and out == "" and "session" in err

    @pytest.mark.parametrize("content, cause", [
        (UNPARSEABLE_SESSION, "unexpected end of input"),
        (FORWARD_REFERENCE_SESSION, "unknown mean name 'b'"),
        (RESERVED_NAME_SESSION, "'sum' is not a registrable name"),
    ])
    def test_unparseable_entry_names_the_file(self, capsys, tmp_path, content, cause):
        session = tmp_path / "session.json"
        session.write_text(content, encoding="utf-8")
        code, _, err = run(capsys, "eval", "P[1]", "--at", "2,8", "--session", str(session))
        assert code == 3 and f"session file {session} does not load" in err and cause in err
        entry = next(iter(json.loads(content)))  # the first entry is the one at fault
        assert f"entry {entry!r}" in err

    @pytest.mark.parametrize("argv", [["eval", "P[1]", "--at", "1,2"],
                                      ["parse", "P[1]"]])
    def test_non_strict_entry_exit_3(self, capsys, tmp_path, argv):
        session = tmp_path / "session.json"
        session.write_text(NON_STRICT_SESSION, encoding="utf-8")
        code, out, err = run(capsys, *argv, "--session", str(session))
        assert code == 3 and out == ""
        assert f"session file {session} does not load, entry 'x'" in err
        assert STRICT_ADVICE in err and "assert_strict" not in err

    @pytest.mark.parametrize("flags, expected", [
        (["[T{mu=sum; S=[P[1]]; M=[P[0],P[2]]},P[1]]"], (4, STRICT_ADVICE)),
        (["[P[1],P[0]]", "--tol=2"], (3, "tolerance must lie strictly between 0 and 1")),
    ], ids=["non-strict-family", "bad-tol"])
    def test_registration_keeps_the_argv_exit_code(self, capsys, tmp_path, flags, expected):
        session = tmp_path / "session.json"
        code, out, err = run(capsys, "invariant", *flags, "--as-mean", "x",
                             "--session", str(session))
        assert (code, out) == (expected[0], "") and expected[1] in err
        assert "session file" not in err and not session.exists()
        assert "assert_strict" not in err

    def test_forward_reference_names_the_later_entry(self, capsys, tmp_path):
        session = tmp_path / "session.json"
        session.write_text(FORWARD_REFERENCE_SESSION, encoding="utf-8")
        code, out, err = run(capsys, "eval", "P[1]", "--at", "2,8", "--session", str(session))
        assert (code, out) == (3, "")
        assert err == (f"error: session file {session} does not load, entry 'a' "
                       """(means ["b", "P[1]"]): unknown mean name 'b' at line 1, column 1 """
                       "(expected registered name); 'b' is a later entry, and each entry "
                       "sees only the names before it\n")

    @pytest.mark.parametrize("name", ["invariant", "tol"])
    def test_entry_named_by_a_keyword_exit_3(self, capsys, tmp_path, name):
        session = tmp_path / "session.json"
        session.write_text(json.dumps({name: {"kind": "invariant", "means": ["P[1]", "P[0]"]}}),
                           encoding="utf-8")
        code, out, err = run(capsys, "eval", "P[1]", "--at", "2,8", "--session", str(session))
        assert (code, out) == (3, "")
        assert f"entry {name!r}: {name!r} is not a registrable name" in err

    def test_member_of_another_arity_is_refused(self, capsys, pinned_session):
        # agm takes 2 entries, so a 3-member family could never be evaluated
        before = Path(pinned_session).read_bytes()
        code, out, err = run(capsys, "invariant", "[agm,P[1],P[2]]", "--as-mean", "wrong",
                             "--session", pinned_session)
        assert (code, out) == (3, "")
        assert err == "error: agm takes 2 entries, but the family has 3 means\n"
        assert Path(pinned_session).read_bytes() == before
        code, _, err = run(capsys, "eval", "invariant{M=[agm,P[1],P[2]]}", "--at", "1,2,3",
                           "--session", pinned_session)
        assert code == 3 and "agm takes 2 entries" in err

    def test_unwritable_session_exit_3(self, capsys, tmp_path):
        session = str(tmp_path / "missing-dir" / "session.json")
        code, _, err = run(capsys, "invariant", "[P[1],P[-1]]",
                           "--as-mean", "gm", "--session", session)
        assert code == 3 and "cannot write session file" in err

    def test_registration_is_atomic_and_reloads(self, capsys, tmp_path):
        session = tmp_path / "session.json"
        for name, family in (("gm", "[P[1],P[-1]]"), ("agm", "[P[1],P[0]]")):
            code, _, _ = run(capsys, "invariant", family, "--as-mean", name,
                             "--session", str(session))
            assert code == 0
        assert [f.name for f in tmp_path.iterdir()] == ["session.json"]
        assert set(json.loads(session.read_text(encoding="utf-8"))) == {"gm", "agm"}
        code, out, _ = run(capsys, "eval", "agm", "--at", "1,2",
                           "--session", str(session))
        assert code == 0
        assert float(out) == pytest.approx(1.4567910310469068, rel=1e-12)

    def test_register_and_reuse(self, capsys, tmp_path):
        session = str(tmp_path / "session.json")
        code, _, _ = run(capsys, "invariant", "[P[1],P[-1]]",
                         "--as-mean", "gm", "--session", session)
        assert code == 0
        code, out, _ = run(capsys, "eval", "gm", "--at", "2,8",
                           "--session", session)
        assert code == 0
        assert float(out) == pytest.approx(4.0, rel=1e-10)
        # registered names survive formatting
        code, out, _ = run(capsys, "parse", "gm", "--session", session)
        assert code == 0 and out.strip() == "mean: gm"

    @pytest.mark.parametrize("steps, cause", [
        ([("agm", "[P[1],P[0]]"), ("agm", "[agm,P[1]]")],
         """'agm' (means ["agm", "P[1]"]): unknown mean name 'agm' at line 1, column 1 """
         "(expected registered name)"),
        ([("a", "[P[1],P[0]]"), ("b", "[a,P[1]]"), ("a", "[b,P[0]]")],
         """'a' (means ["b", "P[0]"]): unknown mean name 'b' at line 1, column 1 (expected """
         "registered name); 'b' is a later entry, and each entry sees only the names before it"),
    ], ids=["refers-to-itself", "refers-to-a-later-name"])
    def test_registration_that_would_not_load_is_refused(self, capsys, tmp_path, steps, cause):
        session = tmp_path / "session.json"
        *accepted, (name, family) = steps
        for known, text in accepted:
            code, _, _ = run(capsys, "invariant", text, "--as-mean", known,
                             "--session", str(session))
            assert code == 0
        before = session.read_bytes()
        code, _, err = run(capsys, "invariant", family, "--as-mean", name,
                           "--session", str(session))
        # the new entry is at fault, not the file: one cause, the argv's name
        assert code == 3 and err == f"error: refusing to register {cause}\n"
        assert session.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["session.json"]
        code, out, _ = run(capsys, "eval", name, "--at", "1,2",
                           "--session", str(session))
        assert code == 0

    def test_reserved_name_rejected(self, capsys, tmp_path):
        session = str(tmp_path / "session.json")
        code, _, err = run(capsys, "invariant", "[P[1],P[-1]]",
                           "--as-mean", "beta", "--session", session)
        # the loader's cause once, blaming the argv's name and not the file
        assert code == 3 and err == ("error: refusing to register 'beta': 'beta' is not a "
                                     "registrable name (identifier syntax, not a reserved word)\n")

    def test_as_mean_needs_session(self, capsys):
        code, _, _ = run(capsys, "invariant", "[P[1],P[-1]]", "--as-mean", "gm")
        assert code == 3


class TestInvariantText:
    """``invariant{M=[...]; tol=...}``: the text an unnamed invariant mean prints."""

    def test_complementary_mean_in_one_argv(self, capsys):
        # mu = K, the invariant mean of A and H: its Pexider solution from the library
        from meanforge import PowerMean, complementary_mean, eval_mean
        complement = complementary_mean((PowerMean(1),), (PowerMean(1), PowerMean(-1)))
        code, out, _ = run(capsys, "eval", str(complement), "--at", "2,8", "--format", "json")
        assert code == 0
        value = json.loads(out)["output"]
        assert value.hex() == eval_mean(complement, (2, 8)).hex()

    def test_parse_prints_the_text_back(self, capsys):
        text = "invariant{M=[P[1],P[0]]; tol=0.001}"
        code, out, _ = run(capsys, "parse", text)
        assert (code, out) == (0, f"mean: {text}\n")
        code, out, _ = run(capsys, "parse", "invariant{M=[P[1],P[0]]; tol=0.000000000001}")
        assert (code, out) == (0, "mean: invariant{M=[P[1],P[0]]}\n")

    def test_registered_member_text_reloads(self, capsys, tmp_path):
        session = tmp_path / "session.json"
        family = "[invariant{M=[P[1],P[0]]; tol=0.001},P[-1]]"
        code, _, _ = run(capsys, "invariant", family, "--as-mean", "k", "--session", str(session))
        assert code == 0
        entry = json.loads(session.read_text(encoding="utf-8"))["k"]
        assert entry["means"] == ["invariant{M=[P[1],P[0]]; tol=0.001}", "P[-1]"]
        _, direct, _ = run(capsys, "invariant", family, "--at", "1,2", "--format", "json")
        code, out, _ = run(capsys, "eval", "k", "--at", "1,2", "--session", str(session),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["output"] == json.loads(direct)["output"]["limit"]

    @pytest.mark.parametrize("text, expected", [
        ("invariant{M=[beta{S=P[1]; mu=sum},P[0]]}", 4),
        ("invariant{M=[P[1],P[0]]; tol=0}", 3),
        ("invariant{M=[P[1]];}", 2),
    ], ids=["non-strict-member", "tol-0", "empty-tol-field"])
    def test_exit_codes(self, capsys, text, expected):
        code, out, err = run(capsys, "eval", text, "--at", "1,2")
        assert (code, out) == (expected, "")
        if expected == 4:
            assert err == ("hypothesis violated: beta{S=P[1]; mu=sum} " + STRICT_ADVICE + "\n")


class TestParseCommand:
    def test_canonicalizes(self, capsys):
        code, out, _ = run(capsys, "parse", "T{ mu = sum ; S=[ P[0], P[2] ]; "
                                            "M=[P[-2],P[-1],P[1],P[3]] }")
        assert code == 0
        assert out.strip() == "problem: " + EXAMPLE_PROBLEM

    def test_outer_kind(self, capsys):
        code, out, _ = run(capsys, "parse", "powsum[2]")
        assert code == 0 and out.strip() == "outer: powsum[2]"

    def test_arity_violation_exit_3(self, capsys):
        code, _, _ = run(capsys, "parse", "T{mu=sum; S=[P[0],P[2],P[5]]; M=[P[1],P[3]]}")
        assert code == 3


class TestCheck:
    def test_single_suite_records(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "vectors",
                           "--samples", "60", "--seed", "3")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 6
        for record in records:
            assert set(record) >= {"kind", "input", "output"}
            assert record["kind"].startswith("vectors.")
            assert record["output"] == "PASS"
            assert record["input"]["seed"] == 3

    def test_zero_samples_exit_3(self, capsys):
        code, out, err = run(capsys, "check", "--suite", "means", "--samples", "0")
        assert (code, out, err) == (3, "", "error: sample count must be >= 1, got 0\n")

    def test_deterministic_in_process(self, capsys):
        _, first, _ = run(capsys, "check", "--suite", "invariance",
                          "--samples", "40", "--seed", "7")
        _, second, _ = run(capsys, "check", "--suite", "invariance",
                           "--samples", "40", "--seed", "7")
        assert first == second

    def test_failure_exits_1(self, capsys, monkeypatch):
        import meanforge.checks as checks_module
        failing = [{"kind": "demo.broken", "input": {"seed": 0},
                    "output": "FAIL", "witness": {"vector": [1.0]}}]
        monkeypatch.setattr(checks_module, "run_suite",
                            lambda *a, **k: failing)
        code, out, _ = run(capsys, "check", "--suite", "vectors")
        assert code == 1
        assert json.loads(out)["output"] == "FAIL"


class TestBadInputExitCodes:
    @pytest.mark.parametrize("argv", [
        ["embed", "[P[0]]", "[P[-1],P[1]]", "--samples", "-1"],
        ["embed", "[P[0]]", "[P[-1],P[1]]", "--arity", "0"],
        ["check", "--suite", "means", "--samples", "0"],
        ["check", "--suite", "means", "--samples", "-5"],
        ["invariant", "[P[1],P[0]]", "--at=-3,-3"],
        ["invariant", "[P[1],P[0]]", "--at=0,0"],
        ["eval", "qa[exp]", "--at", "800,1"],
        ["eval", "powsum[2]", "--at", "1e200,1"],
        ["eval", "qa[pow[3]]", "--at", "1e200,1"],
        ["eval", "prod", "--at", "1e200,1e200", "--format", "json"],
        ["solve", "T{mu=sum; S=[P[1]]; M=[P[0],P[2]]}", "--at", "1,2", "--tol=inf"],
        ["invariant", "[P[1],P[0]]", "--at", "1,2", "--tol=inf"],
        ["invariant", "[P[1],P[0]]", "--at", "1,2", "--tol=0"],
        ["invariant", "[P[1],P[0]]", "--at", "1,2", "--tol=-1e-9"],
        ["invariant", "[P[1],P[0]]", "--at", "1,2", "--tol=nan"],
        ["solve", "T{mu=sum; S=[P[1]]; M=[P[0],P[2]]}", "--at", "1,2", "--tol=0"],
        ["embed", "[P[0]]", "[P[1],P[2]]", "--samples", "0"],
        ["embed", "[B]", "[P[0],P[2]]", "--domain=5,1"],
        ["embed", "[B]", "[P[0],P[2]]", "--domain=nan,1"],
    ])
    def test_exit_3_without_traceback(self, argv):
        done = subprocess.run([sys.executable, "-m", "meanforge.cli", *argv],
                              capture_output=True, text=True)
        assert done.returncode == 3, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    def test_check_takes_no_session_exit_2(self):
        done = subprocess.run([sys.executable, "-m", "meanforge.cli", "check",
                               "--session", "f"], capture_output=True, text=True)
        assert done.returncode == 2, done.stderr
        assert "unrecognized arguments: --session f" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    def test_deep_nesting_exit_2_without_traceback(self):
        done = subprocess.run([sys.executable, "-m", "meanforge.cli", *DEEP_PARSE_ARGV],
                              capture_output=True, text=True)
        assert done.returncode == 2, done.stderr
        assert "nested deeper than" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""

    @pytest.mark.parametrize("argv, session_text", [
        (["eval", "a399", "--at", "1,2"], CHAINED_SESSION),
        (["parse", "P[1]"], DEEP_JSON_SESSION),
    ], ids=["chain-of-400-names", "deep-json"])
    def test_deep_session_exit_3_without_traceback(self, tmp_path, argv, session_text):
        session = tmp_path / "session.json"
        session.write_text(session_text, encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "meanforge.cli", *argv,
                               "--session", str(session)], capture_output=True, text=True)
        assert done.returncode == 3, done.stderr
        assert "nests too deeply" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""


class TestSubprocessEntry:
    def test_module_invocation_byte_identical(self):
        cmd = [sys.executable, "-m", "meanforge.cli", "check",
               "--suite", "means", "--samples", "50", "--seed", "7"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout


class TestLazyImports:
    def test_cli_import_skips_checks_and_decimal(self):
        probe = "import json, sys, meanforge.cli; print(json.dumps(list(sys.modules)))"
        done = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, check=True)
        loaded = set(json.loads(done.stdout))
        assert "decimal" not in loaded and "meanforge.checks" not in loaded
        for module in ("ordering", "means", "implicit", "invariance", "dsl",
                       "sampling"):
            assert f"meanforge.{module}" in loaded

    def test_cli_import_skips_dataclasses_and_inspect(self):
        # together they cost milliseconds of every CLI process's start-up
        probe = ("import sys, meanforge.cli; print(sorted({'dataclasses', 'inspect', "
                 "'ast', 'dis', 'tokenize'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n"

    @pytest.mark.parametrize("first", ["meanforge.means", "meanforge.implicit",
                                       "meanforge.invariance", "meanforge.cli"])
    def test_any_module_imports_first(self, first):
        # means binds implicit and invariance once, at the end of its import
        probe = (f"import {first}; from meanforge import PowerMean as P, complementary_mean, "
                 "eval_mean; print(eval_mean(complementary_mean([P(1)], [P(1), P(-1)]), (2, 8)))")
        done = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, "3.2\n", "")

    def test_unknown_suite_exit_2(self, capsys):
        code, out, err = run(capsys, "check", "--suite", "nope")
        assert code == 2 and out == ""
        assert err == ("error: unknown suite 'nope'; choose from vectors, means, pexider, "
                       "invariance or all\n")


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def _bad_tol(text: str) -> bool:
    try:
        tol = float(text)
    except ValueError:
        return False  # argparse rejects it: exit 2
    return not 0.0 < tol < 1.0


_ENTRIES = ("1", "2.5", "7", "0", "-1", "1e-320", "1e200", "800", "nan", "inf")
_MEANS = ("P[0]", "P[1]", "P[-2]", "P[3]", "B", "agm", "beta{S=P[1]; mu=mean[P[0]]}",
          "P[", "Q[1]", "", "invariant{M=[P[1],agm]; tol=0.001}", "invariant{M=[B,P[0],P[1]]}")
_OUTERS = ("sum", "prod", "powsum[2]", "qa[exp]", "qa[log]", "qa[pow[3]]",
           "mean[P[2]]", "mean[agm]", "qa[", "mean[B]")
_FAMILIES = ("[P[1],P[0]]", "[P[1],P[-1]]", "[P[2],B]", "[agm,P[1]]", "[P[1]]",
             "[P[0],P[2]]", "[P[-2],P[-1],P[1],P[3]]", "[P[5]]", "[P[1],", "[]")
_TOLS = ("1e-12", "1e-3", "0.5", "1e-300", "0", "-1e-9", "1", "nan", "inf", "x")
_SESSIONS = (
    None,
    '{"agm": {"kind": "invariant", "means": ["P[1]", "P[0]"], "tol": 1e-12}}',
    '{"agm": {"kind": "invariant", "means": ["P[1]", "P[0]"], "tol": Infinity}}',
    '{"agm": {"kind": "invariant", "means": ["P[1]", "P[0]"], "tol": NaN}}',
    '{"agm": {"kind": "invariant", "means": ["P[1]", "P[0]"], "tol": 0}}',
    '{"agm": {"kind": "invariant", "means": ["P["], "tol": 1e-12}}',
    '{"agm": {"kind": "invariant", "means": ["P[1]"]}}',
    '{"agm": {"kind": "sum"}}',
    '[1, 2]',
    '{"agm": ',
)


@st.composite
def _argv(draw):
    vector = st.lists(st.sampled_from(_ENTRIES), min_size=1, max_size=4).map(",".join)
    command = draw(st.sampled_from(("eval", "solve", "embed", "invariant",
                                    "check", "parse")))
    if command == "eval":
        argv = ["eval", draw(st.sampled_from(_MEANS + _OUTERS)), "--at=" + draw(vector)]
    elif command == "solve":
        small, big = draw(st.sampled_from(_FAMILIES)), draw(st.sampled_from(_FAMILIES))
        argv = ["solve", f"T{{mu={draw(st.sampled_from(_OUTERS))}; S={small}; M={big}}}",
                "--at=" + draw(vector)]
    elif command == "embed":
        argv = ["embed", draw(st.sampled_from(_FAMILIES)), draw(st.sampled_from(_FAMILIES)),
                "--samples", str(draw(st.integers(-1, 20))),
                "--arity", str(draw(st.integers(0, 4))),
                "--seed", str(draw(st.integers(0, 9)))]
        argv += draw(st.sampled_from(([], ["--domain=1,2"], ["--domain=0,inf"],
                                      ["--domain=-5,5"], ["--domain=5,1"])))
    elif command == "invariant":
        argv = ["invariant", draw(st.sampled_from(_FAMILIES))]
        if draw(st.booleans()):
            argv.append("--at=" + draw(vector))
        if draw(st.booleans()):
            argv += ["--as-mean", draw(st.sampled_from(("gm", "agm", "beta", "1x")))]
    elif command == "check":
        argv = ["check", "--suite", draw(st.sampled_from(("vectors", "means", "nope"))),
                "--samples", str(draw(st.integers(-1, 2))), "--seed", "0"]
    else:
        argv = ["parse", draw(st.sampled_from(_MEANS + _OUTERS + _FAMILIES))]
    if command in ("solve", "invariant") and draw(st.booleans()):
        argv.append("--tol=" + draw(st.sampled_from(_TOLS)))
    argv += draw(st.sampled_from(([], ["--format", "json"])))
    return argv, draw(st.sampled_from(_SESSIONS))


class TestContractFuzz:
    """Every argv and session file maps onto the exit-code contract."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_argv())
    @example((["eval", "qa[exp]", "--at=800,1"], None))
    @example((["eval", "prod", "--at=1e200,1e200", "--format", "json"], None))
    @example((["invariant", "[P[1],P[0]]", "--at=1,2", "--tol=inf", "--format", "json"],
              None))
    @example((["invariant", "[P[1],P[0]]", "--at=1,2", "--tol=0"], None))
    @example((["eval", "agm", "--at=1,2"], _SESSIONS[2]))
    @example((["eval", "P[0]", "--at=1e-320,1e200,1e200"], None))
    @example((["eval", "B", "--at=1e200,1.7e308,1.7e308"], None))
    @example((DEEP_PARSE_ARGV, None))
    @example((TINY_DOMAIN_ARGV, None))
    @example((NARROW_DOMAIN_ARGV, None))
    @example((NESTED_PIN_ARGV, _SESSIONS[1]))
    @example((["eval", "a399", "--at=1,2"], CHAINED_SESSION))
    @example((["parse", "P[1]"], DEEP_JSON_SESSION))
    @example((["embed", "[B]", "[P[0],P[2]]", "--domain=5,1"], None))
    @example((["eval", "P[1]", "--at=1,2"], RESERVED_NAME_SESSION))
    def test_exit_code_contract(self, case):
        argv, session_text = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            session = Path(tmp) / "session.json"
            if session_text is not None:
                session.write_text(session_text, encoding="utf-8")
            full = argv + ([] if argv[0] == "check" else ["--session", str(session)])
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(full)
                except SystemExit as exc:  # argparse rejected the argv
                    code = exc.code
        assert code in range(6), (full, code, err.getvalue())
        if "json" in argv:
            for line in out.getvalue().splitlines():
                _strict_json(line)
        if any(a.startswith("--tol=") and _bad_tol(a[6:]) for a in argv):
            assert code in (2, 3), (full, code, out.getvalue())
        expected = EXPECTED_OUTCOME.get(tuple(argv))
        if expected is not None:
            record = json.loads(out.getvalue())
            assert (code, record["output"]["mode"]) == expected, (full, err.getvalue())
