"""The seeded check suites against recorded output.

``data/check_all_seed7.jsonl`` is the stdout of
``meanforge check --suite all --seed 7``.  Record order, kinds, inputs,
outputs, key order and which records carry a residual must match it exactly.
A residual ``r`` must lie within ``|r - r0| <= 1e-6*|r0| + 1e-15`` of the
recorded ``r0``: that absorbs last-bit differences between platform math
libraries and still catches a shift in the sixth digit of a residual.

``data/check_faults_seed5.json`` holds the FAIL records that
``run_suite("all", samples=40, seed=5)`` emits when one function the suites
call is replaced by a broken one.  Those records are pinned bit for bit,
key order included: they cover a witness-only FAIL and a FAIL with residual
and witness, and a FAIL in every suite.
"""

import json
import types
from pathlib import Path

import pytest

import meanforge.checks as checks
from meanforge import DomainError
from meanforge.cli import main
from meanforge.invariance import IterationTrace

DATA = Path(__file__).parent / "data"
GOLDEN = [json.loads(line) for line in
          (DATA / "check_all_seed7.jsonl").read_text().splitlines()]
FAULT_RECORDS = json.loads((DATA / "check_faults_seed5.json").read_text())

_power_mean = checks.power_mean
_gauss_iterate = checks.gauss_iterate


def _unconverged(family, v):
    trace = _gauss_iterate(family, v)
    return IterationTrace(trace.iterations, trace.final_spread, trace.limit, False)


# fault name -> (module global of ``checks``, its broken replacement)
FAULTS = {
    "minorized_never_holds": (
        "is_ordered_minorized", lambda v, w: types.SimpleNamespace(holds=False)),
    "power_mean_scaled": (
        "power_mean", lambda s, v: _power_mean(s, v) * (1 + 1e-6)),
    "certification_refused": ("power_mean_embedded", lambda alpha, beta: False),
    "never_converges": ("gauss_iterate", _unconverged),
}


def _run_cli(capsys, *argv):
    code = main(["check", *argv])
    return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_all_suites_match_the_recorded_run(capsys):
    code, records = _run_cli(capsys, "--suite", "all", "--seed", "7")
    assert code == 0
    assert [r["kind"] for r in records] == [r["kind"] for r in GOLDEN]
    for got, want in zip(records, GOLDEN):
        assert list(got) == list(want), want["kind"]
        assert (got["input"], got["output"]) == (want["input"], want["output"])
        if "residual" in want:
            r, r0 = got["residual"], want["residual"]
            assert abs(r - r0) <= 1e-6 * abs(r0) + 1e-15, (want["kind"], r, r0)


def test_one_suite_runs_its_own_records_in_order():
    for name in checks.SUITE_NAMES:
        kinds = [r["kind"] for r in checks.run_suite(name, samples=10, seed=7)]
        assert kinds == [r["kind"] for r in GOLDEN if r["kind"].startswith(name + ".")]


def test_unknown_suite_is_a_value_error():
    with pytest.raises(ValueError, match="choose from vectors, means, pexider, "
                                         "invariance or all"):
        checks.run_suite("nope")


def test_suite_names_own_the_rule_and_the_text():
    assert checks.suite_names("all") == checks.SUITE_NAMES
    assert checks.suite_names("pexider") == ("pexider",)
    with pytest.raises(ValueError) as by_run:
        checks.run_suite("nope")
    with pytest.raises(ValueError) as by_names:
        checks.suite_names("nope")
    assert str(by_run.value) == str(by_names.value)


@pytest.mark.parametrize("samples, seed, message", [
    (0, 0, "sample count must be >= 1, got 0"),
    (-5, 0, "sample count must be >= 1, got -5"),
    (5, 1.5, "sample seed must be an integer, got 1.5"),
])
def test_bad_samples_or_seed_is_a_domain_error(samples, seed, message):
    # a zero-sample run would print PASS for properties that checked nothing
    with pytest.raises(DomainError) as caught:
        checks.run_suite("all", samples=samples, seed=seed)
    assert str(caught.value) == message


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_injected_fault_fail_records(fault, monkeypatch):
    name, broken = FAULTS[fault]
    monkeypatch.setattr(checks, name, broken)
    records = checks.run_suite("all", samples=40, seed=5)
    failed = [r for r in records if r["output"] == "FAIL"]
    assert [json.dumps(r) for r in failed] == [json.dumps(r) for r in FAULT_RECORDS[fault]]


def test_fault_records_cover_every_suite_and_both_shapes():
    pinned = [r for records in FAULT_RECORDS.values() for r in records]
    assert {r["kind"].split(".")[0] for r in pinned} == set(checks.SUITE_NAMES)
    assert any("residual" not in r and "witness" in r for r in pinned)
    assert any("residual" in r and "witness" in r for r in pinned)


def test_human_format_lists_every_record_and_each_fail_witness(capsys, monkeypatch):
    name, broken = FAULTS["minorized_never_holds"]
    monkeypatch.setattr(checks, name, broken)
    code = main(["check", "--suite", "vectors", "--samples", "40", "--seed", "5",
                 "--format", "human"])
    assert code == 1
    witnesses = {r["kind"]: r["witness"] for r in FAULT_RECORDS["minorized_never_holds"]}
    want = []
    for kind in [r["kind"] for r in GOLDEN if r["kind"].startswith("vectors.")]:
        if kind in witnesses:
            want += [f"FAIL {kind}", f"     witness: {witnesses[kind]!r}"]
        else:
            want.append(f"PASS {kind}")
    assert capsys.readouterr().out.splitlines() == want


def test_a_real_fail_record_exits_1(capsys, monkeypatch):
    name, broken = FAULTS["minorized_never_holds"]
    monkeypatch.setattr(checks, name, broken)
    code, records = _run_cli(capsys, "--suite", "vectors", "--samples", "40",
                             "--seed", "5")
    assert code == 1
    assert [r for r in records if r["output"] == "FAIL"] == \
        FAULT_RECORDS["minorized_never_holds"]
