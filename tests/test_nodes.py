"""The contract every meanforge value record keeps: nodes and result records.

Each case builds one instance of a record class from every field, in order.
The reprs are the ones the records printed as frozen dataclasses; equality
and hashing are by value over the exact type, except ``DerivedMean`` (by
identity) and ``InvariantMean.name`` (left out of both).
"""

import math

import pytest

from meanforge import (
    BetaMean,
    CheckReport,
    DerivedMean,
    EmbedReport,
    GeneralizedBetaMean,
    InvariantMean,
    IterationTrace,
    MeanForgeError,
    MeanOuter,
    OrderingCheck,
    OrderingVerdict,
    PowerMean,
    ProblemSpec,
    Product,
    SamplePlan,
    SolveResult,
    Sum,
)
from meanforge._frozen import Frozen

P = PowerMean
AGM = (P(1), P(0))

# (class, every field in order, how many have no default, repr, a change
# that the class's validation rejects or None)
CASES = [
    (OrderingCheck, dict(holds=False, witness_index=2), 1,
     "OrderingCheck(holds=False, witness_index=2)", None),
    (OrderingVerdict, dict(minorized=True, majorized=False, embedded=False,
                           witness_index=3), 3,
     "OrderingVerdict(minorized=True, majorized=False, embedded=False, "
     "witness_index=3)", None),
    (PowerMean, dict(order=-1.5), 1, "PowerMean(order=-1.5)", dict(order=math.inf)),
    (BetaMean, {}, 0, "BetaMean()", None),
    (GeneralizedBetaMean, dict(base=P(1), outer=MeanOuter(P(0))), 2,
     "GeneralizedBetaMean(base=PowerMean(order=1), "
     "outer=MeanOuter(mean=PowerMean(order=0)))", None),
    (ProblemSpec, dict(outer=Sum(), small=(P(0),), big=(P(-1), P(1))), 3,
     "ProblemSpec(outer=Sum(generator='id', exponent=None), "
     "small=(PowerMean(order=0),), big=(PowerMean(order=-1), PowerMean(order=1)))",
     dict(big=(P(1),))),
    (InvariantMean, dict(family=AGM, tol=1e-10, name="agm"), 1,
     "InvariantMean(family=(PowerMean(order=1), PowerMean(order=0)), tol=1e-10, "
     "name='agm')", dict(tol=2.0)),
    (DerivedMean, dict(name="max", fn=max, arity=2, strict=True), 2,
     "DerivedMean(name='max', fn=<built-in function max>, arity=2, strict=True)",
     None),
    (Sum, dict(generator="pow", exponent=2.5), 0,
     "Sum(generator='pow', exponent=2.5)", dict(exponent=-1.0)),
    (Product, {}, 0, "Product()", None),
    (MeanOuter, dict(mean=P(2)), 1, "MeanOuter(mean=PowerMean(order=2))",
     dict(mean=GeneralizedBetaMean(P(1), Sum()))),
    (SolveResult, dict(root=2.0, bracket=(1.0, 4.0), residual=0.0, iterations=40,
                       status="converged"), 5,
     "SolveResult(root=2.0, bracket=(1.0, 4.0), residual=0.0, iterations=40, "
     "status='converged')", None),
    (EmbedReport, dict(mode="sampled", samples_checked=256, counterexample=None,
                       certificate=None), 1,
     "EmbedReport(mode='sampled', samples_checked=256, counterexample=None, "
     "certificate=None)", None),
    (IterationTrace, dict(iterations=5, final_spread=1e-13, limit=4.0,
                          converged=True), 4,
     "IterationTrace(iterations=5, final_spread=1e-13, limit=4.0, converged=True)",
     None),
    (SamplePlan, dict(arity=3, count=20, seed=7, lower=0.5, upper=10.0), 1,
     "SamplePlan(arity=3, count=20, seed=7, lower=0.5, upper=10.0)",
     dict(count=-1)),
    (CheckReport, dict(passed=True, samples_checked=10, counterexample=None,
                       max_residual=1e-13), 2,
     "CheckReport(passed=True, samples_checked=10, counterexample=None, "
     "max_residual=1e-13)", None),
]


@pytest.mark.parametrize("cls, fields, required, text, invalid", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_record_contract(cls, fields, required, text, invalid):
    node = cls(**fields)
    rebuilt = cls(*fields.values())
    assert repr(node) == repr(rebuilt) == text
    if cls is DerivedMean:
        assert node == node and node != rebuilt and hash(node) == hash(node)
    else:
        assert node == rebuilt and not node != rebuilt
        assert hash(node) == hash(rebuilt)
    again = cls(**{name: getattr(node, name) for name in cls._fields})
    assert again is not node and repr(again) == text
    assert (again != node) if cls is DerivedMean else (again == node)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert repr(node) == text
    with pytest.raises(TypeError):
        cls(*fields.values(), unknown=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    if required:
        with pytest.raises(TypeError):
            cls(*list(fields.values())[:required - 1])
    if invalid is not None:
        with pytest.raises(MeanForgeError):
            cls(**{**fields, **invalid})


def test_every_record_is_covered():
    assert set(Frozen.__subclasses__()) == {case[0] for case in CASES}


def test_equality_checks_the_exact_type():
    assert BetaMean() != Product() and Product() != BetaMean()
    assert PowerMean(1) != (1.0,) and (1.0,) != PowerMean(1)
    assert PowerMean(1) == PowerMean(1.0) and hash(PowerMean(1)) == hash(PowerMean(1.0))


def test_invariant_mean_name_is_outside_equality():
    plain, named = InvariantMean(AGM), InvariantMean(AGM, name="agm")
    assert plain == named and hash(plain) == hash(named)
    assert repr(plain) != repr(named)
    assert str(plain) == "invariant{M=[P[1],P[0]]}" and str(named) == "agm"
