"""meanforge: an embeddability calculus for means.

Ordering predicates on real vectors (ordered minorization/majorization and
embeddability), power and Beta-type means, outer aggregate functions, a
bracketed scalar solver for the balance equation
``mu(S_1(v),..,S_m(v),x,..,x) = mu(M_1(v),..,M_n(v))`` and the means it
defines implicitly, invariant means by mean-type iteration, a small textual
DSL, and the ``meanforge`` CLI.
"""

from .errors import (
    ArityError,
    ConvergenceError,
    DomainError,
    HypothesisViolation,
    MeanForgeError,
    ParseError,
)
from .ordering import (
    OrderingCheck,
    OrderingVerdict,
    as_vector,
    is_embedded,
    is_embedded_within,
    is_ordered_majorized,
    is_ordered_minorized,
    map_vector,
    sort_ascending,
    sort_descending,
)
from .means import (
    BetaMean,
    DerivedMean,
    GeneralizedBetaMean,
    InvariantMean,
    MeanExpr,
    MeanOuter,
    OuterFn,
    PowerMean,
    ProblemSpec,
    Product,
    Sum,
    beta_mean,
    check_mean_property,
    eval_mean,
    eval_outer,
    power_mean,
)
from .dsl import format_expr, parse, parse_mean, parse_mean_list, parse_outer
from .implicit import (
    EmbedReport,
    SolveResult,
    compare_implicit_means,
    implicit_mean,
    power_mean_embedded,
    solve_scalar,
    verify_embedding,
)
from .invariance import (
    IterationTrace,
    complementary_mean,
    gauss_iterate,
    invariant_mean,
    verify_invariance,
)
from .sampling import CheckReport, SamplePlan, sample_vectors

__version__ = "0.1.0"

__all__ = [
    "MeanForgeError", "DomainError", "ArityError", "ParseError",
    "HypothesisViolation", "ConvergenceError",
    "OrderingCheck", "OrderingVerdict", "as_vector", "sort_ascending",
    "sort_descending", "is_ordered_minorized", "is_ordered_majorized",
    "is_embedded", "is_embedded_within", "map_vector",
    "PowerMean", "BetaMean",
    "GeneralizedBetaMean", "ProblemSpec", "InvariantMean", "DerivedMean",
    "MeanExpr", "Sum", "Product", "MeanOuter", "OuterFn",
    "power_mean", "beta_mean", "eval_mean", "eval_outer",
    "check_mean_property",
    "parse", "parse_mean", "parse_outer", "parse_mean_list",
    "format_expr",
    "SolveResult", "EmbedReport", "solve_scalar", "implicit_mean",
    "power_mean_embedded", "verify_embedding",
    "compare_implicit_means",
    "IterationTrace", "gauss_iterate", "invariant_mean", "verify_invariance",
    "complementary_mean",
    "SamplePlan", "CheckReport", "sample_vectors",
    "__version__",
]
