"""Hilbert series of ideals of generic forms, with case-by-case
conjecture verification over prime fields."""

__version__ = "0.1.0"

from .series import (  # noqa: E402
    DegreeList,
    Ordering,
    SignedSeries,
    TruncatedSeries,
    ceiling,
    conjectured_series,
    default_truncation,
    expand_rational,
    format_series,
    lex_compare,
)
from .monomials import (  # noqa: E402
    MonomialIdeal,
    contains_power_of_maximal_ideal,
    enumerate_monomials,
    monomial_count,
    quotient_hilbert_function,
)
from .macaulay import (  # noqa: E402
    FormFamily,
    ModPPoly,
    ideal_dimension_at_degree,
)
from .verifier import (  # noqa: E402
    CaseSpec,
    VerificationRecord,
    plan_sweep,
    verify_case,
    verify_interval,
)
