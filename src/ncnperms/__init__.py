"""Exact enumeration of pattern-avoiding non-crossing and non-nesting
permutations of the multiset {1,1,...,n,n}.

Three independent computation routes -- brute-force enumeration, exact
recurrences (convolution systems continued by P-recursive recurrences), and
an implicit-equation series solver -- plus
growth-rate analysis, all cross-validated against each other.
"""

from .core import Constraint, Discipline, ResourceLimitError, ValidationError, Word
from .enumeration import (
    EnumerationCapError,
    count_by_constraint,
    labeled_words,
    shapes,
)
from .growth import (
    DecimalApprox,
    IntPolynomial,
    RootNotFoundError,
    builtin_radicand,
    growth_rate,
    minimal_positive_root,
    ratio,
)
from .patterns import (
    Pattern,
    avoids_all,
    contains,
    is_non_crossing,
    is_non_nesting,
)
from .recurrences import (
    FAMILIES,
    SequenceTable,
    catalan,
    family_table,
    fibonacci,
    nonnesting_231_system,
    noncrossing_231_system,
    qbar_via_compositions,
)
from .series import (
    BivariatePolynomial,
    SolverError,
    TruncatedSeries,
    builtin_equation,
    residual,
    solve_algebraic,
)

__version__ = "0.1.0"

__all__ = [
    "BivariatePolynomial",
    "Constraint",
    "DecimalApprox",
    "Discipline",
    "EnumerationCapError",
    "FAMILIES",
    "IntPolynomial",
    "Pattern",
    "ResourceLimitError",
    "RootNotFoundError",
    "SequenceTable",
    "SolverError",
    "TruncatedSeries",
    "ValidationError",
    "Word",
    "avoids_all",
    "builtin_equation",
    "builtin_radicand",
    "catalan",
    "contains",
    "count_by_constraint",
    "family_table",
    "fibonacci",
    "growth_rate",
    "is_non_crossing",
    "is_non_nesting",
    "labeled_words",
    "minimal_positive_root",
    "nonnesting_231_system",
    "noncrossing_231_system",
    "qbar_via_compositions",
    "ratio",
    "residual",
    "shapes",
    "solve_algebraic",
]
