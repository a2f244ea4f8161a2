"""Exact enumeration of pattern-avoiding non-crossing and non-nesting
permutations of the multiset {1,1,...,n,n}.

Three independent computation routes -- brute-force enumeration, exact
recurrences (convolution systems continued by P-recursive recurrences), and
an implicit-equation series solver -- plus
growth-rate analysis, all cross-validated against each other.
"""

from .core import (
    Arc,
    Discipline,
    DyckWord,
    Matching,
    ResourceLimitError,
    Step,
    ValidationError,
    Word,
    dyck_to_matching,
    matching_to_word,
    word_to_matching,
)
from .enumeration import (
    Constraint,
    CountQuery,
    EnumerationCapError,
    count_avoiders,
    count_by_constraint,
    dyck_words,
    labeled_words,
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
    is_stirling,
)
from .recurrences import (
    FAMILIES,
    NonCrossing231System,
    NonNesting231System,
    SequenceTable,
    catalan,
    closed_form_122,
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
    "Arc",
    "BivariatePolynomial",
    "Constraint",
    "CountQuery",
    "DecimalApprox",
    "Discipline",
    "DyckWord",
    "EnumerationCapError",
    "FAMILIES",
    "IntPolynomial",
    "Matching",
    "NonCrossing231System",
    "NonNesting231System",
    "Pattern",
    "ResourceLimitError",
    "RootNotFoundError",
    "SequenceTable",
    "SolverError",
    "Step",
    "TruncatedSeries",
    "ValidationError",
    "Word",
    "avoids_all",
    "builtin_equation",
    "builtin_radicand",
    "catalan",
    "closed_form_122",
    "contains",
    "count_avoiders",
    "count_by_constraint",
    "dyck_to_matching",
    "dyck_words",
    "family_table",
    "fibonacci",
    "growth_rate",
    "is_non_crossing",
    "is_non_nesting",
    "is_stirling",
    "labeled_words",
    "matching_to_word",
    "minimal_positive_root",
    "nonnesting_231_system",
    "noncrossing_231_system",
    "qbar_via_compositions",
    "ratio",
    "residual",
    "solve_algebraic",
    "word_to_matching",
]
