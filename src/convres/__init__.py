"""Exact resolutions and invariants of multidimensional convolutional codes.

A code is a submodule of S^q over S = F_p[D1..Dn].  The package
computes its minimal reduced polynomial resolution and everything that
falls out of it: degree and Forney tables, rate, memory, homological
dimension, Hilbert function, structural checks (resolution, column
reducedness, which is the predictable degree property, and
minimality), observability with parity-check extraction, and an
independent linear-algebra oracle for verification.
"""

from .algebra import (
    CodePresentation,
    ModElem,
    NEG_INF,
    Poly,
    PolyMatrix,
    Ring,
    parse_poly,
    twisted_degree,
)
from .complexes import (
    PolyComplex,
    ResolutionReport,
    check_minimal,
    check_reduced,
    check_resolution,
    column_degree_table,
    minimal_resolution,
    validate_complex,
)
from .errors import (
    ConvresError,
    DomainError,
    InputError,
    InvariantError,
    PolyParseError,
    PreconditionError,
    StructuralError,
    UnsupportedDimensionError,
)
from .groebner import ModuleOrder
from .invariants import forney_table, hilbert_formula, hilbert_values, memory, rate
from .observability import (
    ObservabilityReport,
    TorsionWitness,
    is_observable,
    prop3_spot_check,
)
from .oracle import (
    TruncatedSpace,
    hilbert_oracle,
    truncated_code_space,
    truncated_exactness,
)

__version__ = "0.1.0"
