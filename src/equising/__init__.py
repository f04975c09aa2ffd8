"""Equisingularity checks for one-parameter families of space curves.

A family is given by polynomial entries (a, f2(a, t), ..., fN(a, t)) whose
image is a surface swept by curve fibers.  The package decides, with exact
arithmetic, whether the family is equisingular along the parameter axis in
several senses and exhibits certificates either way:

* arc-based verification or refutation of the Whitney conditions;
* a discriminant-style test through generic plane projection, with an
  equimultiplicity check;
* comparison of characteristic exponents across fibers;
* blow-up of the singular axis and Nash modification, re-parametrized so
  every check can be run again upstairs;
* critical-point separation certificates for polynomial maps on a fiber.
"""

from .algebra import (
    Arc,
    INFINITY,
    ParseError,
    Poly,
    Scalar,
    SeriesT,
    fresh_symbol,
    parse_poly,
    series_reversion,
    t_order,
    wedge3,
)
from .family import (
    AxisVanishingError,
    DegenerateFiberError,
    EquationCheck,
    FamilyValidationError,
    ParameterEntryError,
    Parametrization,
    family_from_strings,
    load_equations,
    load_family,
    verify_implicit_equations,
)
from .limits import (
    ArcWitness,
    RegimeRecord,
    Verdict,
    WhitneyJoint,
    WhitneyResult,
    whitney_check,
)
from .modifications import (
    DroppedCoordinate,
    FactorizationResult,
    ModificationResult,
    NonPolynomialChartError,
    NoUnitChartError,
    PruneResult,
    blowup_singular_locus,
    check_factorization,
    nash_modification,
)
from .projection import (
    CharSequence,
    StrongResult,
    char_exponents,
    char_exponents_at,
    strong_equisingularity_check,
)
from .rolle import (
    ConstantMapError,
    RolleCertificate,
    load_curve,
    rolle_for_curve,
    rolle_for_map,
)
from .zariski import (
    CrosscheckResult,
    ZariskiResult,
    equivalence_crosscheck,
    zariski_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Arc",
    "ArcWitness",
    "AxisVanishingError",
    "CharSequence",
    "ConstantMapError",
    "CrosscheckResult",
    "DegenerateFiberError",
    "DroppedCoordinate",
    "EquationCheck",
    "FactorizationResult",
    "FamilyValidationError",
    "INFINITY",
    "ModificationResult",
    "NonPolynomialChartError",
    "NoUnitChartError",
    "ParameterEntryError",
    "Parametrization",
    "ParseError",
    "Poly",
    "PruneResult",
    "RegimeRecord",
    "RolleCertificate",
    "Scalar",
    "SeriesT",
    "StrongResult",
    "Verdict",
    "WhitneyJoint",
    "WhitneyResult",
    "ZariskiResult",
    "blowup_singular_locus",
    "char_exponents",
    "char_exponents_at",
    "check_factorization",
    "equivalence_crosscheck",
    "family_from_strings",
    "fresh_symbol",
    "load_curve",
    "load_equations",
    "load_family",
    "nash_modification",
    "parse_poly",
    "rolle_for_curve",
    "rolle_for_map",
    "series_reversion",
    "strong_equisingularity_check",
    "t_order",
    "verify_implicit_equations",
    "wedge3",
    "whitney_check",
    "zariski_check",
]
