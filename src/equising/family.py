"""One-parameter families of parametrized space curves.

A family is a polynomial map (a, t) -> (a, f2(a, t), ..., fN(a, t)) whose
image is a surface containing the line {t = 0} as its singular locus.  The
first coordinate is the family parameter itself, so slicing at a = a0 yields
a parametrized curve through the origin of the fiber, and every entry past
the first vanishes identically on the parameter axis.

The checkers in the sibling modules consume this container: they need
fibers, the tangent-plane minors, and the entries' supports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .algebra import AT, ParseError, Poly, Scalar, fresh_symbol, parse_poly

__all__ = [
    "Parametrization",
    "FamilyValidationError",
    "ParameterEntryError",
    "AxisVanishingError",
    "DegenerateFiberError",
    "CoefficientSizeError",
    "EquationCheck",
    "family_from_strings",
    "load_family",
    "load_equations",
    "resolve_basepoint",
    "verify_implicit_equations",
]


class FamilyValidationError(ValueError):
    """The input does not describe a valid curve family."""


class ParameterEntryError(FamilyValidationError):
    """First entry must be the family parameter itself."""


class AxisVanishingError(FamilyValidationError):
    """Entries past the first must vanish identically at t = 0."""


class DegenerateFiberError(FamilyValidationError):
    """A fiber that must be a curve is a single point."""


class CoefficientSizeError(FamilyValidationError):
    """An input coefficient's numerator or denominator has more than
    MAX_COEFF_DIGITS decimal digits (MAX_CENTERED_DIGITS once recentered)."""


# reports print input coefficients and products of up to three of them
# (recentered on small base points), and the interpreter refuses to print
# an int of more than 4,300 digits
MAX_COEFF_DIGITS = 1000
_COEFF_BOUND = 10 ** MAX_COEFF_DIGITS
MAX_CENTERED_DIGITS = 4300 // 3  # once recentered, where products of three still print


def resolve_basepoint(basepoint) -> tuple[Scalar, str]:
    """An axis point as a Scalar, with its report label.

    ``basepoint`` is "generic" (one fresh generic symbol), a Scalar, or a
    rational.  A rational point is labelled by its value, any other Scalar
    ``generic (<value>)``.  Checkers handed the returned point instead of
    "generic" therefore share one generic base point and one label.
    """
    if basepoint == "generic":
        basepoint = fresh_symbol()
    a0 = (basepoint if isinstance(basepoint, Scalar)
          else Scalar.from_fraction(basepoint))
    if not a0.num:
        return a0, "0"
    return a0, str(a0) if a0.is_rational() else f"generic ({a0})"


def _default_ambient(n: int) -> tuple[str, ...]:
    if n <= 4:
        return ("x", "y", "z", "w")[:n]
    return tuple(f"x{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class Parametrization:
    """Validated family (a, f2, ..., fN) with named ambient coordinates.

    ``entries`` are polynomials over ('a', 't'); ``ambient`` names the
    target coordinates (used only when relating the family to implicit
    equations and in reports).
    """

    entries: tuple[Poly, ...]
    ambient: tuple[str, ...] = ()
    name: str = ""
    # the last recentering, (printed base point, recentered family): the
    # checks of one report center on one point and share it
    _last_center: tuple | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self):
        if len(self.entries) < 2:
            raise FamilyValidationError("need at least two coordinates")
        ambient = self.ambient or _default_ambient(len(self.entries))
        if len(ambient) != len(self.entries):
            raise FamilyValidationError(
                f"{len(self.entries)} entries but {len(ambient)} ambient names"
            )
        if len(set(ambient)) != len(ambient):
            raise FamilyValidationError("ambient names must be distinct")
        object.__setattr__(self, "ambient", tuple(ambient))
        object.__setattr__(self, "entries", tuple(self.entries))
        for e in self.entries:
            if e.vars != AT:
                raise FamilyValidationError("entries must be polynomials in (a, t)")
        if self.entries[0].terms != {(1, 0): 1}:
            raise ParameterEntryError("first entry must be exactly the parameter a")
        for name, e in zip(ambient[1:], self.entries[1:]):
            if any(j == 0 for _, j in e.terms):
                raise AxisVanishingError(
                    f"entry {name} does not vanish on the axis t = 0"
                )
        if not any(i == 0 for e in self.entries[1:] for i, _ in e.terms):
            raise DegenerateFiberError("the fiber at a = 0 is a point, not a curve")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def fiber(self, a_value: Scalar | Fraction | int) -> list[Poly]:
        """All N entries specialized at one parameter value, univariate in t.

        Each term c*a^i*t^j adds c*v^i to the coefficient of t^j, in the
        order of the entry's terms, and a coefficient that sums to zero is
        dropped, as ``Poly.__add__`` drops it; v^i is formed once per i in
        a call.  So every coefficient, and the order of the t-powers, is
        that of composing the entry with (v, t).
        """
        v = a_value if isinstance(a_value, Scalar) else Scalar.from_fraction(a_value)
        powers: dict[int, Scalar] = {}
        out = []
        for e in self.entries:
            terms: dict[tuple[int], Scalar] = {}
            for (i, j), c in e.terms.items():
                if i:
                    if i not in powers:
                        powers[i] = v ** i
                    c = c * powers[i]
                s = terms[(j,)] + c if (j,) in terms else c
                if s.num:
                    terms[(j,)] = s
                else:
                    terms.pop((j,), None)
            out.append(Poly._of(("t",), terms))
        return out

    def recenter(self, a_value: Scalar | Fraction | int) -> "Parametrization":
        """Translate the parameter so the fiber of interest sits at a = 0."""
        shifted = Poly.var(AT, "a") + Poly.const(AT, a_value)
        t_var = Poly.var(AT, "t")
        new = [self.entries[0]] + [e.compose([shifted, t_var]) for e in self.entries[1:]]
        for name, e in zip(self.ambient[1:], new[1:]):
            check_coefficient_size(e, f"entry {name} recentered on the base point",
                                   MAX_CENTERED_DIGITS)
        return Parametrization(tuple(new), self.ambient, self.name)

    def centered(self, basepoint) -> tuple["Parametrization", Scalar, str]:
        """The family recentered on an axis point, that point and its label
        (see :func:`resolve_basepoint`); a zero base point leaves the family
        as it is.  The last recentering is kept, so checks at one point
        recenter once between them."""
        a0, label = resolve_basepoint(basepoint)
        if a0.is_zero():
            return self, a0, label
        # keyed by the printed point: equal points printed apart would
        # recenter into differently printed families
        last = self._last_center
        if last is None or last[0] != str(a0):
            last = (str(a0), self.recenter(a0))
            object.__setattr__(self, "_last_center", last)
        return last[1], a0, label

    def plucker_minors(self) -> dict[tuple[int, int], Poly]:
        """2x2 minors p[k, l] (1-based, k < l) of the Jacobian rows
        (d/da, d/dt), the tangent-plane Pluecker coordinates of the
        parametrized surface, summed over term pairs: c1*a^i1*t^j1 in
        entry k and c2*a^i2*t^j2 in entry l add c1*c2*(i1*j2 - i2*j1) to
        the coefficient of a^(i1+i2-1)*t^(j1+j2-1) of p[k, l].  A pair of
        weight 0 adds nothing, and a coefficient that sums to zero is
        dropped, as ``Poly.__add__`` drops it."""
        items = [list(e.terms.items()) for e in self.entries]
        out = {}
        for k, left in enumerate(items, start=1):
            for l, right in enumerate(items[k:], start=k + 1):
                terms: dict[tuple[int, ...], Scalar] = {}
                for (i1, j1), c1 in left:
                    for (i2, j2), c2 in right:
                        w = i1 * j2 - i2 * j1
                        if w:
                            e, c = (i1 + i2 - 1, j1 + j2 - 1), c1 * c2 * w
                            s = terms[e] + c if e in terms else c
                            if s.num:
                                terms[e] = s
                            else:
                                del terms[e]
                out[(k, l)] = Poly._of(AT, terms)
        return out

    def is_equimultiple(self) -> tuple[bool, int, int]:
        """Compare the fiber multiplicity at a = 0 with the generic one.

        Both are read from the supports of the non-parameter entries: at
        a = 0 the least j over the a-free terms a^0 t^j, at a generic a
        (where no coefficient of t^j vanishes) the least j over all terms.
        They are multiplicities of the parametrization, and equal those of
        the image curves only where a fiber's parametrization is one to
        one, which is assumed and not checked.
        """
        exps = [e for entry in self.entries[1:] for e in entry.terms]
        special = min(j for i, j in exps if i == 0)
        generic = min(j for _, j in exps)
        return special == generic, special, generic

    def entry_strings(self) -> list[str]:
        return [e.grammar_str() for e in self.entries]

    def __str__(self):
        inner = ", ".join(self.entry_strings())
        return f"({inner})"


def family_from_strings(
    entries: Sequence[str],
    ambient: Sequence[str] = (),
    name: str = "",
) -> Parametrization:
    # a parse error names its entry as check_coefficient_size does; an
    # ambient of the wrong length is refused by Parametrization after parsing
    labels = ambient if len(ambient) == len(entries) else _default_ambient(len(entries))
    polys = _parse_named(entries, AT, [f"entry {label}" for label in labels])
    fam = Parametrization(tuple(polys), tuple(ambient), name)
    for label, e in zip(fam.ambient, fam.entries):
        check_coefficient_size(e, f"entry {label}")
    return fam


def _parse_named(texts: Sequence[str], variables: Sequence[str],
                 names: Sequence[str]) -> list[Poly]:
    """Parse each text; a ParseError is raised again with the text's name
    in front of its message."""
    out = []
    for text, what in zip(texts, names):
        try:
            out.append(parse_poly(text, variables))
        except ParseError as exc:
            raise ParseError(f"{what}: {exc.message}", exc.offset) from None
    return out


def check_coefficient_size(p: Poly, what: str, digits: int = MAX_COEFF_DIGITS) -> None:
    """Refuse ``p``, naming it ``what``, with a CoefficientSizeError when a
    coefficient's numerator or denominator has more than ``digits`` decimal
    digits.  Every coefficient read from outside the program passes here,
    and every family recentered off the origin."""
    bound = _COEFF_BOUND if digits == MAX_COEFF_DIGITS else 10 ** digits
    if any(abs(n) >= bound for val in p.terms.values()
           for n in (*val.num.values(), *val.den.values())):
        raise CoefficientSizeError(
            f"{what} has a coefficient of more than {digits} digits")


def load_family(path: str | Path) -> Parametrization:
    """Read a family from a JSON file.

    Expected shape::

        {"name": "...", "entries": ["a", "t^3", ...], "ambient": ["x", ...]}

    ``ambient`` is optional.  Entry strings follow the expression grammar
    over the variables a and t.
    """
    path = Path(path)
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or "entries" not in data:
        raise FamilyValidationError(f"{path.name}: expected an object with 'entries'")
    return family_from_strings(
        _strings(data, "entries", path),
        _strings(data, "ambient", path, ()),
        data.get("name", path.stem),
    )


def _strings(data: dict, key: str, path: Path, default=None) -> list[str]:
    """``data[key]`` (or ``default`` when absent), refused unless it is a
    list of strings."""
    value = data.get(key, default)
    if not isinstance(value, (list, tuple)) or not all(isinstance(s, str) for s in value):
        raise FamilyValidationError(f"{path.name}: '{key}' must be a list of strings")
    return list(value)


@dataclass(frozen=True)
class EquationCheck:
    """Outcome of substituting the family into one implicit equation."""

    source: str
    holds: bool
    residual: str


def load_equations(path: str | Path, family: Parametrization) -> list[Poly]:
    """Read implicit equations (polynomials in the ambient coordinates)."""
    path = Path(path)
    data = json.loads(path.read_text())
    if not isinstance(data, dict) or "equations" not in data:
        raise FamilyValidationError(f"{path.name}: expected an object with 'equations'")
    variables = _strings(data, "vars", path, family.ambient)
    if not variables:
        raise FamilyValidationError(f"{path.name}: 'vars' must not be empty")
    if set(variables) - set(family.ambient):
        extra = sorted(set(variables) - set(family.ambient))
        raise FamilyValidationError(
            f"{path.name}: unknown ambient variables {extra}"
        )
    texts = _strings(data, "equations", path)
    equations = _parse_named(
        texts, variables, [f"{path.name}: equation {k}" for k in range(1, len(texts) + 1)])
    for k, eq in enumerate(equations, start=1):
        check_coefficient_size(eq, f"{path.name}: equation {k}")
    return equations


def verify_implicit_equations(
    family: Parametrization, equations: Sequence[Poly]
) -> list[EquationCheck]:
    """Substitute the parametrization into each equation.

    An equation passes when the pullback is the zero polynomial in (a, t),
    that is, when the equation vanishes on the whole image surface.
    """
    by_name = dict(zip(family.ambient, family.entries))
    out = []
    for eq in equations:
        values = [by_name[v] for v in eq.vars]
        pulled = eq.compose(values)
        out.append(
            EquationCheck(
                source=eq.grammar_str(),
                holds=pulled.is_zero(),
                residual="0" if pulled.is_zero() else str(pulled),
            )
        )
    return out
