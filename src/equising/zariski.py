"""Discriminant-style equisingularity test and its Whitney cross-check.

For a family of space curves the test has two parts.  First, project the
surface by a pair of generic linear forms and ask whether the critical
locus of the projection (off the singular axis) is empty near the base
point; with symbolic coefficients standing for a generic projection this
reduces to checking that the Jacobian determinant is, up to its power of
t, a unit at the origin.  Second, ask that the fiber multiplicity be
constant through the base point.  Both parts are decided exactly, so the
combined verdict is always Verified or Refuted.

For these surface germs the combined test is equivalent to Whitney
regularity of the pair (smooth part, axis); :func:`equivalence_crosscheck`
runs both and reports whether the verdicts agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import INFINITY, Poly, fresh_symbols, t_order
from .family import Parametrization, resolve_basepoint
from .limits import Verdict, WhitneyJoint, whitney_check

__all__ = [
    "DegenerateSurfaceError",
    "PolarResult",
    "ZariskiResult",
    "CrosscheckResult",
    "generic_plane_projection",
    "polar_is_empty",
    "zariski_check",
    "equivalence_crosscheck",
]


class DegenerateSurfaceError(ValueError):
    """The parametrization is nowhere immersive, so no tangent data exists."""


@dataclass(frozen=True)
class PolarResult:
    """Critical locus of a generic plane projection, near the base point.

    ``vanishing_order`` is the power of t dividing the projected Jacobian;
    ``unit_at_origin`` is the cofactor's value at the base point, a nonzero
    expression in the projection coefficients exactly when the critical
    locus stays inside the axis.
    """

    empty: bool
    vanishing_order: int
    unit_at_origin: str
    cofactor_note: str

    def to_json(self) -> dict:
        return {
            "empty": self.empty,
            "vanishing_order": self.vanishing_order,
            "unit_at_origin": self.unit_at_origin,
            "note": self.cofactor_note,
        }


@dataclass(frozen=True)
class ZariskiResult:
    verdict: Verdict
    polar: PolarResult
    equimultiple: bool
    multiplicity_special: int
    multiplicity_generic: int
    basepoint: str

    def to_json(self) -> dict:
        return {
            "verdict": str(self.verdict),
            "basepoint": self.basepoint,
            "polar": self.polar.to_json(),
            "equimultiple": self.equimultiple,
            "multiplicity_special": self.multiplicity_special,
            "multiplicity_generic": self.multiplicity_generic,
        }


@dataclass(frozen=True)
class CrosscheckResult:
    """Side-by-side verdicts of the two tests.

    ``agree`` is None when the arc sweep came back Inconclusive, so there
    is nothing to compare against the always-decisive projection test.
    """

    whitney: WhitneyJoint
    zariski: ZariskiResult
    agree: bool | None

    def to_json(self) -> dict:
        return {
            "whitney": self.whitney.to_json(),
            "zariski": self.zariski.to_json(),
            "agree": self.agree,
        }


def generic_plane_projection(entries: list[Poly]) -> tuple[Poly, Poly]:
    """Two generic linear combinations of curve coordinates.

    Symbolic coefficients stand for a generic projection plane, so any
    conclusion drawn from nonvanishing holds for all but a proper closed
    set of projections.
    """
    variables = entries[0].vars if entries else ("t",)
    ls = fresh_symbols(len(entries))
    ms = fresh_symbols(len(entries))
    x = Poly.zero(variables)
    y = Poly.zero(variables)
    for c1, c2, e in zip(ls, ms, entries):
        x = x + e * c1
        y = y + e * c2
    return x, y


def polar_is_empty(family: Parametrization, basepoint=0) -> PolarResult:
    """Decide whether the generic-projection critical locus avoids a
    punctured neighborhood of the base point.

    The Jacobian of the two projected coordinates with respect to (a, t)
    expands over the 2x2 minors of the parametrization with generic
    cofactors, so it vanishes identically only for nowhere-immersive input,
    which is rejected.
    """
    fam, _, _ = family.centered(basepoint)
    l_proj, m_proj = generic_plane_projection(list(fam.entries))
    jac = l_proj.diff("a") * m_proj.diff("t") - m_proj.diff("a") * l_proj.diff("t")
    if jac.is_zero():
        raise DegenerateSurfaceError(
            "projected Jacobian vanishes identically: the family is "
            "nowhere immersive")
    k = t_order(jac)
    assert k != INFINITY
    unit = jac.coeff_of("t", int(k)).constant_value()
    empty = not unit.is_zero()
    note = ("critical locus confined to the axis"
            if empty else
            "cofactor vanishes at the base point, so the critical locus "
            "meets every neighborhood off the axis")
    return PolarResult(
        empty=empty,
        vanishing_order=int(k),
        unit_at_origin=str(unit),
        cofactor_note=note,
    )


def zariski_check(family: Parametrization, basepoint=0) -> ZariskiResult:
    """Equisingularity via generic projection: empty critical locus off the
    axis plus constant fiber multiplicity.  Always decisive."""
    fam, _, label = family.centered(basepoint)
    polar = polar_is_empty(fam)
    equal, special, generic = fam.is_equimultiple()
    verdict = Verdict.VERIFIED if (polar.empty and equal) else Verdict.REFUTED
    return ZariskiResult(
        verdict=verdict,
        polar=polar,
        equimultiple=equal,
        multiplicity_special=special,
        multiplicity_generic=generic,
        basepoint=label,
    )


def equivalence_crosscheck(family: Parametrization, basepoint=0,
                           max_depth: int = 4) -> CrosscheckResult:
    """Run the arc sweep and the projection test on the same input, at
    one base point (a "generic" one is drawn once and shared)."""
    a0, _ = resolve_basepoint(basepoint)
    wh = whitney_check(family, a0, max_depth)
    za = zariski_check(family, a0)
    if wh.verdict is Verdict.INCONCLUSIVE:
        agree = None
    else:
        agree = wh.verdict is za.verdict
    return CrosscheckResult(whitney=wh, zariski=za, agree=agree)
