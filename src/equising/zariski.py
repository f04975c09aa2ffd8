"""Discriminant-style equisingularity test and its Whitney cross-check.

For a family of space curves the test has two parts.  First, project the
surface by a pair of generic linear forms and ask whether the critical
locus of the projection (off the singular axis) is empty near the base
point; with symbolic coefficients standing for a generic projection this
reduces to checking that the Jacobian determinant is, up to its power of
t, a unit at the origin.  Second, ask that the fiber multiplicity be
constant through the base point.  The multiplicities are those of the
parametrization; they are the image curves' only where each fiber is
parametrized one to one, which is assumed and not checked.  Both parts
are read off the entries' supports, so no projection is formed, and the
first holds exactly when the family is equimultiple: for these families
the polar leg repeats the multiplicity leg.  Both parts are decided
exactly, so the combined verdict is always Verified or Refuted.

For these surface germs the combined test is equivalent to Whitney
regularity of the pair (smooth part, axis); :func:`equivalence_crosscheck`
runs both and reports whether the verdicts agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Scalar, fresh_symbols
from .family import Parametrization, resolve_basepoint
from .limits import Verdict, WhitneyJoint, whitney_check

__all__ = [
    "PolarResult",
    "ZariskiResult",
    "CrosscheckResult",
    "polar_is_empty",
    "zariski_check",
    "equivalence_crosscheck",
]


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


def polar_is_empty(family: Parametrization, basepoint=0) -> PolarResult:
    """Decide whether the generic-projection critical locus avoids a
    punctured neighborhood of the base point.

    Projecting by x = sum l_i e_i and y = sum m_i e_i, with fresh symbols
    l and m, gives the Jacobian sum_{i<j} (l_i m_j - l_j m_i) p_ij over the
    Pluecker minors p_ij, and no two minors cancel.  The minor
    p_1j = d f_j / dt has t-order ord f_j - 1 and every other one at least
    ord f_i + ord f_j - 1, so the Jacobian's power of t is m - 1 for the
    generic multiplicity m, and its cofactor at the origin is
    sum_j (l_1 m_j - l_j m_1) * m * c_j over the entries' a-free terms
    c_j * t^m.  The locus is therefore empty exactly when the family is
    equimultiple.
    """
    fam, _, _ = family.centered(basepoint)
    ls = fresh_symbols(fam.dim)
    ms = fresh_symbols(fam.dim)
    m = fam.is_equimultiple()[2]
    unit = Scalar.from_fraction(0)
    for j, entry in enumerate(fam.entries[1:], start=1):
        c = entry.terms.get((0, m))
        if c is not None:
            unit = unit + (ls[0] * ms[j] - ls[j] * ms[0]) * (c * m)
    empty = not unit.is_zero()
    note = ("critical locus confined to the axis"
            if empty else
            "cofactor vanishes at the base point, so the critical locus "
            "meets every neighborhood off the axis")
    return PolarResult(
        empty=empty,
        vanishing_order=m - 1,
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
