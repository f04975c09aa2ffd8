"""Discriminant-style equisingularity test and its Whitney cross-check.

For a family of space curves the test has two parts.  First, project the
surface by a pair of generic linear forms and ask whether the critical
locus of the projection (off the singular axis) is empty near the base
point.  Second, ask that the fiber multiplicity be constant through the
base point.  The multiplicities are those of the parametrization; they
are the image curves' only where each fiber is parametrized one to one,
which is assumed and not checked.

The first part holds exactly when the second does, so only the second is
computed, from the entries' supports.  Projecting by x = sum l_i e_i and
y = sum m_i e_i, with generic l and m, gives the Jacobian
sum_{i<j} (l_i m_j - l_j m_i) p_ij over the Pluecker minors p_ij, and no
two minors cancel.  The minor p_1j = d f_j / dt has t-order ord f_j - 1
and every other one at least ord f_i + ord f_j - 1, so the Jacobian is
t^(m-1) times a cofactor, for the generic multiplicity m, and the
cofactor at the base point is sum_j (l_1 m_j - l_j m_1) * m * c_j over
the entries' a-free terms c_j * t^m.  The critical locus stays inside the
axis exactly when that cofactor is nonzero, that is, when some entry has
an a-free term of the generic order m: when the special fiber's
multiplicity is m too.  The test is decided exactly, so the verdict is
always Verified or Refuted.

For these surface germs the test is equivalent to Whitney regularity of
the pair (smooth part, axis); :func:`equivalence_crosscheck` runs both and
reports whether the verdicts agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .family import Parametrization, resolve_basepoint
from .limits import Verdict, WhitneyJoint, whitney_check

__all__ = [
    "ZariskiResult",
    "CrosscheckResult",
    "zariski_check",
    "equivalence_crosscheck",
]


@dataclass(frozen=True)
class ZariskiResult:
    verdict: Verdict
    equimultiple: bool
    multiplicity_special: int
    multiplicity_generic: int
    basepoint: str

    def to_json(self) -> dict:
        return {
            "verdict": str(self.verdict),
            "basepoint": self.basepoint,
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


def zariski_check(family: Parametrization, basepoint=0) -> ZariskiResult:
    """Equisingularity via generic projection: empty critical locus off the
    axis plus constant fiber multiplicity, which is one condition (see the
    module docstring).  Always decisive."""
    fam, _, label = family.centered(basepoint)
    equal, special, generic = fam.is_equimultiple()
    return ZariskiResult(
        verdict=Verdict.VERIFIED if equal else Verdict.REFUTED,
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
