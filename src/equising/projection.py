"""Characteristic exponents of fibers, read from the coordinates' supports.

A fiber is a branch (x1(t), ..., xn(t)) of multiplicity m, the least
t-order of its coordinates, and its characteristic exponents are those of
a generic plane projection (X, Y) = (sum l_i x_i, sum m_i x_i).  That
projection is never formed.  X has order m; in a parameter s with X = s^m
the coefficient of Y at s^j is sum m_i c_ij, c_ij that of x_i, which for
generic m_i is nonzero exactly when some c_ij is: the support of Y is the
union of the coordinates' supports.  Any coordinate of order m is
transversal, like X, and the exponents relative to a transversal
coordinate do not depend on which one is taken, so the first coordinate
of order m serves in place of X.  This is the support computation behind
Zariski's saturation (O. Zariski, Studies in equisingularity III, Amer.
J. Math. 90, 1968; F. Pham and B. Teissier, Fractions lipschitziennes
d'une algebre analytique complexe et saturation de Zariski, 1969).

So an exact reparametrization t = t(s) makes that coordinate a constant
times s^m, every other coordinate is composed with t(s), and the
exponents are read off the union of their s-supports wherever the running
gcd drops.  The arithmetic stays over Q, or Q(a) at the generic fiber.
With the coordinate written xm*t^m*u(t), u(0) = 1, t(s) solves
t^m*u(t) = s^m, and Lagrange inversion gives it in one step over the
terms of u: its coefficient at s^k is that of t^(k-1) in u^(-k/m),
divided by k.

The scan works with truncated series, so it certifies its own
completeness: the gcd of all support exponents of the coordinates is an
a priori lower bound for the running gcd, and reaching it proves no
further characteristic exponent exists.  A sequence's ``truncation`` is
the most the scan may read; the series are computed at a precision that
starts at 2m and doubles up to it only while the scan has not stopped.
If the bound is not reached within the truncation the truncation is
doubled once; after that the sequence is returned with ``confirmed``
False rather than guessed.

Strong equisingularity of a family asks the sequence to be the same for
the generic fiber and every special fiber of interest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _gcd

from .algebra import (
    Poly,
    Scalar,
    SeriesT,
    fresh_symbol,
    series_reversion,
)
from .family import DegenerateFiberError, Parametrization, resolve_basepoint
from .limits import Verdict

__all__ = [
    "CharSequence",
    "StrongResult",
    "char_exponents",
    "char_exponents_at",
    "strong_equisingularity_check",
]


@dataclass(frozen=True)
class CharSequence:
    """Multiplicity and characteristic exponents of a branch.

    ``final_gcd`` is the gcd of beta0 and all recorded exponents; the
    sequence is complete exactly when it equals the support gcd of the
    input coordinates, in which case ``confirmed`` is True.
    """

    beta0: int
    betas: tuple[int, ...]
    final_gcd: int
    confirmed: bool
    truncation: int

    def display(self) -> str:
        inner = "; ".join([str(self.beta0), ", ".join(map(str, self.betas))])
        return f"({inner.rstrip('; ')})" if self.betas else f"({self.beta0};)"

    def key(self) -> tuple:
        return (self.beta0, self.betas)

    def to_json(self) -> dict:
        return {
            "beta0": self.beta0,
            "betas": list(self.betas),
            "final_gcd": self.final_gcd,
            "confirmed": self.confirmed,
            "truncation": self.truncation,
            "display": self.display(),
        }


def _support_scan(x: Poly, others: list[Poly], m: int, order: int,
                  floor_gcd: int) -> tuple[list[int], int]:
    """Reparametrize so x is a constant times s^m, then scan the union of
    the other coordinates' supports below s^order.

    The series are computed at a working precision k that starts at 2m
    and doubles up to ``order``.  Every coefficient below s^k is exact, so
    a scan that stops below k reads what it would read at full order."""
    xm = x.terms[(m,)]
    x_coeffs = SeriesT.from_poly(x, m + order).coeffs[m:]
    k = min(order, 2 * m)
    while True:
        # a zero coefficient is left as it is, not divided
        u = SeriesT(tuple([c / xm if c.num else c for c in x_coeffs[:k]]), k)
        w = series_reversion(u, m)
        t_of_s = SeriesT((Scalar({}),) + w.coeffs, k)
        ys = [SeriesT.from_poly(y, k).compose(t_of_s) for y in others]
        d = m
        betas: list[int] = []
        for j in range(1, k):
            if d == floor_gcd or d == 1:
                break
            if j % d and any(y.coeffs[j].num for y in ys):
                betas.append(j)
                d = _gcd(d, j)
        if d == floor_gcd or d == 1 or k == order:
            return betas, d
        k = min(order, 2 * k)


def char_exponents(*coords: Poly) -> CharSequence:
    """Characteristic sequence of the branch parametrized by ``coords``.

    Every input is a univariate polynomial in t; two inputs are a plane
    branch (x, y).  The branch is taken as parametrized; a common power in
    the parametrization shows up as a final gcd larger than one rather
    than being divided out.
    """
    coords = [c for c in coords if not c.is_zero()]
    if not coords:
        raise DegenerateFiberError("the curve is a point")
    m = int(min(c.min_deg("t") for c in coords))
    if m == 0:
        raise ValueError("branch does not pass through the origin")
    if m == 1:
        return CharSequence(1, (), 1, True, 0)
    others = list(coords)
    x = others.pop(next(k for k, c in enumerate(coords) if c.min_deg("t") == m))
    floor_gcd = _gcd(*(e for c in coords for (e,) in c.terms))
    first = 2 * max(c.max_deg("t") for c in coords) + 1
    for order in (first, 2 * first):
        betas, d = _support_scan(x, others, m, order, floor_gcd)
        if d == floor_gcd:
            return CharSequence(m, tuple(betas), d, True, order)
    return CharSequence(m, tuple(betas), d, False, order)


def char_exponents_at(family: Parametrization, a_value) -> CharSequence:
    """Characteristic sequence of one fiber."""
    entries = family.fiber(a_value)[1:]
    if all(e.is_zero() for e in entries):
        raise DegenerateFiberError(f"fiber at a = {a_value} is a point")
    return char_exponents(*entries)


@dataclass(frozen=True)
class StrongResult:
    """Comparison of characteristic sequences across fibers."""

    verdict: Verdict
    sequences: tuple[tuple[str, CharSequence], ...]
    mismatch: tuple[str, str] | None
    reasons: tuple[str, ...]

    def to_json(self) -> dict:
        out = {
            "verdict": str(self.verdict),
            "sequences": {label: seq.to_json() for label, seq in self.sequences},
        }
        if self.mismatch:
            out["mismatch"] = list(self.mismatch)
        if self.reasons:
            out["reasons"] = list(self.reasons)
        return out


def strong_equisingularity_check(
    family: Parametrization,
    basepoint=0,
    special_a: tuple = (),
) -> StrongResult:
    """Compare the generic fiber's characteristic sequence with the fiber at
    the base point and at any further chosen parameter values.

    Multiplicity disagreements refute outright.  Exponent comparisons
    refute or verify only between confirmed sequences; an unconfirmed scan
    leaves the check Inconclusive instead of guessing.
    """
    a0, _ = resolve_basepoint(basepoint)
    generic = char_exponents_at(family, fresh_symbol())
    base_label = f"a = {a0}" if a0.is_rational() else "basepoint (generic)"
    labels_values = [(base_label, a0)]
    for v in special_a:
        labels_values.append((f"a = {Fraction(v)}", Fraction(v)))

    sequences: list[tuple[str, CharSequence]] = [("generic", generic)]
    verdict = Verdict.VERIFIED
    mismatch = None
    reasons: list[str] = []
    for label, value in labels_values:
        seq = char_exponents_at(family, value)
        sequences.append((label, seq))
        if seq.beta0 != generic.beta0:
            verdict = Verdict.REFUTED
            mismatch = mismatch or ("generic", label)
            continue
        if seq.confirmed and generic.confirmed:
            if seq.key() != generic.key():
                verdict = Verdict.REFUTED
                mismatch = mismatch or ("generic", label)
        else:
            if verdict is Verdict.VERIFIED:
                verdict = Verdict.INCONCLUSIVE
            reasons.append(
                f"sequence at {label} not confirmed within truncation "
                f"{seq.truncation}")
    return StrongResult(
        verdict=verdict,
        sequences=tuple(sequences),
        mismatch=mismatch,
        reasons=tuple(reasons),
    )
