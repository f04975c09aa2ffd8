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
divided by k.  When that coordinate is one term xm*t^m, the
reparametrization is the identity t = s at every precision: no series is
formed, and the exponents are read off the terms of the others.

The scan works with truncated series, so it certifies its own
completeness: the gcd of all support exponents of the coordinates is an
a priori lower bound for the running gcd, and reaching it proves no
further characteristic exponent exists.  One scan reads up to twice the
first truncation 2*deg + 1, deg the largest t-degree, at a precision
that starts at 2m and doubles only while the scan has not stopped.  The
``truncation`` is the first one if the bound is reached below it, twice
that otherwise; a sequence short of the bound has ``confirmed`` False.

Strong equisingularity of a family asks the sequence to be the same for
the generic fiber and every special fiber of interest.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _gcd

from .algebra import (
    Poly,
    Scalar,
    SeriesT,
    _record,
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


@_record
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


def _gcd_walk(exponents, d: int, floor_gcd: int) -> tuple[list[int], int]:
    """Walk ascending support exponents from the running gcd ``d`` = m:
    each exponent that ``d`` does not divide is characteristic and lowers
    ``d``.  The walk stops once ``d`` reaches ``floor_gcd``."""
    betas: list[int] = []
    for j in exponents:
        if d == floor_gcd:
            break
        if j % d:
            betas.append(j)
            d = _gcd(d, j)
    return betas, d


def _support_scan(x: Poly, others: list[Poly], m: int, order: int,
                  floor_gcd: int) -> tuple[list[int], int]:
    """Reparametrize so x is a constant times s^m, then scan the union of
    the other coordinates' supports below s^order.

    For a one-term x = xm*t^m the reparametrization is the identity t = s:
    the exponents are the other coordinates' own, read off their terms with
    no series.  Otherwise the series are computed at a working precision k
    that starts at 2m and doubles up to ``order``.  Every coefficient below
    s^k is exact, so a scan that stops below k reads what it would read at
    full order.
    ``floor_gcd`` divides every exponent read: the running gcd stops there."""
    if len(x.terms) == 1:
        return _gcd_walk(sorted({j for y in others for (j,) in y.terms if j < order}),
                         m, floor_gcd)
    xm = x.terms[(m,)]
    x_coeffs = SeriesT.from_poly(x, m + order).coeffs[m:]
    k = min(order, 2 * m)
    while True:
        # a zero coefficient is left as it is, not divided
        u = SeriesT(tuple([c / xm if c.num else c for c in x_coeffs[:k]]), k)
        w = series_reversion(u, m)
        t_of_s = SeriesT((Scalar({}),) + w.coeffs, k)
        ys = [SeriesT.from_poly(y, k).compose(t_of_s) for y in others]
        betas, d = _gcd_walk((j for j in range(1, k) if any(y.coeffs[j].num for y in ys)),
                             m, floor_gcd)
        if d == floor_gcd or k == order:
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
    betas, d = _support_scan(x, others, m, 2 * first, floor_gcd)
    confirmed = d == floor_gcd
    truncation = first if confirmed and max(betas, default=0) < first else 2 * first
    return CharSequence(m, tuple(betas), d, confirmed, truncation)


def char_exponents_at(family: Parametrization, a_value) -> CharSequence:
    """Characteristic sequence of one fiber.  A rational ``a_value`` is
    refused with a CoefficientSizeError before the fiber is formed when bit
    lengths prove it has a coefficient that recentering would refuse."""
    family.check_fiber_size(a_value, "at the given value")
    return _fiber_char_exponents(family, a_value)


def _fiber_char_exponents(family: Parametrization, a_value) -> CharSequence:
    """Characteristic sequence of one fiber, formed with no size check."""
    entries = family.fiber(a_value)[1:]
    if all(e.is_zero() for e in entries):
        raise DegenerateFiberError.at(a_value)
    return char_exponents(*entries)


@_record
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
    leaves the check Inconclusive instead of guessing.  Before any fiber
    is formed, a rational one is refused with a CoefficientSizeError when
    bit lengths prove it has a coefficient that recentering would refuse.
    """
    a0, _ = resolve_basepoint(basepoint)
    base_label = f"a = {a0}" if a0.is_rational() else "basepoint (generic)"
    labels_values = [(base_label, a0)]
    for v in special_a:
        labels_values.append((f"a = {Fraction(v)}", Fraction(v)))
    # refused before any fiber is formed, the generic one included
    for k, (_, value) in enumerate(labels_values):
        family.check_fiber_size(value, f"at special value {k}" if k else "at the base point")
    generic = _fiber_char_exponents(family, fresh_symbol())

    sequences: list[tuple[str, CharSequence]] = [("generic", generic)]
    verdict = Verdict.VERIFIED
    mismatch = None
    reasons: list[str] = []
    for label, value in labels_values:
        seq = _fiber_char_exponents(family, value)
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
