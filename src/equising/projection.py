"""Characteristic exponents of fibers under generic plane projection.

A space curve germ is flattened to a plane branch by a projection with
generic (symbolic) coefficients, which preserves the characteristic
exponents.  The projected pair (x(t), y(t)) is brought to normal form by
an exact reparametrization making x a pure power, and the exponents are
read off the support of the transformed y wherever the running gcd drops.

The scan works with truncated series, so it certifies its own
completeness: the gcd of all support exponents of x and y is an a priori
lower bound for the running gcd, and reaching it proves no further
characteristic exponent exists.  If the bound is not reached within the
truncation the order is doubled once; after that the sequence is returned
with ``confirmed`` False rather than guessed.

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
    fresh_symbols,
    series_reversion,
)
from .family import DegenerateFiberError, Parametrization, resolve_basepoint
from .limits import Verdict

__all__ = [
    "CharSequence",
    "StrongResult",
    "generic_plane_projection",
    "char_exponents",
    "char_exponents_at",
    "strong_equisingularity_check",
]


@dataclass(frozen=True)
class CharSequence:
    """Multiplicity and characteristic exponents of a plane branch.

    ``final_gcd`` is the gcd of beta0 and all recorded exponents; the
    sequence is complete exactly when it equals the support gcd of the
    input pair, in which case ``confirmed`` is True.
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


def _support_gcd(*polys: Poly) -> int:
    g = 0
    for p in polys:
        for (e,) in p.terms:
            g = _gcd(g, e)
    return g


def _normal_form_scan(x: Poly, y: Poly, m: int, order: int,
                      floor_gcd: int) -> tuple[list[int], int]:
    """Reparametrize so x is a pure m-th power and scan y's exponents."""
    xm = x.coeff_of("t", m).constant_value()
    u_coeffs = [
        x.coeff_of("t", m + e).constant_value() / xm for e in range(order)
    ]
    u = SeriesT.from_coeffs(u_coeffs, order)
    v = u.root(m)
    w = series_reversion(v)
    t_of_s = SeriesT.from_coeffs([Scalar.from_fraction(0)] + list(w.coeffs), order)
    y_series = SeriesT.from_poly(y, order)
    y_tilde = y_series.compose(t_of_s)
    d = m
    betas: list[int] = []
    for j in range(1, order):
        if d == floor_gcd or d == 1:
            break
        if j % d and not y_tilde.coeffs[j].is_zero():
            betas.append(j)
            d = _gcd(d, j)
    return betas, d


def char_exponents(x: Poly, y: Poly) -> CharSequence:
    """Characteristic sequence of the parametrized plane branch (x, y).

    Both inputs are univariate polynomials in t.  The branch is taken as
    parametrized; a common power in the parametrization shows up as a
    final gcd larger than one rather than being divided out.
    """
    if x.is_zero() and y.is_zero():
        raise DegenerateFiberError("the projected curve is a point")
    if x.is_zero() or (not y.is_zero() and y.min_deg("t") < x.min_deg("t")):
        x, y = y, x
    m = int(x.min_deg("t"))
    if m == 0:
        raise ValueError("projected branch does not pass through the origin")
    if y.is_zero():
        return CharSequence(beta0=m, betas=(), final_gcd=m,
                            confirmed=True, truncation=0)
    floor_gcd = _support_gcd(x, y)
    if m == 1:
        return CharSequence(1, (), 1, True, 0)
    maxexp = max(x.max_deg("t"), y.max_deg("t"))
    order = 2 * maxexp + 1
    betas, d = [], m
    for _ in range(2):
        betas, d = _normal_form_scan(x, y, m, order, floor_gcd)
        if d == floor_gcd:
            return CharSequence(m, tuple(betas), d, True, order)
        order *= 2
    return CharSequence(m, tuple(betas), d, False, order // 2)


def char_exponents_at(family: Parametrization, a_value) -> CharSequence:
    """Characteristic sequence of one fiber under a generic projection."""
    entries = family.fiber(a_value)[1:]
    if all(e.is_zero() for e in entries):
        raise DegenerateFiberError(f"fiber at a = {a_value} is a point")
    x, y = generic_plane_projection(entries)
    return char_exponents(x, y)


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
