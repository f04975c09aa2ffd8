"""Critical-point separation certificates for polynomial maps on a fiber.

Given a scalar polynomial map restricted to one fiber curve, the composed
univariate polynomial p(t) either has at most one distinct root or its
derivative must vanish somewhere off the root set: p' has degree d - 1,
and roots of p can absorb at most d - n of them (a root of multiplicity k
is a root of p' of multiplicity exactly k - 1), so n >= 2 distinct roots
force a critical point that is not a root.

The certificate is exact.  The witness W = p'/gcd(p, p') is the cofactor
of the derivative whose roots are those free critical points.  Writing
p = lc * prod (t - r_j)**m_j, one has W(r_j) = lc * m_j * prod_{k != j}
(r_j - r_k), which is never 0, so gcd(W, p) = 1; ``separation_ok`` is that
gcd, computed over the rationals.

Floating point only fills the report's illustration of the witness: the
root of W with the smallest |p'|, found by Aberth's simultaneous iteration
(Math. Comp. 27, 1973), with its derivative residual, its value under p
and its distance to the nearest root of the squarefree part of p, which
are the zero fiber.  None of these numbers decides anything.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .algebra import Poly, Scalar, _record, dense_divmod, dense_gcd, dense_trim
from .family import (
    MAX_CENTERED_DIGITS,
    FamilyValidationError,
    Parametrization,
    _parse_named,
    check_coefficient_size,
)

__all__ = [
    "ConstantMapError",
    "RolleCertificate",
    "rolle_witness",
    "rolle_for_map",
    "rolle_for_curve",
    "load_curve",
]

class ConstantMapError(ValueError):
    """The composed map has no nonconstant part to certify."""


def _horner(c: Sequence[complex], z: complex) -> complex:
    out = 0j
    for coeff in reversed(c):
        out = out * z + coeff
    return out


def _roots(c: Sequence[Fraction]) -> list[complex]:
    """Approximate complex roots, with multiplicity, of a nonconstant
    polynomial given by rational coefficients, index = degree.

    Roots at 0 and a linear remainder are solved exactly.  Higher degrees
    run Aberth's iteration from fixed points on a circle whose radius is
    the root scale max |c_(n-k)/c_n|**(1/k), until no step exceeds a few
    units in the last place.  Multiple roots stall above that level, so
    the sweeps are also capped.
    """
    zeros = next(i for i, x in enumerate(c) if x)
    c = c[zeros:]
    n = len(c) - 1
    if n < 2:
        return [0j] * zeros + ([complex(-c[0] / c[1])] if n else [])
    f = [complex(x / c[-1]) for x in c]
    df = [k * f[k] for k in range(1, n + 1)]
    radius = max(abs(f[n - k]) ** (1 / k) for k in range(1, n + 1))
    zs = [cmath.rect(radius, 2 * math.pi * k / n + 0.5) for k in range(n)]
    for _ in range(100):
        moved = False
        for k, z in enumerate(zs):
            v = _horner(f, z)
            if v == 0:
                continue
            w = _horner(df, z) / v - sum(
                1 / (z - y) for j, y in enumerate(zs) if j != k and y != z)
            if w == 0:
                continue
            zs[k] = z - 1 / w
            moved = moved or abs(1 / w) > 4 * sys.float_info.epsilon * abs(z)
        if not moved:
            break
    return [0j] * zeros + zs


def _render(c: Sequence[Fraction]) -> str:
    terms = {(i,): Scalar.from_fraction(x) for i, x in enumerate(c) if x}
    return Poly(("t",), terms).grammar_str() if terms else "0"


@_record
class RolleCertificate:
    """Exact root-count bookkeeping plus a proof of separation.

    ``derivative_degree`` and ``shared_degree`` are both sides of the degree
    count that forces a free critical point, reported together as
    ``hurwitz_count``: the derivative of a degree d map has degree d - 1,
    while the roots of the map itself can only account for degree d - n of
    it (multiplicity m costs m - 1).  ``witness_needed`` is the strict
    inequality derivative_degree > shared_degree, which holds exactly when
    distinct_roots >= 2.  When a witness is needed, ``separation_ok``
    states that gcd(witness, map) = 1, decided over the rationals: no root
    of the witness lies on the zero fiber.  The approximate fields
    illustrate one such root (the one with the smallest derivative
    residual) and its ``fiber_distance`` to the nearest zero of the map;
    they stay None when no witness is needed, or when a coefficient lies
    outside the float range, and ``separation_ok`` stays None only in the
    first case.
    """

    map_poly: str
    degree: int
    distinct_roots: int
    derivative_degree: int
    shared_degree: int
    witness_poly: str
    witness_degree: int
    witness_needed: bool
    approx_critical_point: complex | None = None
    derivative_residual: float | None = None
    value_at_point: float | None = None
    fiber_distance: float | None = None
    separation_ok: bool | None = None

    def to_json(self) -> dict:
        out = {
            "map_poly": self.map_poly,
            "degree": self.degree,
            "distinct_roots": self.distinct_roots,
            "derivative_degree": self.derivative_degree,
            "shared_degree": self.shared_degree,
            "hurwitz_count": [self.derivative_degree, self.shared_degree],
            "witness_poly": self.witness_poly,
            "witness_degree": self.witness_degree,
            "witness_needed": self.witness_needed,
        }
        if self.witness_needed:
            if self.approx_critical_point is not None:
                z = self.approx_critical_point
                out["approx_critical_point"] = {"re": z.real, "im": z.imag}
                out["derivative_residual"] = self.derivative_residual
                out["value_at_point"] = self.value_at_point
                out["fiber_distance"] = self.fiber_distance
            out["separation_ok"] = self.separation_ok
        return out


def rolle_witness(coeffs: Sequence[Fraction | int]) -> RolleCertificate:
    """Certificate for one univariate polynomial, coefficients by degree."""
    p = dense_trim([Fraction(c) for c in coeffs])
    if len(p) < 2:
        raise ConstantMapError(
            "the composed map is constant; there are no roots to separate")
    d = len(p) - 1
    dp = [p[i] * i for i in range(1, len(p))]
    shared = dense_gcd(p, dp)
    n_distinct = len(p) - len(shared)
    witness, rem = dense_divmod(dp, shared)
    assert not rem, "derivative must be divisible by gcd(p, p')"
    base = dict(
        map_poly=_render(p),
        degree=d,
        distinct_roots=n_distinct,
        derivative_degree=d - 1,
        shared_degree=len(shared) - 1,
        witness_poly=_render(witness),
        witness_degree=len(witness) - 1,
        witness_needed=n_distinct >= 2,
    )
    if n_distinct < 2:
        return RolleCertificate(**base)

    squarefree, sq_rem = dense_divmod(p, shared)
    assert not sq_rem, "gcd(p, p') must divide p"
    separation_ok = len(dense_gcd(witness, p)) == 1
    try:
        pf, dpf = [float(x) for x in p], [float(x) for x in dp]
        z = min(_roots(witness), key=lambda r: abs(_horner(dpf, r)))
        approx = dict(
            approx_critical_point=z,
            derivative_residual=abs(_horner(dpf, z)),
            value_at_point=abs(_horner(pf, z)),
            fiber_distance=min(abs(z - w) for w in _roots(squarefree)),
        )
    except OverflowError:
        # a coefficient outside the float range: no illustration, the same proof
        approx = {}
    return RolleCertificate(**base, **approx, separation_ok=separation_ok)


def _rational_coeff_list(p: Poly) -> list[Fraction]:
    out = [Fraction(0)] * (p.max_deg("t") + 1)
    for (e,), c in p.terms.items():
        if not c.is_rational():
            raise ValueError(
                "witness extraction needs rational coefficients; evaluate "
                "the parameter at a rational value first")
        out[e] = c.as_fraction()
    return out


def rolle_for_map(family: Parametrization, rho: Poly,
                  at: Fraction | int = 0) -> RolleCertificate:
    """Certificate for an ambient polynomial map restricted to one fiber.

    ``rho`` must be a polynomial in the family's ambient coordinates; it is
    pulled back through the fiber at parameter value ``at``, and refused
    like a recentered family when a coefficient has grown too large to print.
    """
    if rho.vars != family.ambient:
        raise ValueError(
            f"map must use the ambient coordinates {family.ambient}")
    composed = rho.compose(family.fiber(at))
    check_coefficient_size(composed, "the map composed with the fiber", MAX_CENTERED_DIGITS)
    return rolle_witness(_rational_coeff_list(composed))


def rolle_for_curve(entries: Sequence[Poly],
                    functional: Sequence[Fraction | int]) -> RolleCertificate:
    """Certificate for a rational linear functional composed with a curve.

    ``entries`` are the coordinate polynomials of a parameter-free curve
    in t; ``functional`` pairs one rational coefficient with each of them.
    """
    if len(functional) != len(entries):
        raise FamilyValidationError(
            f"functional needs {len(entries)} coefficients, "
            f"got {len(functional)}")
    total = Poly.zero(("t",))
    for c, entry in zip(functional, entries):
        total = total + entry * Fraction(c)
    return rolle_witness(_rational_coeff_list(total))


def load_curve(path) -> tuple[str, list[Poly]]:
    """Read a parameter-free curve file: an object with an ``entries`` list
    of polynomial expressions in t, and an optional ``name``."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict) or "entries" not in raw:
        raise FamilyValidationError(f"{path}: expected an object with an 'entries' list")
    entries = raw["entries"]
    if not isinstance(entries, list) or not entries or \
            not all(isinstance(e, str) for e in entries):
        raise FamilyValidationError(f"{path}: 'entries' must be a nonempty list of "
                                    "expression strings")
    labels = [f"{path}: entry {k}" for k in range(1, len(entries) + 1)]
    polys = _parse_named(entries, ("t",), labels)
    for p, what in zip(polys, labels):
        check_coefficient_size(p, what)
    name = raw.get("name") or Path(path).stem
    return name, polys
