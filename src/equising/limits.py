"""Whitney regularity along the singular axis, decided by exact arc sweeps.

The singular locus of the image surface is the parameter axis, and
:func:`whitney_check` decides Whitney conditions (a) and (b) for the pair
(smooth part, axis) at a point of it.  One sweep decides both: the two
conditions share every regime, leading form and refinement and differ
only in the vector tested against the tangent-plane limits, and the report
keeps a regime list per condition.

Strategy.  Every way of approaching the base point inside the surface is
captured, after curve selection, by arcs

    a = a0 + c * t**theta + (higher order),    t -> 0

with rational theta > 0, together with the vertical arc a == a0.  For a
fixed exponent the leading behavior of every relevant polynomial is a
single coefficient vector depending polynomially on c, so each exponent
regime reduces to exact linear algebra over the coefficient field.  That
vector is read from theta-weighted initial forms, the Newton-polygon
reading of the regime: along a = c*t**(p/q) the term a**i*t**j has weight
i*p + j*q, and each leading coefficient is the sum of val*c**i over the
terms of least weight; finite exponents never substitute the arc.  Each
sweep level reads the polygon once, from the staircase of the secants'
and of the minors' support points.  The exponents where the outcome can
change are its breakpoints: the slopes of the edges of the lower convex
hull of either staircase, where two vertices weigh least together.
Between two breakpoints the least weight selects a single vertex (i, j)
on each side, so every leading coefficient is val*c**i throughout the
open sector, irrational exponents included, and one record per sector,
tested at its midpoint, is exact.  When every leading coefficient
cancels at special values of c the test is rerun along refined arcs
rooted at those values, to a configurable depth.

Verdicts are exact: Verified and Refuted are proofs, and anything the
sweep cannot settle inside the rational/symbolic coefficient field is
reported Inconclusive with the obstruction spelled out.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (
    AT,
    INFINITY,
    Arc,
    Poly,
    Scalar,
    _record,
    dense_gcd,
    dense_trim,
    substitute_arc,
    wedge3,
)
from .family import Parametrization

__all__ = [
    "Verdict",
    "ArcWitness",
    "RegimeRecord",
    "WhitneyResult",
    "WhitneyJoint",
    "secant_vector",
    "arc_leading_vector",
    "whitney_check",
]


class Verdict(str, Enum):
    VERIFIED = "Verified"
    REFUTED = "Refuted"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self):
        return self.value


_RANK = {Verdict.VERIFIED: 0, Verdict.INCONCLUSIVE: 1, Verdict.REFUTED: 2}

# a family whose leads keep cancelling refines once per level, and the
# sweep's time grows with the square of the depth past about 16
MAX_DEPTH = 64


def _merge(v1: Verdict, v2: Verdict) -> Verdict:
    return v1 if _RANK[v1] >= _RANK[v2] else v2


_ZERO, _ONE = Scalar.from_fraction(0), Scalar.from_fraction(1)


@_record
class ArcWitness:
    """A concrete arc along which a containment fails.

    ``coefficient`` is the chosen value of the free arc coefficient, or
    None when every small integer landed on a degeneracy and the failure
    holds for generic values instead.
    """

    arc: Arc
    description: str
    wedge_index: tuple[int, int, int] | None
    value: str
    coefficient: str


@_record
class RegimeRecord:
    """One exponent regime of a sweep, for reporting."""

    theta: str          # absolute exponent of t, "p/q" or "inf"
    kind: str           # "sector" | "critical" | "vertical"
    status: str         # "contained" | "violated" | "vacuous" | "degenerate" | "unresolved" | "trivial"
    note: str = ""
    refinements: tuple["RegimeRecord", ...] = ()

    def to_json(self) -> dict:
        out = {
            "theta": self.theta,
            "kind": self.kind,
            "status": self.status,
        }
        if self.note:
            out["note"] = self.note
        if self.refinements:
            out["refinements"] = [r.to_json() for r in self.refinements]
        return out


@_record
class WhitneyResult:
    """Outcome of one regularity condition at one base point."""

    verdict: Verdict
    condition: str      # "a" | "b"
    basepoint: str
    witness: ArcWitness | None
    regimes: tuple[RegimeRecord, ...]
    reasons: tuple[str, ...]

    def to_json(self) -> dict:
        out = {
            "verdict": str(self.verdict),
            "condition": self.condition,
            "basepoint": self.basepoint,
            "regimes": [r.to_json() for r in self.regimes],
        }
        if self.witness is not None:
            out["witness"] = _witness_json(self.witness)
        if self.reasons:
            out["reasons"] = list(self.reasons)
        return out


@_record
class WhitneyJoint:
    """Conditions (a) and (b) together; Refuted dominates Inconclusive."""

    verdict: Verdict
    part_a: WhitneyResult
    part_b: WhitneyResult
    witness: ArcWitness | None

    def to_json(self) -> dict:
        out = {
            "verdict": str(self.verdict),
            "condition_a": self.part_a.to_json(),
            "condition_b": self.part_b.to_json(),
        }
        if self.witness is not None:
            out["witness"] = _witness_json(self.witness)
        return out


def _witness_json(w: ArcWitness) -> dict:
    segs = [{"theta": str(th), "c": "generic" if c is None else str(c)}
            for th, c in w.arc.segments]
    return {
        "arc": w.description,
        "a0": str(w.arc.a0),
        "segments": segs,
        "wedge_index": list(w.wedge_index) if w.wedge_index else None,
        "value": w.value,
        "coefficient": w.coefficient,
    }


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def secant_vector(family: Parametrization) -> list[Poly]:
    """Direction from the axis retraction of a point to the point itself.

    The retraction sends (a, f2, ..., fN) to (a, 0, ..., 0), so the secant
    is the entry vector with the parameter coordinate zeroed out.
    """
    zero = Poly.zero(AT)
    return [zero] + list(family.entries[1:])


def arc_leading_vector(
    polys: Sequence[Poly], arc: Arc
) -> tuple[float, list[Scalar]] | None:
    """Order and coefficient vector of the dominant term along an arc.

    Entries are polynomials in (a, t); the result is None when every entry
    vanishes identically along the arc.
    """
    subs = [substitute_arc(p, arc) for p in polys]
    nu = min((p.min_deg("s") for p in subs), default=INFINITY)
    if nu == INFINITY:
        return None
    k = int(nu)
    return nu, [p.terms.get((k,), _ZERO) for p in subs]


def _staircase(points: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The points (i, j) no other point (i' <= i, j' <= j) dominates, by
    increasing i: for p, q > 0 only these can weigh least in i*p + j*q."""
    stair: list[tuple[int, int]] = []
    for i, j in sorted(points):
        if not stair or j < stair[-1][1]:
            stair.append((i, j))
    return tuple(stair)


def _breakpoints(stair: Sequence[tuple[int, int]]) -> set[Fraction]:
    """Slopes theta of the edges of the lower convex hull of a staircase
    (sorted by increasing i, so one monotone chain finds the hull): the
    exponents where two of its vertices weigh least together."""
    hull: list[tuple[int, int]] = []
    for i, j in stair:
        while len(hull) > 1:
            (i0, j0), (i1, j1) = hull[-2:]
            if (i1 - i0) * (j - j0) > (j1 - j0) * (i - i0):
                break   # a convex turn: (i1, j1) stays a vertex
            hull.pop()
        hull.append((i, j))
    return {Fraction(j1 - j2, i2 - i1) for (i1, j1), (i2, j2) in zip(hull, hull[1:])}


def _support(stair: Sequence[tuple[int, int]], theta: Fraction) -> frozenset[tuple[int, int]]:
    """Exponents (i, j) of least weight i*p + j*q, read from the staircase
    of a level's pooled terms.  Along a = c*t**theta, theta = p/q > 0, the
    term val*a**i*t**j has order (i*p + j*q)/q: these terms lead."""
    p, q = theta.numerator, theta.denominator
    w = min((i * p + j * q for i, j in stair), default=None)
    return frozenset((i, j) for i, j in stair if i * p + j * q == w)


def _initial(polys: Sequence[Poly], csym: Scalar,
             support: frozenset[tuple[int, int]]) -> list[Scalar]:
    """Joint theta-weighted initial forms of (a, t) polynomials at (c, 1):
    each entry sums val*c**i over its terms in ``support``, the terms of
    least weight at theta.  This is what ``arc_leading_vector`` reads off
    the substituted polynomials, without building them."""
    cpow = [_ONE, csym]
    out = []
    for poly in polys:
        acc = _ZERO
        for (i, j), val in poly.terms.items():
            if (i, j) in support:
                while len(cpow) <= i:
                    cpow.append(cpow[-1] * csym)
                acc = acc + (val * cpow[i] if i else val)
        out.append(acc)
    return out


def _regime_lead(polys: Sequence[Poly], theta: Fraction | None, csym: Scalar,
                 support: frozenset[tuple[int, int]] | None) -> list[Scalar] | None:
    """Leading coefficients along a = c*t**theta, from the terms in
    ``support``, or along a == 0 when theta is None; None when every
    polynomial vanishes along the arc."""
    if theta is None:
        led = arc_leading_vector(polys, Arc())
        return None if led is None else led[1]
    # c is a fresh symbol, so distinct terms (i, j) carry distinct powers of
    # c and cannot cancel: the initial forms vanish only on an empty support
    return _initial(polys, csym, support) if support else None


# ---------------------------------------------------------------------------
# univariate polynomials in the free arc coefficient
# ---------------------------------------------------------------------------
#
# Represented as degree-indexed lists of Scalars.  Only gcds and exact root
# isolation are needed; everything stays in the coefficient field.


def _c_gcd_many(ps: Iterable[list[Scalar]]) -> list[Scalar]:
    acc: list[Scalar] = []
    for p in ps:
        acc = dense_gcd(acc, p) if acc else dense_trim(list(p))
        if len(acc) == 1:
            break
    return acc


def _render_cpoly(p: Sequence[Scalar], cname: str) -> str:
    parts = [f"({c})" + ("" if k == 0 else f"*{cname}" if k == 1 else f"*{cname}^{k}")
             for k, c in reversed(list(enumerate(p))) if not c.is_zero()]
    return " + ".join(parts) if parts else "0"


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _divide_linear(ints: list[int], q: int, p: int) -> list[int] | None:
    """``ints`` (integers by degree) divided by q*c - p from the top, or
    None when q*c - p does not divide it."""
    out, acc = [], 0
    for x in reversed(ints[1:]):
        acc, rem = divmod(x + p * acc, q)
        if rem:
            return None
        out.append(acc)
    return out[::-1] if ints[0] + p * acc == 0 else None


def _extract_roots(p: list[Scalar], cname: str) -> tuple[list[Scalar], str | None]:
    """Nonzero roots of a coefficient polynomial, exactly.

    Returns (roots, unresolved) where unresolved renders a nonconstant
    factor whose roots cannot be expressed in the coefficient field.  The
    root at zero is dropped: a vanishing leading coefficient just means the
    arc belongs to a lower exponent regime.

    A rational polynomial is searched in one integer pass: denominators
    cleared, each candidate p/q (p | constant, q | leading coefficient; by
    p, then q, then sign) is divided out as q*c - p as often as it divides,
    by integer synthetic division (Gauss's lemma), and recorded on its
    first division.  The leftover keeps the input's leading coefficient.
    """
    p = dense_trim(list(p))
    p = p[next((k for k, c in enumerate(p) if not c.is_zero()), len(p)):]
    if len(p) <= 1:
        return [], None
    if len(p) == 2:
        return [-p[0] / p[1]], None
    if not all(c.is_rational() for c in p):
        return [], _render_cpoly(p, cname)
    fr = [c.as_fraction() for c in p]
    lcm = math.lcm(*(c.denominator for c in fr))
    ints = [int(c * lcm) for c in fr]
    dens = _divisors(abs(ints[-1]))
    roots: list[Scalar] = []
    for num in _divisors(abs(ints[0])):
        for den in dens:
            if ints[0] % num:   # then no q*c - num divides what is left
                break
            for signed in (num, -num):
                quo = _divide_linear(ints, den, signed)
                if quo is not None:
                    roots.append(Scalar.from_fraction(Fraction(signed, den)))
                while quo is not None:
                    ints, quo = quo, _divide_linear(quo, den, signed)
    scale = fr[-1] / ints[-1]
    left = [Scalar.from_fraction(x * scale) for x in ints]
    return roots, (_render_cpoly(left, cname) if len(left) > 1 else None)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

_WITNESS_TRIALS = (
    Fraction(1), Fraction(2), Fraction(3),
    Fraction(-1), Fraction(-2), Fraction(5),
)


@_record(frozen=False)
class _SweepState:
    reasons: list[str]
    verdict: Verdict = Verdict.VERIFIED
    witness: ArcWitness | None = None

    def refute(self, witness: ArcWitness | None):
        self.verdict = _merge(self.verdict, Verdict.REFUTED)
        if self.witness is None and witness is not None:
            self.witness = witness

    def inconclusive(self, reason: str):
        self.verdict = _merge(self.verdict, Verdict.INCONCLUSIVE)
        self.reasons.append(reason)

    def absorb(self, other: "_SweepState"):
        if other.verdict is Verdict.REFUTED:
            self.refute(other.witness)
        elif other.verdict is Verdict.INCONCLUSIVE:
            self.verdict = _merge(self.verdict, Verdict.INCONCLUSIVE)
        self.reasons.extend(other.reasons)


def _regime_plan(
    crits: Sequence[Fraction], w_min: Fraction
) -> list[tuple[Fraction | None, str]]:
    """Each sector's midpoint (one past the last critical exponent for the
    last sector) and each critical exponent, in order, then the vertical arc."""
    bounds = [w_min, *crits]
    plan: list[tuple[Fraction | None, str]] = []
    for lo, hi in zip(bounds, bounds[1:]):
        plan += [((lo + hi) / 2, "sector"), (hi, "critical")]
    return plan + [(bounds[-1] + 1, "sector"), (None, "vertical")]


def _arc_description(arc: Arc, a0_label: str) -> str:
    parts = [a0_label] if a0_label != "0" else []
    parts += [("c" if c is None else f"({c})") + f"*t^({th})" for th, c in arc.segments]
    return "a = " + (" + ".join(parts) if parts else "0")


def _sweep(
    vec: list[Poly],
    omega: dict[tuple[int, int], Poly],
    dim: int,
    modes: str,
    w_min: Fraction,
    depth_left: int,
    t_scale: int,
    prefix: Arc,
    a0_label: str,
) -> list[tuple[_SweepState, list[RegimeRecord]]]:
    """Sweep every condition in ``modes`` ("a", "b") at once; one
    (state, records) pair per condition, in the order of ``modes``.
    ``prefix`` is the arc already fixed above this level."""
    out = [(_SweepState([]), []) for _ in modes]
    keys = sorted(omega)
    om_polys = [omega[k] for k in keys]
    # the Newton polygon of this level, one staircase per side
    vec_stair = _staircase({ij for v in vec for ij in v.terms})
    om_stair = _staircase({ij for o in om_polys for ij in o.terms})
    crits = sorted(th for th in _breakpoints(vec_stair) | _breakpoints(om_stair)
                   if th > w_min)
    cname = f"c{len(prefix.segments) + 1}"
    csym = Scalar.symbol(cname)

    for th, kind in _regime_plan(crits, w_min):
        th_abs = None if th is None else th / t_scale
        label = "inf" if th_abs is None else str(th_abs)
        sv, so = (None, None) if th is None else (_support(vec_stair, th),
                                                  _support(om_stair, th))
        vec_lead = _regime_lead(vec, th, csym, sv)
        if vec_lead is None:
            for _, records in out:
                records.append(RegimeRecord(label, kind, "vacuous",
                                            "the arc stays inside the singular axis"))
            continue
        om_lead_list = _regime_lead(om_polys, th, csym, so)
        if om_lead_list is None:
            for state, records in out:
                records.append(RegimeRecord(label, kind, "degenerate",
                                            "every tangent minor vanishes along the arc"))
                state.inconclusive(f"no tangent planes along the arc family at exponent {label}")
            continue
        tests = _regime_tests(vec_lead, om_lead_list, keys, dim, modes,
                              cname, th is not None)
        contained = []  # (mode, state, records, status, roots)

        for mode, (state, records), (ijk, val, roots, unresolved) in zip(modes, out, tests):
            if ijk is not None:
                records.append(RegimeRecord(
                    label, kind, "violated",
                    f"limit direction leaves the tangent-plane limit (wedge coordinate {ijk})"))
                if state.witness is not None:   # only the first witness is kept
                    state.refute(None)
                    continue
                arc, c_pick = prefix, None
                if th is not None:
                    c_pick = _pick_witness(val, vec_lead if mode == "b" else None,
                                           om_lead_list, cname)
                    arc = Arc((*prefix.segments, (th_abs, c_pick)), prefix.a0)
                state.refute(ArcWitness(
                    arc=arc,
                    description=_arc_description(arc, a0_label),
                    wedge_index=ijk,
                    value=str(val if c_pick is None else val.subs(cname, c_pick)),
                    coefficient=("exact" if th is None else
                                 "generic" if c_pick is None else str(c_pick)),
                ))
                continue
            for factor in unresolved:
                state.inconclusive(
                    f"cancellation locus at exponent {label} has "
                    f"roots outside the coefficient field: {factor}")
            contained.append((mode, state, records,
                              "unresolved" if unresolved else "contained", roots))

        # each distinct root is composed and swept once, for the conditions
        # that refine it.  Roots are matched by printed form, not only by
        # value: two forms of one value compose into polynomials that print
        # differently, so each form is swept on its own, as it is alone.
        subs: dict[str, dict[str, tuple[_SweepState, list[RegimeRecord]]]] = {}
        if depth_left:
            for c0 in (r for *_, roots in contained for r in roots):
                key = str(c0)
                if key in subs:
                    continue
                sub_modes = "".join(mode for mode, *_, roots in contained
                                    if any(str(r) == key for r in roots))
                p, q = th.numerator, th.denominator
                a_new = Poly.monomial(AT, (0, p), c0) + Poly.var(AT, "a")
                t_new = Poly.monomial(AT, (0, q))
                results = _sweep(
                    [v.compose([a_new, t_new]) for v in vec],
                    {ij: omega[ij].compose([a_new, t_new]) for ij in keys},
                    dim, sub_modes,
                    w_min=Fraction(p), depth_left=depth_left - 1,
                    t_scale=t_scale * q,
                    prefix=Arc((*prefix.segments, (th_abs, c0)), prefix.a0),
                    a0_label=a0_label,
                )
                subs[key] = dict(zip(sub_modes, results))

        for mode, state, records, status, roots in contained:
            refinements: list[RegimeRecord] = []
            for c0 in roots:
                if depth_left == 0:
                    status = "unresolved"
                    state.inconclusive(
                        f"refinement depth exhausted at exponent {label}, "
                        f"coefficient {c0}")
                    continue
                sub_state, sub_records = subs[str(c0)][mode]
                state.absorb(sub_state)
                refinements.extend(sub_records)
            note = ""
            if roots and status == "contained":
                note = f"leading terms cancel at {len(roots)} special coefficient value(s); refined"
            records.append(RegimeRecord(label, kind, status, note, tuple(refinements)))
    return out


def _regime_tests(vec_lead: list[Scalar], om_lead_list: list[Scalar],
                  keys: list[tuple[int, int]], dim: int, modes: str, cname: str,
                  finite: bool) -> list[tuple]:
    """Per condition in ``modes``, ``(ijk, value, roots, unresolved)``: the
    first nonzero wedge coordinate of its test vector with the minors' leads
    (ijk is None when the vector lies in the limit plane), then, at a finite
    exponent, the nonzero values of c cancelling the leads and the factors
    whose roots leave the coefficient field."""
    om_lead = dict(zip(keys, om_lead_list))
    om_found = None
    tests = []
    for mode in modes:
        test_vec = vec_lead if mode == "b" else [_ONE] + [_ZERO] * (dim - 1)
        coords = wedge3(test_vec, om_lead, dim)
        ijk = min((ijk for ijk, v in coords.items() if not v.is_zero()), default=None)
        roots: list[Scalar] = []
        unresolved: list[str] = []
        if ijk is None and finite:
            found = []
            if mode == "b":
                found.append(_extract_roots(_c_gcd_many(
                    [c.coeffs_in(cname) for c in test_vec if not c.is_zero()]), cname))
            if om_found is None:   # the minors' roots serve both conditions
                om_found = _extract_roots(_c_gcd_many(
                    [c.coeffs_in(cname) for c in om_lead_list if not c.is_zero()]), cname)
            found.append(om_found)
            for got, factor in found:
                for r in got:
                    if not any(r == r2 for r2 in roots):
                        roots.append(r)
                if factor is not None:
                    unresolved.append(factor)
        tests.append((ijk, None if ijk is None else coords[ijk], roots, unresolved))
    return tests


def _pick_witness(
    val: Scalar,
    test_vec: list[Scalar] | None,
    om_lead: list[Scalar],
    cname: str,
) -> Scalar | None:
    for q in _WITNESS_TRIALS:
        if val.subs(cname, q).is_zero():
            continue
        if test_vec is not None and all(
                c.subs(cname, q).is_zero() for c in test_vec if not c.is_zero()):
            continue
        if all(c.subs(cname, q).is_zero() for c in om_lead if not c.is_zero()):
            continue
        return Scalar.from_fraction(q)
    return None


# ---------------------------------------------------------------------------
# public checks
# ---------------------------------------------------------------------------


def whitney_check(family: Parametrization, basepoint=0,
                  max_depth: int = 4) -> WhitneyJoint:
    """Whitney conditions (a) and (b) along the singular axis.

    Condition (a) asks that every limit of tangent planes at nearby smooth
    points contain the axis direction.  Condition (b), in retraction form,
    asks that the limit planes also contain the limit of the secants from
    the axis retraction of each point to the point itself.  Together they
    are equivalent to the classical secant condition for pairs (smooth
    part, axis), so the joint verdict is the conjunction.  One sweep
    decides both, at one base point (one generic symbol when ``basepoint``
    is "generic").  A ``max_depth`` below 0 or above MAX_DEPTH raises
    ValueError.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be nonnegative, got {max_depth}")
    if max_depth > MAX_DEPTH:
        raise ValueError(f"max_depth must be at most {MAX_DEPTH}, got {max_depth}")
    fam, a0, label = family.centered(basepoint)
    if fam.dim < 3:
        rec = RegimeRecord(
            theta="all", kind="sector", status="trivial",
            note="ambient dimension below 3: every line lies in every plane")
        part_a, part_b = (WhitneyResult(Verdict.VERIFIED, mode, label, None, (rec,), ())
                          for mode in "ab")
    else:
        swept = _sweep(
            secant_vector(fam), fam.plucker_minors(), fam.dim, "ab",
            w_min=Fraction(0), depth_left=max_depth, t_scale=1,
            prefix=Arc(a0=a0), a0_label=label,
        )
        part_a, part_b = (WhitneyResult(state.verdict, mode, label, state.witness,
                                        tuple(records), tuple(state.reasons))
                          for mode, (state, records) in zip("ab", swept))
    return WhitneyJoint(_merge(part_a.verdict, part_b.verdict), part_a, part_b,
                        part_b.witness or part_a.witness)
