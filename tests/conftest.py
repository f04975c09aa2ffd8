"""Shared helpers: fuzzed families and the numerical arc-limit oracle.

The oracle takes the road not taken by the library: instead of symbolic
leading terms it evaluates the raw entry polynomials at exact rational
points marching down a test arc, normalizes the resulting direction, and
compares against the symbolic limit.  Agreement of the two independent
routes is asserted within a float tolerance.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path
from typing import NoReturn

from equising import (
    INFINITY,
    Arc,
    FamilyValidationError,
    Parametrization,
    Poly,
    Scalar,
    SeriesT,
    family_from_strings,
    fresh_symbol,
)
from equising.algebra import (
    _MAX_BITS,
    _MAX_DEGREE,
    _MAX_TERM_PRODUCTS,
    ParseError,
    _mul_series_terms,
    _power_products,
    _sp_mul,
    _words,
    dense_divmod,
    dense_trim,
    series_reversion,
)
from equising.family import DegenerateFiberError
from equising.limits import _regime_plan, _render_cpoly, arc_leading_vector, secant_vector
from equising.projection import CharSequence, _support_scan

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_path(name: str) -> Path:
    return CORPUS / name


def random_monomial_entries(rng: random.Random, max_extra: int = 4,
                            max_exp: int = 8) -> list[str]:
    """Entries a, then 2..max_extra monomials a**i * t**j."""
    count = rng.randint(2, max_extra)
    entries = ["a"]
    for _ in range(count):
        i = rng.randint(0, max_exp)
        j = rng.randint(1, max_exp)
        head = "t" if j == 1 else f"t^{j}"
        if i == 1:
            head = "a*" + head
        elif i > 1:
            head = f"a^{i}*" + head
        entries.append(head)
    return entries


def random_monomial_family(rng: random.Random, max_extra: int = 4,
                           max_exp: int = 8) -> Parametrization:
    """A validated family with monomial entries a**i * t**j."""
    while True:
        try:
            return family_from_strings(random_monomial_entries(rng, max_extra, max_exp))
        except FamilyValidationError:
            continue


def random_binomial_entries(rng: random.Random) -> list[str]:
    """Entries a, then 2-3 entries of one or two terms c*a**i*t**j with c
    in +-1..9, i <= 3 and 1 <= j <= 6."""
    entries = ["a"]
    for _ in range(rng.randint(2, 3)):
        terms = {(rng.randint(0, 3), rng.randint(1, 6))
                 for _ in range(rng.randint(1, 2))}
        entries.append(" + ".join(
            f"({rng.choice((-1, 1)) * rng.randint(1, 9)})*a^{i}*t^{j}"
            for i, j in sorted(terms)))
    return entries


def random_binomial_family(rng: random.Random) -> Parametrization:
    """A validated family of :func:`random_binomial_entries`."""
    while True:
        try:
            return family_from_strings(random_binomial_entries(rng))
        except FamilyValidationError:
            continue


def generic_plane_projection(entries: list[Poly]) -> tuple[Poly, Poly]:
    """Two generic linear combinations of the coordinates, drawing all the
    l symbols first, then all the m: the oracle for the polar leg, which
    the Zariski test reads as equimultiplicity, and the reference for the
    support scans, which form no projection."""
    variables = entries[0].vars if entries else ("t",)
    ls = tuple(fresh_symbol() for _ in entries)
    ms = tuple(fresh_symbol() for _ in entries)
    x = Poly.zero(variables)
    y = Poly.zero(variables)
    for c1, c2, e in zip(ls, ms, entries):
        x = x + e * c1
        y = y + e * c2
    return x, y


def fiber_multiplicity(family: Parametrization, a_value) -> int:
    """Least t-order over the non-parameter entries of the fiber at
    ``a_value``, read from the fiber itself."""
    k = min(f.min_deg("t") for f in family.fiber(a_value)[1:])
    assert k != INFINITY, f"fiber at a = {a_value} is a point"
    return int(k)


def monomial_char_exponents(t_orders) -> tuple[int, tuple[int, ...], int]:
    """(beta0, betas, final gcd) of the branch (t^e for e in t_orders).

    Walking the orders upward, each one the running gcd does not divide is
    a characteristic exponent.  Shares no arithmetic with the library.
    """
    orders = sorted(set(t_orders))
    d, betas = orders[0], []
    for e in orders[1:]:
        if e % d:
            betas.append(e)
            d = gcd(d, e)
    return orders[0], tuple(betas), d


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def arc_point(arc: Arc, s: Fraction,
              c_value: Fraction = Fraction(1)) -> tuple[Fraction, Fraction]:
    """Exact coordinates (a, t) of the arc at curve parameter s.

    Symbolic arc coefficients are pinned to ``c_value``; the exponent
    denominators are cleared the same way the symbolic substitution does,
    so s plays the role of the cleared parameter.
    """
    segs = arc.segments
    q = 1
    for e, _ in segs:
        q = _lcm(q, e.denominator)
    t_val = s ** q
    a_val = arc.a0.as_fraction()
    for e, c in segs:
        cv = c_value if c is None else c.as_fraction()
        a_val += cv * s ** int(e * q)
    return a_val, t_val


def scalar_symbols(x: Scalar) -> set[str]:
    """The symbol names in x's numerator and denominator."""
    return {name for m in itertools.chain(x.num, x.den) for name, _ in m}


def eval_scalar(p: Poly, values) -> Scalar:
    """p at one value (int, Fraction or Scalar) per variable, exactly."""
    if len(values) != len(p.vars):
        raise ValueError("need one value per variable")
    vals = [Scalar._coerce(v) for v in values]
    out = _ZERO
    for e, c in p.terms.items():
        term = c
        for v, exp in zip(vals, e):
            if exp:
                term = term * v ** exp
        out = out + term
    return out


def leading_direction(polys, arc: Arc,
                      c_value: Fraction = Fraction(1)) -> list[Fraction] | None:
    """Symbolic dominant direction along the arc, with coefficients pinned."""
    led = arc_leading_vector(polys, arc)
    if led is None:
        return None
    _, vec = led
    out = []
    for x in vec:
        for name in sorted(scalar_symbols(x)):
            x = x.subs(name, c_value)
        out.append(x.as_fraction())
    return out


def numeric_direction(polys, arc: Arc, s: Fraction,
                      c_value: Fraction = Fraction(1)) -> list[Fraction]:
    a_val, t_val = arc_point(arc, s, c_value)
    return [eval_scalar(p, [a_val, t_val]).as_fraction() for p in polys]


def direction_deviation(polys, arc: Arc,
                        s: Fraction = Fraction(1, 10 ** 8),
                        c_value: Fraction = Fraction(1)) -> float:
    """Max componentwise gap between the two normalized directions."""
    sym = leading_direction(polys, arc, c_value)
    assert sym is not None, "vacuous arc has no direction to compare"
    pivot = max(range(len(sym)), key=lambda k: abs(sym[k]))
    assert sym[pivot] != 0
    num = numeric_direction(polys, arc, s, c_value)
    assert num[pivot] != 0, "numeric evaluation lost the dominant component"
    sym_n = [v / sym[pivot] for v in sym]
    num_n = [v / num[pivot] for v in num]
    return max(abs(float(x - y)) for x, y in zip(sym_n, num_n))


def regime_arcs(result) -> list[Arc]:
    """Rebuild the swept top-level arcs from a check result's records."""
    arcs = []
    for reg in result.regimes:
        if reg.theta == "inf":
            arcs.append(Arc())
        else:
            arcs.append(Arc(((Fraction(reg.theta), None),)))
    return arcs


def exponent_pairs(family: Parametrization) -> set[tuple[int, int]]:
    """The (a, t) exponent of each monomial entry, for permutation- and
    scalar-independent comparison of kept coordinate sets."""
    out = set()
    for e in family.entries:
        assert len(e.terms) == 1, f"non-monomial entry {e}"
        out.add(e.support()[0])
    return out


# -- the Newton polygon, powers, fibers and roots the slow way ------------------
# (the library's former code, kept as oracles for the fast paths that
# replaced it)

def critical_exponents_all_pairs(polys) -> set[Fraction]:
    """One Fraction per ordered pair of the polys' pooled support points."""
    points = {ij for p in polys for ij in p.terms}
    crits = set()
    for (i1, j1) in points:
        for (i2, j2) in points:
            if i1 > i2:
                th = Fraction(j2 - j1, i1 - i2)
                if th > 0:
                    crits.add(th)
    return crits


def all_pairs_plan_arcs(family: Parametrization) -> list[Arc]:
    """The top-level arcs that report version 1 swept at the origin: each
    all-pairs exponent of the secants and minors, the sectors' midpoints
    between them and the vertical arc."""
    polys = secant_vector(family) + list(family.plucker_minors().values())
    plan = _regime_plan(sorted(critical_exponents_all_pairs(polys)), Fraction(0))
    return [Arc() if th is None else Arc(((th, None),)) for th, _ in plan]


def support_all_terms(polys, theta: Fraction) -> frozenset[tuple[int, int]]:
    """Exponents (i, j) of least weight i*p + j*q over every term."""
    p, q = theta.numerator, theta.denominator
    points = {ij for poly in polys for ij in poly.terms}
    w = min((i * p + j * q for i, j in points), default=None)
    return frozenset((i, j) for i, j in points if i * p + j * q == w)


def power_by_multiplication(base: Poly, n: int) -> Poly:
    """base**n as n products, starting from the constant 1."""
    out = Poly.const(base.vars, 1)
    for _ in range(n):
        out = out * base
    return out


def fiber_by_compose(family: Parametrization, a_value) -> list[Poly]:
    """Every entry composed with (a_value, t): the fiber before it was
    built by summing terms."""
    a_const = Poly.const(("t",), a_value)
    t_var = Poly.var(("t",), "t")
    return [e.compose([a_const, t_var]) for e in family.entries]


def support_scan_by_coeff_of(x: Poly, others: list[Poly], m: int, order: int,
                             floor_gcd: int) -> tuple[list[int], int]:
    """``projection._support_scan`` reading x's coefficients through
    ``Poly.coeff_of`` and reparametrizing by :func:`reversion_by_root`."""
    xm = constant_value(x.coeff_of("t", m))
    u_coeffs = [constant_value(x.coeff_of("t", m + e)) / xm for e in range(order)]
    w = reversion_by_root(series_from_coeffs(u_coeffs, order), m)
    t_of_s = series_from_coeffs([0] + list(w.coeffs), order)
    ys = [SeriesT.from_poly(y, order).compose(t_of_s) for y in others]
    d = m
    betas: list[int] = []
    for j in range(1, order):
        if d == floor_gcd or d == 1:
            break
        if j % d and any(not y.coeffs[j].is_zero() for y in ys):
            betas.append(j)
            d = gcd(d, j)
    return betas, d


# -- independent dense Fraction-coefficient univariate helpers ----------------
# (test-side reimplementations so certificate claims are checked against
# arithmetic the library does not share)

def poly_from_roots(roots_with_mult) -> list[Fraction]:
    coeffs = [Fraction(1)]
    for root, mult in roots_with_mult:
        for _ in range(mult):
            coeffs = [Fraction(0)] + coeffs
            for k in range(len(coeffs) - 1):
                coeffs[k] -= root * coeffs[k + 1]
    return coeffs


def derive_coeffs(coeffs):
    return [coeffs[i] * i for i in range(1, len(coeffs))]


def divmod_coeffs(a, b):
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while r and len(r) >= len(b):
        k = len(r) - len(b)
        f = r[-1] / b[-1]
        q[k] = f
        for i in range(len(b)):
            r[i + k] -= f * b[i]
        while r and r[-1] == 0:
            r.pop()
    return q, r


def gcd_coeffs(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, divmod_coeffs(a, b)[1]
    return [x / a[-1] for x in a] if a else a


def univariate_coeffs(text: str) -> list[Fraction]:
    """Dense coefficient list of an expression in t, index = degree."""
    from equising import parse_poly

    p = parse_poly(text, ("t",))
    out = [Fraction(0)] * (p.max_deg("t") + 1)
    for (e,), c in p.terms.items():
        out[e] = c.as_fraction()
    return out


def random_rolle_polys(rng: random.Random, count: int):
    """Random maps vanishing at the basepoint with at least two distinct
    roots, as (roots, multiplicities, coefficients by degree)."""
    pool = sorted({Fraction(k, d) for k in range(-6, 7) for d in (1, 2, 3)
                   if k != 0})
    for _ in range(count):
        n_distinct = rng.randint(2, 4)
        roots = [Fraction(0)] + rng.sample(pool, n_distinct - 1)
        mults = [rng.randint(1, 3) for _ in roots]
        yield roots, mults, poly_from_roots(list(zip(roots, mults)))


def run_random_rolle_suite(rng: random.Random, count: int,
                           deriv_tol: float, value_tol: float) -> None:
    """Certificates for :func:`random_rolle_polys`: exact count and gcd
    checks, then numerical confirmation at the given tolerances."""
    from equising.rolle import rolle_witness

    for roots, mults, coeffs in random_rolle_polys(rng, count):
        n_distinct = len(roots)
        degree = sum(mults)
        cert = rolle_witness(coeffs)

        assert cert.degree == degree
        assert cert.distinct_roots == n_distinct
        assert cert.derivative_degree == degree - 1
        assert cert.shared_degree == degree - n_distinct
        assert cert.witness_degree == n_distinct - 1
        assert cert.witness_needed

        # exact: witness nonconstant, divides the derivative, coprime to p
        witness = univariate_coeffs(cert.witness_poly)
        assert len(witness) - 1 >= 1
        _, rem = divmod_coeffs(derive_coeffs(coeffs), witness)
        assert not rem
        assert len(gcd_coeffs(coeffs, witness)) == 1

        assert cert.separation_ok, (roots, mults)
        z = cert.approx_critical_point
        dscale = sum(abs(float(c)) for c in derive_coeffs(coeffs)) \
            * max(1.0, abs(z)) ** (degree - 1)
        assert cert.derivative_residual < deriv_tol * dscale
        assert cert.fiber_distance > value_tol * max(1.0, abs(z))


# -- the exact-arithmetic kernels before their fast paths ---------------------
# (validating Poly constructors, sums seeded with a zero Scalar, products
# taken even by a unit, and wedge coordinates through per-entry closures;
# the library's former code, kept as oracles for the kernels that replaced
# it)

_ZERO = Scalar.from_fraction(0)


def mono_mul_by_dict(m1, m2):
    """Product of two symbol monomials, through a dict of exponents."""
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for name, e in m2:
        d[name] = d.get(name, 0) + e
    return tuple(sorted((k, v) for k, v in d.items() if v))


def sp_mul_by_loop(p, q):
    """Product of two int polynomials in symbols, every pair of terms."""
    r = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_mul_by_dict(m1, m2)
            s = r.get(m, 0) + c1 * c2
            if s:
                r[m] = s
            else:
                r.pop(m, None)
    return r


def scalar_mul_by_loop(x: Scalar, y: Scalar) -> Scalar:
    """``Scalar.__mul__`` through :func:`sp_mul_by_loop`, a unit factor
    too."""
    if x.den == y.den == {(): 1}:
        return Scalar(sp_mul_by_loop(x.num, y.num))
    return Scalar(sp_mul_by_loop(x.num, y.num), sp_mul_by_loop(x.den, y.den))


def scalar_pow_by_products(x: Scalar, n: int) -> Scalar:
    """``x ** n``, n >= 0, by square and multiply over Scalar products,
    starting from 1."""
    out, base = Scalar.from_fraction(1), x
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        base = base * base if n else base
    return out


def _accumulate(terms, e, c):
    s = terms.get(e, _ZERO) + c
    if s.is_zero():
        terms.pop(e, None)
    else:
        terms[e] = s


def poly_add_validating(p: Poly, q: Poly) -> Poly:
    terms = dict(p.terms)
    for e, c in q.terms.items():
        _accumulate(terms, e, c)
    return Poly(p.vars, terms)


def poly_neg_validating(p: Poly) -> Poly:
    return Poly(p.vars, {e: -c for e, c in p.terms.items()})


def poly_sub_validating(p: Poly, q: Poly) -> Poly:
    return poly_add_validating(p, poly_neg_validating(q))


def poly_mul_validating(p: Poly, q: Poly) -> Poly:
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            _accumulate(terms, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
    return Poly(p.vars, terms)


def poly_pow_validating(p: Poly, n: int) -> Poly:
    if len(p.terms) == 1:
        (e, c), = p.terms.items()
        return Poly(p.vars, {tuple(x * n for x in e): c ** n})
    out = Poly.const(p.vars, 1)
    base = p
    while n:
        if n & 1:
            out = poly_mul_validating(out, base)
        n >>= 1
        base = poly_mul_validating(base, base) if n else base
    return out


def poly_diff_validating(p: Poly, name: str) -> Poly:
    i = p.vars.index(name)
    terms = {}
    for e, c in p.terms.items():
        if e[i]:
            ne = list(e)
            ne[i] -= 1
            terms[tuple(ne)] = c * e[i]
    return Poly(p.vars, terms)


def poly_coeff_of_validating(p: Poly, name: str, k: int) -> Poly:
    i = p.vars.index(name)
    rest = tuple(v for v in p.vars if v != name)
    return Poly(rest, {tuple(x for j, x in enumerate(e) if j != i): c
                       for e, c in p.terms.items() if e[i] == k})


def poly_compose_validating(p: Poly, values) -> Poly:
    """``Poly.compose`` through the validating operations above."""
    target = next(v.vars for v in values if isinstance(v, Poly))
    polys = [v if isinstance(v, Poly) else Poly.const(target, v) for v in values]
    powers = []
    for i, q in enumerate(polys):
        pw = [Poly.const(target, 1)]
        for _ in range(max((e[i] for e in p.terms), default=0)):
            pw.append(poly_mul_validating(pw[-1], q))
        powers.append(pw)
    out = Poly(target)
    for e, c in p.terms.items():
        term = Poly.const(target, c)
        for i, exp in enumerate(e):
            if exp:
                term = poly_mul_validating(term, powers[i][exp])
        out = poly_add_validating(out, term)
    return out


def coeffs_in_dividing(x: Scalar, name: str) -> list[Scalar]:
    """``Scalar.coeffs_in`` dividing every coefficient by the denominator,
    a unit one too."""
    buckets = {}
    for m, c in x.num.items():
        d = dict(m)
        e = d.pop(name, 0)
        rest = tuple(sorted(d.items()))
        bucket = buckets.setdefault(e, {})
        bucket[rest] = bucket.get(rest, 0) + c
    den = Scalar(dict(x.den))
    return [Scalar(buckets.get(k, {})) / den for k in range(max(buckets, default=0) + 1)]


def wedge3_by_closures(v, omega, dim):
    """``wedge3`` testing each entry for a zero Scalar where it is used."""
    def om(i, j):
        return omega.get((i, j), _ZERO)

    def vanishes(x):
        return isinstance(x, Scalar) and not x.num

    out = {}
    for i, j, k in itertools.combinations(range(1, dim + 1), 3):
        prods = [x * (-y if neg else y)
                 for x, y, neg in ((v[i - 1], om(j, k), False), (v[j - 1], om(i, k), True),
                                   (v[k - 1], om(i, j), False))
                 if not (vanishes(x) or vanishes(y))]
        out[(i, j, k)] = sum(prods[1:], prods[0]) if prods else v[i - 1] * om(j, k)
    return out


# -- the Whitney sweep's inputs through general polynomial work --------------
# (the derivative, the Jacobian rows, their products and the constant
# coefficient read through ``Poly.coeff_of``; the library's former code,
# kept as oracles for the term-pair minors and the direct reads that
# replaced it)

def poly_diff(p: Poly, name: str) -> Poly:
    """The derivative of ``p`` in the variable ``name``."""
    i = p.vars.index(name)
    terms = {}
    for e, c in p.terms.items():
        if e[i] == 0:
            continue
        ne = list(e)
        ne[i] -= 1
        terms[tuple(ne)] = c * e[i]
    return Poly._of(p.vars, terms)


def jacobian(family: Parametrization) -> list[tuple[Poly, Poly]]:
    """Rows (d/da, d/dt) of each entry."""
    return [(poly_diff(e, "a"), poly_diff(e, "t")) for e in family.entries]


def plucker_minors_by_jacobian(family: Parametrization) -> dict[tuple[int, int], Poly]:
    """2x2 minors of :func:`jacobian`, each row pair multiplied out."""
    rows = jacobian(family)
    n = len(rows)
    return {(i + 1, j + 1): rows[i][0] * rows[j][1] - rows[j][0] * rows[i][1]
            for i in range(n) for j in range(i + 1, n)}


def constant_value(p: Poly) -> Scalar:
    """The constant coefficient (the whole value for a constant poly)."""
    return p.terms.get((0,) * len(p.vars), _ZERO)


# -- the strong check's series work before it skipped what it knows ----------
# (compose with s through the power loop, every coefficient divided, a unit
# divisor too, and every series computed to the full truncation order;
# the library's former code, kept as oracles for the shortcuts)

def scalar_div_general(x: Scalar, y: Scalar) -> Scalar:
    """``x / y`` through the general path, a unit divisor too."""
    if y.is_zero():
        raise ZeroDivisionError("division by zero scalar")
    return Scalar(_sp_mul(x.num, y.den), _sp_mul(x.den, y.num))


def series_compose_by_loop(f: SeriesT, inner: SeriesT) -> SeriesT:
    """``f(inner)`` summed over the powers of ``inner``, inner = s too."""
    n = min(f.order, inner.order)
    if n and not inner.coeffs[0].is_zero():
        raise ValueError("composition needs inner valuation >= 1")
    out = [f.coeffs[0]] + [_ZERO] * (n - 1) if n else []
    right = inner._terms(n)
    gk = [(0, Scalar.from_fraction(1))]
    last = next((k for k in range(n - 1, 0, -1) if f.coeffs[k].num), 0)
    for k in range(1, last + 1):
        gk = _mul_series_terms(gk, right, n)
        if not gk:
            break
        c = f.coeffs[k]
        if c.num:
            for j, g in gk:
                out[j] = out[j] + g * c
    return SeriesT(tuple(out), n)


def support_scan_full_order(x: Poly, others: list[Poly], m: int, order: int,
                            floor_gcd: int) -> tuple[list[int], int]:
    """``projection._support_scan`` computing every series to ``order``,
    dividing zeros, reparametrizing by :func:`reversion_by_root` and
    composing by :func:`series_compose_by_loop`."""
    xm = x.terms[(m,)]
    u_coeffs = [scalar_div_general(c, xm) for c in SeriesT.from_poly(x, m + order).coeffs[m:]]
    w = reversion_by_root(series_from_coeffs(u_coeffs, order), m)
    t_of_s = series_from_coeffs([0] + list(w.coeffs), order)
    ys = [series_compose_by_loop(SeriesT.from_poly(y, order), t_of_s) for y in others]
    d = m
    betas: list[int] = []
    for j in range(1, order):
        if d == floor_gcd or d == 1:
            break
        if j % d and any(not y.coeffs[j].is_zero() for y in ys):
            betas.append(j)
            d = gcd(d, j)
    return betas, d


# -- the reparametrization before Lagrange inversion ---------------------------
# (series sums, products and inverses, the binomial m-th root and the
# Newton reversion: the library's former ``SeriesT`` methods and
# ``series_reversion``, kept as oracles for the one recurrence that
# replaced them)

def series_from_coeffs(coeffs, order: int | None = None) -> SeriesT:
    """A series from ints, Fractions or Scalars, padded or cut to ``order``."""
    cs = [Scalar._coerce(c) for c in coeffs]
    if order is None:
        order = len(cs)
    return SeriesT(tuple((cs + [_ZERO] * order)[:order]), order)


def series_valuation(f: SeriesT) -> float:
    return next((k for k, c in enumerate(f.coeffs) if c.num), INFINITY)


def series_add(f: SeriesT, g: SeriesT) -> SeriesT:
    n = min(f.order, g.order)
    return SeriesT(tuple([f.coeffs[k] + g.coeffs[k] for k in range(n)]), n)


def series_sub(f: SeriesT, g: SeriesT) -> SeriesT:
    n = min(f.order, g.order)
    return SeriesT(tuple([f.coeffs[k] - g.coeffs[k] for k in range(n)]), n)


def series_mul(f: SeriesT, g) -> SeriesT:
    """f*g for a series or a scalar g, summed over nonzero terms."""
    if not isinstance(g, SeriesT):
        c = Scalar._coerce(g)
        return SeriesT(tuple([x * c for x in f.coeffs]), f.order)
    n = min(f.order, g.order)
    out = [_ZERO] * n
    for k, c in _mul_series_terms(f._terms(n), g._terms(n), n):
        out[k] = c
    return SeriesT(tuple(out), n)


def series_inverse(f: SeriesT) -> SeriesT:
    """1/f by the recurrence over f's nonzero terms; f(0) != 0."""
    if f.order == 0 or f.coeffs[0].is_zero():
        raise ValueError("series inverse needs a nonzero constant term")
    a0 = f.coeffs[0]
    support = f._terms(f.order)[1:]
    out = [Scalar.from_fraction(1) / a0] + [_ZERO] * (f.order - 1)
    for k in range(1, f.order):
        acc = _ZERO
        for i, ai in support:
            if i > k:
                break
            acc = acc + ai * out[k - i]
        out[k] = -acc / a0
    return SeriesT(tuple(out), f.order)


def binomial_root(u: SeriesT, m: int) -> SeriesT:
    """u^(1/m) for u = 1 + z, z of positive valuation, summed term by term
    from the binomial series, with no shortcut for z = 0."""
    n = u.order
    z = series_sub(u, series_from_coeffs([1], n))
    out = series_from_coeffs([1], n)
    zk = series_from_coeffs([1], n)
    binom = Fraction(1)
    for k in range(1, n):
        binom = binom * (Fraction(1, m) - (k - 1)) / k
        zk = series_mul(zk, z)
        if series_valuation(zk) >= n:
            break
        out = series_add(out, series_mul(zk, binom))
    return out


def newton_reversion(v: SeriesT) -> SeriesT:
    """w with t(s) = s*w(s) inverting s(t) = t*v(t), v(0) = 1, by Newton's
    iteration at doubling precision, composing by
    :func:`series_compose_by_loop`; s(t) and s'(t) are built first, for a
    unit series too."""
    n = v.order
    if n == 0 or not (v.coeffs[0] == 1):
        raise ValueError("reversion needs unit constant term")
    s_of_t = series_from_coeffs([0] + list(v.coeffs[: n - 1]), n)
    ds = SeriesT(tuple([s_of_t.coeffs[k + 1] * (k + 1) for k in range(n - 1)] + [_ZERO]), n)
    t = series_from_coeffs([0, 1], n)
    correct = 2 if any(v.coeffs[1:]) else n
    while correct < n:
        k = min(n, 2 * correct)
        t = series_from_coeffs(t.coeffs, k)
        err = series_sub(series_compose_by_loop(s_of_t, t), series_from_coeffs([0, 1], k))
        t = series_sub(t, series_mul(err, series_inverse(series_compose_by_loop(ds, t))))
        correct = k
    return SeriesT(tuple(t.coeffs[1:]), n - 1)


def reversion_by_root(u: SeriesT, m: int) -> SeriesT:
    """``series_reversion(u, m)`` as the root, then Newton's reversion."""
    return newton_reversion(binomial_root(u, m))


def support_scan_by_root(x: Poly, others: list[Poly], m: int, order: int,
                         floor_gcd: int) -> tuple[list[int], int]:
    """``projection._support_scan`` at doubling precision, reparametrizing
    by :func:`reversion_by_root`."""
    xm = x.terms[(m,)]
    x_coeffs = SeriesT.from_poly(x, m + order).coeffs[m:]
    k = min(order, 2 * m)
    while True:
        u = SeriesT(tuple([c / xm if c.num else c for c in x_coeffs[:k]]), k)
        w = reversion_by_root(u, m)
        t_of_s = SeriesT((_ZERO,) + w.coeffs, k)
        ys = [SeriesT.from_poly(y, k).compose(t_of_s) for y in others]
        d = m
        betas: list[int] = []
        for j in range(1, k):
            if d == floor_gcd or d == 1:
                break
            if j % d and any(y.coeffs[j].num for y in ys):
                betas.append(j)
                d = gcd(d, j)
        if d == floor_gcd or d == 1 or k == order:
            return betas, d
        k = min(order, 2 * k)


# -- the exact searches before each ran once -----------------------------------
# (every rational root candidate tested by Horner evaluation in Fractions
# and each root evaluated again to be divided out, and the strong check's
# scan restarted from 2m at twice the first truncation; the library's
# former code, kept as oracles for the one integer pass and the one
# precision loop that replaced it)

def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _eval_poly(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_roots_by_fractions(coeffs: list[Fraction]) -> list[Fraction]:
    """Every rational root, once, of a rational polynomial with nonzero
    constant term: each candidate p/q evaluated in Fractions."""
    lcm = 1
    for c in coeffs:
        lcm = _lcm(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    roots = []
    for p in _divisors(abs(ints[0])):
        for q in _divisors(abs(ints[-1])):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and _eval_poly(ints, cand) == 0:
                    roots.append(cand)
    return roots


def extract_roots_by_fractions(p: list[Scalar], cname: str) -> tuple[list[Scalar], str | None]:
    """``limits._extract_roots`` finding the roots by
    :func:`rational_roots_by_fractions`, then dividing each out in
    Fractions while it evaluates to zero."""
    p = dense_trim(list(p))
    p = p[next((k for k, c in enumerate(p) if not c.is_zero()), len(p)):]
    if len(p) <= 1:
        return [], None
    if len(p) == 2:
        return [-p[0] / p[1]], None
    if not all(c.is_rational() for c in p):
        return [], _render_cpoly(p, cname)
    fr = [c.as_fraction() for c in p]
    roots: list[Fraction] = []
    for r in rational_roots_by_fractions(fr):
        while len(fr) > 1 and _eval_poly(fr, r) == 0:
            fr = dense_divmod(fr, [-r, 1])[0]
            if r not in roots:
                roots.append(r)
    scalars = [Scalar.from_fraction(r) for r in roots]
    if len(fr) > 1:
        return scalars, _render_cpoly([Scalar.from_fraction(x) for x in fr], cname)
    return scalars, None


def char_exponents_two_scans(*coords: Poly, scan=_support_scan) -> CharSequence:
    """``projection.char_exponents`` scanning to the first truncation, then,
    when that does not confirm, scanning again from 2m to twice it, by
    ``scan`` (``projection._support_scan`` by default)."""
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
    floor_gcd = gcd(*(e for c in coords for (e,) in c.terms))
    first = 2 * max(c.max_deg("t") for c in coords) + 1
    for order in (first, 2 * first):
        betas, d = scan(x, others, m, order, floor_gcd)
        if d == floor_gcd:
            return CharSequence(m, tuple(betas), d, True, order)
    return CharSequence(m, tuple(betas), d, False, order)


# -- the strong check's scan before it read one-term x off the supports -----
# (every transversal coordinate reparametrized through series, the unit
# reversion and the compose by s included; the library's former code, kept
# as the oracle for the support walk that replaced it)

def support_scan_by_series(x: Poly, others: list[Poly], m: int, order: int,
                           floor_gcd: int) -> tuple[list[int], int]:
    """``projection._support_scan`` building series, reversion and compose
    for every x, a one-term x too, at doubling precision."""
    xm = x.terms[(m,)]
    x_coeffs = SeriesT.from_poly(x, m + order).coeffs[m:]
    k = min(order, 2 * m)
    while True:
        u = SeriesT(tuple([c / xm if c.num else c for c in x_coeffs[:k]]), k)
        w = series_reversion(u, m)
        t_of_s = SeriesT((_ZERO,) + w.coeffs, k)
        ys = [SeriesT.from_poly(y, k).compose(t_of_s) for y in others]
        d = m
        betas: list[int] = []
        for j in range(1, k):
            if d == floor_gcd:
                break
            if j % d and any(y.coeffs[j].num for y in ys):
                betas.append(j)
                d = gcd(d, j)
        if d == floor_gcd or k == order:
            return betas, d
        k = min(order, 2 * k)


# -- the parser before it parsed into terms ------------------------------------
# (every number and variable a Poly of Scalars, combined by the Poly
# operators; the library's former ``_Parser``, kept as the oracle for the
# parser that builds int/Fraction term dicts and makes its Scalars once)

def _poly_extent(p: Poly) -> tuple[int, int]:
    deg = bits = 0
    for e, c in p.terms.items():
        deg = max(deg, sum(e))
        for part in (c.num, c.den):
            for n in part.values():
                bits = max(bits, n.bit_length())
    return deg, bits


class PolyParser:
    """Recursive descent building a Poly at every rule."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.pos = 0
        self.variables = variables

    def error(self, msg: str) -> NoReturn:
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def digits(self):
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1

    def number(self, start: int) -> int:
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            self.pos = start
            self.error("number too long")

    def read_nat(self) -> int:
        if self.peek() == "-":
            self.error("negative exponent")
        start = self.pos
        self.digits()
        if self.pos == start:
            self.error("expected a natural number")
        return self.number(start)

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        digits = self.pos
        self.digits()
        if self.pos == digits:
            self.pos = start
            self.error("expected an integer")
        return self.number(start)

    def check_caps(self, at: int, op: str, degree: int, bits: int, products: int):
        for value, cap, what in ((degree, _MAX_DEGREE, "degree"),
                                 (bits, _MAX_BITS, "coefficient bits"),
                                 (products, _MAX_TERM_PRODUCTS, "term products")):
            if value > cap:
                self.pos = at
                self.error(f"{op} exceeds the cap of {cap} {what}")

    def base(self) -> tuple[Poly, int, int]:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return (inner, *_poly_extent(inner))
        if ch.isdigit() or ch == "-":
            n = self.read_int()
            if self.peek() == "/":
                self.pos += 1
                d = self.read_nat()
                if d == 0:
                    self.error("zero denominator")
                return (Poly.const(self.variables, Fraction(n, d)), 0,
                        max(n.bit_length(), d.bit_length()))
            return Poly.const(self.variables, n), 0, n.bit_length()
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                                 or self.text[self.pos] == "_"):
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in self.variables:
                self.pos = start
                self.error(f"unknown variable {name!r}")
            return Poly.var(self.variables, name), 1, 1
        self.error("expected a number, variable or '('")

    def factor(self) -> tuple[Poly, int, int]:
        b, deg, bits = self.base()
        if self.peek() != "^":
            return b, deg, bits
        at = self.pos
        self.pos += 1
        n = self.read_nat()
        k = len(b.terms)
        products = (_power_products(k, n) * _words(bits * n) ** 2
                    if k > 1 and deg * n <= _MAX_DEGREE else 0)
        self.check_caps(at, "power", deg * n, bits * n, products)
        return b ** n, deg * n, bits * n

    def term(self) -> Poly:
        f, deg, bits = self.factor()
        while self.peek() == "*":
            at = self.pos
            self.pos += 1
            g, dg, bg = self.factor()
            self.check_caps(at, "product", deg + dg, bits + bg,
                            len(f.terms) * len(g.terms) * _words(bits) * _words(bg))
            f, deg, bits = f * g, deg + dg, bits + bg
        return f

    def expr(self) -> Poly:
        acc = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                acc = acc + self.term()
            elif ch == "-":
                self.pos += 1
                acc = acc - self.term()
            else:
                return acc


def parse_poly_by_polys(text: str, variables) -> Poly:
    parser = PolyParser(text, tuple(variables))
    out = parser.expr()
    if parser.peek():
        parser.error("trailing input")
    return out
