"""The exact-arithmetic kernels against the code their fast paths replaced.

``Poly`` results are built without validation, sums start from the first
term instead of a zero Scalar, a product by a unit is the other factor
(or its copy), and ``wedge3`` reads its zero flags once.  Each must give what the former
kernel (kept in ``conftest``) gives: equal values, the same printed text,
the same ``terms`` key order and the same ``num``/``den`` dict order in
every coefficient, with no zero coefficient and no exponent tuple of the
wrong length.
"""

import json
import random
from fractions import Fraction

import pytest

from equising import (
    INFINITY,
    Arc,
    Parametrization,
    Poly,
    Scalar,
    SeriesT,
    equivalence_crosscheck,
    family_from_strings,
    load_family,
    series_reversion,
    wedge3,
)
from equising.algebra import _D1, _mono_mul, _sp_mul, substitute_arc, symbol_run
from equising.limits import arc_leading_vector, secant_vector
from equising.modifications import (
    NonPolynomialChartError,
    NoUnitChartError,
    blowup_singular_locus,
    nash_modification,
)
from conftest import (
    coeffs_in_dividing,
    constant_value,
    corpus_path,
    mono_mul_by_dict,
    poly_add_validating,
    poly_coeff_of_validating,
    poly_compose_validating,
    poly_diff_validating,
    poly_mul_validating,
    poly_neg_validating,
    poly_pow_validating,
    poly_sub_validating,
    plucker_minors_by_jacobian,
    random_binomial_family,
    random_monomial_family,
    scalar_div_general,
    scalar_mul_by_loop,
    newton_reversion,
    series_compose_by_loop,
    series_from_coeffs,
    sp_mul_by_loop,
    wedge3_by_closures,
)

AT = ("a", "t")
SYMBOLS = ("g1", "g2")


def random_sym_poly(rng, terms=3):
    """A Scalar with a unit denominator: an int polynomial in g1, g2."""
    out = Scalar.from_fraction(0)
    for _ in range(rng.randint(1, terms)):
        term = Scalar.from_fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
        for name in SYMBOLS:
            term = term * Scalar.symbol(name) ** rng.randint(0, 2)
        out = out + term
    return out


def random_scalar(rng):
    """A rational, a polynomial in the symbols, or a ratio of two; zero
    now and then."""
    kind = rng.random()
    if kind < 0.1:
        return Scalar.from_fraction(0)
    if kind < 0.4:
        return Scalar.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    num = random_sym_poly(rng)
    if kind < 0.7:
        return num
    den = random_sym_poly(rng)
    return num / den if den else num


def random_poly(rng, variables=AT, terms=4, max_exp=3):
    return Poly(variables, {tuple(rng.randint(0, max_exp) for _ in variables): random_scalar(rng)
                            for _ in range(rng.randint(0, terms))})


def layout(x: Scalar):
    return list(x.num.items()), list(x.den.items())


def assert_same_scalar(got: Scalar, want: Scalar):
    assert isinstance(got, Scalar)
    assert got == want
    assert str(got) == str(want)
    assert layout(got) == layout(want)


def assert_same_poly(got: Poly, want: Poly):
    assert got.vars == want.vars
    assert got == want
    assert str(got) == str(want)
    assert list(got.terms) == list(want.terms)
    for e, c in got.terms.items():
        assert len(e) == len(got.vars)
        assert isinstance(c, Scalar) and c.num, f"zero coefficient at {e}"
        assert layout(c) == layout(want.terms[e])


class TestPolyArithmetic:
    def test_ring_operations(self):
        rng = random.Random(1801)
        for _ in range(300):
            p, q = random_poly(rng), random_poly(rng)
            assert_same_poly(p + q, poly_add_validating(p, q))
            assert_same_poly(p - q, poly_sub_validating(p, q))
            assert_same_poly(-p, poly_neg_validating(p))
            assert_same_poly(p * q, poly_mul_validating(p, q))
            # p - p and p + (-p) cancel every term
            assert_same_poly(p - p, poly_sub_validating(p, p))
            assert (p - p).terms == {}

    def test_scalar_operands(self):
        rng = random.Random(1802)
        for _ in range(200):
            p = random_poly(rng)
            for c in (random_scalar(rng), rng.randint(-3, 3), Fraction(rng.randint(-5, 5), 3)):
                const = Poly.const(AT, c)
                assert_same_poly(p + c, poly_add_validating(p, const))
                assert_same_poly(c + p, poly_add_validating(p, const))
                assert_same_poly(p - c, poly_sub_validating(p, const))
                assert_same_poly(c - p, poly_neg_validating(poly_sub_validating(p, const)))
                want = Poly(AT, {e: co * Scalar._coerce(c) for e, co in p.terms.items()})
                assert_same_poly(p * c, want)
                assert_same_poly(c * p, want)

    def test_powers(self):
        rng = random.Random(1803)
        for _ in range(150):
            p = random_poly(rng, terms=rng.choice((1, 1, 2, 3)))
            for n in range(5):
                assert_same_poly(p ** n, poly_pow_validating(p, n))
        for text in ("t", "a", "1"):
            base = Poly.const(AT, 1) if text == "1" else Poly.var(AT, text)
            assert_same_poly(base ** 7, poly_pow_validating(base, 7))

    def test_diff_and_coeff_of(self):
        rng = random.Random(1804)
        for _ in range(200):
            p = random_poly(rng)
            for name in AT:
                assert_same_poly(p.diff(name), poly_diff_validating(p, name))
                for k in range(4):
                    assert_same_poly(p.coeff_of(name, k), poly_coeff_of_validating(p, name, k))

    def test_compose(self):
        rng = random.Random(1805)
        s = ("s",)
        for _ in range(100):
            p = random_poly(rng)
            values = [random_poly(rng, s, terms=2), random_poly(rng, s, terms=2)]
            if rng.random() < 0.3:
                values[0] = random_scalar(rng)
            assert_same_poly(p.compose(values), poly_compose_validating(p, values))

    def test_three_variables(self):
        rng = random.Random(1806)
        xyz = ("x", "y", "z")
        for _ in range(100):
            p, q = random_poly(rng, xyz), random_poly(rng, xyz)
            assert_same_poly(p * q - p, poly_sub_validating(poly_mul_validating(p, q), p))
            assert_same_poly(p.coeff_of("y", 1), poly_coeff_of_validating(p, "y", 1))


class TestScalarKernels:
    def test_sp_mul_matches_the_loop(self):
        rng = random.Random(1807)
        units = [_D1, {(): 1}]
        for _ in range(300):
            p = random_scalar(rng).num
            q = rng.choice(units) if rng.random() < 0.3 else random_scalar(rng).num
            for a, b in ((p, q), (q, p)):
                got = _sp_mul(a, b)
                assert list(got.items()) == list(sp_mul_by_loop(a, b).items())
                assert all(got.values())
                # a new dict, never an operand, so no result aliases _D1
                assert got is not a and got is not b

    def test_scalar_products_match_the_loop(self):
        rng = random.Random(1813)
        one = Scalar.from_fraction(1)
        for _ in range(300):
            x = random_scalar(rng)
            y = one if rng.random() < 0.3 else random_scalar(rng)
            for a, b in ((x, y), (y, x)):
                assert_same_scalar(a * b, scalar_mul_by_loop(a, b))
            assert_same_scalar(x * 1, scalar_mul_by_loop(x, one))
            assert_same_scalar(Fraction(1) * x, scalar_mul_by_loop(one, x))

    def test_mono_mul_matches_the_dict_path(self):
        rng = random.Random(1808)

        def mono():
            names = sorted(rng.sample(SYMBOLS + ("c1",), rng.randint(0, 2)))
            return tuple((n, rng.choice((-2, -1, 1, 2, 3))) for n in names)

        for _ in range(500):
            m1, m2 = mono(), mono()
            assert _mono_mul(m1, m2) == mono_mul_by_dict(m1, m2)
        assert _mono_mul((("c", 2),), (("c", -2),)) == ()

    def test_equal_scalars_hash_alike_when_lead_monomials_cancel(self):
        # the lex-leading monomials of num and den are c^2 and c^2 (or
        # c^2*d and c^2*d), so the hash's monomial ratio must be ()
        c, d = Scalar.symbol("c"), Scalar.symbol("d")
        x = (c ** 2 + 1) / (c ** 2 + 2)
        y = ((c ** 2 + 1) * (d + 1)) / ((c ** 2 + 2) * (d + 1))
        assert x == y and layout(x) != layout(y)
        assert hash(x) == hash(y)
        one = (c ** 2 + 1) / (c ** 2 + 1)
        assert one == 1 and hash(one) == hash(Scalar.from_fraction(1)) == hash(1)

    def test_coeffs_in_matches_division(self):
        rng = random.Random(1809)
        for _ in range(300):
            num = random_sym_poly(rng, terms=4)
            den = random_sym_poly(rng) if rng.random() < 0.5 else Scalar.from_fraction(1)
            if not den:
                continue
            # keep g1 out of the denominator
            den = den.subs("g1", rng.randint(1, 3))
            x = num / den
            got, want = x.coeffs_in("g1"), coeffs_in_dividing(x, "g1")
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same_scalar(g, w)


def series_layout(f: SeriesT):
    return [layout(c) for c in f.coeffs], f.order


def assert_same_series(got: SeriesT, want: SeriesT):
    assert got.order == want.order
    assert all(x == y for x, y in zip(got.coeffs, want.coeffs))
    assert str(got) == str(want)
    assert series_layout(got) == series_layout(want)


def random_series(rng, order, density=0.3, const=None):
    """Coefficients in Q and in Q(g1, g2), zero where a draw misses."""
    cs = [random_scalar(rng) if rng.random() < density else Scalar.from_fraction(0)
          for _ in range(order)]
    if order and const is not None:
        cs[0] = Scalar.from_fraction(const)
    return SeriesT(tuple(cs), order)


class TestSeriesShortcuts:
    """Compose with s, the reversion (a unit series with nothing computed,
    any other by Lagrange inversion) and division by 1 against the code
    they replaced: the same values, text and ``num``/``den`` dict order in
    every coefficient."""

    def test_compose_matches_the_loop(self):
        rng = random.Random(1901)
        one, zero = Scalar.from_fraction(1), Scalar.from_fraction(0)
        for n in range(0, 41):
            for density in (0.15, 0.6):
                f = random_series(rng, n, density)
                # inner orders equal to, below and above the outer one
                for order in (n, max(n - rng.randint(1, 3), 0), n + rng.randint(1, 3)):
                    # a rational or c*g1: powers of a longer symbolic
                    # coefficient grow fast, and those of a ratio without a gcd
                    extra = rng.choice((Scalar.from_fraction(Fraction(rng.randint(1, 9), 2)),
                                        Scalar.symbol("g1") * rng.randint(-5, 5) or one))
                    # s, 2*s, s + s^3, s plus a term at the outer order (past
                    # the truncation) or below it, -s and s^2
                    for shape in ({1: one}, {1: Scalar.from_fraction(2)}, {1: one, 3: one},
                                  {1: one, n: extra}, {1: one, rng.randint(2, 6): extra},
                                  {1: Scalar.from_fraction(-1)}, {2: one}):
                        inner = SeriesT(tuple([shape.get(e, zero) for e in range(order)]), order)
                        assert_same_series(f.compose(inner), series_compose_by_loop(f, inner))
                    if n <= 8:  # a dense symbolic composition grows fast
                        inner = random_series(rng, order, density=0.4, const=0)
                        assert_same_series(f.compose(inner), series_compose_by_loop(f, inner))

    def test_compose_with_s_is_the_outer_series(self):
        rng = random.Random(1902)
        for n in range(2, 41):
            f = random_series(rng, n)
            s = series_from_coeffs([0, 1], n)
            assert f.compose(s) is f
            assert_same_series(f.compose(series_from_coeffs([0, 1], n - 1)),
                               SeriesT(f.coeffs[:n - 1], n - 1))
            with pytest.raises(ValueError):
                f.compose(series_from_coeffs([1, 1], n))

    def test_reversion_matches_the_setup(self):
        rng = random.Random(1903)
        for n in range(0, 41):
            unit = series_from_coeffs([1], n)
            if n == 0:
                for v in (unit, SeriesT((), 0)):
                    with pytest.raises(ValueError):
                        series_reversion(v, 1)
                    with pytest.raises(ValueError):
                        newton_reversion(v)
                continue
            inputs = [unit]
            # non-unit v at odd orders: rational coefficients up to 39,
            # symbolic ones up to 7 (they grow with every Newton step)
            if n >= 2 and n % 2:
                rational = [Scalar.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                            if rng.random() < 0.3 else Scalar.from_fraction(0)
                            for _ in range(n)]
                rational[0] = Scalar.from_fraction(1)
                rational[rng.randrange(1, n)] = Scalar.from_fraction(rng.choice((-3, 2)))
                inputs.append(SeriesT(tuple(rational), n))
                if n <= 8:
                    inputs.append(random_series(rng, n, density=0.4, const=1))
            for v in inputs:
                assert_same_series(series_reversion(v, 1), newton_reversion(v))

    def test_division_by_one_and_minus_one(self):
        rng = random.Random(1904)
        one, minus = Scalar.from_fraction(1), Scalar.from_fraction(-1)
        for _ in range(300):
            x = random_scalar(rng)
            y = random_scalar(rng) or one
            for divisor in (one, minus, y):
                assert_same_scalar(x / divisor, scalar_div_general(x, divisor))
            assert x / one is x
            for divisor in (1, Fraction(1), -1):
                assert_same_scalar(x / divisor, scalar_div_general(x, Scalar._coerce(divisor)))
            with pytest.raises(ZeroDivisionError):
                x / 0

    def test_reversion_agrees_with_sympy(self):
        ring_series = pytest.importorskip("sympy.polys.ring_series")
        from sympy import QQ
        from sympy.polys.rings import ring

        R, x, y = ring("x,y", QQ)

        def to_ring(f, var):
            return sum((QQ(q.numerator, q.denominator) * var ** k
                        for k, q in enumerate(c.as_fraction() for c in f.coeffs)), R.zero)

        rng = random.Random(1905)
        for n in range(2, 41, 5):
            for density in (0.0, 0.2, 0.7):
                cs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < density
                      else 0 for _ in range(n)]
                v = series_from_coeffs([1] + cs[1:], n)
                w = series_reversion(v, 1)
                s_of_t = x * to_ring(series_from_coeffs(v.coeffs, n - 1), x)
                assert y * to_ring(w, y) == ring_series.rs_series_reversion(s_of_t, x, n, y)


class TestWedge:
    def test_matches_closures_on_scalars(self):
        rng = random.Random(1810)
        for _ in range(300):
            dim = rng.randint(3, 5)

            def entry():
                return Scalar.from_fraction(0) if rng.random() < 0.5 else random_scalar(rng)

            v = [entry() for _ in range(dim)]
            om = {(i, j): entry() for i in range(1, dim + 1)
                  for j in range(i + 1, dim + 1) if rng.random() < 0.7}
            got, want = wedge3(v, om, dim), wedge3_by_closures(v, om, dim)
            assert list(got) == list(want)
            for key in got:
                assert_same_scalar(got[key], want[key])

    def test_matches_closures_on_ints_and_polys(self):
        rng = random.Random(1811)
        zero = Scalar.from_fraction(0)
        for _ in range(100):
            dim = rng.randint(3, 4)
            ints = [rng.randint(-2, 2) for _ in range(dim)]
            assert wedge3(ints, {(1, 2): 3, (2, 3): 0}, dim) == \
                wedge3_by_closures(ints, {(1, 2): 3, (2, 3): 0}, dim)
            v = [zero if rng.random() < 0.3 else random_poly(rng, terms=2) for _ in range(dim)]
            om = {(i, j): random_poly(rng, terms=2) for i in range(1, dim + 1)
                  for j in range(i + 1, dim + 1) if rng.random() < 0.6}
            got, want = wedge3(v, om, dim), wedge3_by_closures(v, om, dim)
            assert list(got) == list(want)
            for key in got:
                assert type(got[key]) is type(want[key])
                if isinstance(want[key], Poly):
                    assert_same_poly(got[key], want[key])
                else:
                    assert_same_scalar(got[key], want[key])


def assert_same_minors(got: dict, want: dict):
    """Equal minors: values, text, exponent keys and every coefficient's
    num/den dicts, with no zero coefficient (orders: see TestSweepInputs)."""
    assert list(got) == list(want)
    for key, p in got.items():
        q = want[key]
        assert p.vars == q.vars == AT
        assert p == q and str(p) == str(q), key
        assert set(p.terms) == set(q.terms), key
        for e, c in p.terms.items():
            assert len(e) == 2
            assert isinstance(c, Scalar) and c.num, f"zero coefficient at {e}"
            assert c.num == q.terms[e].num and c.den == q.terms[e].den


class TestSweepInputs:
    """The tangent-plane minors summed over term pairs against the Jacobian
    rows multiplied out, and the vertical regime's direct reads against
    ``Poly.coeff_of``.

    The term-pair sum adds each exponent's contributions pair by pair,
    where the product added da(f_k)*dt(f_l) and then subtracted
    da(f_l)*dt(f_k); on entries of several terms the minors' ``terms`` key
    order, and on generic coefficients a ``num`` dict order, can differ
    from the product's.  Nothing reads those orders: the values, the text,
    the keys and the coefficient dicts are equal, and the sweep reports
    the same bytes with either.
    """

    @staticmethod
    def families(seed: int) -> list[Parametrization]:
        rng = random.Random(seed)
        return ([random_monomial_family(rng) for _ in range(25)]
                + [random_binomial_family(rng) for _ in range(25)])

    def test_minors_match_the_jacobian_product(self):
        for fam in self.families(2001):
            for point in (0, Fraction(1, 2), "generic"):
                moved, _, _ = fam.centered(point)
                assert_same_minors(moved.plucker_minors(), plucker_minors_by_jacobian(moved))

    def test_pairs_of_weight_zero_add_nothing(self):
        # a*t^2 with a^2*t^4 weighs 1*4 - 2*2 = 0: no a^2*t^5 term
        fam = family_from_strings(["a", "a*t^2 + t", "a^2*t^4"])
        minors = fam.plucker_minors()
        assert minors[(2, 3)].terms == {(1, 4): -2}
        assert_same_minors(minors, plucker_minors_by_jacobian(fam))
        # every pair of weight 0: the minor is zero
        fam = family_from_strings(["a", "a*t^2", "a^2*t^4", "t"])
        minors = fam.plucker_minors()
        assert minors[(2, 3)].terms == {}
        assert_same_minors(minors, plucker_minors_by_jacobian(fam))

    def test_contributions_that_cancel(self):
        # t^2 with 3*a*t^2 adds -6*t^3, a*t with 2*t^3 adds 6*t^3
        fam = family_from_strings(["a", "t^2 + a*t", "2*t^3 + 3*a*t^2"])
        minors = fam.plucker_minors()
        assert minors[(2, 3)].terms == {(1, 2): 3}
        assert_same_minors(minors, plucker_minors_by_jacobian(fam))

    def test_corpus_families_and_their_charts(self):
        charts = []
        for name in ("family-345", "family-352", "family-467", "family-589", "tangent-arc"):
            fam = load_family(corpus_path(f"{name}.json"))
            charts.append(fam)
            for modify in (blowup_singular_locus, nash_modification):
                try:
                    result = modify(fam)
                except (NoUnitChartError, NonPolynomialChartError):
                    continue
                charts += [result.total, result.family]
        assert len(charts) > 10
        for fam in charts:
            assert_same_minors(fam.plucker_minors(), plucker_minors_by_jacobian(fam))

    def test_sweep_reports_the_same_bytes(self, monkeypatch):
        families = self.families(2002)[::3]

        def reports():
            with symbol_run():
                return [json.dumps(equivalence_crosscheck(fam, point).to_json())
                        for fam in families for point in (0, Fraction(1, 2), "generic")]

        fast = reports()
        monkeypatch.setattr(Parametrization, "plucker_minors", plucker_minors_by_jacobian)
        assert reports() == fast

    def test_a_minor_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        a, t = sympy.symbols("a t")

        def to_sympy(p: Poly):
            return sympy.sympify(p.grammar_str().replace("^", "**"), locals={"a": a, "t": t})

        fam = family_from_strings(["a", "t^2 - 3*a*t + a^2*t^3", "2/3*t^3 + a*t^2 - 5*a^3*t"])
        moved, _, _ = fam.centered(Fraction(1, 2))
        f2, f3 = (to_sympy(e) for e in moved.entries[1:])
        det = sympy.Matrix([[sympy.diff(f2, a), sympy.diff(f2, t)],
                            [sympy.diff(f3, a), sympy.diff(f3, t)]]).det()
        assert sympy.expand(det - to_sympy(moved.plucker_minors()[(2, 3)])) == 0

    def test_vertical_read_matches_coeff_of(self):
        arcs = [Arc(), Arc(((Fraction(1, 2), None),)),
                Arc(((Fraction(2), Scalar.from_fraction(3)),))]
        for fam in self.families(2003):
            for point in (0, "generic"):
                moved, _, _ = fam.centered(point)
                polys = secant_vector(moved) + list(moved.plucker_minors().values())
                for p in polys:
                    assert_same_poly(substitute_arc(p, Arc()), Poly(("s",), {
                        (j,): c for (i, j), c in p.terms.items() if not i}))
                for arc in arcs:
                    subs = [substitute_arc(p, arc) for p in polys]
                    nu = min(p.min_deg("s") for p in subs)
                    led = arc_leading_vector(polys, arc)
                    if nu == INFINITY:
                        assert led is None
                        continue
                    assert led[0] == nu
                    want = [constant_value(p.coeff_of("s", int(nu))) for p in subs]
                    for got, expected in zip(led[1], want, strict=True):
                        assert_same_scalar(got, expected)


class TestAgainstSympy:
    """The same operations in an independent computer algebra system."""

    def test_ring_operations_and_calculus(self):
        sympy = pytest.importorskip("sympy")
        a, t = sympy.symbols("a t")

        def sp_to_sympy(sp):
            return sum((c * sympy.Mul(*[sympy.Symbol(n) ** e for n, e in m])
                        for m, c in sp.items()), sympy.Integer(0))

        def to_sympy(x):
            if isinstance(x, Poly):
                return sum((to_sympy(c) * a ** e[0] * t ** e[1] for e, c in x.terms.items()),
                           sympy.Integer(0))
            return sp_to_sympy(x.num) / sp_to_sympy(x.den)

        def same(p, expr):
            return sympy.expand(sympy.numer(sympy.together(to_sympy(p) - expr))) == 0

        rng = random.Random(1812)
        for _ in range(40):
            p, q = random_poly(rng, terms=3, max_exp=2), random_poly(rng, terms=3, max_exp=2)
            sp, sq = to_sympy(p), to_sympy(q)
            assert same(p + q, sp + sq)
            assert same(p - q, sp - sq)
            assert same(p * q, sp * sq)
            assert same(p ** 2, sp ** 2)
            assert same(p.diff("t"), sympy.diff(sp, t))
            swapped = p.compose([Poly.var(AT, "t"), Poly.var(AT, "a")])
            assert same(swapped, sp.subs({a: t, t: a}, simultaneous=True))
