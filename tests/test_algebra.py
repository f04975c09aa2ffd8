"""Exact arithmetic layer: scalars, polynomials, arcs, series, wedges."""

import gc
import json
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from equising import (
    Arc,
    INFINITY,
    ParseError,
    Poly,
    Scalar,
    SeriesT,
    parse_poly,
    series_reversion,
    t_order,
    wedge3,
)
from equising.algebra import (
    _D1,
    _mono_key,
    _sp_add,
    _sp_mul,
    _sp_neg,
    dense_divmod,
    dense_gcd,
    fresh_symbol,
    substitute_arc,
    symbol_run,
)
from conftest import (
    CORPUS,
    binomial_root,
    constant_value,
    eval_scalar,
    power_by_multiplication,
    reversion_by_root,
    scalar_symbols,
    series_add,
    series_from_coeffs,
    series_inverse,
    series_mul,
    series_sub,
    series_valuation,
)

AT = ("a", "t")


def P(text, variables=AT):
    return parse_poly(text, variables)


class TestScalar:
    def test_rational_arithmetic_mirrors_fraction(self):
        rng = random.Random(7)
        for _ in range(50):
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            y = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            sx, sy = Scalar.from_fraction(x), Scalar.from_fraction(y)
            assert (sx + sy).as_fraction() == x + y
            assert (sx - sy).as_fraction() == x - y
            assert (sx * sy).as_fraction() == x * y
            if y:
                assert (sx / sy).as_fraction() == x / y

    def test_equality_cross_multiplies(self):
        u = Scalar.symbol("u")
        assert (u / 2) * 2 == u
        assert u * u / u == u
        assert not (u == u + 1)

    def test_zero_and_rational_predicates(self):
        u = Scalar.symbol("u")
        assert (u - u).is_zero()
        assert Scalar.from_fraction(Fraction(3, 4)).is_rational()
        assert not u.is_rational()
        with pytest.raises(ValueError):
            u.as_fraction()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Scalar.from_fraction(1) / (Scalar.symbol("u") - Scalar.symbol("u"))

    def test_subs(self):
        u, v = Scalar.symbol("u"), Scalar.symbol("v")
        expr = (u * u - v) / (u + 1)
        assert expr.subs("u", 2).subs("v", 1).as_fraction() == 1
        assert scalar_symbols(expr.subs("u", Scalar.symbol("w"))) == {"v", "w"}

    def test_coeffs_in(self):
        u, v = Scalar.symbol("u"), Scalar.symbol("v")
        coeffs = (u * u * 3 - u * v + 2).coeffs_in("u")
        assert [c.is_zero() for c in coeffs] == [False, False, False]
        assert coeffs[0].as_fraction() == 2
        assert coeffs[1] == -v
        assert coeffs[2].as_fraction() == 3

    def test_pow(self):
        u = Scalar.symbol("u")
        assert (u + 1) ** 2 == u * u + 2 * u + 1
        assert u ** 0 == Scalar.from_fraction(1)
        assert (Scalar.from_fraction(2) ** -2).as_fraction() == Fraction(1, 4)

    def test_random_expressions_store_coprime_ints(self):
        """Every Scalar that arithmetic, ``subs`` and ``coeffs_in`` build
        stores jointly coprime int coefficients with a positive leading
        denominator coefficient, and equals the same expression in sympy.
        Rationals round-trip through ``from_fraction``/``as_fraction``."""
        try:
            import sympy
        except ImportError:
            sympy = None

        def check(s: Scalar, expr):
            coeffs = [*s.num.values(), *s.den.values()]
            assert all(type(c) is int for c in coeffs), (s, coeffs)
            assert gcd(*coeffs) == 1, s
            assert s.den[max(s.den, key=_mono_key)] > 0, s
            if sympy is not None:
                def to_sympy(p):
                    return sum((c * sympy.Mul(*(sympy.Symbol(n) ** e for n, e in m))
                                for m, c in p.items()), sympy.Integer(0))
                assert sympy.cancel(to_sympy(s.num) / to_sympy(s.den) - expr) == 0, s

        for q in (Fraction(0), Fraction(-7, 3), Fraction(12, -8), -5):
            assert Scalar.from_fraction(q).as_fraction() == q
        rng = random.Random(2718)
        for _ in range(40):
            names = ["u", "v", "w"][:rng.randint(1, 3)]
            pool = []
            for n in names:
                pool.append((Scalar.symbol(n), sympy.Symbol(n) if sympy else None))
            for _ in range(2):
                q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                assert Scalar.from_fraction(q).as_fraction() == q
                pool.append((Scalar.from_fraction(q),
                             sympy.Rational(q.numerator, q.denominator) if sympy else None))
            for s, expr in pool:
                check(s, expr)
            for _ in range(6):
                (x, ex), (y, ey) = rng.choice(pool), rng.choice(pool)
                op = rng.choice(["+", "-", "*", "/", "**", "subs", "coeffs_in"])
                if op == "+":
                    z, ez = x + y, sympy and ex + ey
                elif op == "-":
                    z, ez = x - y, sympy and ex - ey
                elif op == "*":
                    z, ez = x * y, sympy and ex * ey
                elif op == "/":
                    if not y:
                        continue
                    z, ez = x / y, sympy and ex / ey
                elif op == "**":
                    k = rng.randint(-2 if x else 0, 3)
                    z, ez = x ** k, sympy and ex ** k
                elif op == "subs":
                    n = rng.choice(names)
                    try:
                        z = x.subs(n, y)
                    except ZeroDivisionError:
                        continue
                    ez = sympy and ex.subs(sympy.Symbol(n), ey)
                else:
                    n = rng.choice(names)
                    if n in {s for m in x.den for s, _ in m}:
                        continue
                    cs = x.coeffs_in(n)
                    k = rng.randrange(len(cs))
                    z = cs[k]
                    if sympy:
                        sym = sympy.Symbol(n)
                        top, bottom = sympy.fraction(sympy.cancel(ex))
                        ez = sympy.Poly(top, sym).coeff_monomial(sym ** k) / bottom
                check(z, ez)
                pool.append((z, ez))

    def test_hash_agrees_with_equality(self):
        """Scalars keep common polynomial factors of num and den, so one
        value has many representations; all of them must hash alike, and
        a rational value must hash like its Fraction."""
        g1, g2 = Scalar.symbol("g1"), Scalar.symbol("g2")
        a = (g1 * g2 + g1) / (g2 + 1)
        assert a == g1 and hash(a) == hash(g1)
        assert len({a, g1}) == 1
        assert hash((g1 + 1) / (g1 + 1)) == hash(1) == hash(Scalar.from_fraction(1))
        assert hash(Scalar.from_fraction(Fraction(-3, 4))) == hash(Fraction(-3, 4))

        rng = random.Random(3141)
        atoms = [g1, g2, Scalar.symbol("u")]

        def rand_scalar():
            s = Scalar.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3)):
                term = Scalar.from_fraction(rng.choice((-2, -1, 1, 3)))
                for _ in range(rng.randint(1, 2)):
                    term = term * rng.choice(atoms)
                s = s + term
            return s

        pairs = 0
        for _ in range(400):
            x, f = rand_scalar(), rand_scalar()
            if rng.random() < 0.5 and not f.is_zero():
                x = x / f
            f = rand_scalar()
            if f.is_zero():
                continue
            y = (x * f) / f
            assert y == x
            assert hash(y) == hash(x), (x, y)
            pairs += 1
        assert pairs > 300

    def test_unit_denominator_fast_path_matches_general_path(self):
        """``+``, ``-``, ``*``, unary ``-`` and ``==`` on operands holding
        the shared unit denominator skip normalization; each must return
        exactly what the general path builds (same items in the same
        order, same text), store the shared dict whenever the denominator
        is 1, and give the same results for an operand whose denominator
        is an equal copy of it."""
        rng = random.Random(1729)
        names = ("g1", "g2", "u")

        def rand_spoly(terms):
            p = {}
            for _ in range(terms):
                m = tuple(sorted((n, rng.randint(1, 2))
                                 for n in rng.sample(names, rng.randint(0, 2))))
                p = _sp_add(p, {m: rng.choice((-6, -3, -2, -1, 1, 2, 3, 4))})
            return p

        def rand_scalar():
            kind = rng.random()
            if kind < 0.1:
                return Scalar.from_fraction(0)
            if kind < 0.2:
                return Scalar.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            if kind < 0.6:
                return Scalar(rand_spoly(rng.randint(1, 3)))
            return Scalar(rand_spoly(rng.randint(1, 3)), rand_spoly(rng.randint(1, 2)) or {(): 5})

        def general(num, den):
            # a fresh denominator dict is never the shared one, so this is
            # the general normalization
            return Scalar(num, dict(den))

        def reference(op, x, y):
            if op == "+":
                return general(_sp_add(_sp_mul(x.num, y.den), _sp_mul(y.num, x.den)),
                               _sp_mul(x.den, y.den))
            if op == "-":
                return general(_sp_add(_sp_mul(x.num, y.den), _sp_mul(_sp_neg(y.num), x.den)),
                               _sp_mul(x.den, y.den))
            if op == "*":
                return general(_sp_mul(x.num, y.num), _sp_mul(x.den, y.den))
            if op == "neg":
                return general(_sp_neg(x.num), x.den)
            return _sp_add(_sp_mul(x.num, y.den), _sp_neg(_sp_mul(y.num, x.den))) == {}

        def apply(op, x, y):
            return {"+": lambda: x + y, "-": lambda: x - y, "*": lambda: x * y,
                    "neg": lambda: -x, "==": lambda: x == y}[op]()

        def unshared(s):
            c = Scalar.__new__(Scalar)
            c.num, c.den = s.num, dict(s.den)
            return c

        def same(z, ref):
            if isinstance(ref, bool):
                return z is ref
            return (list(z.num.items()) == list(ref.num.items())
                    and list(z.den.items()) == list(ref.den.items())
                    and str(z) == str(ref))

        pool = [rand_scalar() for _ in range(40)]
        for s in pool:
            assert (s.den is _D1) == (s.den == {(): 1}), s
        counts = {"unit": 0, "mixed": 0, "to_unit": 0}
        for _ in range(3000):
            x, op = rng.choice(pool), rng.choice(("+", "-", "*", "neg", "=="))
            y = rng.choice(pool) if rng.random() < 0.85 else rng.randint(-4, 4)
            if x and rng.random() < 0.15:
                y = 1 / x
            z = apply(op, x, y)
            yy = y if isinstance(y, Scalar) else Scalar.from_fraction(y)
            ref = reference(op, x, yy)
            assert same(z, ref), (op, x, y, z, ref)
            if op != "==":
                # a unit denominator is always the shared dict
                assert (z.den is _D1) == (z.den == {(): 1}), (op, x, y, z)
            units = (x.den is _D1) + (op == "neg" or yy.den is _D1)
            counts["unit" if units == 2 else "mixed"] += 1
            if units < 2 and op != "==" and z.den is _D1:
                counts["to_unit"] += 1
            # an equal copy of the unit denominator takes the general path
            # to the same result
            for xc, yc in ((unshared(x), y), (x, unshared(yy)), (unshared(x), unshared(yy))):
                assert same(apply(op, xc, yc), ref), (op, x, y)
            if (op != "==" and len(pool) < 400 and len(z.num) <= 6
                    and (z.den is _D1 or rng.random() < 0.3)):
                pool.append(z)
        assert counts["unit"] > 1500 and counts["mixed"] > 1000 and counts["to_unit"] > 40, counts

    def test_copies_keep_the_shared_unit_denominator(self):
        import copy
        import pickle
        u = Scalar.symbol("u")
        cases = {"u": u, "3*u - 2": u * 3 - 2, "0": Scalar.from_fraction(0),
                 "(u + 1)/(3)": (u + 1) / 3}
        for text, s in cases.items():
            assert str(s) == text
            for c in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
                assert c == s and str(c) == text
                assert (c.den is _D1) == (s.den is _D1)


class TestSymbolRun:
    def test_each_run_numbers_from_one(self):
        fresh_symbol()
        for _ in range(2):
            with symbol_run():
                assert [str(fresh_symbol()) for _ in range(3)] == ["g1", "g2", "g3"]

    def test_nested_run_continues_the_outer_count(self):
        with symbol_run():
            assert str(fresh_symbol()) == "g1"
            with symbol_run():
                assert str(fresh_symbol()) == "g2"
            assert str(fresh_symbol()) == "g3"

    def test_outside_a_run_the_process_counter_goes_on(self):
        before = int(str(fresh_symbol())[1:])
        with symbol_run():
            fresh_symbol()
        assert int(str(fresh_symbol())[1:]) == before + 1


class TestParsePrint:
    def test_round_trip_through_grammar(self):
        cases = [
            "a", "t^3", "a*t^5", "t^3 + t^2", "a*t + t^2",
            "-1*a*t^2 + 3*t", "2/3*t^4 - a^2*t", "(a + t)*(a - t)",
        ]
        for text in cases:
            p = P(text)
            again = P(p.grammar_str())
            assert again - p == Poly.zero(AT), text

    def test_graded_ordering_is_stable(self):
        assert P("t + a").grammar_str() == "a + t"
        assert P("t^2 + a*t + a^2").grammar_str() == "a^2 + a*t + t^2"

    def test_leading_negative_is_reparseable(self):
        p = P("a - t^2") - P("2*a")
        s = p.grammar_str()
        assert s.startswith("-1*")
        assert P(s) - p == Poly.zero(AT)

    def test_unknown_variable_offset(self):
        with pytest.raises(ParseError) as err:
            P("a + x^2")
        assert "unknown variable 'x'" in str(err.value)
        assert "offset 4" in str(err.value)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError, match="negative exponent"):
            P("t^-2")

    @pytest.mark.parametrize("text, message", [
        ("t^\u00b2", "expected a natural number (offset 2)"),
        ("2\u00b2*t", "trailing input (offset 1)"),
    ])
    def test_superscript_digits_are_not_numbers(self, text, message):
        # str.isdigit accepts a superscript two, which int() refuses
        with pytest.raises(ParseError) as err:
            P(text)
        assert str(err.value) == message

    def test_decimal_digits_of_any_script(self):
        assert P("\u0663*t") == P("3*t")

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            P("a + ")
        with pytest.raises(ParseError):
            P("(a + t")


    def test_parse_leaves_no_reference_cycle(self):
        # a cycle would leave every parse's objects to the cyclic collector
        texts = [text for path in sorted(CORPUS.glob("*.json"))
                 for text in json.loads(path.read_text()).get("entries", [])]
        assert len(texts) > 20
        gc.collect()
        gc.disable()
        try:
            for text in texts:
                P(text)
            assert gc.collect() == 0
        finally:
            gc.enable()



class TestParseCaps:
    """One power or product over a cap is refused before it is formed:
    degree, coefficient bits, or the term products it would take."""

    def test_power_of_a_sum_is_refused_at_once(self):
        # 13 bytes; forming it took 8.7 s before the caps
        start = time.perf_counter()
        with pytest.raises(ParseError, match="term products") as info:
            P("(t+a+1)^100")
        assert time.perf_counter() - start < 2.0
        assert info.value.offset == 7

    @pytest.mark.parametrize("text, cap", [
        pytest.param("t^10001", "degree", id="power-degree"),
        pytest.param("a^5000*t^5001", "degree", id="product-degree"),
        pytest.param("2^70000", "coefficient bits", id="power-bits"),
        pytest.param("7^21000*7^2400", "coefficient bits", id="product-bits"),
        # two coefficients of at most 30,000 bits: one product of 469 by 469 words
        pytest.param("3^15000*3^15000", "term products", id="product-words"),
        pytest.param("(a + t)^300", "term products", id="power-products"),
        pytest.param("(" + " + ".join(f"t^{k}" for k in range(400)) + ")*("
                     + " + ".join(f"a^{k}" for k in range(300)) + ")", "term products",
                     id="product-products"),
    ])
    def test_each_cap(self, text, cap):
        with pytest.raises(ParseError, match=cap):
            P(text)

    @pytest.mark.parametrize("text", [
        "t^2001", "a^2000*t + t^2", "9^9999*t", "1/9^9999*t", "(a + t)^100",
        pytest.param("(" + " + ".join(f"t^{k}" for k in range(400)) + ")^1", id="400-terms^1"),
        "(t + a + 1)^13", "t^10000", "a^5000*t^5000",
    ])
    def test_under_the_caps(self, text):
        P(text)

    def test_number_past_the_conversion_limit(self):
        for text in ("9" * 5000, "t^" + "9" * 5000, "1/" + "7" * 5000):
            with pytest.raises(ParseError, match="number too long"):
                P(text)

    def test_accepted_input_finishes_or_is_refused(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        leaves = st.one_of(
            st.sampled_from(["a", "t"]),
            st.integers(-10 ** 40, 10 ** 40).map(str),
            st.tuples(st.integers(-99, 99), st.integers(1, 99)).map(lambda q: f"{q[0]}/{q[1]}"),
        )

        def grow(inner):
            return st.one_of(
                st.tuples(inner, st.sampled_from(["+", "-"]), inner)
                .map(lambda x: f"({x[0]} {x[1]} {x[2]})"),
                st.tuples(inner, inner).map(lambda x: f"{x[0]}*{x[1]}"),
                st.tuples(inner, st.integers(0, 10 ** 6) | st.integers(0, 40))
                .map(lambda x: f"({x[0]})^{x[1]}"),
            )

        @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.recursive(leaves, grow, max_leaves=12))
        def finishes_or_refused(text):
            start = time.perf_counter()
            try:
                P(text)
            except ParseError as exc:
                assert "exceeds the cap" in str(exc), (text, exc)
            assert time.perf_counter() - start < 2.0, text

        finishes_or_refused()

class TestPoly:
    def test_ring_identities_random(self):
        rng = random.Random(11)

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = (rng.randint(0, 3), rng.randint(0, 3))
                terms[e] = Fraction(rng.randint(-4, 4))
            return Poly(AT, terms)

        for _ in range(40):
            p, q, r = rand_poly(), rand_poly(), rand_poly()
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p
            assert p - p == Poly.zero(AT)

    def test_diff_product_rule(self):
        p, q = P("a*t^2 + t"), P("a^2 - t^3")
        assert (p * q).diff("t") == p.diff("t") * q + p * q.diff("t")

    def test_exact_div(self):
        p = P("t^3 + t^2")
        assert p.exact_div(P("t^2")).grammar_str() == "t + 1"
        assert P("t^3").exact_div(p) is None
        prod = P("a + t") * P("a^2 + t^3")
        assert prod.exact_div(P("a + t")) == P("a^2 + t^3")

    def test_degrees_and_coefficients(self):
        p = P("a*t^2 + 3*t^5")
        assert t_order(p) == 2
        assert p.min_deg("t") == 2 and p.max_deg("t") == 5
        assert t_order(Poly.zero(AT)) == INFINITY
        assert constant_value(p.coeff_of("t", 5)).as_fraction() == 3

    def test_compose_identity_and_eval(self):
        p = P("a^2*t + t^4 - 2*a")
        a_var, t_var = Poly.var(AT, "a"), Poly.var(AT, "t")
        assert p.compose([a_var, t_var]) == p
        v = eval_scalar(p, [Fraction(2), Fraction(3)])
        assert v.as_fraction() == 4 * 3 + 81 - 4

    def test_power_matches_repeated_multiplication(self):
        # a single-term base is raised term-wise, any other by squaring
        g1, g2 = Scalar.symbol("g1"), Scalar.symbol("g2")
        bases = [P("7"), P("-3/4"), P("a"), P("t"), P("-2/3*a^2*t^3"),
                 Poly.monomial(AT, (0, 2), g1),
                 Poly.monomial(AT, (1, 1), (g1 + 1) / (2 * g2)),
                 Poly.zero(AT), P("a - 2*t"), P("1/2*a*t + t^2 - 3")]
        for base in bases:
            for n in range(10):
                got, want = base ** n, power_by_multiplication(base, n)
                assert got == want, (base, n)
                assert str(got) == str(want), (base, n)


class TestDenseUnivariate:
    @staticmethod
    def _random_poly(rng, degree):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(degree)]
        return coeffs + [Fraction(rng.choice([-3, -1, 1, 2, 5]))]

    @staticmethod
    def _mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def test_gcd_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def to_sympy(c):
            return sympy.Poly([sympy.Rational(v.numerator, v.denominator)
                               for v in reversed(c)], x, domain="QQ")

        rng = random.Random(4242)
        for _ in range(150):
            common = self._random_poly(rng, rng.randint(0, 3))
            a = self._mul(common, self._random_poly(rng, rng.randint(0, 4)))
            b = self._mul(common, self._random_poly(rng, rng.randint(0, 4)))
            want = [Fraction(int(v.p), int(v.q)) for v in
                    reversed(to_sympy(a).gcd(to_sympy(b)).monic().all_coeffs())]
            assert dense_gcd(a, b) == want
            # the same field operations over Scalar, as the arc sweep uses
            assert dense_gcd([Scalar.from_fraction(v) for v in a],
                             [Scalar.from_fraction(v) for v in b]) == \
                [Scalar.from_fraction(v) for v in want]

    def test_divmod_identity(self):
        rng = random.Random(99)
        for _ in range(100):
            a = self._random_poly(rng, rng.randint(0, 8))
            b = self._random_poly(rng, rng.randint(0, 4))
            q, r = dense_divmod(a, b)
            assert len(r) < len(b)
            prod = self._mul(q, b) if q else []
            total = [(prod[i] if i < len(prod) else 0) +
                     (r[i] if i < len(r) else 0) for i in range(len(a))]
            assert total == a
        with pytest.raises(ZeroDivisionError):
            dense_divmod([Fraction(1)], [])

    def test_scalar_truth_is_nonzero(self):
        assert not Scalar.from_fraction(0)
        assert Scalar.from_fraction(Fraction(1, 3))
        g = Scalar.symbol("g1")
        assert g and not (g - g)


class TestArc:
    def test_segments_hold_absolute_exponents(self):
        arc = Arc(((Fraction(1), None), (Fraction(2), None)))
        assert [e for e, _ in arc.segments] == [Fraction(1), Fraction(2)]
        assert Arc().segments == ()

    def test_exponents_must_be_positive_and_increasing(self):
        c = Scalar.from_fraction(1)
        for exps in ([0], [-1], [Fraction(-1, 2), 1], [1, 1], [2, 1],
                     [1, Fraction(3, 2), Fraction(3, 2)]):
            with pytest.raises(ValueError, match="increasing"):
                Arc(tuple((Fraction(e), c) for e in exps))
        Arc(((Fraction(1, 3), c), (Fraction(1, 2), None)))

    def test_substitution_is_ring_homomorphism(self):
        rng = random.Random(13)
        arcs = [
            Arc(((Fraction(2), None),)),
            Arc(((Fraction(5, 2), Scalar.from_fraction(3)),)),
            Arc(((Fraction(1), None), (Fraction(3), None))),
            Arc(),
            Arc(((Fraction(1), Scalar.from_fraction(-1)),),
                a0=Scalar.from_fraction(Fraction(1, 2))),
        ]

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                terms[(rng.randint(0, 3), rng.randint(0, 4))] = \
                    Fraction(rng.randint(-3, 3))
            return Poly(AT, terms)

        for arc in arcs:
            for _ in range(8):
                p, q = rand_poly(), rand_poly()
                assert substitute_arc(p * q, arc) == \
                    substitute_arc(p, arc) * substitute_arc(q, arc)
                assert substitute_arc(p + q, arc) == \
                    substitute_arc(p, arc) + substitute_arc(q, arc)

    def test_fractional_exponent_clears_denominator(self):
        arc = Arc(((Fraction(5, 2), None),))
        assert substitute_arc(P("t"), arc).grammar_str() == "s^2"
        # symbolic coefficients cannot round trip the grammar, so plain str
        assert str(substitute_arc(P("a"), arc)) == "(c1)*s^5"

    def test_vertical_arc_freezes_parameter(self):
        arc = Arc()
        assert substitute_arc(P("a*t + t^2"), arc).grammar_str() == "s^2"
        arc_half = Arc(a0=Scalar.from_fraction(Fraction(1, 2)))
        assert substitute_arc(P("a*t"), arc_half).grammar_str() == "1/2*s"

    def test_symbolic_coefficients_named_by_depth(self):
        arc = Arc(((Fraction(1), None), (Fraction(2), None)))
        out = substitute_arc(P("a"), arc)
        names = set()
        for coeff in out.terms.values():
            names |= scalar_symbols(coeff)
        assert names == {"c1", "c2"}


class TestSeries:
    def test_inverse(self):
        # the oracle inverse behind conftest.newton_reversion
        u = series_from_coeffs([1, 2, -1, Fraction(1, 3)], 6)
        prod = series_mul(u, series_inverse(u))
        assert prod.coeffs[0].as_fraction() == 1
        assert all(c.is_zero() for c in prod.coeffs[1:])

    def test_root_binomial_coefficients(self):
        # t^2*(1 + t) = s^2: by Lagrange the coefficient of s^k in t(s) is
        # binom(-k/2, k-1)/k, where the binomial root of 1 + t has binom(1/2, k)
        u = series_from_coeffs([1, 1], 5)
        assert [c.as_fraction() for c in binomial_root(u, 2).coeffs] == \
            [1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16), Fraction(-5, 128)]
        w = series_reversion(u, 2)
        assert [c.as_fraction() for c in w.coeffs] == [1, Fraction(-1, 2), Fraction(5, 8), -1]
        t = series_from_coeffs([0] + list(w.coeffs), 5)
        lhs = series_mul(series_mul(t, t), series_add(series_from_coeffs([1], 5), t))
        assert _items(lhs) == _items(series_from_coeffs([0, 0, 1], 5))

    def test_root_of_unit_series_is_the_binomial_loop(self):
        # a unit series is reversed to s with nothing computed: the same
        # coefficients as its binomial root reversed by Newton's iteration,
        # and series with a nonzero tail give that path's values too
        for n in range(1, 41):
            u = series_from_coeffs([1], n)
            for m in range(1, 8):
                assert _items(series_reversion(u, m)) == _items(reversion_by_root(u, m)), (n, m)
        g = Scalar.symbol("g1")
        for cs in ([1, 1], [1, 0, 0, Fraction(-2, 3)], [1, g], [1, 0, g, 5]):
            for n in (4, 9):
                u = series_from_coeffs(cs, n)
                for m in (2, 3, 7):
                    assert _stored(series_reversion(u, m)) == _stored(reversion_by_root(u, m)), \
                        (cs, n, m)

    def test_root_rejects_non_power_constant(self):
        # u(0) must be 1: a constant 2 has no rational square root, and a
        # caller divides a rational leading coefficient out first
        for m in (1, 2):
            with pytest.raises(ValueError, match="unit constant term"):
                series_reversion(series_from_coeffs([2, 1], 4), m)
        with pytest.raises(ValueError, match="root index"):
            series_reversion(series_from_coeffs([1, 1], 4), 0)

    def test_reversion_inverts_composition(self):
        for m in (1, 2, 3):
            v = series_from_coeffs([1, -2, Fraction(3, 5), 0, 1], 5)
            w = series_reversion(v, m)
            n = v.order
            t = series_from_coeffs([0] + list(w.coeffs), n)
            # t^m * v(t) = s^m below s^n, the order of v
            tm = series_from_coeffs([1], n)
            for _ in range(m):
                tm = series_mul(tm, t)
            ident = series_mul(tm, v.compose(t))
            assert ident.coeffs[m].as_fraction() == 1
            assert all(c.is_zero() for k, c in enumerate(ident.coeffs) if k != m)


# -- dense series loops, kept as references for the sparse kernels --

def _dense_mul(f, g):
    n = min(f.order, g.order)
    out = [Scalar.from_fraction(0)] * n
    for i, ci in enumerate(f.coeffs[:n]):
        if ci.is_zero():
            continue
        for j in range(n - i):
            cj = g.coeffs[j]
            if not cj.is_zero():
                out[i + j] = out[i + j] + ci * cj
    return SeriesT(tuple(out), n)


def _dense_inverse(f):
    a0 = f.coeffs[0]
    out = [Scalar.from_fraction(1) / a0] + [Scalar.from_fraction(0)] * (f.order - 1)
    for k in range(1, f.order):
        acc = Scalar.from_fraction(0)
        for i in range(1, k + 1):
            ai = f.coeffs[i]
            if not ai.is_zero():
                acc = acc + ai * out[k - i]
        out[k] = -acc / a0
    return SeriesT(tuple(out), f.order)


def _dense_compose(f, inner):
    n = min(f.order, inner.order)
    out = series_from_coeffs([f.coeffs[0]] if n else [], n)
    gk = series_from_coeffs([1], n)
    for k in range(1, n):
        gk = _dense_mul(gk, inner)
        if series_valuation(gk) >= n:
            break
        c = f.coeffs[k]
        if not c.is_zero():
            out = series_add(out, series_mul(gk, c))
    return out


def _dense_reversion(v):
    """Newton at full order from t = s, one pass per doubling."""
    n = v.order
    s_of_t = series_from_coeffs([0] + list(v.coeffs[: n - 1]), n)
    ds = SeriesT(tuple(s_of_t.coeffs[k + 1] * (k + 1) for k in range(n - 1))
                 + (Scalar.from_fraction(0),), n)
    t = s_var = series_from_coeffs([0, 1], n)
    correct = 2
    while correct < n + 1:
        err = series_sub(_dense_compose(s_of_t, t), s_var)
        t = series_sub(t, _dense_mul(err, _dense_inverse(_dense_compose(ds, t))))
        correct *= 2
    return SeriesT(tuple(t.coeffs[1:]), n - 1)


def _items(f):
    """Coefficients with the key order of their stored dicts, and order."""
    return [(list(c.num.items()), list(c.den.items())) for c in f.coeffs], f.order


def _stored(f):
    """Coefficients as their stored ``num``/``den`` dicts, and order."""
    return [(c.num, c.den) for c in f.coeffs], f.order


class TestSeriesKernels:
    """``compose`` and the Lagrange ``series_reversion`` against the dense
    loops above and against the root-then-Newton path it replaced, and the
    sparse oracle ``*`` and ``inverse`` behind that path against the dense
    loops, on seeded random series: sparse and dense, with rational,
    symbolic and non-unit denominator coefficients, at orders 1-40."""

    G1, G2 = Scalar.symbol("g1"), Scalar.symbol("g2")

    def coeff(self, rng, kind):
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        if kind == "rational":
            return Scalar.from_fraction(q)
        sym = rng.choice((self.G1, self.G2, self.G1 * self.G2))
        c = Scalar.from_fraction(q) * sym + rng.randint(-3, 3)
        if kind == "ratfunc":
            c = c / (rng.choice((self.G1, self.G2)) + rng.randint(1, 3))
        return c

    def series(self, rng, kind, order, density, const=None):
        cs = [self.coeff(rng, kind) if rng.random() < density else 0
              for _ in range(order)]
        if order and const is not None:
            cs[0] = const
        return series_from_coeffs(cs, order)

    def cases(self):
        """(kind, order, density) triples.  Symbolic series stay shorter:
        their coefficients grow with every product, and denominators with
        symbols are never cancelled."""
        rng = random.Random(1978)
        out = []
        for kind, sparse_top, dense_top in (("rational", 40, 24), ("symbol", 40, 7),
                                            ("ratfunc", 14, 5)):
            for _ in range(8):
                out.append((kind, rng.randint(1, sparse_top), 0.12))
            for _ in range(4):
                out.append((kind, rng.randint(1, dense_top), 0.9))
        return rng, out

    def test_mul_inverse_compose_match_dense_loops(self):
        rng, cases = self.cases()
        for kind, n, density in cases:
            f = self.series(rng, kind, n, density)
            g = self.series(rng, kind, n + rng.randint(0, 3), density)
            assert _items(series_mul(f, g)) == _items(_dense_mul(f, g)), (f, g)
            assert _items(series_mul(g, f)) == _items(_dense_mul(g, f)), (f, g)
            unit = self.series(rng, kind, n, density, const=self.coeff(rng, kind))
            assert _items(series_inverse(unit)) == _items(_dense_inverse(unit)), unit
            inner = self.series(rng, kind, n, density, const=0)
            assert _items(f.compose(inner)) == _items(_dense_compose(f, inner)), (f, inner)
            # a monomial inner series: the strong check's s -> c*s^e
            e = rng.randint(1, 3)
            mono = series_from_coeffs([0] * e + [self.coeff(rng, kind)], n)
            assert _items(f.compose(mono)) == _items(_dense_compose(f, mono)), (f, mono)

    def test_reversion_matches_dense_newton(self):
        rng, cases = self.cases()
        one = Scalar.from_fraction(1)
        inputs = [series_from_coeffs([1], n) for n in (1, 2, 3, 17, 40)]
        inputs += [self.series(rng, kind, n, density, const=one)
                   for kind, n, density in cases]
        inputs += [self.series(rng, "ratfunc", n, 0.9, const=one) for n in (1, 2, 2)]
        for v in inputs:
            w = series_reversion(v, 1)
            ref = _dense_reversion(v)
            assert w.order == ref.order == v.order - 1
            assert all(x == y for x, y in zip(w.coeffs, ref.coeffs)), v
            n = v.order
            s_of_t = series_from_coeffs([0] + list(v.coeffs[: n - 1]), n)
            t_of_s = series_from_coeffs([0] + list(w.coeffs), n)
            assert _items(_dense_compose(s_of_t, t_of_s)) == \
                _items(series_from_coeffs([0, 1], n)), v

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7])
    def test_lagrange_matches_root_then_newton(self, m):
        # equal values everywhere; a rational or polynomial coefficient has
        # one normal form, so its stored num/den are equal too (a ratio of
        # polynomials is not reduced by their gcd, so its form depends on
        # the path)
        rng, cases = self.cases()
        one = Scalar.from_fraction(1)
        for kind, n, density in cases:
            if kind == "ratfunc" and n > 7:
                continue  # the Newton path grows a ratio's terms too fast
            v = self.series(rng, kind, n, density, const=one)
            w, ref = series_reversion(v, m), reversion_by_root(v, m)
            assert w.order == ref.order == n - 1
            assert all(x == y for x, y in zip(w.coeffs, ref.coeffs)), (v, m)
            if kind != "ratfunc":
                assert _stored(w) == _stored(ref), (v, m)

    def test_kernels_agree_with_sympy_on_rationals(self):
        ring_series = pytest.importorskip("sympy.polys.ring_series")
        from sympy import QQ
        from sympy.polys.rings import ring

        R, x, y = ring("x,y", QQ)

        def to_ring(f, var=x):
            qs = [c.as_fraction() for c in f.coeffs]
            return sum((QQ(q.numerator, q.denominator) * var ** k for k, q in enumerate(qs)),
                       R.zero)

        rng, cases = self.cases()
        for kind, n, density in cases:
            if kind != "rational":
                continue
            f = self.series(rng, kind, n, density)
            g = self.series(rng, kind, n, density)
            unit = self.series(rng, kind, n, density, const=self.coeff(rng, kind))
            inner = self.series(rng, kind, n, density, const=0)
            v = self.series(rng, kind, n, density, const=Scalar.from_fraction(1))
            assert to_ring(series_mul(f, g)) == ring_series.rs_mul(to_ring(f), to_ring(g), x, n)
            assert to_ring(series_inverse(unit)) == \
                ring_series.rs_series_inversion(to_ring(unit), x, n)
            assert to_ring(f.compose(inner)) == \
                ring_series.rs_subs(to_ring(f), {x: to_ring(inner)}, x, n)
            if n >= 2:
                # t(s) = s*w(s) mod s^n against sympy's reversion of s = t*v(t)
                w = series_reversion(v, 1)
                s_of_t = x * to_ring(series_from_coeffs(v.coeffs, n - 1))
                assert y * to_ring(w, y) == ring_series.rs_series_reversion(s_of_t, x, n, y)
                # t^m*v(t) = s^m: s = t*v(t)^(1/m), reversed by sympy
                for m in (2, 3, 5):
                    root = ring_series.rs_nth_root(to_ring(series_from_coeffs(v.coeffs, n - 1)),
                                                   m, x, n - 1)
                    assert y * to_ring(series_reversion(v, m), y) == \
                        ring_series.rs_series_reversion(x * root, x, n, y), (v, m)


class TestWedge:
    def test_membership_detection(self):
        plane = {(1, 2): Scalar.from_fraction(1)}
        inside = wedge3([Scalar.from_fraction(2), Scalar.from_fraction(-5),
                         Scalar.from_fraction(0)], plane, 3)
        assert all(x.is_zero() for x in inside.values())
        outside = wedge3([Scalar.from_fraction(0), Scalar.from_fraction(0),
                          Scalar.from_fraction(1)], plane, 3)
        assert outside[(1, 2, 3)].as_fraction() == 1

    def test_known_expansion(self):
        om = {(1, 2): 3, (1, 4): 2}
        v = [0, 1, 0, 1]
        out = wedge3(v, om, 4)
        # v1*om(2,4) - v2*om(1,4) + v4*om(1,2)
        assert out[(1, 2, 4)] == 0 * 0 - 1 * 2 + 1 * 3

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            wedge3([1, 2], {}, 3)
