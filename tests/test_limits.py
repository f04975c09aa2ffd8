"""Arc sweeps for the two regularity conditions."""

import random
import time
from bisect import bisect_left
from fractions import Fraction
from unittest import mock

import pytest

from equising import (
    Arc,
    FamilyValidationError,
    Poly,
    Scalar,
    Verdict,
    equivalence_crosscheck,
    family_from_strings,
    fresh_symbol,
    load_family,
    parse_poly,
    wedge3,
    whitney_check,
)
from equising import limits
from equising.family import resolve_basepoint
from equising.limits import (
    WhitneyResult,
    _breakpoints,
    _c_gcd_many,
    _extract_roots,
    _initial,
    _regime_lead,
    _regime_plan,
    _regime_tests,
    _staircase,
    _support,
    _sweep,
    arc_leading_vector,
    secant_vector,
)
from conftest import (
    corpus_path,
    critical_exponents_all_pairs,
    direction_deviation,
    extract_roots_by_fractions,
    poly_from_roots,
    random_binomial_family,
    random_monomial_family,
    regime_arcs,
    support_all_terms,
)

AT = ("a", "t")


def P(text):
    return parse_poly(text, AT)


def points(*polys):
    """The pooled support points (i, j) of the polys' terms."""
    return {ij for p in polys for ij in p.terms}


def breakpoints(*polys):
    """The library's breakpoints of the polys' pooled Newton polygon."""
    return _breakpoints(_staircase(points(*polys)))


def true_breakpoints(polys, w_min=0):
    """The all-pairs exponents above ``w_min`` at which more than one
    point of the polys weighs least."""
    return {th for th in critical_exponents_all_pairs(polys)
            if th > w_min and len(support_all_terms(polys, th)) > 1}


class TestCriticalExponents:
    """The critical exponents of one side are the breakpoints of its
    Newton polygon: the slopes of its staircase's lower hull edges."""

    def test_single_entry_ratio(self):
        assert breakpoints(P("a*t^2 + t^3")) == {Fraction(1)}

    def test_pooled_across_entries(self):
        assert breakpoints(P("t^3"), P("a^2*t")) == {Fraction(1)}

    def test_only_positive_ratios_count(self):
        assert breakpoints(P("a*t^2 + t")) == set()
        assert breakpoints(P("t^2 + t^5")) == set()

    def test_fractional(self):
        assert breakpoints(P("a^2*t + t^4")) == {Fraction(3, 2)}

    def test_dominated_exponent_is_no_breakpoint(self):
        # (1, 2) lies above the hull edge from (0, 3) to (2, 0): it never
        # weighs least, so the ratios it forms are no breakpoints
        poly = P("t^3 + a*t^2 + a^2")
        assert critical_exponents_all_pairs([poly]) == \
            {Fraction(1), Fraction(3, 2), Fraction(2)}
        assert breakpoints(poly) == true_breakpoints([poly]) == {Fraction(3, 2)}

    def test_collinear_points_make_one_edge(self):
        assert breakpoints(P("t^4 + a*t^2 + a^2")) == {Fraction(2)}


def random_coefficient(rng, symbolic):
    q = Scalar.from_fraction(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                      rng.randint(1, 4)))
    if symbolic and rng.random() < 0.5:
        g = Scalar.symbol("g1")
        q = q * g ** rng.randint(1, 2) + rng.randint(-3, 3)
    return q


def random_poly(rng, symbolic, terms=4):
    return Poly(AT, {(rng.randint(0, 4), rng.randint(0, 6)):
                     random_coefficient(rng, symbolic)
                     for _ in range(rng.randint(0, terms))})


class TestInitialForms:
    """The theta-weighted initial forms must equal the lowest coefficients
    of the substituted polynomials, the path they replace in the sweep."""

    THETAS = [Fraction(1), Fraction(3), Fraction(1, 2), Fraction(5, 3),
              Fraction(2, 7)]

    def check(self, polys, theta):
        c = Scalar.symbol("c1")
        got = _initial(polys, c, _support(_staircase(points(*polys)), theta))
        led = arc_leading_vector(polys, Arc(((theta, c),)))
        if led is None:
            assert all(v.is_zero() for v in got)
            return
        assert got == led[1]
        assert [str(v) for v in got] == [str(v) for v in led[1]]

    def test_random_polynomials(self):
        rng = random.Random(707)
        for symbolic in (False, True):
            for _ in range(60):
                polys = [random_poly(rng, symbolic) for _ in range(rng.randint(1, 4))]
                for theta in self.THETAS:
                    self.check(polys, theta)

    def test_refined_polynomials(self):
        rng = random.Random(808)
        for _ in range(30):
            symbolic = rng.random() < 0.5
            polys = [random_poly(rng, symbolic) for _ in range(rng.randint(1, 3))]
            p, q = rng.randint(1, 4), rng.randint(1, 3)
            c0 = random_coefficient(rng, symbolic)
            a_new = Poly.monomial(AT, (0, p), c0) + Poly.var(AT, "a")
            t_new = Poly.monomial(AT, (0, q))
            refined = [f.compose([a_new, t_new]) for f in polys]
            for theta in self.THETAS:
                self.check(refined, theta + p)

    def test_all_zero(self):
        assert all(v.is_zero() for v in
                   _initial([Poly.zero(AT)] * 3, Scalar.symbol("c1"), frozenset()))


class TestWedgeZeroSkip:
    """wedge3 skips products with a zero Scalar factor; its coordinates
    must equal and print as the full three-term formula."""

    @staticmethod
    def full(v, om, dim, zero):
        def o(i, j):
            return om.get((i, j), zero)
        return {(i, j, k): v[i - 1] * o(j, k) - v[j - 1] * o(i, k) + v[k - 1] * o(i, j)
                for i in range(1, dim + 1) for j in range(i + 1, dim + 1)
                for k in range(j + 1, dim + 1)}

    def test_sparse_scalar_vectors(self):
        rng = random.Random(909)
        zero = Scalar.from_fraction(0)
        for _ in range(200):
            dim = rng.randint(3, 5)

            def entry():
                return zero if rng.random() < 0.6 else random_coefficient(rng, True)

            v = [entry() for _ in range(dim)]
            om = {(i, j): entry() for i in range(1, dim + 1)
                  for j in range(i + 1, dim + 1) if rng.random() < 0.7}
            got, want = wedge3(v, om, dim), self.full(v, om, dim, zero)
            assert got == want
            assert {k: str(x) for k, x in got.items()} == \
                {k: str(x) for k, x in want.items()}

    def test_poly_entries(self):
        zero = Scalar.from_fraction(0)
        v = [P("0"), P("t^2"), P("0"), P("a*t")]
        # (2, 3, 4) has a zero Scalar factor in each of its three products
        om = {(1, 2): P("t"), (1, 3): P("a + t^3"), (1, 4): P("2*t")}
        got = wedge3(v, om, 4)
        want = self.full(v, om, 4, zero)
        assert got == want
        assert all(isinstance(x, Poly) for x in got.values())


class TestVerifiedFamily:
    def test_joint_verdict_and_regimes(self):
        fam = load_family(corpus_path("family-345.json"))
        res = whitney_check(fam)
        assert res.verdict is Verdict.VERIFIED
        assert res.witness is None
        for part in (res.part_a, res.part_b):
            assert part.verdict is Verdict.VERIFIED
            # each side's staircase is one point, t^3 for the secants and
            # t^2 for the minors: no breakpoint, so one sector covers every
            # finite exponent
            assert [(r.theta, r.kind) for r in part.regimes] == \
                [("1", "sector"), ("inf", "vertical")]
            assert {r.status for r in part.regimes} == {"contained"}

    def test_small_dimension_is_trivially_regular(self):
        fam = family_from_strings(["a", "t^2"])
        res = whitney_check(fam)
        assert res.verdict is Verdict.VERIFIED
        assert all(r.status == "trivial"
                   for part in (res.part_a, res.part_b)
                   for r in part.regimes)


class TestRefutedFamily:
    def test_witness_at_unit_exponent(self):
        fam = load_family(corpus_path("family-352.json"))
        res = whitney_check(fam)
        assert res.verdict is Verdict.REFUTED
        assert res.part_a.verdict is Verdict.VERIFIED
        assert res.part_b.verdict is Verdict.REFUTED
        w = res.witness
        assert w is not None
        assert [str(th) for th, _ in w.arc.segments] == ["1"]
        assert w.wedge_index == (1, 2, 4)
        assert w.coefficient == "1"
        assert w.value == "1"
        assert str(w.arc.a0) == "0"
        assert w.description == "a = (1)*t^(1)"

    def test_failure_is_local_to_the_origin(self):
        fam = load_family(corpus_path("family-352.json"))
        for basepoint in ("generic", Fraction(1, 2), Fraction(-3)):
            assert whitney_check(fam, basepoint).verdict is Verdict.VERIFIED

    def test_generic_basepoint_shared_by_both_conditions(self):
        fam = load_family(corpus_path("family-352.json"))
        res = whitney_check(fam, "generic")
        assert res.part_a.basepoint.startswith("generic (g")
        assert res.part_a.basepoint == res.part_b.basepoint


class TestRefinement:
    def test_negative_depth_is_refused(self):
        # a negative depth never counted down to 0, so this sweep refined
        # without end
        fam = family_from_strings(["a", "t^2*(a - a*t - t)", "t^3*(a - a*t - t)"])
        start = time.perf_counter()
        for check in (whitney_check, equivalence_crosscheck):
            with pytest.raises(ValueError, match="max_depth"):
                check(fam, max_depth=-1)
        assert whitney_check(fam, max_depth=4).verdict is not Verdict.INCONCLUSIVE
        assert time.perf_counter() - start < 1.0

    def test_two_segment_witness(self):
        fam = load_family(corpus_path("tangent-arc.json"))
        res = whitney_check(fam)
        assert res.verdict is Verdict.REFUTED
        assert res.part_a.verdict is Verdict.VERIFIED
        w = res.witness
        segs = [(str(e), str(c)) for e, c in w.arc.segments]
        assert segs == [("1", "-1"), ("2", "1")]
        assert w.description == "a = (-1)*t^(1) + (1)*t^(2)"
        assert w.wedge_index == (1, 2, 3)
        # the refinement shows up as a nested record under theta = 1
        critical = [r for r in res.part_b.regimes if r.theta == "1"]
        assert critical and critical[0].refinements

    def test_depth_past_the_cap_is_refused(self):
        fam = family_from_strings(["a", "t^2*(a - a*t - t)", "t^3*(a - a*t - t)"])
        start = time.perf_counter()
        for check in (whitney_check, equivalence_crosscheck):
            with pytest.raises(ValueError, match=f"at most {limits.MAX_DEPTH}"):
                check(fam, max_depth=limits.MAX_DEPTH + 1)
        assert time.perf_counter() - start < 1.0

    def test_depth_budget_reports_exhaustion(self):
        fam = load_family(corpus_path("tangent-arc.json"))
        res = whitney_check(fam, max_depth=0)
        assert res.verdict is Verdict.INCONCLUSIVE
        assert any("refinement depth exhausted" in s
                   for s in res.part_b.reasons)
        assert any(r.status == "unresolved" for r in res.part_b.regimes)

    def test_monomial_families_never_recurse(self):
        rng = random.Random(303)
        for _ in range(25):
            fam = random_monomial_family(rng)
            res = whitney_check(fam)
            assert res.verdict is not Verdict.INCONCLUSIVE
            for part in (res.part_a, res.part_b):
                assert all(not r.refinements for r in part.regimes)


class TestStructuralProperties:
    def test_b_implies_a_on_fuzz(self):
        rng = random.Random(404)
        for _ in range(60):
            fam = random_monomial_family(rng)
            res = whitney_check(fam)
            if res.part_b.verdict is Verdict.VERIFIED:
                assert res.part_a.verdict is Verdict.VERIFIED, \
                    fam.entry_strings()

    def test_verdict_invariant_under_entry_permutation(self):
        rng = random.Random(505)
        for _ in range(20):
            fam = random_monomial_family(rng)
            strings = fam.entry_strings()
            tail = strings[1:]
            rng.shuffle(tail)
            shuffled = family_from_strings(["a"] + tail)
            assert whitney_check(fam).verdict == \
                whitney_check(shuffled).verdict, strings

    def test_verdict_invariant_under_coordinate_scaling(self):
        rng = random.Random(606)
        for _ in range(20):
            fam = random_monomial_family(rng)
            strings = fam.entry_strings()
            k = rng.randrange(1, len(strings))
            scaled_entry = f"3*{strings[k]}" if rng.random() < 0.5 \
                else f"-1/2*{strings[k]}"
            scaled = family_from_strings(
                strings[:k] + [scaled_entry] + strings[k + 1:])
            assert whitney_check(fam).verdict == \
                whitney_check(scaled).verdict, strings


class TestNumericalOracle:
    """Exact rational points along each swept arc must align with the
    symbolic leading directions once the arc parameter is small."""

    CORPUS = ["family-345.json", "family-352.json", "family-467.json",
              "family-589.json", "tangent-arc.json"]

    def test_secant_directions_agree(self):
        for name in self.CORPUS:
            fam = load_family(corpus_path(name))
            vec = secant_vector(fam)
            for arc in regime_arcs(whitney_check(fam).part_b):
                dev = direction_deviation(vec, arc)
                assert dev < 1e-6, (name, arc.segments, dev)

    def test_tangent_plane_directions_agree(self):
        for name in self.CORPUS:
            fam = load_family(corpus_path(name))
            minors = list(fam.plucker_minors().values())
            for arc in regime_arcs(whitney_check(fam).part_b):
                dev = direction_deviation(minors, arc)
                assert dev < 1e-6, (name, arc.segments, dev)

    def test_witness_arc_direction_agrees(self):
        fam = load_family(corpus_path("tangent-arc.json"))
        w = whitney_check(fam).witness
        dev = direction_deviation(secant_vector(fam), w.arc)
        assert dev < 1e-6


class TestExtractRoots:
    def test_rational_roots_and_unresolved_factor(self):
        # 3*c*(c - 1)^2*(c + 1/2)*(c^2 + 1): the root at zero is dropped,
        # repeated roots are listed once, c^2 + 1 stays unresolved
        coeffs = [0, Fraction(3, 2), 0, -3, 3, Fraction(-9, 2), 3]
        roots, unresolved = _extract_roots(
            [Scalar.from_fraction(c) for c in coeffs], "c1")
        assert [str(r) for r in roots] == ["1", "-1/2"]
        assert unresolved == "(3)*c1^2 + (3)"

    def test_seeded_polynomials_match_the_fraction_search(self):
        # the one integer pass against Horner evaluation in Fractions:
        # chosen roots (0, +-integers, +-p/q, multiplicities 1 to 3) times
        # an irreducible quadratic or cubic, scaled by a rational
        cases = seeded_root_polynomials()
        unresolved = 0
        for coeffs, _ in cases:
            p = [Scalar.from_fraction(c) for c in coeffs]
            got, want = _extract_roots(p, "c1"), extract_roots_by_fractions(p, "c1")
            assert [str(r) for r in got[0]] == [str(r) for r in want[0]], coeffs
            assert all(r == w for r, w in zip(got[0], want[0]))
            assert got[1] == want[1], coeffs
            unresolved += got[1] is not None
        assert sum(len(roots) > 1 for _, roots in cases) > 50 and unresolved > 50

    def test_seeded_roots_are_the_chosen_ones(self):
        for coeffs, roots in seeded_root_polynomials():
            got, _ = _extract_roots([Scalar.from_fraction(c) for c in coeffs], "c1")
            assert sorted(r.as_fraction() for r in got) == sorted(roots), coeffs

    def test_seeded_roots_agree_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        c = sympy.Symbol("c")
        for coeffs, _ in seeded_root_polynomials()[:100]:
            got, _ = _extract_roots([Scalar.from_fraction(x) for x in coeffs], "c1")
            want = sympy.Poly([sympy.Rational(x.numerator, x.denominator)
                               for x in reversed(coeffs)], c).ground_roots()
            assert {r.as_fraction() for r in got} == \
                {Fraction(int(r.p), int(r.q)) for r in want if r != 0}, coeffs

    @pytest.mark.parametrize("coeffs", [
        [Fraction(3), Fraction(-2)], [0, 0, Fraction(-5, 7), Fraction(3, 4)],
        [Fraction(4)], [0, 0, Fraction(1, 3)], [],
    ], ids=["linear", "linear-times-c^2", "constant", "monomial", "zero"])
    def test_linear_and_constant_inputs(self, coeffs):
        p = [Scalar.from_fraction(x) for x in coeffs]
        got, want = _extract_roots(p, "c1"), extract_roots_by_fractions(p, "c1")
        assert ([str(r) for r in got[0]], got[1]) == ([str(r) for r in want[0]], want[1])

    def test_inputs_over_a_generic_symbol(self):
        g = fresh_symbol()
        one, two = Scalar.from_fraction(1), Scalar.from_fraction(2)
        for p in ([g, two], [Scalar.from_fraction(0), g * g - one, g],
                  [g, one, one], [one, g, Scalar.from_fraction(0), two]):
            got, want = _extract_roots(p, "c1"), extract_roots_by_fractions(p, "c1")
            assert ([str(r) for r in got[0]], got[1]) == ([str(r) for r in want[0]], want[1])

    def test_minors_roots_are_extracted_once_per_regime(self):
        # both conditions hold in the limit plane and refine at c1 = 1: the
        # minors' gcd c1^2 - c1 is searched once for (a) and (b) together,
        # the secants' gcd c1 - 1 once for (b)
        c = Scalar.symbol("c1")
        zero, one = Scalar.from_fraction(0), Scalar.from_fraction(1)
        keys = [(1, 2), (1, 3), (2, 3)]
        calls = []

        def counted(p, cname):
            calls.append(len(p))
            return _extract_roots(p, cname)

        with mock.patch.object(limits, "_extract_roots", counted):
            tests = _regime_tests([zero, c - one, zero], [c * (c - one), zero, zero],
                                  keys, 3, "ab", "c1", True)
        assert sorted(calls) == [2, 3]
        assert [(ijk, [str(r) for r in roots], unresolved)
                for ijk, _, roots, unresolved in tests] == [(None, ["1"], [])] * 2


# 1 and quadratics and cubics without a rational root, so irreducible over Q
IRREDUCIBLE = (
    [Fraction(1)],
    [Fraction(1), 0, Fraction(1)], [Fraction(-2), 0, Fraction(1)],
    [Fraction(1), Fraction(1), Fraction(1)], [Fraction(-5), 0, Fraction(3)],
    [Fraction(-2), 0, 0, Fraction(1)], [Fraction(1), Fraction(1), 0, Fraction(1)],
    [Fraction(5), Fraction(-3), 0, Fraction(2)],
)


def seeded_root_polynomials(count: int = 200) -> list[tuple[list[Fraction], list[Fraction]]]:
    """(coefficients by degree, the distinct nonzero rational roots): 1-3
    distinct roots from 0, +-1..6 and +-p/q, q <= 4, each of multiplicity
    1-3, times one of IRREDUCIBLE, times a rational scale."""
    rng = random.Random(20261020)
    pool = sorted({Fraction(p, q) for p in range(-6, 7) for q in range(1, 5)})
    out = []
    for _ in range(count):
        roots = rng.sample(pool, rng.randint(1, 3))
        coeffs = poly_from_roots([(r, rng.randint(1, 3)) for r in roots])
        factor = rng.choice(IRREDUCIBLE)
        product = [Fraction(0)] * (len(coeffs) + len(factor) - 1)
        for i, x in enumerate(coeffs):
            for j, y in enumerate(factor):
                product[i + j] += x * y
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        out.append(([x * scale for x in product], [r for r in roots if r]))
    return out


def random_small_family(rng):
    """2-3 entries of 1-3 terms c*a^i*t^j, c in +-1, +-2, i <= 3, j <= 4."""
    while True:
        entries = ["a"]
        for _ in range(rng.randint(2, 3)):
            terms = {(rng.randint(0, 3), rng.randint(0, 4))
                     for _ in range(rng.randint(1, 3))}
            entries.append(" + ".join(f"({rng.choice((-2, -1, 1, 2))})*a^{i}*t^{j}"
                                      for i, j in sorted(terms)))
        try:
            return family_from_strings(entries)
        except FamilyValidationError:
            continue


def refined_apart(rec_a, rec_b) -> bool:
    """Whether, at some regime of two parallel record lists, exactly one
    condition refines."""
    return any(bool(ra.refinements) != bool(rb.refinements)
               or refined_apart(ra.refinements, rb.refinements)
               for ra, rb in zip(rec_a, rec_b))


def nested(records) -> bool:
    return any(sub.refinements for r in records for sub in r.refinements) or \
        any(nested(r.refinements) for r in records)


class TestJointSweep:
    """One sweep decides both conditions; each condition's part must equal
    a sweep of that condition alone."""

    @staticmethod
    def alone(fam, a0, max_depth, mode):
        centered, a0, label = fam.centered(a0)
        ((state, records),) = _sweep(
            secant_vector(centered), centered.plucker_minors(), centered.dim, mode,
            w_min=Fraction(0), depth_left=max_depth, t_scale=1,
            prefix=Arc(a0=a0), a0_label=label)
        return WhitneyResult(state.verdict, mode, label, state.witness,
                             tuple(records), tuple(state.reasons))

    def test_joint_equals_each_condition_alone(self):
        # every base point of a family that refines somewhere, and of every
        # tenth family besides, is compared at each depth
        rng = random.Random(1111)
        families = [random_small_family(rng) for _ in range(240)]
        families.append(load_family(corpus_path("tangent-arc.json")))
        compared = seen_nested = seen_apart = 0
        for n, fam in enumerate(families):
            for basepoint in (0, Fraction(1, 2), "generic"):
                a0, _ = resolve_basepoint(basepoint)
                deep = whitney_check(fam, a0, 4)
                if n % 10 and not any(r.refinements for r in
                                      deep.part_a.regimes + deep.part_b.regimes):
                    continue
                seen_nested += nested(deep.part_a.regimes + deep.part_b.regimes)
                seen_apart += refined_apart(deep.part_a.regimes, deep.part_b.regimes)
                for max_depth in (0, 1, 4):
                    joint = whitney_check(fam, a0, max_depth)
                    for part, mode in ((joint.part_a, "a"), (joint.part_b, "b")):
                        assert part.to_json() == \
                            self.alone(fam, a0, max_depth, mode).to_json(), \
                            (fam.entry_strings(), basepoint, max_depth, mode)
                    compared += 1
        assert compared > 150 and seen_nested and seen_apart

    def test_each_root_swept_once(self, monkeypatch):
        calls = []
        sweep = limits._sweep

        def counted(*args, **kwargs):
            calls.append(args[3])
            return sweep(*args, **kwargs)

        monkeypatch.setattr(limits, "_sweep", counted)
        res = whitney_check(load_family(corpus_path("tangent-arc.json")))
        assert res.verdict is Verdict.REFUTED
        assert len(calls) == 3


def shared_regime_families():
    rng = random.Random(1313)
    return ([random_monomial_family(rng) for _ in range(20)]
            + [random_binomial_family(rng) for _ in range(20)])


SHARED_BASEPOINTS = (0, Fraction(1, 2), "generic", Fraction(-2))


class TestSharedRegimes:
    """One record per breakpoint and per open sector between breakpoints:
    every exponent of the all-pairs plan that report version 1 swept,
    refined levels included, must get, evaluated alone, the status of the
    record whose sector or breakpoint contains it."""

    @staticmethod
    def centered_system(fam, basepoint):
        a0, _ = resolve_basepoint(basepoint)
        centered, _, _ = fam.centered(a0)
        minors = centered.plucker_minors()
        keys = sorted(minors)
        return a0, centered, secant_vector(centered), keys, [minors[k] for k in keys]

    @staticmethod
    def status_alone(vec, keys, om_polys, theta, mode, dim):
        """(status, roots) of one regime from its own leads, before the
        refinement depth is taken into account."""
        csym = Scalar.symbol("c1")
        sv, so = ((None, None) if theta is None else
                  (support_all_terms(vec, theta), support_all_terms(om_polys, theta)))
        vec_lead = _regime_lead(vec, theta, csym, sv)
        if vec_lead is None:
            return "vacuous", []
        om_lead = _regime_lead(om_polys, theta, csym, so)
        if om_lead is None:
            return "degenerate", []
        zero, one = Scalar.from_fraction(0), Scalar.from_fraction(1)
        test_vec = vec_lead if mode == "b" else [one] + [zero] * (dim - 1)
        if any(not v.is_zero() for v in wedge3(test_vec, dict(zip(keys, om_lead)), dim).values()):
            return "violated", []
        if theta is None:
            return "contained", []
        roots, unresolved = [], False
        for leads in ([test_vec, om_lead] if mode == "b" else [om_lead]):
            g = _c_gcd_many([c.coeffs_in("c1") for c in leads if not c.is_zero()])
            got, factor = _extract_roots(g, "c1")
            roots += [r for r in got if not any(r == r2 for r2 in roots)]
            unresolved |= factor is not None
        return ("unresolved" if unresolved else "contained"), roots

    def check_sweep(self, records, vec, keys, om_polys, mode, dim, w_min, depth, t_scale):
        """Compare the leading records of a sweep, refinements included, with
        each all-pairs regime evaluated alone; (records used, regimes
        compared, regimes compared at refined levels)."""
        crits = sorted(true_breakpoints(vec, w_min) | true_breakpoints(om_polys, w_min))
        plan = _regime_plan(crits, w_min)
        assert [r.theta for r in records[:len(plan)]] == \
            ["inf" if th is None else str(th / t_scale) for th, _ in plan]
        all_pairs = sorted(th for th in critical_exponents_all_pairs(vec + om_polys)
                           if th > w_min)
        v1_plan = _regime_plan(all_pairs, w_min)
        hit, refine = set(), {}
        for theta, _ in v1_plan:
            if theta is None:
                index = len(plan) - 1
            else:
                # plan = sector, crits[0], sector, crits[1], ..., sector, vertical
                k = bisect_left(crits, theta)
                index = 2 * k + (k < len(crits) and crits[k] == theta)
            rec = records[index]
            status, roots = self.status_alone(vec, keys, om_polys, theta, mode, dim)
            assert rec.status == ("unresolved" if roots and not depth else status), \
                (rec.theta, theta, depth)
            hit.add(index)
            if roots:
                assert rec.kind == "critical" and rec.theta == str(theta / t_scale)
                refine[index] = theta, roots
        assert hit == set(range(len(plan)))
        compared, refined = len(v1_plan), 0
        for index, rec in enumerate(records[:len(plan)]):
            rest = rec.refinements
            theta, roots = refine.get(index, (None, []))
            for c0 in (roots if depth else []):
                p, q = theta.numerator, theta.denominator
                arc = [Poly.monomial(AT, (0, p), c0) + Poly.var(AT, "a"),
                       Poly.monomial(AT, (0, q))]
                used, n, _ = self.check_sweep(
                    rest, [v.compose(arc) for v in vec], keys,
                    [o.compose(arc) for o in om_polys], mode, dim, Fraction(p),
                    depth - 1, t_scale * q)
                rest, compared, refined = rest[used:], compared + n, refined + n
            assert not rest
        return len(plan), compared, refined

    def test_each_regime_matches_its_own_evaluation(self):
        compared = refined = 0
        for fam in shared_regime_families():
            for basepoint in SHARED_BASEPOINTS:
                a0, centered, vec, keys, om_polys = self.centered_system(fam, basepoint)
                res = whitney_check(fam, a0)
                for part, mode in ((res.part_a, "a"), (res.part_b, "b")):
                    used, n, n_refined = self.check_sweep(
                        part.regimes, vec, keys, om_polys, mode, centered.dim,
                        Fraction(0), 4, 1)
                    assert used == len(part.regimes), (fam.entry_strings(), basepoint)
                    compared += n
                    refined += n_refined
        assert compared > 6000 and refined > 30

    def test_records_sit_on_breakpoints_and_sectors(self, monkeypatch):
        """Every finite critical record has more than one point of least
        weight on some side, and every finite sector record one on each."""
        critical = sector = 0
        for vec, om_polys, _, t_scale, swept in \
                TestNewtonPolygonOncePerLevel.swept_levels(monkeypatch):
            for _, records in swept:
                for rec in records[:-1]:
                    theta = Fraction(rec.theta) * t_scale
                    sizes = (len(support_all_terms(vec, theta)),
                             len(support_all_terms(om_polys, theta)))
                    if rec.kind == "critical":
                        assert max(sizes) > 1, (rec.theta, sizes)
                        critical += 1
                    else:
                        assert sizes == (1, 1), (rec.theta, sizes)
                        sector += 1
        assert critical > 80 and sector > 400

    def test_single_vertex_regimes_have_equal_leads(self):
        csym = Scalar.symbol("c1")
        groups = 0
        for fam in shared_regime_families():
            for basepoint in SHARED_BASEPOINTS:
                _, _, vec, _, om_polys = self.centered_system(fam, basepoint)
                crits = sorted(critical_exponents_all_pairs(vec + om_polys))
                by_vertices = {}
                for theta, _ in _regime_plan(crits, Fraction(0))[:-1]:
                    sv = support_all_terms(vec, theta)
                    so = support_all_terms(om_polys, theta)
                    if len(sv) == len(so) == 1:
                        by_vertices.setdefault((sv, so), []).append(theta)
                for thetas in by_vertices.values():
                    leads = [(_regime_lead(vec, th, csym, support_all_terms(vec, th)),
                              _regime_lead(om_polys, th, csym,
                                           support_all_terms(om_polys, th)))
                             for th in thetas]
                    for lead in leads[1:]:
                        assert lead == leads[0]
                        assert [list(map(str, v)) for v in lead] == \
                            [list(map(str, v)) for v in leads[0]]
                    groups += len(thetas) > 1
        assert groups > 80


class TestNewtonPolygonOncePerLevel:
    """Each sweep level reads each side's support points once: the
    breakpoints from the lower hull of its staircase, the supports from the
    staircase.  Both must equal the all-terms readings they replace, at
    every level a sweep reaches, refined levels' composed polynomials
    included."""

    # leading terms cancel at rational c, so these sweeps refine, some of
    # them to the last level
    REFINING = [
        ["a", "a*t - t^2 - t^3", "t^4"],
        ["a", "t^2*(a - t - t^2)", "t^3*(a - t - t^2)"],
        ["a", "(a - t - t^2 - t^3)*t^2", "(a - t - t^2 - t^3)*t^3"],
        ["a", "t*(a^2 - t^3)", "t^2*(a^2 - t^3)"],
        ["a", "t*(a - t)*(a - 2*t)", "t^2*(a - t)*(a - 2*t)"],
        ["a", "t^2 - a^2*t", "t^3*(a - t^2 - t^3)"],
        ["a", "t^4 - a^2*t", "a*t^3 - a^3*t^3", "t^5 - a^2*t^4"],
        ["a", "a*t^4 - a^3*t", "a*t^6 + t^6", "a^3*t^2 - a^3*t^6"],
    ]

    @classmethod
    def swept_levels(cls, monkeypatch):
        """(secants, minors, w_min, t_scale, swept) of every sweep level of
        the seeded families at the four base points, where ``swept`` is the
        level's (state, records) per condition."""
        levels = []
        sweep = limits._sweep

        def spy(vec, omega, dim, modes, *, w_min, **kw):
            swept = sweep(vec, omega, dim, modes, w_min=w_min, **kw)
            levels.append((vec, [omega[k] for k in sorted(omega)], w_min,
                           kw["t_scale"], swept))
            return swept

        with monkeypatch.context() as m:
            m.setattr(limits, "_sweep", spy)
            for fam in shared_regime_families() + [
                    family_from_strings(e) for e in cls.REFINING]:
                for basepoint in SHARED_BASEPOINTS:
                    whitney_check(fam, basepoint)
        assert len(levels) > 200 and sum(w_min > 0 for _, _, w_min, *_ in levels) > 25
        return levels

    @staticmethod
    def support_mismatches(levels, staircase):
        """(mismatches, comparisons) of the staircase supports against the
        all-terms ones, for each side at every exponent of each plan."""
        bad = compared = 0
        for vec, om_polys, w_min, *_ in levels:
            crits = sorted(th for th in critical_exponents_all_pairs(vec + om_polys)
                           if th > w_min)
            for theta, _ in _regime_plan(crits, w_min)[:-1]:
                for polys in (vec, om_polys):
                    got = _support(staircase(points(*polys)), theta)
                    bad += got != support_all_terms(polys, theta)
                    compared += 1
        return bad, compared

    @classmethod
    def breakpoint_mismatches(cls, monkeypatch, read):
        """(mismatches, cases): the sides' pairs, at every swept level and
        as 200 random point sets, at which ``read`` over the two sides'
        staircases differs from the all-pairs exponents with more than one
        point of least weight on either side."""
        sides = [(vec, om_polys) for vec, om_polys, *_ in cls.swept_levels(monkeypatch)]
        rng = random.Random(909)
        sides += [([random_poly(rng, False, terms=8) for _ in range(rng.randint(1, 4))], [])
                  for _ in range(200)]
        bad = sum(read(_staircase(points(*vec))) | read(_staircase(points(*om_polys)))
                  != true_breakpoints(vec) | true_breakpoints(om_polys)
                  for vec, om_polys in sides)
        return bad, len(sides)

    def test_breakpoints_equal_multi_point_supports(self, monkeypatch):
        bad, cases = self.breakpoint_mismatches(monkeypatch, _breakpoints)
        assert bad == 0 and cases > 400

    def test_staircase_slopes_are_caught(self, monkeypatch):
        # a slope between every two neighbours on the staircase keeps the
        # vertices that lie above the hull
        def staircase_slopes(stair):
            return {Fraction(j1 - j2, i2 - i1)
                    for (i1, j1), (i2, j2) in zip(stair, stair[1:])}

        bad, _ = self.breakpoint_mismatches(monkeypatch, staircase_slopes)
        assert bad > 5

    def test_staircase_support_equals_all_terms(self, monkeypatch):
        bad, compared = self.support_mismatches(self.swept_levels(monkeypatch), _staircase)
        assert bad == 0 and compared > 12000
        rng = random.Random(910)
        for _ in range(200):
            polys = [random_poly(rng, False, terms=8) for _ in range(rng.randint(1, 4))]
            stair = _staircase(points(*polys))
            for theta in TestInitialForms.THETAS:
                assert _support(stair, theta) == support_all_terms(polys, theta)

    def test_lowest_j_only_staircase_is_caught(self, monkeypatch):
        def lowest_j(pts):
            return _staircase(pts)[-1:]

        bad, _ = self.support_mismatches(self.swept_levels(monkeypatch), lowest_j)
        assert bad > 1000
