"""Characteristic exponents read from the coordinates' supports; strong
comparison."""

import random
import time
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest

from equising import (
    DegenerateFiberError,
    FamilyValidationError,
    NoUnitChartError,
    Poly,
    Scalar,
    Verdict,
    blowup_singular_locus,
    char_exponents,
    char_exponents_at,
    fresh_symbol,
    load_family,
    nash_modification,
    family_from_strings,
    parse_poly,
    strong_equisingularity_check,
)
from equising import projection
from equising.algebra import symbol_run
from conftest import (
    char_exponents_two_scans,
    corpus_path,
    generic_plane_projection,
    monomial_char_exponents,
    random_binomial_family,
    random_monomial_family,
    support_scan_by_coeff_of,
    support_scan_by_root,
    support_scan_by_series,
    support_scan_full_order,
)

T = ("t",)


def P(text):
    return parse_poly(text, T)


class TestPlanePairs:
    def test_two_characteristic_exponents(self):
        seq = char_exponents(P("t^4"), P("t^6 + t^7"))
        assert (seq.beta0, seq.betas) == (4, (6, 7))
        assert seq.final_gcd == 1 and seq.confirmed

    def test_smooth_branch(self):
        seq = char_exponents(P("t"), P("t^5"))
        assert (seq.beta0, seq.betas) == (1, ())
        assert seq.confirmed

    def test_vanishing_second_coordinate(self):
        seq = char_exponents(P("t^4"), Poly.zero(T))
        assert (seq.beta0, seq.betas, seq.final_gcd) == (4, (), 4)
        assert seq.confirmed

    def test_common_lattice_is_certified(self):
        seq = char_exponents(P("t^2"), P("t^4"))
        assert (seq.beta0, seq.betas, seq.final_gcd) == (2, (), 2)
        assert seq.confirmed

    def test_inputs_swap_to_lower_order(self):
        assert char_exponents(P("t^3"), P("t^2")).beta0 == 2

    def test_unit_coefficients_do_not_matter(self):
        a = char_exponents(P("2*t^4"), P("3*t^6 - t^7"))
        b = char_exponents(P("t^4"), P("t^6 + 5*t^7"))
        assert (a.beta0, a.betas) == (b.beta0, b.betas)

    def test_space_branch_reads_the_union_of_supports(self):
        seq = char_exponents(P("t^4"), P("t^6"), P("t^7"))
        assert (seq.beta0, seq.betas, seq.final_gcd) == (4, (6, 7), 1)
        assert seq.confirmed

    def test_point_input_rejected(self):
        with pytest.raises(DegenerateFiberError):
            char_exponents(Poly.zero(T), Poly.zero(T))
        with pytest.raises(ValueError):
            char_exponents(P("1 + t"), P("t^2"))


class TestFiberSequences:
    def test_generic_versus_origin(self):
        fam = load_family(corpus_path("family-467.json"))
        generic = char_exponents_at(fam, fresh_symbol())
        origin = char_exponents_at(fam, 0)
        assert (generic.beta0, generic.betas) == (4, (6, 7))
        assert (origin.beta0, origin.betas) == (4, (7,))
        assert generic.confirmed and origin.confirmed

    def test_truncation_certificate_on_corpus(self):
        for name in ("family-345.json", "family-467.json",
                     "family-589.json", "tangent-arc.json"):
            fam = load_family(corpus_path(name))
            seq = char_exponents_at(fam, 0)
            assert seq.confirmed, name
            assert seq.final_gcd >= 1

    def test_display(self):
        fam = load_family(corpus_path("family-589.json"))
        assert char_exponents_at(fam, 0).display() == "(5; 8)"


def projected(fiber):
    """The plane branch of a generic projection of the fiber: the path the
    support scan replaced, kept as its reference."""
    return char_exponents(*generic_plane_projection(fiber))


def shares_lowest_order(fiber) -> bool:
    orders = [e.min_deg("t") for e in fiber if not e.is_zero()]
    return orders.count(min(orders)) > 1


def corpus_and_chart_families() -> list:
    """The five corpus families and the 6 blow-up and Nash charts built on
    them."""
    families = []
    for name in ("family-345", "family-352", "family-467",
                 "family-589", "tangent-arc"):
        fam = load_family(corpus_path(f"{name}.json"))
        families.append(fam)
        for build in (blowup_singular_locus, nash_modification):
            try:
                families.append(build(fam).family)
            except NoUnitChartError:
                pass
    assert len(families) == 11
    return families


class TestAgainstGenericProjection:
    def test_corpus_and_modifications(self):
        for fam in corpus_and_chart_families():
            for value in (fresh_symbol(), 0, Fraction(1, 2), Fraction(-2, 3)):
                fiber = fam.fiber(value)[1:]
                assert char_exponents_at(fam, value).to_json() == \
                    projected(fiber).to_json(), (fam.entry_strings(), value)

    def test_fuzzed_fibers(self):
        # Rational fibers only: at the generic fiber the reference runs over
        # Q(a, projection symbols) and can take minutes.
        rng = random.Random(20261018)
        checked = 0
        while checked < 200:
            fam = random_binomial_family(rng)
            for value in (0, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                      rng.randint(1, 9))):
                fiber = fam.fiber(value)[1:]
                if shares_lowest_order(fiber):
                    continue
                assert char_exponents_at(fam, value).to_json() == \
                    projected(fiber).to_json(), (fam.entry_strings(), value)
                checked += 1


class TestMonomialOracle:
    def test_random_monomial_families(self):
        rng = random.Random(7)
        shared = 0
        for _ in range(200):
            fam = random_monomial_family(rng)
            for value in (fresh_symbol(), 0, Fraction(rng.randint(1, 9),
                                                      rng.randint(2, 9))):
                fiber = fam.fiber(value)[1:]
                shared += shares_lowest_order(fiber)
                orders = [e.min_deg("t") for e in fiber if not e.is_zero()]
                seq = char_exponents_at(fam, value)
                assert (seq.beta0, seq.betas, seq.final_gcd) == \
                    monomial_char_exponents(orders), (fam.entry_strings(), value)
                assert seq.confirmed
        assert shared > 0


def seeded_fibers() -> list[list[Poly]]:
    """360 fibers: 60 seeded binomial and 60 monomial families, each at
    a = 0, at a rational value and at the generic value."""
    rng = random.Random(20261019)
    cases = []
    for _ in range(60):
        for fam in (random_binomial_family(rng),
                    random_monomial_family(rng, max_extra=3)):
            for value in (0, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                      rng.randint(1, 9)), fresh_symbol()):
                cases.append(fam.fiber(value)[1:])
    return cases


def with_scan(scan, fibers) -> list[dict]:
    """``char_exponents`` of each fiber, reports as JSON, with ``scan`` in
    place of ``projection._support_scan``."""
    with mock.patch.object(projection, "_support_scan", scan):
        return [char_exponents(*fiber).to_json() for fiber in fibers]


def two_scans(scan, fibers) -> list[dict]:
    """The same from the former two scans, to the first truncation and
    then to twice it, by ``scan``: a full-order scan reads only as far as
    it did."""
    return [char_exponents_two_scans(*fiber, scan=scan).to_json() for fiber in fibers]


def transversal_coordinate(fiber) -> Poly:
    """The coordinate ``char_exponents`` reparametrizes: the first one of
    least t-order."""
    coords = [c for c in fiber if not c.is_zero()]
    m = min(c.min_deg("t") for c in coords)
    return next(c for c in coords if c.min_deg("t") == m)


class TestAgainstCoeffOfScan:
    def test_seeded_families_match_the_former_scan(self):
        # the former scan read each coefficient through Poly.coeff_of and
        # took the binomial root of a unit series term by term
        cases = seeded_fibers()
        assert with_scan(projection._support_scan, cases) == \
            two_scans(support_scan_by_coeff_of, cases)


class TestAgainstFullOrderScan:
    """The scan at doubling precision, with compose by s as the identity,
    the unit reversion without set-up and no division of zeros, against
    the scan that computed every series to the full truncation order."""

    def test_seeded_fibers(self):
        cases = seeded_fibers()
        assert with_scan(projection._support_scan, cases) == \
            two_scans(support_scan_full_order, cases)

    def test_non_monomial_transversal_coordinate(self):
        # a transversal coordinate c*t^m plus a tail: u is not a unit
        # series, so the root, the Newton steps and the general compose run
        rng = random.Random(20261020)

        def term(i, j):
            return f"({rng.choice((-1, 1)) * rng.randint(1, 9)})*a^{i}*t^{j}"

        cases = []
        while len(cases) < 200:
            m = rng.randint(2, 4)
            x = " + ".join([term(0, m)] + [term(rng.randint(0, 1), m + rng.randint(1, 4))
                                           for _ in range(rng.randint(1, 2))])
            others = [" + ".join(term(rng.randint(0, 2), rng.randint(m + 1, m + 5))
                                 for _ in range(rng.randint(1, 2)))
                      for _ in range(rng.randint(1, 2))]
            fam = family_from_strings(["a", x, *others])
            value = rng.choice((fresh_symbol(), Fraction(rng.randint(1, 9), rng.randint(1, 9))))
            fiber = fam.fiber(value)[1:]
            if len(transversal_coordinate(fiber).terms) > 1:
                cases.append(fiber)
        assert with_scan(projection._support_scan, cases) == \
            two_scans(support_scan_full_order, cases)

    def test_corpus_families_and_their_charts(self):
        cases = [fam.fiber(value)[1:] for fam in corpus_and_chart_families()
                 for value in (fresh_symbol(), 0, Fraction(1, 2), Fraction(-2, 3))]
        assert with_scan(projection._support_scan, cases) == \
            two_scans(support_scan_full_order, cases)

    def test_small_random_families(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        term = st.tuples(st.integers(-5, 5).filter(bool), st.integers(0, 2),
                         st.integers(1, 6))
        entry = st.lists(term, min_size=1, max_size=3)

        @hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.lists(entry, min_size=2, max_size=3),
                          st.sampled_from(["generic", 0, Fraction(1, 2), Fraction(-3)]))
        def check(entries, value):
            texts = ["a"] + [" + ".join(f"({c})*a^{i}*t^{j}" for c, i, j in e) for e in entries]
            try:
                fam = family_from_strings(texts)
            except FamilyValidationError:
                hypothesis.reject()
            fiber = fam.fiber(fresh_symbol() if value == "generic" else value)[1:]
            hypothesis.assume(not all(c.is_zero() for c in fiber))
            assert with_scan(projection._support_scan, [fiber]) == \
                with_scan(support_scan_full_order, [fiber]), (texts, value)

        check()


# a transversal coordinate with a tail: the reparametrization is no
# identity (the root-then-Newton path took 0.2-0.8 s on each)
NON_MONOMIAL_FAMILIES = {
    "a": ["a", "3*a*t^6 + t^8 + 3*t^7", "2*a*t^4"],
    "b": ["a", "a*t^6", "3*t^5 + 2*t^7 - 3*t^8", "3*a^2*t^4 + a*t^8"],
    "c": ["a", "2*a^2*t^2", "3*a^2*t^3 + 2*t^6 + 2*t^5", "a*t^5"],
    "d": ["a", "t^2*(t+a+1)^2", "t^4*(t+a+1)^4 + t^7"],
}


def seeded_non_monomial_families(count: int) -> list[list[str]]:
    """Entries (a, x, y[, z]): x = c*t^m plus 1-2 terms of higher t-order,
    m in 2-4, the others of t-order above m, so x is the transversal
    coordinate of every fiber and u is not a unit series."""
    rng = random.Random(20261021)

    def term(i, j):
        return f"({rng.choice((-1, 1)) * rng.randint(1, 9)})*a^{i}*t^{j}"

    out = []
    while len(out) < count:
        m = rng.randint(2, 4)
        x = " + ".join([term(0, m)] + [term(rng.randint(0, 1), m + rng.randint(1, 4))
                                       for _ in range(rng.randint(1, 2))])
        others = [" + ".join(term(rng.randint(0, 2), rng.randint(m + 1, m + 5))
                             for _ in range(rng.randint(1, 2)))
                  for _ in range(rng.randint(1, 2))]
        entries = ["a", x, *others]
        try:
            family_from_strings(entries)
        except FamilyValidationError:
            continue
        out.append(entries)
    return out


def strong_reports(entries_list, scan=None) -> list[dict]:
    """Strong JSON at a = 0, at a = 1/2 and at the generic fiber, with
    ``scan`` in place of ``projection._support_scan`` when given."""
    def run():
        out = []
        for entries in entries_list:
            with symbol_run():
                res = strong_equisingularity_check(family_from_strings(entries),
                                                   special_a=(Fraction(1, 2),))
            out.append(res.to_json())
        return out

    if scan is None:
        return run()
    with mock.patch.object(projection, "_support_scan", scan):
        return run()


class TestAgainstRootThenNewton:
    """The scan reparametrizing by Lagrange inversion against the one that
    took the binomial m-th root and then Newton's reversion."""

    def test_families_a_to_d(self):
        cases = list(NON_MONOMIAL_FAMILIES.values())
        assert strong_reports(cases) == strong_reports(cases, support_scan_by_root)

    def test_seeded_non_monomial_families(self):
        cases = seeded_non_monomial_families(300)
        assert strong_reports(cases) == strong_reports(cases, support_scan_by_root)

    @pytest.mark.parametrize("name", ["a", "b"])
    def test_strong_check_time(self, name):
        # 0.43-0.80 s each through the root and Newton's reversion
        family = family_from_strings(NON_MONOMIAL_FAMILIES[name])
        start = time.perf_counter()
        strong_equisingularity_check(family, special_a=(Fraction(1, 2),))
        assert time.perf_counter() - start < 0.3


# one-term transversal coordinates whose coefficient has several terms in
# Q(g) at the generic fiber, or is rational or negative
ONE_TERM_FAMILIES = [
    ["a", "(a^2+3)*t^4", "a*t^6 + t^9", "t^11"],
    ["a", "(a+1)^3*t^6", "(a - 2)*t^8 + t^9", "t^15 - 2/5*a*t^13"],
    ["a", "-3/7*t^4", "5/2*a*t^6 - t^10", "(a-1)^2*t^13"],
    ["a", "-1/2*(a^2 + a + 1)*t^2", "-7/3*t^4 + a*t^5"],
    ["a", "(a^3 - 5/4)*t^3", "-1*t^6 + a^2*t^7 - 1/9*t^8"],
]


def one_term_fibers() -> list[list[Poly]]:
    """Seeded monomial families at the generic fiber and at a = 0, and
    ``ONE_TERM_FAMILIES`` at those and at two rational values."""
    rng = random.Random(20261025)
    cases = []
    for _ in range(150):
        fam = random_monomial_family(rng)
        cases += [fam.fiber(fresh_symbol())[1:], fam.fiber(0)[1:]]
    for entries in ONE_TERM_FAMILIES:
        fam = family_from_strings(entries)
        cases += [fam.fiber(v)[1:] for v in (fresh_symbol(), 0, Fraction(1, 2), Fraction(-2))]
    return cases


class TestOneTermTransversal:
    """The walk over a one-term x's supports against the series path it
    replaced, which reparametrized by the unit reversion and composed
    with s."""

    def test_seeded_and_chosen_fibers(self):
        cases = one_term_fibers()
        assert all(len(transversal_coordinate(fiber).terms) == 1 for fiber in cases)
        assert with_scan(projection._support_scan, cases) == \
            with_scan(support_scan_by_series, cases)

    def test_multi_term_coefficient_in_q_of_g(self):
        fam = family_from_strings(ONE_TERM_FAMILIES[0])
        x = transversal_coordinate(fam.fiber(fresh_symbol())[1:])
        assert len(x.terms) == 1 and len(x.terms[(4,)].num) == 2

    def test_random_supports(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        coeff = st.sampled_from([1, -1, 2, -5, Fraction(3, 7), Fraction(-2, 9)])

        @st.composite
        def supports(draw):
            m = draw(st.integers(2, 8))
            others = draw(st.lists(st.dictionaries(st.integers(m, m + 30), coeff,
                                                   min_size=1, max_size=5),
                                   min_size=1, max_size=3))
            top = max(j for y in others for j in y)
            order = draw(st.integers(1, 2 * (2 * max(top, m) + 1)))
            return m, draw(coeff), others, order

        @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hypothesis.given(supports())
        def check(case):
            m, xm, others, order = case
            x = Poly(T, {(m,): xm})
            ys = [Poly(T, {(j,): c for j, c in y.items()}) for y in others]
            floor_gcd = gcd(m, *(j for y in others for j in y))
            assert projection._support_scan(x, ys, m, order, floor_gcd) == \
                support_scan_by_series(x, ys, m, order, floor_gcd), case
            assert with_scan(projection._support_scan, [[x, *ys]]) == \
                with_scan(support_scan_by_series, [[x, *ys]]), case

        check()


class TestReversionCalls:
    """Only a transversal coordinate of more than one term is reparametrized
    through series."""

    @staticmethod
    def reversions(families, basepoints) -> int:
        with mock.patch.object(projection, "series_reversion",
                               wraps=projection.series_reversion) as rev:
            for fam in families:
                for basepoint in basepoints:
                    strong_equisingularity_check(fam, basepoint)
        return rev.call_count

    def test_corpus_families_and_their_charts_never_reverse(self):
        assert self.reversions(corpus_and_chart_families(), (0, "generic")) == 0

    def test_two_term_transversal_coordinate_reverses(self):
        fam = family_from_strings(["a", "t^2 + t^3", "t^5"])
        assert self.reversions([fam], (0, "generic")) > 0


class TestScanPrecision:
    def test_long_entry_reads_only_what_the_scan_needs(self):
        # each series was computed to 2*102+1 = 205: 58 s before the
        # working precision doubled from 2m; the report is the one the
        # full-order scan gave
        family = family_from_strings(["a", "t^2*(a+t)^100", "t^3"])
        start = time.perf_counter()
        with symbol_run():
            res = strong_equisingularity_check(family)
        assert time.perf_counter() - start < 2.0
        assert res.to_json() == {
            "verdict": "Refuted",
            "sequences": {
                "generic": {"beta0": 2, "betas": [3], "final_gcd": 1, "confirmed": True,
                            "truncation": 205, "display": "(2; 3)"},
                "a = 0": {"beta0": 3, "betas": [], "final_gcd": 3, "confirmed": True,
                          "truncation": 205, "display": "(3;)"},
            },
            "mismatch": ["generic", "a = 0"],
        }


class TestOnePrecisionLoop:
    """One scan up to twice the first truncation against the former two:
    to the first truncation, then from 2m again up to twice it."""

    def test_seeded_fibers(self):
        cases = seeded_fibers()
        cases += [family_from_strings(entries).fiber(value)[1:]
                  for entries in seeded_non_monomial_families(60)
                  for value in (0, Fraction(1, 2), fresh_symbol())]
        assert with_scan(projection._support_scan, cases) == \
            two_scans(projection._support_scan, cases)

    @pytest.mark.parametrize("x, y, truncation", [
        ("t^2 + t^3", "t^4 + 2*t^5 + t^6", 26),
        ("t^2 + t^3 + t^5", "(t^2 + t^3 + t^5)^3", 62),
    ])
    def test_unconfirmed_sequences(self, x, y, truncation):
        # y is a power of x, so only even powers of s appear while the
        # support gcd is 1: no truncation confirms the sequence
        seq = char_exponents(P(x), P(y))
        assert (seq.display(), seq.confirmed, seq.truncation) == ("(2;)", False, truncation)
        assert seq.to_json() == char_exponents_two_scans(P(x), P(y)).to_json()
        with mock.patch.object(projection, "_support_scan",
                               wraps=projection._support_scan) as scan:
            char_exponents(P(x), P(y))
        assert scan.call_count == 1

    def test_truncation_is_twice_the_first_past_it(self):
        # no branch has been found that confirms only past the first
        # truncation (2*3 + 1 here), so the scan's answer is stubbed
        for betas, truncation in (([3], 7), ([9], 14)):
            with mock.patch.object(projection, "_support_scan", return_value=(betas, 1)):
                assert char_exponents(P("t^2"), P("t^3")).truncation == truncation


class TestStrongCheck:
    def test_refuted_by_exponent_drop(self):
        fam = load_family(corpus_path("family-467.json"))
        res = strong_equisingularity_check(fam)
        assert res.verdict is Verdict.REFUTED
        assert res.mismatch == ("generic", "a = 0")
        bydict = dict(res.sequences)
        assert bydict["generic"].key() == (4, (6, 7))
        assert bydict["a = 0"].key() == (4, (7,))

    def test_verified_family(self):
        fam = load_family(corpus_path("family-589.json"))
        res = strong_equisingularity_check(fam)
        assert res.verdict is Verdict.VERIFIED
        assert all(seq.key() == (5, (8,)) for _, seq in res.sequences)

    def test_extra_special_values(self):
        fam = load_family(corpus_path("family-589.json"))
        res = strong_equisingularity_check(
            fam, special_a=(Fraction(1, 2), Fraction(-2)))
        assert res.verdict is Verdict.VERIFIED
        assert len(res.sequences) == 4

    def test_modifications_can_lose_strength(self):
        fam = load_family(corpus_path("family-589.json"))
        for mod in (blowup_singular_locus(fam), nash_modification(fam)):
            res = strong_equisingularity_check(mod.family)
            assert res.verdict is Verdict.REFUTED
            bydict = dict(res.sequences)
            assert bydict["generic"].key() == (3, (4,))
            assert bydict["a = 0"].key() == (3, (5,))

    def test_draws_only_the_generic_fiber_symbol(self):
        fam = load_family(corpus_path("family-467.json"))
        with symbol_run():
            strong_equisingularity_check(fam, special_a=(Fraction(1, 2),))
            assert str(fresh_symbol()) == "g2"

    def test_multiplicity_jump_refutes_outright(self):
        fam = load_family(corpus_path("family-352.json"))
        res = strong_equisingularity_check(fam)
        assert res.verdict is Verdict.REFUTED
        bydict = dict(res.sequences)
        assert bydict["generic"].beta0 == 2
        assert bydict["a = 0"].beta0 == 3


class TestHighDegree:
    """The strong check at t-degree 300-500.  The transversal coordinate is
    the monomial t^2, so the reversion is the identity and each coordinate
    is composed with s alone: the Scalar multiplications must grow
    linearly in the degree, not with its square or cube."""

    @pytest.mark.parametrize("entries, verdict, shown, max_muls", [
        (["a", "t^2", "t^501"], Verdict.VERIFIED,
         {"generic": "(2; 501)", "a = 0": "(2; 501)"}, 8000),
        (["a", "t^2 + a^300*t", "t^301 + a*t^3"], Verdict.REFUTED,
         {"generic": "(1;)", "a = 0": "(2; 301)"}, 4000),
    ])
    def test_multiplications_and_time_are_bounded(self, monkeypatch, entries,
                                                  verdict, shown, max_muls):
        muls = 0
        mul = Scalar.__mul__

        def counted(self, other):
            nonlocal muls
            muls += 1
            return mul(self, other)

        monkeypatch.setattr(Scalar, "__mul__", counted)
        monkeypatch.setattr(Scalar, "__rmul__", counted)
        family = family_from_strings(entries)
        start = time.perf_counter()
        with symbol_run():
            res = strong_equisingularity_check(family)
        seconds = time.perf_counter() - start
        assert res.verdict is verdict
        assert {label: seq.display() for label, seq in res.sequences} == shown
        assert all(seq.confirmed for _, seq in res.sequences)
        assert muls <= max_muls, muls
        assert seconds < 2.0, seconds
