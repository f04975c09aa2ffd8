"""Generic-projection polar test, equimultiplicity, and the crosscheck."""

import random
from fractions import Fraction

import pytest

from equising import (
    NoUnitChartError,
    Verdict,
    blowup_singular_locus,
    equivalence_crosscheck,
    fresh_symbol,
    load_family,
    nash_modification,
    t_order,
    whitney_check,
    zariski_check,
)
from equising.algebra import symbol_run
from conftest import (
    constant_value,
    corpus_path,
    fiber_multiplicity,
    generic_plane_projection,
    random_binomial_family,
    random_monomial_family,
)

CORPUS = ("family-345", "family-352", "family-467", "family-589", "tangent-arc")


def projection_polar(family, basepoint) -> dict:
    """The polar leg from the Jacobian of the generic projection itself:
    its power of t, its cofactor at the base point, and whether that
    cofactor is nonzero, which confines the critical locus to the axis."""
    fam, _, _ = family.centered(basepoint)
    x, y = generic_plane_projection(list(fam.entries))
    jac = x.diff("a") * y.diff("t") - y.diff("a") * x.diff("t")
    k = int(t_order(jac))
    unit = constant_value(jac.coeff_of("t", k))
    return {"empty": not unit.is_zero(), "vanishing_order": k,
            "unit_at_origin": str(unit)}


def polar_leg_families():
    """The corpus, the charts of its modifications and seeded fuzz."""
    families = [load_family(corpus_path(f"{name}.json")) for name in CORPUS]
    charts = []
    for fam in families:
        for build in (blowup_singular_locus, nash_modification):
            try:
                charts.append(build(fam).family)
            except NoUnitChartError:
                pass
    # family-352 and tangent-arc have no unit chart
    assert len(charts) == 6
    families += charts
    rng = random.Random(1212)
    families += [random_monomial_family(rng) for _ in range(200)]
    families += [random_binomial_family(rng) for _ in range(150)]
    return families


class TestPolar:
    def test_vanishing_orders_on_corpus(self):
        expected = {
            "family-345": (2, True),
            "family-352": (1, False),
            "family-467": (3, True),
            "family-589": (4, True),
            "tangent-arc": (0, False),
        }
        for name, (order, empty) in expected.items():
            fam = load_family(corpus_path(f"{name}.json"))
            res = projection_polar(fam, 0)
            assert res["vanishing_order"] == order, name
            assert res["empty"] is empty, name
            assert zariski_check(fam).equimultiple is empty, name

    def test_unit_coefficient_is_symbolically_nonzero(self):
        fam = load_family(corpus_path("family-345.json"))
        res = projection_polar(fam, 0)
        assert res["unit_at_origin"] != "0"
        assert res["empty"]

    def test_polar_away_from_origin(self):
        fam = load_family(corpus_path("family-352.json"))
        assert projection_polar(fam, Fraction(1, 2))["empty"]
        assert zariski_check(fam, Fraction(1, 2)).equimultiple


class TestPolarFromMinors:
    """The generic projection's critical locus stays inside the axis
    exactly when the family is equimultiple (the proof reads the Pluecker
    minors), so the Zariski test reads only the multiplicities, from the
    supports: against the projection's Jacobian and the fibers' t-orders."""

    POINTS = (0, Fraction(1, 2), "generic")

    def test_matches_projection_and_fibers_fuzz(self):
        pairs = 0
        for fam in polar_leg_families():
            for point in self.POINTS:
                with symbol_run():
                    polar = projection_polar(fam, point)
                moved, _, _ = fam.centered(point)
                with symbol_run():
                    equal, special, generic = moved.is_equimultiple()
                    # no symbol drawn
                    assert str(fresh_symbol()) == "g1"
                assert polar["empty"] is equal, (fam.entry_strings(), point)
                assert polar["vanishing_order"] == generic - 1
                assert special == fiber_multiplicity(moved, 0)
                assert generic == fiber_multiplicity(moved, fresh_symbol())
                assert equal is (special == generic)

                # the point, if generic, is the only symbol drawn
                with symbol_run():
                    res = zariski_check(fam, point)
                    drawn = point == "generic"
                    assert str(fresh_symbol()) == f"g{drawn + 1}"
                assert res.equimultiple is equal
                assert res.verdict is (Verdict.VERIFIED if equal else Verdict.REFUTED)
                assert (res.multiplicity_special, res.multiplicity_generic) == \
                    (special, generic)
                pairs += 1
        assert pairs >= 1000

    def test_vanishing_order_and_unit_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        a, t = sympy.symbols("a t")
        rng = random.Random(1313)
        for _ in range(20):
            fam = random_binomial_family(rng)
            n = fam.dim
            with symbol_run():
                res = projection_polar(fam, 0)
            # the l symbols are g1..gn, the m symbols g(n+1)..g(2n)
            g = sympy.symbols(f"g1:{2 * n + 1}")
            entries = [sympy.sympify(e.replace("^", "**"))
                       for e in fam.entry_strings()]
            x = sum(g[i] * e for i, e in enumerate(entries))
            y = sum(g[n + i] * e for i, e in enumerate(entries))
            jac = sympy.Poly(sympy.expand(x.diff(a) * y.diff(t)
                                          - y.diff(a) * x.diff(t)), t)
            k = min(m[0] for m in jac.monoms())
            assert res["vanishing_order"] == k, fam.entry_strings()
            unit = jac.coeff_monomial(t ** k).subs(a, 0)
            printed = sympy.sympify(res["unit_at_origin"].replace("^", "**"))
            assert sympy.expand(unit - printed) == 0, fam.entry_strings()
            assert res["empty"] is (unit != 0)
            assert res["empty"] is zariski_check(fam).equimultiple


class TestZariski:
    def test_always_decisive(self):
        for name in ("family-345.json", "family-352.json",
                     "family-467.json", "family-589.json",
                     "tangent-arc.json"):
            res = zariski_check(load_family(corpus_path(name)))
            assert res.verdict in (Verdict.VERIFIED, Verdict.REFUTED)

    def test_verified_family(self):
        res = zariski_check(load_family(corpus_path("family-345.json")))
        assert res.verdict is Verdict.VERIFIED
        assert res.equimultiple
        assert (res.multiplicity_special, res.multiplicity_generic) == (3, 3)

    def test_refuted_family_reports_multiplicity_jump(self):
        res = zariski_check(load_family(corpus_path("family-352.json")))
        assert res.verdict is Verdict.REFUTED
        assert not res.equimultiple
        assert (res.multiplicity_special, res.multiplicity_generic) == (3, 2)

    def test_fails_on_either_leg(self):
        # the polar cofactor vanishes and the multiplicity drops
        res = zariski_check(load_family(corpus_path("tangent-arc.json")))
        assert res.verdict is Verdict.REFUTED
        assert not res.equimultiple
        assert (res.multiplicity_special, res.multiplicity_generic) == (2, 1)


class TestCrosscheck:
    def test_agreement_on_corpus(self):
        for name in ("family-345.json", "family-352.json",
                     "family-467.json", "family-589.json",
                     "tangent-arc.json"):
            res = equivalence_crosscheck(load_family(corpus_path(name)))
            assert res.agree is True, name

    def test_generic_basepoint_shared_by_both_tests(self):
        fam = load_family(corpus_path("family-352.json"))
        res = equivalence_crosscheck(fam, "generic")
        labels = {res.whitney.part_a.basepoint, res.whitney.part_b.basepoint,
                  res.zariski.basepoint}
        assert len(labels) == 1
        assert labels.pop().startswith("generic (g")
        assert res.agree is True

    def test_agree_is_none_when_sweep_is_starved(self):
        fam = load_family(corpus_path("tangent-arc.json"))
        res = equivalence_crosscheck(fam, max_depth=0)
        assert res.whitney.verdict is Verdict.INCONCLUSIVE
        assert res.agree is None

    def test_nonempty_polar_never_meets_verified_sweep(self):
        rng = random.Random(707)
        for _ in range(40):
            fam = random_monomial_family(rng)
            if not projection_polar(fam, 0)["empty"]:
                assert whitney_check(fam).verdict is not Verdict.VERIFIED, \
                    fam.entry_strings()

    def test_negative_depth_is_refused(self):
        fam = load_family(corpus_path("tangent-arc.json"))
        with pytest.raises(ValueError, match="max_depth"):
            equivalence_crosscheck(fam, max_depth=-1)
