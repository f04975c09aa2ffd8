"""Generic-projection polar test, equimultiplicity, and the crosscheck."""

import random
from fractions import Fraction

from equising import (
    Verdict,
    equivalence_crosscheck,
    load_family,
    zariski_check,
)
from equising.zariski import polar_is_empty
from conftest import corpus_path, random_monomial_family


class TestPolar:
    def test_vanishing_orders_on_corpus(self):
        expected = {
            "family-345.json": (2, True),
            "family-352.json": (1, False),
            "family-467.json": (3, True),
            "family-589.json": (4, True),
            "tangent-arc.json": (0, False),
        }
        for name, (order, empty) in expected.items():
            fam = load_family(corpus_path(name))
            res = polar_is_empty(fam)
            assert res.vanishing_order == order, name
            assert res.empty is empty, name

    def test_unit_coefficient_is_symbolically_nonzero(self):
        fam = load_family(corpus_path("family-345.json"))
        res = polar_is_empty(fam)
        assert res.unit_at_origin != "0"
        assert res.empty

    def test_polar_away_from_origin(self):
        fam = load_family(corpus_path("family-352.json"))
        assert polar_is_empty(fam, Fraction(1, 2)).empty


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
        assert not res.polar.empty

    def test_fails_on_either_leg(self):
        # non-empty polar refutes even where multiplicity is constant
        res = zariski_check(load_family(corpus_path("tangent-arc.json")))
        assert res.verdict is Verdict.REFUTED
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
            if not polar_is_empty(fam).empty:
                assert whitney_is_not_verified(fam), fam.entry_strings()


def whitney_is_not_verified(fam) -> bool:
    from equising import whitney_check

    return whitney_check(fam).verdict is not Verdict.VERIFIED
