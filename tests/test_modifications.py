"""Blow-up, Nash modification, pruning, and factorization certificates."""

import random

import pytest

from equising import (
    NonPolynomialChartError,
    NoUnitChartError,
    Verdict,
    blowup_singular_locus,
    check_factorization,
    family_from_strings,
    load_family,
    nash_modification,
    whitney_check,
)
from equising.modifications import prune_redundant
from conftest import corpus_path, exponent_pairs, random_monomial_family


class TestBlowupCharts:
    def test_monomial_family(self):
        fam = load_family(corpus_path("family-345.json"))
        mod = blowup_singular_locus(fam)
        assert mod.kind == "blowup"
        assert mod.divisor == "t^3"
        assert mod.total.entry_strings() == ["a", "t^3", "t", "a*t^2"]
        assert mod.family.entry_strings() == ["a", "t"]
        assert mod.smooth

    def test_divisor_needs_unit_coefficient(self):
        with pytest.raises(NoUnitChartError):
            blowup_singular_locus(family_from_strings(["a", "a*t^2", "t^3"]))
        with pytest.raises(NoUnitChartError):
            blowup_singular_locus(load_family(corpus_path("family-352.json")))

    def test_ratios_must_stay_polynomial(self):
        # the refusal names the coordinate by its ambient name
        with pytest.raises(NonPolynomialChartError, match=r"^coordinate z: \(t\^3\)"):
            blowup_singular_locus(
                family_from_strings(["a", "t^2 + t^3", "t^3"]))

    def test_chart_recentering_emits_note(self):
        fam = family_from_strings(["a", "t^3", "a*t^3 + t^4"])
        mod = blowup_singular_locus(fam)
        assert mod.total.entry_strings() == ["a", "t^3", "t"]
        assert any("recentered" in note for note in mod.notes)


class TestNashCharts:
    def test_monomial_family(self):
        fam = load_family(corpus_path("family-345.json"))
        mod = nash_modification(fam)
        assert mod.kind == "nash"
        assert mod.divisor == "3*t^2"
        assert mod.family.entry_strings() == ["a", "4/3*t"]
        assert mod.smooth
        fact = check_factorization(fam, mod.family)
        assert fact.status == "verified"
        assert fact.certificates == (
            "y = (27/64) * (4/3*t)^3",
            "z = (81/256) * (4/3*t)^4",
            "w = (243/1024) * a * (4/3*t)^5",
        )


class TestKeptSets:
    def test_jump_family_modifications(self):
        fam = load_family(corpus_path("family-467.json"))
        bl = blowup_singular_locus(fam)
        assert bl.divisor == "t^4"
        assert bl.family.entry_strings() == ["a", "a*t^2", "t^3", "t^4"]
        na = nash_modification(fam)
        assert na.divisor == "4*t^3"
        assert na.family.entry_strings() == \
            ["a", "3/2*a*t^2", "7/4*t^3", "t^4"]
        assert exponent_pairs(bl.family) == exponent_pairs(na.family) == \
            {(1, 0), (0, 4), (1, 2), (0, 3)}
        for mod in (bl, na):
            assert whitney_check(mod.family).verdict is Verdict.REFUTED
            assert check_factorization(fam, mod.family).status == "verified"

    def test_stable_family_modifications(self):
        fam = load_family(corpus_path("family-589.json"))
        bl = blowup_singular_locus(fam)
        assert bl.family.entry_strings() == ["a", "t^3", "a*t^4", "t^5"]
        na = nash_modification(fam)
        assert na.family.entry_strings() == \
            ["a", "8/5*t^3", "9/5*a*t^4", "t^5"]
        for mod in (bl, na):
            assert whitney_check(mod.family).verdict is Verdict.VERIFIED

    def test_nash_drop_certificates(self):
        fam = load_family(corpus_path("family-467.json"))
        na = nash_modification(fam)
        certs = [d.certificate for d in na.pruned.dropped if d.certificate]
        assert "-1*t^6 = (-16/49) * (7/4*t^3)^2" in certs
        assert "t^7 = (4/7) * 7/4*t^3 * t^4" in certs
        assert any(d.kind == "zero" for d in na.pruned.dropped)


class TestPruning:
    def test_keeps_parameter_and_basis(self):
        fam = family_from_strings(["a", "t^2", "a*t^2", "t^4"])
        res = prune_redundant(fam)
        assert res.applicable and res.changed
        assert res.family.entry_strings() == ["a", "t^2"]
        kinds = {d.entry: d.kind for d in res.dropped}
        assert kinds == {"a*t^2": "product", "t^4": "product"}

    def test_non_monomial_entries_left_alone(self):
        fam = family_from_strings(["a", "t^2 + t^3", "t^2"])
        res = prune_redundant(fam)
        assert not res.applicable and not res.changed
        assert res.family is fam

    def test_certificates_are_recorded_identities(self):
        fam = family_from_strings(["a", "t^3", "a^2*t^6"])
        res = prune_redundant(fam)
        (dropped,) = res.dropped
        assert dropped.certificate == "a^2*t^6 = (a)^2 * (t^3)^2"


class TestVerdictInvariance:
    def test_appending_redundant_coordinate_keeps_verdict(self):
        rng = random.Random(808)
        tested = 0
        for _ in range(60):
            fam = random_monomial_family(rng, max_extra=3)
            strings = fam.entry_strings()
            i = rng.randrange(1, len(strings))
            j = rng.randrange(1, len(strings))
            extended = family_from_strings(
                strings + [f"{strings[i]}*{strings[j]}"])
            base = whitney_check(fam).verdict
            assert whitney_check(extended).verdict == base, strings
            pruned = prune_redundant(extended).family
            assert whitney_check(pruned).verdict == base, strings
            tested += 1
        assert tested == 60

    def test_factorization_after_pruning_fuzz(self):
        rng = random.Random(909)
        for _ in range(40):
            fam = random_monomial_family(rng)
            res = prune_redundant(fam)
            fact = check_factorization(fam, res.family)
            assert fact.status == "verified", fam.entry_strings()
