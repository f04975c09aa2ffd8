"""Family container: validation, fibers, minors, multiplicity, equations."""

import json
import random
from fractions import Fraction

import pytest

from equising import (
    AxisVanishingError,
    DegenerateFiberError,
    FamilyValidationError,
    NoUnitChartError,
    ParameterEntryError,
    Parametrization,
    ParseError,
    Poly,
    Scalar,
    blowup_singular_locus,
    equivalence_crosscheck,
    family_from_strings,
    fresh_symbol,
    load_equations,
    load_family,
    nash_modification,
    parse_poly,
    strong_equisingularity_check,
    verify_implicit_equations,
)
from equising.family import MAX_COEFF_DIGITS, CoefficientSizeError, resolve_basepoint
from conftest import (
    constant_value,
    corpus_path,
    fiber_by_compose,
    fiber_multiplicity,
    random_binomial_family,
    random_monomial_family,
)


class TestValidation:
    def test_coefficient_size_cap(self):
        big = "9" * MAX_COEFF_DIGITS
        assert family_from_strings(["a", f"t^2 + {big}*t^3 + 1/{big}*a*t"])
        for entry in (f"t^2 + {big}9*t^3", f"t^2 + 1/{big}9*a*t", "t^2 + 10^1000*t^3"):
            with pytest.raises(CoefficientSizeError, match="entry y has a coefficient"):
                family_from_strings(["a", entry])

    def test_first_entry_must_be_parameter(self):
        with pytest.raises(ParameterEntryError):
            family_from_strings(["t", "t^2"])
        with pytest.raises(ParameterEntryError):
            family_from_strings(["2*a", "t^2"])

    def test_entries_must_vanish_on_axis(self):
        with pytest.raises(AxisVanishingError):
            family_from_strings(["a", "t + a"])

    def test_special_fiber_must_be_a_curve(self):
        with pytest.raises(DegenerateFiberError):
            family_from_strings(["a", "a*t", "a*t^2"])

    def test_needs_two_entries(self):
        with pytest.raises(FamilyValidationError):
            family_from_strings(["a"])

    def test_ambient_length_and_distinctness(self):
        with pytest.raises(FamilyValidationError):
            family_from_strings(["a", "t^2"], ambient=("x",))
        with pytest.raises(FamilyValidationError):
            family_from_strings(["a", "t^2", "t^3"], ambient=("x", "x", "y"))

    def test_default_ambient_names(self):
        assert family_from_strings(["a", "t^2"]).ambient == ("x", "y")
        assert family_from_strings(["a", "t^2", "t^3", "t^4"]).ambient == \
            ("x", "y", "z", "w")
        five = family_from_strings(["a", "t", "t^2", "t^3", "t^4"])
        assert five.ambient == ("x1", "x2", "x3", "x4", "x5")


class TestGeometry:
    def test_fiber_specializes_parameter(self):
        fam = family_from_strings(["a", "t^3", "a*t^5"])
        fib = fam.fiber(Fraction(2))
        assert fib[0].grammar_str() == "2"
        assert fib[1].grammar_str() == "t^3"
        assert fib[2].grammar_str() == "2*t^5"

    @staticmethod
    def layout(polys):
        """Each t-power with its coefficient's stored dicts, in key order."""
        return [[(e, list(c.num.items()), list(c.den.items()))
                 for e, c in p.terms.items()] for p in polys]

    def fiber_families(self):
        """The corpus, its blow-up and Nash charts, and seeded families of
        the three fuzz shapes (crosscheck, binomial, strong)."""
        out = []
        for name in ("family-345", "family-352", "family-467",
                     "family-589", "tangent-arc"):
            fam = load_family(corpus_path(f"{name}.json"))
            out.append(fam)
            for build in (blowup_singular_locus, nash_modification):
                try:
                    out.append(build(fam).family)
                except NoUnitChartError:
                    pass
        assert len(out) == 11
        rng = random.Random(2026)
        for _ in range(40):
            out.append(random_monomial_family(rng))
            out.append(random_binomial_family(rng))
            out.append(random_monomial_family(rng, max_extra=3))
        return out

    def test_fiber_matches_composition(self):
        for fam in self.fiber_families():
            for value in (0, Fraction(1, 2), Fraction(-2), fresh_symbol()):
                got, ref = fam.fiber(value), fiber_by_compose(fam, value)
                assert got == ref, (fam.entry_strings(), value)
                assert [str(p) for p in got] == [str(p) for p in ref]
                assert [list(p.terms.items()) for p in got] == \
                    [list(p.terms.items()) for p in ref]
                assert self.layout(got) == self.layout(ref), (fam.entry_strings(), value)

    @pytest.mark.parametrize("entry, value, terms", [
        # t^2 cancels at a = 1
        ("t^2 - a*t^2 + t^3", 1, [(3, 1)]),
        # ... and comes back after t^3: it is placed after t^3
        ("t^2 - a*t^2 + t^3 + a^2*t^2", 1, [(3, 1), (2, 1)]),
        # a*t^3 is zero at a = 0: t^3 is first met at its a-free term
        ("a*t^3 + t^2 + t^3", 0, [(2, 1), (3, 1)]),
    ])
    def test_cancelled_coefficients_are_dropped(self, entry, value, terms):
        fam = family_from_strings(["a", entry])
        fib = fam.fiber(value)[1]
        assert [(j, c.as_fraction()) for (j,), c in fib.terms.items()] == terms
        ref = fiber_by_compose(fam, value)[1]
        assert list(fib.terms.items()) == list(ref.terms.items())

    def test_recenter_shifts_parameter(self):
        fam = family_from_strings(["a", "t^3", "a*t^5"])
        moved = fam.recenter(Fraction(1, 2))
        assert moved.entries[0].grammar_str() == "a"
        assert moved.entries[2] == parse_poly("a*t^5 + 1/2*t^5", ("a", "t"))
        assert moved.fiber(0)[2] == fam.fiber(Fraction(1, 2))[2]

    def test_checkers_recenter_only_where_they_use_the_family(self, monkeypatch):
        calls = []
        recenter = Parametrization.recenter

        def counted(self, a_value):
            calls.append(a_value)
            return recenter(self, a_value)

        monkeypatch.setattr(Parametrization, "recenter", counted)
        fam = load_family(corpus_path("family-589.json"))
        half = Fraction(1, 2)
        # once, shared by the Whitney sweep and the projection test
        equivalence_crosscheck(fam, half)
        assert len(calls) == 1
        # only the last recentering is kept, and a different point makes a
        # new one
        calls.clear()
        for point in (half, Fraction(1, 3), half, half, 0):
            moved, _, _ = fam.centered(point)
            assert moved == (recenter(fam, point) if point else fam)
        assert calls == [Fraction(1, 3), half]
        calls.clear()
        # the strong check reads fibers of the family as given
        strong_equisingularity_check(fam, half)
        assert calls == []
        assert resolve_basepoint(half) == (Scalar.from_fraction(half), "1/2")

    def test_plucker_minors_of_monomial_family(self):
        fam = family_from_strings(["a", "t^3", "t^4", "a*t^5"])
        minors = fam.plucker_minors()
        expected = {
            (1, 2): "3*t^2",
            (1, 3): "4*t^3",
            (1, 4): "5*a*t^4",
            (2, 3): "0",
            (2, 4): "-3*t^7",
            (3, 4): "-4*t^8",
        }
        assert set(minors) == set(expected)
        for key, text in expected.items():
            assert minors[key] == parse_poly(text, ("a", "t")), key

    def test_plucker_minors_built_once_per_family(self, monkeypatch):
        calls = []
        plucker_minors = Parametrization.plucker_minors
        monkeypatch.setattr(Parametrization, "plucker_minors",
                            lambda fam: calls.append(fam) or plucker_minors(fam))
        for basepoint in (0, Fraction(1, 2), "generic"):
            calls.clear()
            fam = load_family(corpus_path("family-352.json"))
            equivalence_crosscheck(fam, basepoint)
            assert len(calls) == 1, basepoint
        minors = fam.plucker_minors()
        minors[(1, 2)] = Poly.zero(("a", "t"))
        assert fam.plucker_minors()[(1, 2)] == fam.entries[1].diff("t")

    def test_plucker_quadric_identity_fuzz(self):
        # decomposable 2-forms satisfy the Grassmann quadric identically
        rng = random.Random(101)
        for _ in range(50):
            fam = random_monomial_family(rng)
            if fam.dim < 4:
                continue
            m = fam.plucker_minors()
            lhs = (m[(1, 2)] * m[(3, 4)] - m[(1, 3)] * m[(2, 4)]
                   + m[(1, 4)] * m[(2, 3)])
            assert lhs.is_zero(), fam.entry_strings()

    def test_some_minor_is_nonzero_at_every_base_point(self):
        # p_1j = d f_j / dt, and validation keeps an a-free term c*t^j with
        # j >= 1, so the polar test always has a nonzero minor to read;
        # recentering revalidates, so this holds at every base point
        rng = random.Random(303)
        families = [load_family(corpus_path(f"{name}.json")) for name in
                    ("family-345", "family-352", "family-467", "family-589",
                     "tangent-arc")]
        families += [random_monomial_family(rng) for _ in range(60)]
        families += [random_binomial_family(rng) for _ in range(60)]
        for fam in families:
            for point in (0, Fraction(1, 2), "generic"):
                moved, _, _ = fam.centered(point)
                minors = moved.plucker_minors()
                for j, entry in enumerate(moved.entries[1:], start=2):
                    assert minors[(1, j)] == entry.diff("t")
                assert any(not p.is_zero() for p in minors.values()), \
                    (fam.entry_strings(), point)
        # a base point whose fiber is a point is refused on recentering
        fam = family_from_strings(["a", "a*t - t", "a*t^2 - t^2"])
        with pytest.raises(DegenerateFiberError):
            fam.centered(1)

    def test_multiplicity_and_equimultiplicity(self):
        fam = family_from_strings(["a", "t^3", "t^4", "a*t^5"])
        assert fiber_multiplicity(fam, 0) == 3
        assert fiber_multiplicity(fam, fresh_symbol()) == 3
        assert fam.is_equimultiple() == (True, 3, 3)
        jump = family_from_strings(["a", "t^3", "t^5", "a*t^2"])
        assert fiber_multiplicity(jump, 0) == 3
        assert fiber_multiplicity(jump, fresh_symbol()) == 2
        assert jump.is_equimultiple() == (False, 3, 2)

    def test_multiplicity_upper_semicontinuity_fuzz(self):
        rng = random.Random(202)
        for _ in range(100):
            fam = random_monomial_family(rng)
            _, special, generic = fam.is_equimultiple()
            assert special >= generic, fam.entry_strings()
            assert special == fiber_multiplicity(fam, 0)
            # at any nonzero rational the multiplicity is the generic one
            assert fiber_multiplicity(fam, Fraction(3, 7)) == generic

    def test_generic_value_fiber(self):
        fam = family_from_strings(["a", "t^2", "a*t^3"])
        g = fresh_symbol()
        fib = fam.fiber(g)
        assert constant_value(fib[2].coeff_of("t", 3)) == g


class TestLoading:
    def test_load_family_round_trip(self):
        fam = load_family(corpus_path("family-345.json"))
        assert fam.name == "family-345"
        assert fam.entry_strings() == ["a", "t^3", "t^4", "a*t^5"]
        assert fam.ambient == ("x", "y", "z", "w")

    def test_load_family_rejects_bad_shape(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"entries": "a"}))
        with pytest.raises(FamilyValidationError):
            load_family(bad)
        bad.write_text(json.dumps([1, 2]))
        with pytest.raises(FamilyValidationError):
            load_family(bad)

    def test_load_equations_validates_variables(self, tmp_path):
        fam = load_family(corpus_path("family-345.json"))
        eqs = tmp_path / "eqs.json"
        eqs.write_text(json.dumps({"vars": ["x", "q"], "equations": ["q"]}))
        with pytest.raises(FamilyValidationError, match="unknown ambient"):
            load_equations(eqs, fam)


class TestParseErrorsNameTheirEntry:
    def test_unknown_variable_in_the_third_entry(self):
        with pytest.raises(ParseError) as info:
            family_from_strings(["a", "t^2", "t^3 + q"])
        assert str(info.value) == "entry z: unknown variable 'q' (offset 6)"
        assert info.value.offset == 6

    def test_named_ambient(self):
        with pytest.raises(ParseError, match=r"^entry v: unknown variable 'q' \(offset 0\)$"):
            family_from_strings(["a", "q", "t^3"], ambient=("u", "v", "w"))

    def test_equations_file(self, tmp_path):
        fam = load_family(corpus_path("family-345.json"))
        eqs = tmp_path / "eqs.json"
        eqs.write_text(json.dumps({"equations": ["y^3 - z^2", "y*(z + q)"]}))
        with pytest.raises(ParseError) as info:
            load_equations(eqs, fam)
        assert str(info.value) == "eqs.json: equation 2: unknown variable 'q' (offset 7)"
        assert info.value.offset == 7


class TestImplicitEquations:
    def test_corpus_equations_vanish(self):
        fam = load_family(corpus_path("family-345.json"))
        eqs = load_equations(corpus_path("family-345.eqs.json"), fam)
        checks = verify_implicit_equations(fam, eqs)
        assert len(checks) == 5
        assert all(c.holds for c in checks)
        assert all(c.residual == "0" for c in checks)

    def test_failing_equation_reports_residual(self):
        fam = family_from_strings(["a", "t^2", "t^3"],
                                  ambient=("x", "y", "z"))
        good = parse_poly("y^3 - z^2", ("x", "y", "z"))
        bad = parse_poly("y - z", ("x", "y", "z"))
        checks = verify_implicit_equations(fam, [good, bad])
        assert checks[0].holds and not checks[1].holds
        assert checks[1].residual != "0"

    def test_equation_in_subset_of_variables(self):
        fam = family_from_strings(["a", "t^2", "t^3"],
                                  ambient=("x", "y", "z"))
        eq = parse_poly("y^3 - z^2", ("y", "z"))
        assert verify_implicit_equations(fam, [eq])[0].holds
