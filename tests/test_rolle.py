"""Separation certificates: exact counts and separation, plus numerical
confirmation of the reported critical point."""

import json
import random
from fractions import Fraction

import pytest

from equising import (
    ConstantMapError,
    load_curve,
    load_family,
    parse_poly,
    rolle_for_curve,
    rolle_for_map,
)
from equising.rolle import _roots, rolle_witness
from conftest import (
    corpus_path,
    derive_coeffs,
    divmod_coeffs,
    gcd_coeffs,
    poly_from_roots,
    random_rolle_polys,
    run_random_rolle_suite,
    univariate_coeffs,
)

DERIV_TOL = 1e-8
VALUE_TOL = 1e-4


class TestExactBookkeeping:
    def test_cusp_difference_map(self):
        fam = load_family(corpus_path("family-345.json"))
        cert = rolle_for_map(fam, parse_poly("y - z", fam.ambient))
        assert cert.degree == 4
        assert cert.distinct_roots == 2
        assert cert.derivative_degree == 3
        assert cert.shared_degree == 2
        assert cert.witness_poly == "-4*t + 3"
        assert cert.witness_needed and cert.separation_ok
        assert abs(cert.approx_critical_point - 0.75) < 1e-9
        assert cert.value_at_point == pytest.approx(27 / 256)
        assert cert.fiber_distance == pytest.approx(0.25)

    def test_single_root_needs_no_witness(self):
        fam = load_family(corpus_path("family-345.json"))
        cert = rolle_for_map(fam, parse_poly("y", fam.ambient))
        assert cert.distinct_roots == 1
        assert not cert.witness_needed
        assert cert.approx_critical_point is None

    def test_double_double(self):
        cert = rolle_witness([1, 0, -2, 0, 1])  # (t^2 - 1)^2
        assert cert.degree == 4 and cert.distinct_roots == 2
        assert cert.shared_degree == 2 and cert.witness_degree == 1
        assert abs(cert.approx_critical_point) < 1e-12
        assert cert.separation_ok and cert.value_at_point == 1.0
        assert cert.fiber_distance == pytest.approx(1.0)

    def test_clustered_triple_roots_still_separate(self):
        # (t + 4)^3 (t + 2)^3: the critical value 1 is tiny against the
        # coefficient bulk, but the point sits a full unit from the fiber
        cert = rolle_witness(poly_from_roots([(Fraction(-4), 3),
                                              (Fraction(-2), 3)]))
        assert cert.distinct_roots == 2
        assert abs(cert.approx_critical_point - (-3)) < 1e-9
        assert cert.fiber_distance == pytest.approx(1.0)
        assert cert.separation_ok

    def test_constant_rejected(self):
        with pytest.raises(ConstantMapError):
            rolle_witness([Fraction(5)])
        with pytest.raises(ConstantMapError):
            rolle_witness([])
        fam = load_family(corpus_path("family-345.json"))
        with pytest.raises(ConstantMapError):
            rolle_for_map(fam, parse_poly("x", fam.ambient))

    def test_map_variables_validated(self):
        fam = load_family(corpus_path("family-345.json"))
        with pytest.raises(ValueError, match="ambient"):
            rolle_for_map(fam, parse_poly("t^2", ("t",)))

    def test_hurwitz_counts(self):
        crt = rolle_witness([0, 0, -1, 1])        # t^3 - t^2
        assert crt.to_json()["hurwitz_count"] == [2, 1]
        crt = rolle_witness([0, 0, 0, 0, 0, 1])   # t^5
        assert crt.to_json()["hurwitz_count"] == [4, 4]
        crt = rolle_witness([0, -1, 0, 1])        # t(t-1)(t+1)
        assert crt.to_json()["hurwitz_count"] == [2, 0]

    def test_count_inequality_is_the_witness_trigger(self):
        for coeffs, n in [([0, 0, 0, 1], 1), ([0, 2, -3, 1], 3),
                          ([1, 0, -2, 0, 1], 2)]:
            cert = rolle_witness(coeffs)
            lhs, rhs = cert.derivative_degree, cert.shared_degree
            assert cert.distinct_roots == n
            assert cert.witness_needed == (lhs > rhs) == (n >= 2)


class TestCurveInput:
    def test_functional_on_cusp(self):
        _, entries = load_curve(corpus_path("cusp-curve.json"))
        cert = rolle_for_curve(entries, [Fraction(-1), 1])
        assert cert.map_poly == "t^3 - t^2"
        assert cert.distinct_roots == 2
        assert cert.witness_poly == "3*t - 2"
        assert abs(cert.approx_critical_point - Fraction(2, 3)) < 1e-9
        assert cert.separation_ok

    def test_functional_length_checked(self):
        _, entries = load_curve(corpus_path("cusp-curve.json"))
        with pytest.raises(ValueError, match="coefficients"):
            rolle_for_curve(entries, [1])

    def test_zero_functional_is_constant(self):
        _, entries = load_curve(corpus_path("cusp-curve.json"))
        with pytest.raises(ConstantMapError):
            rolle_for_curve(entries, [0, 0])

    def test_malformed_curve_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"entries": []}))
        with pytest.raises(ValueError, match="nonempty"):
            load_curve(bad)
        bad.write_text(json.dumps(["t^2"]))
        with pytest.raises(ValueError, match="entries"):
            load_curve(bad)

    def test_curve_name_defaults_to_stem(self, tmp_path):
        f = tmp_path / "twisted.json"
        f.write_text(json.dumps({"entries": ["t", "t^2", "t^3"]}))
        name, entries = load_curve(f)
        assert name == "twisted"
        assert len(entries) == 3


class TestRandomCertificates:
    def test_two_hundred_random_polynomials(self):
        run_random_rolle_suite(random.Random(20260817), 200,
                               DERIV_TOL, VALUE_TOL)


def _assert_roots_match_numpy(coeffs):
    """Every numpy.roots root has its own approximation within 1e-9,
    relative to max(1, |root|)."""
    numpy = pytest.importorskip("numpy")
    mine = _roots(coeffs)
    want = numpy.roots([float(c) for c in reversed(coeffs)])
    assert len(mine) == len(want)
    for r in map(complex, want):
        z = min(mine, key=lambda z: abs(z - r))
        assert abs(z - r) <= 1e-9 * max(1.0, abs(r)), (coeffs, mine, want)
        mine.remove(z)


def _witness_and_fiber(coeffs):
    """W = p'/gcd(p, p') and the squarefree part of p, by the test-side
    arithmetic."""
    dp = derive_coeffs(coeffs)
    shared = gcd_coeffs(coeffs, dp)
    return divmod_coeffs(dp, shared)[0], divmod_coeffs(coeffs, shared)[0]


class TestRootsAgainstNumpy:
    def test_random_suite_polynomials(self):
        for _, _, coeffs in random_rolle_polys(random.Random(20260817), 200):
            for poly in _witness_and_fiber(coeffs):
                _assert_roots_match_numpy(poly)

    def test_corpus_maps(self):
        fam = load_family(corpus_path("family-345.json"))
        certs = [rolle_for_map(fam, parse_poly(rho, fam.ambient), at=at)
                 for rho in ("y - z", "y - z - w", "y^2 - 3*z")
                 for at in (0, Fraction(1, 2))]
        _, entries = load_curve(corpus_path("cusp-curve.json"))
        certs.append(rolle_for_curve(entries, [Fraction(-1), 1]))
        assert any(c.witness_degree >= 2 for c in certs)
        for cert in certs:
            for poly in _witness_and_fiber(univariate_coeffs(cert.map_poly)):
                _assert_roots_match_numpy(poly)
