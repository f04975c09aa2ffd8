"""The seven acceptance checks, one test per criterion.

Each test performs the full computation for its criterion, asserts the
stated outcomes and time budget, and prints one PASS line (visible with
pytest -s).  A failing assertion anywhere in a test is a failed criterion.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from equising import (
    Arc,
    Scalar,
    Verdict,
    blowup_singular_locus,
    check_factorization,
    equivalence_crosscheck,
    family_from_strings,
    FamilyValidationError,
    fresh_symbol,
    load_equations,
    load_family,
    nash_modification,
    strong_equisingularity_check,
    verify_implicit_equations,
    wedge3,
    whitney_check,
    zariski_check,
)
from equising.limits import secant_vector
from equising.modifications import prune_redundant
from conftest import (
    all_pairs_plan_arcs,
    corpus_path,
    direction_deviation,
    exponent_pairs,
    fiber_multiplicity,
    jacobian,
    leading_direction,
    random_monomial_family,
    regime_arcs,
    run_random_rolle_suite,
)

CORPUS = ["family-345", "family-352", "family-467", "family-589",
          "tangent-arc"]


def load(name):
    return load_family(corpus_path(f"{name}.json"))


def proportional(vec, expected) -> bool:
    """vec == nonzero scalar * expected, exactly over the rationals."""
    expected = [Fraction(e) for e in expected]
    pivot = next(i for i, e in enumerate(expected) if e)
    if vec is None or vec[pivot] == 0:
        return False
    return all(vec[i] * expected[pivot] == vec[pivot] * expected[i]
               for i in range(len(expected)))


def span_form(u, v) -> dict:
    """Exterior coordinates of the plane spanned by two vectors."""
    n = len(u)
    return {(i + 1, j + 1): u[i] * v[j] - u[j] * v[i]
            for i in range(n) for j in range(i + 1, n)}


def jacobian_rows(family):
    pairs = jacobian(family)
    return [p[0] for p in pairs], [p[1] for p in pairs]


def test_criterion_1_regular_family():
    t0 = time.perf_counter()
    fam = load("family-345")

    res = whitney_check(fam, 0)
    assert res.verdict is Verdict.VERIFIED

    # the same secant limit and the same tangent-plane limit in every
    # swept regime, and at every exponent where two support points of the
    # secants or minors trade dominance: direction e2 and the plane
    # spanned by e1, e2
    secant = secant_vector(fam)
    minor_items = sorted(fam.plucker_minors().items())
    minor_polys = [p for _, p in minor_items]
    plane_expected = [1 if key == (1, 2) else 0 for key, _ in minor_items]
    arcs = (regime_arcs(res.part_a) + regime_arcs(res.part_b)
            + all_pairs_plan_arcs(fam))
    assert len(arcs) >= 8
    for arc in arcs:
        assert proportional(leading_direction(secant, arc), [0, 1, 0, 0])
        assert proportional(leading_direction(minor_polys, arc),
                            plane_expected)

    zar = zariski_check(fam, 0)
    assert zar.verdict is Verdict.VERIFIED

    eqs = load_equations(corpus_path("family-345.eqs.json"), fam)
    checks = verify_implicit_equations(fam, eqs)
    assert len(checks) == 5
    assert all(c.holds for c in checks)

    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"[criterion 1] PASS: Verified with secant limit (0,1,0,0) and "
          f"plane e1^e2 in all {len(arcs)} regimes; 5 equations vanish "
          f"({dt:.2f}s)")


def test_criterion_2_jump_family_refuted():
    t0 = time.perf_counter()
    fam = load("family-352")

    res = whitney_check(fam, 0)
    assert res.verdict is Verdict.REFUTED
    w = res.witness
    assert [th for th, _ in w.arc.segments] == [1]
    assert w.wedge_index == (1, 2, 4)

    # along arcs a = c t the limit line is (0,1,0,c) and the tangent
    # planes converge to span{(1,0,0,0), (0,3,0,2c)}; pin c twice to fix
    # the symbolic form
    arc = Arc(((w.arc.segments[0][0], None),))
    row_a, row_t = jacobian_rows(fam)
    for cv in (Fraction(1), Fraction(2)):
        line = leading_direction(secant_vector(fam), arc, cv)
        assert proportional(line, [0, 1, 0, cv])
        assert proportional(leading_direction(row_a, arc, cv),
                            [1, 0, 0, 0])
        assert proportional(leading_direction(row_t, arc, cv),
                            [0, 3, 0, 2 * cv])

    # the line misses the plane for every nonzero c
    c = fresh_symbol()
    zero, one = Scalar.from_fraction(0), Scalar.from_fraction(1)
    three, two = Scalar.from_fraction(3), Scalar.from_fraction(2)
    hook = wedge3([zero, one, zero, c],
                  span_form([one, zero, zero, zero],
                            [zero, three, zero, two * c]), 4)
    assert not hook[(1, 2, 4)].is_zero()

    zar = zariski_check(fam, 0)
    assert zar.verdict is Verdict.REFUTED
    assert zar.multiplicity_special == 3
    assert zar.multiplicity_generic == 2

    cross = equivalence_crosscheck(fam, 0)
    assert cross.agree is True

    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"[criterion 2] PASS: Refuted at theta=1, (0,1,0,c) leaves "
          f"span{{(1,0,0,0),(0,3,0,2c)}}, multiplicity 3 vs 2, "
          f"tests agree ({dt:.2f}s)")


def test_criterion_3_regular_but_not_strong():
    t0 = time.perf_counter()
    fam = load("family-467")

    assert whitney_check(fam, 0).verdict is Verdict.VERIFIED

    strong = strong_equisingularity_check(fam)
    assert strong.verdict is Verdict.REFUTED
    seqs = dict(strong.sequences)
    assert seqs["generic"].display() == "(4; 6, 7)"
    assert seqs["a = 0"].display() == "(4; 7)"
    assert seqs["generic"].confirmed and seqs["a = 0"].confirmed

    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"[criterion 3] PASS: Verified yet exponents (4; 6, 7) vs (4; 7), "
          f"strong check Refuted ({dt:.2f}s)")


def test_criterion_4_modifications_of_jump_family():
    t0 = time.perf_counter()
    fam = load("family-467")

    bl = blowup_singular_locus(fam)
    na = nash_modification(fam)

    # kept coordinate sets up to per-coordinate scalars and permutation:
    # compare monomial exponent pairs {a, t^4, a t^2, t^3}
    want = {(1, 0), (0, 4), (1, 2), (0, 3)}
    assert exponent_pairs(bl.family) == want
    assert exponent_pairs(na.family) == want
    assert len(bl.family.entries) == len(na.family.entries) == 4

    assert check_factorization(fam, bl.family).status == "verified"
    assert check_factorization(fam, na.family).status == "verified"

    res_bl = whitney_check(bl.family, 0)
    res_na = whitney_check(na.family, 0)
    assert res_bl.verdict is Verdict.REFUTED
    assert res_na.verdict is Verdict.REFUTED

    # blow-up witness: theta = 1, and in the kept coordinate order
    # (a, a t^2, t^3, t^4) the limit line (0,1,1,0) misses the plane
    # span{(1,0,0,0), (0,2,3,0)}
    w = res_bl.witness
    assert [th for th, _ in w.arc.segments] == [1]
    arc = Arc(((w.arc.segments[0][0], None),))
    row_a, row_t = jacobian_rows(bl.family)
    for cv in (Fraction(1), Fraction(2)):
        line = leading_direction(secant_vector(bl.family), arc, cv)
        assert proportional(line, [0, cv, 1, 0])
        assert proportional(leading_direction(row_a, arc, cv),
                            [1, 0, 0, 0])
        assert proportional(leading_direction(row_t, arc, cv),
                            [0, 2 * cv, 3, 0])
    c = fresh_symbol()
    zero, one = Scalar.from_fraction(0), Scalar.from_fraction(1)
    three, two = Scalar.from_fraction(3), Scalar.from_fraction(2)
    hook = wedge3([zero, c, one, zero],
                  span_form([one, zero, zero, zero],
                            [zero, two * c, three, zero]), 4)
    assert not hook[(1, 2, 3)].is_zero()
    assert w.wedge_index == (1, 2, 3)

    dt = time.perf_counter() - t0
    assert dt < 2.0
    print(f"[criterion 4] PASS: kept sets match up to scalars and order, "
          f"both modifications Refuted (blow-up witness theta=1), "
          f"factorizations verified ({dt:.2f}s)")


def test_criterion_5_modifications_of_stable_family():
    t0 = time.perf_counter()
    fam = load("family-589")

    assert whitney_check(fam, 0).verdict is Verdict.VERIFIED

    strong = strong_equisingularity_check(fam)
    assert strong.verdict is Verdict.VERIFIED
    seqs = dict(strong.sequences)
    assert seqs["generic"].display() == "(5; 8)"
    assert seqs["a = 0"].display() == "(5; 8)"

    bl = blowup_singular_locus(fam)
    na = nash_modification(fam)
    want = {(1, 0), (0, 3), (1, 4), (0, 5)}
    assert exponent_pairs(bl.family) == want
    assert exponent_pairs(na.family) == want

    for mod in (bl, na):
        up = strong_equisingularity_check(mod.family)
        assert up.verdict is Verdict.REFUTED
        up_seqs = dict(up.sequences)
        assert up_seqs["generic"].display() == "(3; 4)"
        assert up_seqs["a = 0"].display() == "(3; 5)"

    dt = time.perf_counter() - t0
    assert dt < 2.0
    print(f"[criterion 5] PASS: stable family stays (5; 8), both "
          f"modifications jump to (3; 4) vs (3; 5) ({dt:.2f}s)")


def test_criterion_6_metamorphic_agreement():
    t0 = time.perf_counter()

    for name in CORPUS:
        cross = equivalence_crosscheck(load(name), 0)
        assert cross.agree is not False, f"disagreement on {name}"
        assert cross.agree is True, f"{name} came back inconclusive"

    rng = random.Random(20260817)
    decisive = 0
    trials = 0
    while decisive < 200 and trials < 240:
        fam = random_monomial_family(rng, max_extra=4, max_exp=8)
        trials += 1
        cross = equivalence_crosscheck(fam, 0)
        assert cross.agree is not False, \
            f"decisive disagreement on {fam.entry_strings()}"
        if cross.agree:
            decisive += 1
    assert decisive >= 200

    dt = time.perf_counter() - t0
    assert dt < 60.0
    print(f"[criterion 6] PASS: verdicts agree on {len(CORPUS)} corpus "
          f"families and {decisive} fuzzed monomial families ({dt:.2f}s)")


def test_criterion_7_property_suites():
    t0 = time.perf_counter()

    # exterior coordinates of tangent planes satisfy the quadric relation
    rng = random.Random(77001)
    done = 0
    while done < 50:
        fam = random_monomial_family(rng)
        if fam.dim < 4:
            continue
        minors = fam.plucker_minors()
        for i, j, k, l in combinations(range(1, fam.dim + 1), 4):
            q = minors[(i, j)] * minors[(k, l)] \
                - minors[(i, k)] * minors[(j, l)] \
                + minors[(i, l)] * minors[(j, k)]
            assert not q.terms
        done += 1

    # the retraction condition implies the tangent condition
    rng = random.Random(77002)
    b_verified = 0
    for _ in range(60):
        fam = random_monomial_family(rng)
        res = whitney_check(fam)
        if res.part_b.verdict is Verdict.VERIFIED:
            b_verified += 1
            assert res.part_a.verdict is Verdict.VERIFIED
    assert b_verified > 0

    # appending redundant coordinates or pruning them back never moves
    # the verdict
    rng = random.Random(77003)
    done = 0
    while done < 30:
        fam = random_monomial_family(rng, max_extra=3)
        entries = fam.entry_strings()
        tail = entries[1:]
        extra = f"{rng.choice(tail)}*{rng.choice(tail)}"
        try:
            extended = family_from_strings(entries + [extra])
        except FamilyValidationError:
            continue
        base = whitney_check(fam, 0).verdict
        assert whitney_check(extended, 0).verdict is base
        pruned = prune_redundant(extended)
        assert whitney_check(pruned.family, 0).verdict is base
        done += 1

    # multiplicity is upper semicontinuous in the parameter
    rng = random.Random(77004)
    for _ in range(100):
        fam = random_monomial_family(rng)
        _, special, generic = fam.is_equimultiple()
        assert special >= generic
        assert generic == fiber_multiplicity(fam, fresh_symbol())
        pin = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        assert fiber_multiplicity(fam, pin) == generic

    # separation certificates on 200 fresh random maps
    run_random_rolle_suite(random.Random(77005), 200, 1e-8, 1e-4)

    # the numerical arc-limit oracle agrees with the symbolic limits on
    # every regime of every corpus family, and at every exponent where two
    # support points trade dominance
    regime_count = 0
    for name in CORPUS:
        fam = load(name)
        secant = secant_vector(fam)
        minors = [p for _, p in sorted(fam.plucker_minors().items())]
        for arc in regime_arcs(whitney_check(fam).part_b) + all_pairs_plan_arcs(fam):
            assert direction_deviation(secant, arc) < 1e-6
            assert direction_deviation(minors, arc) < 1e-6
            regime_count += 1
    assert regime_count >= 20

    dt = time.perf_counter() - t0
    print(f"[criterion 7] PASS: quadric x50, b=>a x60, embedding/pruning "
          f"invariance x30, semicontinuity x100, certificates x200, "
          f"oracle on {regime_count} corpus regimes ({dt:.2f}s)")
