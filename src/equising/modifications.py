"""Blow-up of the singular axis and Nash lift, as new curve families.

Both constructions modify the surface and hand back a parametrization of
the same shape, so every checker in this package can be rerun on the
result.  The blow-up divides the coordinates by a chart entry of minimal
vanishing order; the Nash lift appends the tangent-plane coordinates,
realized as ratios of Jacobian minors against a chart minor.  In each case
the chart entry must have a unit leading coefficient (constant in the
family parameter) and all ratios must stay polynomial; anything else is
refused with a specific error rather than approximated.

After a modification many coordinates become polynomial functions of the
others and carry no information.  For families whose entries are single
monomials, :func:`prune_redundant` removes exactly those, emitting an
exact product certificate for every dropped coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AT, INFINITY, Poly, Scalar, t_order
from .family import Parametrization

__all__ = [
    "NoUnitChartError",
    "NonPolynomialChartError",
    "DroppedCoordinate",
    "PruneResult",
    "ModificationResult",
    "FactorizationResult",
    "prune_redundant",
    "blowup_singular_locus",
    "nash_modification",
    "check_factorization",
]


class NoUnitChartError(ValueError):
    """No coordinate of minimal order has a unit leading coefficient."""


class NonPolynomialChartError(ValueError):
    """A chart ratio is not polynomial, so the modified family leaves the
    polynomial setting this package works in."""


@dataclass(frozen=True)
class DroppedCoordinate:
    """A pruned coordinate together with the identity that justifies it."""

    entry: str
    kind: str               # "zero" | "product"
    certificate: str        # exact identity, empty for zero entries

    def to_json(self) -> dict:
        out = {"entry": self.entry, "kind": self.kind}
        if self.certificate:
            out["certificate"] = self.certificate
        return out


@dataclass(frozen=True)
class PruneResult:
    family: Parametrization
    dropped: tuple[DroppedCoordinate, ...]
    changed: bool
    applicable: bool        # False: some entry is not a monomial, left as is
    note: str = ""

    def to_json(self) -> dict:
        return {
            "entries": self.family.entry_strings(),
            "dropped": [d.to_json() for d in self.dropped],
            "changed": self.changed,
            "applicable": self.applicable,
            "note": self.note,
        }


@dataclass(frozen=True)
class ModificationResult:
    kind: str               # "blowup" | "nash"
    total: Parametrization
    pruned: PruneResult
    divisor: str
    smooth: bool
    notes: tuple[str, ...]

    @property
    def family(self) -> Parametrization:
        return self.pruned.family

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "divisor": self.divisor,
            "total_entries": self.total.entry_strings(),
            "pruned": self.pruned.to_json(),
            "smooth": self.smooth,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class FactorizationResult:
    """Whether the original coordinates are polynomial in the modified ones."""

    status: str             # "verified" | "undecided"
    certificates: tuple[str, ...]
    note: str = ""

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "certificates": list(self.certificates),
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------


def _monomial_vec(p: Poly) -> tuple[int, int] | None:
    if len(p.terms) != 1:
        return None
    (e,) = p.terms
    return (e[0], e[1])


def _combination(target: tuple[int, int],
                 vecs: list[tuple[int, int]]) -> list[int] | None:
    """Nonnegative integer combination of vecs equal to target, or None."""

    def go(i: int, ta: int, tt: int) -> list[int] | None:
        if ta == 0 and tt == 0:
            return [0] * (len(vecs) - i)
        if i == len(vecs):
            return None
        va, vt = vecs[i]
        top = min(ta // va if va else 10 ** 9, tt // vt if vt else 10 ** 9)
        for n in range(top, -1, -1):
            rest = go(i + 1, ta - n * va, tt - n * vt)
            if rest is not None:
                return [n] + rest
        return None

    return go(0, target[0], target[1])


def _product_certificate(lhs: str, p: Poly, combo: list[int],
                         factors: list[tuple[Poly, str]], what: str) -> str:
    """Render p = scalar * prod(factor^n) over the combination's nonzero
    exponents, after checking the identity exactly."""
    prod = Poly.const(AT, 1)
    parts = []
    for n, (q, label) in zip(combo, factors):
        if n:
            prod = prod * q ** n
            parts.append(label if n == 1 else f"({label})^{n}")
    coeff = next(iter(p.terms.values()))
    pcoeff = next(iter(prod.terms.values()))
    scalar = coeff / pcoeff
    if prod * scalar != p:
        raise AssertionError(f"{what} certificate failed for {lhs}")
    scalar_txt = "" if scalar == Scalar.from_fraction(1) else f"({scalar}) * "
    return f"{lhs} = {scalar_txt}" + " * ".join(parts)


def prune_redundant(family: Parametrization) -> PruneResult:
    """Drop coordinates that are exact monomial products of earlier ones.

    Coordinates are scanned in order of vanishing (t-order, then a-order,
    then original position); one is dropped exactly when its exponent pair
    is a nonnegative integer combination of the kept exponent pairs, the
    parameter coordinate (exponents (1, 0)) included.  Every drop comes
    with a verified product identity.  Families with a non-monomial entry
    are returned untouched, flagged not applicable.
    """
    a_poly = family.entries[0]
    rest = list(family.entries[1:])
    dropped: list[DroppedCoordinate] = []

    live: list[tuple[int, Poly, tuple[int, int]]] = []
    for idx, p in enumerate(rest):
        if p.is_zero():
            dropped.append(DroppedCoordinate(entry="0", kind="zero", certificate=""))
            continue
        vec = _monomial_vec(p)
        if vec is None:
            return PruneResult(
                family=family, dropped=(), changed=False, applicable=False,
                note="some coordinate is not a monomial; pruning skipped")
        live.append((idx, p, vec))

    live.sort(key=lambda item: (item[2][1], item[2][0], item[0]))

    kept_vecs: list[tuple[int, int]] = [(1, 0)]
    kept: list[tuple[Poly, str]] = [(a_poly, "a")]
    kept_out: list[Poly] = []
    for idx, p, vec in live:
        combo = _combination(vec, kept_vecs)
        if combo is None:
            kept_vecs.append(vec)
            kept.append((p, p.grammar_str()))
            kept_out.append(p)
            continue
        cert = _product_certificate(p.grammar_str(), p, combo, kept, "pruning")
        dropped.append(DroppedCoordinate(
            entry=p.grammar_str(), kind="product", certificate=cert))

    new_family = Parametrization(
        tuple([a_poly] + kept_out), (), family.name)
    return PruneResult(
        family=new_family,
        dropped=tuple(dropped),
        changed=len(kept_out) + 1 != family.dim,
        applicable=True,
    )


# ---------------------------------------------------------------------------
# chart selection and ratio helpers
# ---------------------------------------------------------------------------


def _unit_chart(candidates: list[tuple[object, Poly]], what: str):
    """Pick the entry of minimal t-order whose leading t-coefficient is a
    nonzero constant in a; ties resolve to the earliest candidate."""
    best = None
    best_order = INFINITY
    for key, p in candidates:
        if p.is_zero():
            continue
        k = t_order(p)
        if k < best_order:
            best_order = k
            best = None
        if k == best_order and best is None:
            lead = p.coeff_of("t", int(k))
            if lead.max_deg("a") == 0:
                best = (key, p)
    if best_order == INFINITY:
        raise NoUnitChartError(f"every {what} vanishes identically")
    if best is None:
        raise NoUnitChartError(
            f"no {what} of minimal order {int(best_order)} has a leading "
            f"coefficient independent of the parameter")
    return best


def _exact_ratio(num: Poly, den: Poly, what: str) -> Poly:
    if num.is_zero():
        return Poly.zero(AT)
    q = num.exact_div(den)
    if q is None:
        raise NonPolynomialChartError(
            f"{what}: ({num.grammar_str()}) is not a polynomial multiple "
            f"of the chart entry ({den.grammar_str()})")
    return q


def _drop_axis_value(p: Poly) -> tuple[Poly, bool]:
    """Subtract the t = 0 part, recentering the chart on its axis section."""
    sect = p.coeff_of("t", 0)
    if sect.is_zero():
        return p, False
    lifted = Poly(AT, {(e[0], 0): c for e, c in sect.terms.items()})
    return p - lifted, True


# ---------------------------------------------------------------------------
# the modifications
# ---------------------------------------------------------------------------


def _chart_ratios(cands: list[tuple[object, Poly]], what: str):
    """The unit chart entry among ``cands`` and the other candidates' ratios
    against it, each recentered on its axis section; also whether any
    ratio was recentered.  Candidates are (key, polynomial) pairs, and an
    error names the offending one as ``what key``."""
    key, divisor = _unit_chart(cands, what)
    ratios: list[Poly] = []
    recentered = False
    for k, p in cands:
        if k == key:
            continue
        ratio, shifted = _drop_axis_value(_exact_ratio(p, divisor, f"{what} {k}"))
        recentered = recentered or shifted
        ratios.append(ratio)
    return divisor, ratios, recentered


def _modification(kind: str, family: Parametrization, entries: list[Poly],
                  divisor: Poly, notes: list[str]) -> ModificationResult:
    """Prune the modified family; a skipped pruning adds its note."""
    total = Parametrization(tuple(entries), (),
                            f"{family.name}:{kind}" if family.name else kind)
    pruned = prune_redundant(total)
    if not pruned.applicable:
        notes.append(pruned.note)
    return ModificationResult(
        kind=kind,
        total=total,
        pruned=pruned,
        divisor=divisor.grammar_str(),
        smooth=_is_smooth(pruned.family),
        notes=tuple(notes),
    )


def blowup_singular_locus(family: Parametrization) -> ModificationResult:
    """Blow up the ambient space along the singular axis and take the chart
    around the strict transform.

    The chart coordinate is the entry of minimal vanishing order (with a
    unit leading coefficient); the other coordinates become their ratios
    against it.  Ratios with a nonzero value on the axis are recentered by
    subtracting that section, an ambient translation that changes no
    equisingularity invariant.
    """
    divisor, ratios, recentered = _chart_ratios(
        list(zip(family.ambient[1:], family.entries[1:])), "coordinate")
    return _modification(
        "blowup", family, [family.entries[0], divisor] + ratios, divisor,
        ["chart recentered along the exceptional section"] if recentered else [])


def nash_modification(family: Parametrization) -> ModificationResult:
    """Lift the surface to the graph of its Gauss map.

    The tangent plane along the parametrization has Pluecker coordinates
    the 2x2 Jacobian minors; in the affine chart around the limit plane
    they become ratios against a chart minor of minimal vanishing order.
    The lifted family keeps the original coordinates and appends those
    ratios.
    """
    divisor, ratios, recentered = _chart_ratios(
        sorted(family.plucker_minors().items()), "tangent minor")
    return _modification(
        "nash", family, list(family.entries) + ratios, divisor,
        ["Gauss chart recentered along the limit-plane section"] if recentered else [])


def _is_smooth(family: Parametrization) -> bool:
    """The modified family is an immersion along the axis exactly when some
    coordinate is a constant multiple of t."""
    for p in family.entries[1:]:
        vec = _monomial_vec(p)
        if vec == (0, 1):
            return True
    return False


def check_factorization(original: Parametrization,
                        modified: Parametrization) -> FactorizationResult:
    """Certify that every original coordinate is a monomial product of the
    modified ones, so the original family factors through the modification."""
    vecs: list[tuple[int, int]] = [(1, 0)]
    factors: list[tuple[Poly, str]] = [(original.entries[0], "a")]
    for p in modified.entries[1:]:
        vec = _monomial_vec(p)
        if vec is None:
            return FactorizationResult(
                status="undecided", certificates=(),
                note="modified family has a non-monomial coordinate")
        vecs.append(vec)
        factors.append((p, p.grammar_str()))
    certs = []
    for name, p in zip(original.ambient[1:], original.entries[1:]):
        if p.is_zero():
            continue
        vec = _monomial_vec(p)
        if vec is None:
            return FactorizationResult(
                status="undecided", certificates=(),
                note=f"original coordinate {name} is not a monomial")
        combo = _combination(vec, vecs)
        if combo is None:
            return FactorizationResult(
                status="undecided", certificates=tuple(certs),
                note=f"no product expression found for {name}")
        certs.append(
            _product_certificate(name, p, combo, factors, "factorization"))
    return FactorizationResult(status="verified", certificates=tuple(certs))
