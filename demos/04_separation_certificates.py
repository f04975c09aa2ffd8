"""
Separation certificates for polynomial maps on a curve
======================================================

Restrict a polynomial function to one parametrized curve and you get a
single polynomial p(t) with p(0) = 0.  Whenever p takes the same value
at two distinct points, some exact divisor of p' must vanish in between
at a point p' shares with no repeated root of p.  The certificate names
that divisor W = p'/gcd(p, p') and proves, by one exact gcd over the
rationals, that W shares no root with p.  A numerical critical point and
its distance to the zero fiber of p illustrate the claim.
"""

from fractions import Fraction
from pathlib import Path

from equising import (
    load_curve,
    load_family,
    parse_poly,
    rolle_for_curve,
    rolle_for_map,
)

corpus = Path(__file__).resolve().parent.parent / "corpus"

###############################################################################
# Through a family fiber.  y - z restricted to the special fiber of the
# first corpus family is t^3 - t^4.
fam = load_family(corpus / "family-345.json")
rho = parse_poly("y - z", fam.ambient)
cert = rolle_for_map(fam, rho)

print("restricted map:", cert.map_poly)
print("degree", cert.degree, "with", cert.distinct_roots, "distinct roots")
lhs, rhs = cert.derivative_degree, cert.shared_degree
print(f"critical count {lhs} vs shared-root bound {rhs}:",
      "a free critical point is forced" if lhs > rhs else "nothing forced")
print("witness divisor of the derivative:", cert.witness_poly)
z = cert.approx_critical_point
print(f"numerical critical point {z.real:.6f}, "
      f"distance {cert.fiber_distance:.4f} from the zero fiber")
print("gcd(witness, map) = 1, exactly:", cert.separation_ok)

###############################################################################
# Straight from a curve file plus functional coefficients.  The same
# composition, written as -1 * t^2 + 1 * t^3 on the plain cusp.
name, entries = load_curve(corpus / "cusp-curve.json")
print("\ncurve:", name, "=", ", ".join(e.grammar_str() for e in entries))
cert = rolle_for_curve(entries, [Fraction(-1), Fraction(1)])
print("composed map:", cert.map_poly)
print("witness:", cert.witness_poly, "vanishing near",
      f"{cert.approx_critical_point.real:.6f}")

# A map with a single repeated root has nothing to certify.
cert = rolle_for_curve(entries, [Fraction(0), Fraction(1)])
print("\nt^3 on the same curve: witness needed?", cert.witness_needed,
      "| hurwitz count", (cert.derivative_degree, cert.shared_degree))
