"""
Characteristic exponents of generic plane shadows
=================================================

The characteristic exponents of a fiber are those of its shadow on a
generically chosen plane.  They are read without forming the shadow: one
coordinate of least t-order is reparametrized to a pure power, and the
exponents are where the gcd of the union of the coordinates' supports
drops.  A family can pass both arc-based and discriminant-based
regularity and still change these exponents across fibers; this is the
stronger invariant.
"""

from fractions import Fraction
from pathlib import Path

from equising import char_exponents_at, load_family, strong_equisingularity_check

corpus = Path(__file__).resolve().parent.parent / "corpus"

fam = load_family(corpus / "family-467.json")
print("family:", ", ".join(fam.entry_strings()))

# One fiber at a time.  The generic fiber is sampled with a symbolic
# parameter value, so the answer is exact, not a lucky rational.
for label, value in [("a = 0", 0), ("a = 1", 1), ("a = 1/3", Fraction(1, 3))]:
    seq = char_exponents_at(fam, value)
    print(f"  {label:<8} exponents {seq.display()}")

result = strong_equisingularity_check(fam)
print("strong equisingularity:", result.verdict.value)
for label, seq in result.sequences:
    print(f"  {label:<8} {seq.display()}")
print("mismatch:", result.mismatch)

###############################################################################
# A family whose exponents hold steady.
fam = load_family(corpus / "family-589.json")
print("\nfamily:", ", ".join(fam.entry_strings()))

result = strong_equisingularity_check(fam, special_a=(Fraction(1, 2),))
print("strong equisingularity:", result.verdict.value)
for label, seq in result.sequences:
    print(f"  {label:<12} {seq.display()}")
