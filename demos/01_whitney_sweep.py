"""
Arc sweeps for Whitney regularity
=================================

Two families of space curves, one parameter each.  The first stays
equisingular: every arc running into the special fiber carries the
tangent planes and secant lines to the same limits.  The second locks
up along arcs of the shape a = c*t, and the checker returns that arc
together with the wedge coordinate that refuses to die.
"""

from pathlib import Path

from equising import equivalence_crosscheck, load_family, whitney_check

corpus = Path(__file__).resolve().parent.parent / "corpus"

###############################################################################
# A regular family first.
fam = load_family(corpus / "family-345.json")
print("family:", ", ".join(fam.entry_strings()))

result = whitney_check(fam)
print("verdict:", result.verdict.value)
print("condition (a):", result.part_a.verdict.value)
print("condition (b):", result.part_b.verdict.value)

# Every exponent regime the sweep had to split on, with its outcome.
print("\nregimes visited by the secant sweep:")
for regime in result.part_b.regimes:
    print(f"  theta = {regime.theta:<4}  {regime.kind:<10} {regime.status}")

###############################################################################
# Now a family that jumps.  Same ambient dimension, same kind of axis,
# but one coordinate mixes the parameter into a low t-power.
jump = load_family(corpus / "family-352.json")
print("\nfamily:", ", ".join(jump.entry_strings()))

result = whitney_check(jump)
print("verdict:", result.verdict.value)

w = result.witness
print("witness arc:", w.description)
print("offending wedge coordinate:", w.wedge_index, "with value", w.value)

###############################################################################
# The discriminant-side criterion sees the same jump through the
# multiplicity count instead of arcs (its polar leg is the same condition).
cross = equivalence_crosscheck(jump)
z = cross.zariski
print("\ndiscriminant criterion:", z.verdict.value)
print("multiplicity at the special fiber:", z.multiplicity_special,
      "vs", z.multiplicity_generic, "at a generic one")
print("the two criteria agree:", cross.agree)
