"""Check the bundled published tables for internal consistency.

The package ships a checksummed fixture of published pillar indices and
cluster memberships for two epochs. This script re-derives each
country's cluster from its published indices via the interval-halving
rule and reports where the derivation disagrees with the published
membership, separating borderline cases (every disagreeing pillar sits
within epsilon of the 4.0 threshold) from hard ones.
"""

from foi import verify_reference

for epoch in (2010, 2020):
    rep = verify_reference(epoch)
    print(f"epoch {epoch}: {rep.matches}/{rep.country_count} "
          f"published clusters re-derive exactly")
    for m in rep.mismatches:
        kind = "borderline" if m.borderline else "hard"
        print(f"  {m.country}: computed cluster {m.computed}, "
              f"published {m.reference} ({kind})")
    print()
