"""The boundary-set language and its three-valued membership oracle.

Run: python demos/02_boundary_sets.py
"""

from fractions import Fraction as Fr

from niemytzki import find_witness, member, parse, to_text
from niemytzki.descriptive import infer

print("Parsing is dimension-aware (coordinates have arity n-1):\n")
for text, dim in [
    ("!rationals", 2),
    ("cantor | point(2)", 2),
    ("cball(0,0;1) & !oball(0,0;1/2)", 3),
    ("finite{0;1;-3/2}", 2),
]:
    e = parse(text, dim)
    print(f"  n={dim}:  {text!r:40} ->  {to_text(e)}")

print("\nMembership is a three-valued Verdict (true / false / unknown);")
print("the CLI prints the same answers as in / out / unknown:\n")
cantor = parse("cantor", 2)
for v in ("1/4", "1/2", "1/3", "2/3", "4/9", "7/9"):
    print(f"  {v} in the Cantor set: {member(cantor, (Fr(v),)).value}")

bern = parse("bernstein", 2)
print(f"\n  0 in a Bernstein set: {member(bern, (Fr(0),)).value}")
print("  (Bernstein sets are non-constructive; only class-level facts apply.)")

print("\nWitness search tries structural candidates, then seeded rationals:\n")
for text in ["cantor & point(1/3)", "oball(3;1/2) & !lattice", "empty"]:
    w = find_witness(parse(text, 2), budget=1000, seed=0)
    shown = "none found" if w is None else f"({', '.join(str(c) for c in w)})"
    print(f"  witness for {text!r}: {shown}")

print("\nDescriptive classes are inferred soundly; unknown is admissible:\n")
for text in ["rationals", "!rationals", "cantor", "bernstein",
             "cball(0;1) & !oball(0;1/2)"]:
    d = infer(parse(text, 2)).to_json()
    decided = {k: v for k, v in d.items() if v != "unknown"}
    print(f"  {text!r}:")
    print(f"      {decided}")
