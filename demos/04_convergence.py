"""Convergence versus discreteness at the boundary, with checkable certificates.

Run: python demos/04_convergence.py
"""

from fractions import Fraction as Fr

from niemytzki import (
    Point,
    TangentCircle,
    TopologySpec,
    Vertical,
    decide_convergence,
)
from niemytzki.topology import certificate_failures

a = Point.boundary(0)
niem = TopologySpec.niemytzki(2)
eucl = TopologySpec.euclidean(2)

print("A vertical sequence x_k = a + (0, 1/k) converges under every topology;")
print("only the index bound changes:\n")
for topo, label in [(eucl, "euclidean"), (niem, "niemytzki")]:
    verdict = decide_convergence(Vertical(a, Fr(1)), topo)
    bound = verdict.certificates[0]
    print(f"  {label:10}: converges, {bound.description}")

print("\nA sequence marching to a along the bounding sphere of B~(a, 1)")
print("converges in the Euclidean sense but is DISCRETE under the tangent-ball")
print("topology: the tangent ball itself blocks every term.\n")

fam = TangentCircle(a, Fr(1))
print("  first terms:", [p.to_json() for p in (fam.term(1), fam.term(2), fam.term(3))])

v_eucl = decide_convergence(fam, eucl)
print(f"\n  euclidean : converges = {v_eucl.converges}")
print(f"              {v_eucl.certificates[0].description}")

v_niem = decide_convergence(fam, niem)
blocking, radii = v_niem.certificates
print(f"\n  niemytzki : converges = {v_niem.converges}")
print(
    f"              blocking neighborhood: tangent ball at "
    f"({','.join(blocking.neighborhood.center.to_json())}) "
    f"radius {blocking.neighborhood.radius}"
)
print(
    f"              isolating radii for the first {len(radii.entries)} terms, "
    f"e.g. term 1 -> {radii.entries[0][1]}"
)

print("\nCertificates re-verify exactly on the prefix:")
print(f"  euclidean: {certificate_failures(v_eucl, fam, eucl) or 'all checks pass'}")
print(f"  niemytzki: {certificate_failures(v_niem, fam, niem) or 'all checks pass'}")

print("\nWhether the anchor keeps Euclidean neighborhoods is decided by the")
print("boundary set; a Bernstein anchor aborts (exit code 4 in the CLI):")
from niemytzki import UndecidableMembership, parse

try:
    decide_convergence(fam, TopologySpec.modified(parse("bernstein", 2), 2))
except UndecidableMembership as exc:
    print(f"  UndecidableMembership: {exc}")
