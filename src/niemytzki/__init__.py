"""Exact-arithmetic toolkit for tangent-ball topologies on the closed half-space.

The library models X_n = P_n ∪ L_n, the closed Euclidean half-space, carrying
the family of topologies tau(A) indexed by boundary sets A ⊆ L_n: interior
points keep Euclidean ball neighborhoods, boundary points in A keep Euclidean
half-ball neighborhoods, and boundary points outside A receive tangent-ball
neighborhoods.  tau(L_n) is the Euclidean topology, tau(∅) the Niemytzki
(tangent-ball) topology, and A ⊆ B iff tau(A) ⊇ tau(B).

Modules:
  geometry     exact rational predicates: balls, tangent balls, levels
  setdsl       grammar and membership oracle for boundary-set expressions
  descriptive  three-valued descriptive-class inference for boundary sets
  topology     local bases, refinement, convergence certificates
  theorems     characterization rules producing citation-traced reports
  harness      seeded exact property suites
  cli          command-line front end

``import niemytzki`` loads none of them.  Each public name below is read
from its home module on first use (PEP 562), so ``niemytzki.classify``
loads ``theorems`` and what it imports, and nothing else.  The CLI does the
same per command.  Every command loads ``setdsl``, ``geometry`` and
``trivalent``, which is all ``member`` needs; ``compare`` adds
``descriptive``, ``classify`` and ``explain`` add ``descriptive`` and
``theorems``, ``nbhd`` and ``converge`` add ``topology``, and ``check``
adds ``topology`` and ``harness``.
"""

import importlib as _importlib

_HOMES = {
    "descriptive": ("DescClass", "TopologyOrder", "compare_topologies",
                    "contains_closed_uncountable", "infer", "subset"),
    "geometry": ("BallSpec", "DimensionMismatch", "Point", "in_ball", "in_tangent_ball",
                 "inner_ball_radius", "separating_f", "sq_dist", "t_level"),
    "harness": ("SuiteConfig", "SuiteResult", "generate_samples", "run_suite"),
    "setdsl": ("ParseError", "SetExpr", "find_witness", "member", "parse", "to_text"),
    "theorems": ("PropertyReport", "TraceStep", "classify", "explain"),
    "topology": ("BasicOpen", "ConvergenceVerdict", "FiniteList", "HalfBall", "InteriorBall",
                 "SequenceFamily", "TangentBall", "TangentCircle", "TopologySpec",
                 "UndecidableMembership", "Vertical", "contains", "decide_convergence",
                 "local_base_element", "refine"),
    "trivalent": ("Verdict",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    """Import a public name's home module on first use and keep the value."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
