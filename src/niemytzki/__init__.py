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
"""

from types import ModuleType as _ModuleType

from .descriptive import (
    DescClass,
    TopologyOrder,
    compare_topologies,
    contains_closed_uncountable,
    infer,
    subset,
)
from .geometry import (
    BallSpec,
    DimensionMismatch,
    Point,
    in_ball,
    in_tangent_ball,
    inner_ball_radius,
    separating_f,
    sq_dist,
    t_level,
)
from .harness import SuiteConfig, SuiteResult, generate_samples, run_suite
from .setdsl import ParseError, SetExpr, find_witness, member, parse, to_text
from .theorems import PropertyReport, TraceStep, classify, explain
from .topology import (
    BasicOpen,
    ConvergenceVerdict,
    FiniteList,
    HalfBall,
    InteriorBall,
    SequenceFamily,
    TangentBall,
    TangentCircle,
    TopologySpec,
    UndecidableMembership,
    Vertical,
    contains,
    decide_convergence,
    local_base_element,
    refine,
)
from .trivalent import Verdict

# every public name imported above; the submodules, bound as attributes of
# the package by those imports, are not among them
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

__version__ = "0.1.0"
