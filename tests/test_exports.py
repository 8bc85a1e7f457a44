import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import niemytzki
from niemytzki.trivalent import Verdict

PUBLIC_NAMES = [
    "BallSpec", "BasicOpen", "ConvergenceVerdict", "DescClass", "DimensionMismatch",
    "FiniteList", "HalfBall", "InteriorBall", "ParseError", "Point", "PropertyReport",
    "SequenceFamily", "SetExpr", "SuiteConfig", "SuiteResult", "TangentBall",
    "TangentCircle", "TopologyOrder", "TopologySpec", "TraceStep", "UndecidableMembership",
    "Verdict", "Vertical", "classify", "compare_topologies", "contains",
    "contains_closed_uncountable", "decide_convergence", "explain", "find_witness",
    "generate_samples", "in_ball", "in_tangent_ball", "infer", "inner_ball_radius",
    "local_base_element", "member", "parse", "refine", "run_suite", "separating_f",
    "sq_dist", "subset", "t_level", "to_text",
]


def test_the_public_names_are_pinned():
    assert niemytzki.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_public_name_is_the_object_of_its_home_module(name):
    value = getattr(niemytzki, name)
    home = value.__module__
    assert home.startswith("niemytzki."), home
    assert getattr(sys.modules[home], name) is value
    assert vars(niemytzki)[name] is value  # kept: the next read is a plain lookup


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(niemytzki))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'niemytzki' has no attribute 'no_such_name'$"):
        niemytzki.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from niemytzki import *", namespace)
    assert set(niemytzki.__all__) <= namespace.keys()


def test_every_public_name_resolves():
    for name in niemytzki.__all__:
        assert getattr(niemytzki, name) is not None, name


def test_member_answers_with_the_verdict_type():
    assert "Membership" not in niemytzki.__all__
    expr = niemytzki.parse("cantor | bernstein")
    assert isinstance(niemytzki.member(expr, (0,)), Verdict)


def test_every_benchmark_traced_name_is_a_function_of_its_module():
    # perfbench counts calls per layer by these names: one that no longer
    # resolves would read as zero calls, not as an error
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert run.TRACED
    for name in run.TRACED:
        module, function = name.split(".")
        value = getattr(importlib.import_module(f"niemytzki.{module}"), function, None)
        assert inspect.isfunction(value), name
