import importlib
import importlib.util
import inspect
from pathlib import Path

import niemytzki
from niemytzki.trivalent import Verdict


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
