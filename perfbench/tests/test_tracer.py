"""Tracer behaviour on a toy package with a known call graph."""

import itertools
import sys
import types

import pytest

from perfbench.tracer import Tracer, self_times

CORE = '''
def leaf(x):
    return x

def mid(x):
    return leaf(x) + leaf(x)

def top(x):
    return mid(x) + leaf(x)

def fact(n):
    return 1 if n <= 1 else n * fact(n - 1)

def gen(n):
    for i in range(n):
        yield leaf(i)
'''


@pytest.fixture
def toy():
    """toypkg.core defines the functions; toypkg.user imports leaf by name."""
    pkg = types.ModuleType("toypkg")
    core = types.ModuleType("toypkg.core")
    exec(CORE, core.__dict__)
    user = types.ModuleType("toypkg.user")
    user.leaf = core.leaf
    modules = {"toypkg": pkg, "toypkg.core": core, "toypkg.user": user}
    sys.modules.update(modules)
    yield core, user
    for name in modules:
        del sys.modules[name]


def ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_time_on_nested_calls(toy):
    core, _ = toy
    tracer = Tracer("toypkg", ["core.top", "core.mid", "core.leaf"], clock=ticking_clock())
    tracer.install()
    tracer.active = True
    assert core.top(2) == 6
    tracer.active = False
    # one tick per clock read: top [0,9], mid [1,6], leaves [2,3] [4,5] [7,8]
    assert [s[0] for s in tracer.spans] == ["core.top", "core.mid", "core.leaf",
                                           "core.leaf", "core.leaf"]
    tracer.fold()
    assert dict(tracer.self_s) == {"core.top": 3.0, "core.mid": 3.0, "core.leaf": 3.0}
    assert dict(tracer.calls) == {"core.top": 1, "core.mid": 1, "core.leaf": 3}
    assert sum(tracer.self_s.values()) == 9.0  # the root span's duration
    tracer.uninstall()


def test_self_times_subtract_only_direct_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 7.0, 0), ("c", 2.0, 5.0, 1), ("d", 8.0, 9.0, 0)]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_rebinds_every_module_attribute_and_restores(toy):
    core, user = toy
    original = core.leaf
    tracer = Tracer("toypkg", ["core.leaf"]).install()
    assert core.leaf is not original and user.leaf is core.leaf
    tracer.active = True
    user.leaf(1)
    core.mid(1)
    tracer.active = False
    assert tracer.calls["core.leaf"] == 3
    tracer.uninstall()
    assert core.leaf is original and user.leaf is original


def test_reentrant_call_is_counted_without_a_span(toy):
    core, _ = toy
    tracer = Tracer("toypkg", ["core.fact"]).install()
    tracer.active = True
    assert core.fact(5) == 120
    tracer.active = False
    assert tracer.calls["core.fact"] == 5
    assert [s[0] for s in tracer.spans] == ["core.fact"]
    tracer.uninstall()


def test_generator_is_timed_per_next(toy):
    core, _ = toy
    tracer = Tracer("toypkg", ["core.gen", "core.leaf"], clock=ticking_clock()).install()
    tracer.active = True
    assert list(core.gen(3)) == [0, 1, 2]
    tracer.active = False
    names = [s[0] for s in tracer.spans]
    # the call, three yielding steps and the exhausting step
    assert names.count("core.gen") == 5
    gen_spans = [i for i, s in enumerate(tracer.spans) if s[0] == "core.gen"]
    leaf_parents = [s[3] for s in tracer.spans if s[0] == "core.leaf"]
    assert leaf_parents == gen_spans[1:4]  # each leaf runs inside its own step
    assert tracer.calls["core.gen"] == 1
    tracer.fold()
    assert min(tracer.self_s.values()) >= 0
    tracer.uninstall()


def test_missing_function_is_reported_absent(toy):
    core, _ = toy
    tracer = Tracer("toypkg", ["core.leaf", "core.deleted", "gone.fn"]).install()
    assert tracer.absent == ["core.deleted", "gone.fn"]
    tracer.active = True
    core.leaf(1)
    tracer.active = False
    assert tracer.calls["core.leaf"] == 1 and tracer.calls["core.deleted"] == 0
    tracer.uninstall()


def test_inactive_tracer_records_nothing(toy):
    core, _ = toy
    tracer = Tracer("toypkg", ["core.top", "core.leaf"]).install()
    core.top(1)
    assert not tracer.spans and not tracer.calls
    tracer.uninstall()
