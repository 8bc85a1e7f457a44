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
