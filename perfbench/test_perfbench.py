"""Self-tests of the benchmark: seeded inputs, tracer arithmetic, checker verdicts."""

import filecmp
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SCENARIOS = os.path.join(os.path.dirname(HERE), "scenarios")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_in_the_seed(workload, tmp_path):
    a = workloads.generate(workload, 5, str(tmp_path / "a"), SCENARIOS)
    b = workloads.generate(workload, 5, str(tmp_path / "b"), SCENARIOS)
    c = workloads.generate(workload, 6, str(tmp_path / "c"), SCENARIOS)
    assert [x["expect"] for x in a] == [x["expect"] for x in b]
    generated = [(x["path"], y["path"], z["path"]) for x, y, z in zip(a, b, c)
                 if not x["path"].startswith(SCENARIOS)]
    assert generated
    assert all(filecmp.cmp(x, y, shallow=False) for x, y, _ in generated)
    assert not all(filecmp.cmp(x, z, shallow=False) for x, _, z in generated)
    demos = [x["path"] for x in a if x["path"].startswith(SCENARIOS)]
    assert len(demos) == (0 if workload == "single-chain" else 1)


@pytest.fixture
def toy_package():
    """toypkg.a defines inner/outer/rec; toypkg.b from-imports inner."""
    a = types.ModuleType("toypkg.a")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) + inner(x)\n"
         "def rec(n):\n    return 0 if n == 0 else rec(n - 1)\n"
         "def boom():\n    raise ValueError('no')\n", a.__dict__)
    b = types.ModuleType("toypkg.b")
    b.inner = a.inner
    pkg = types.ModuleType("toypkg")
    mods = {"toypkg": pkg, "toypkg.a": a, "toypkg.b": b}
    sys.modules.update(mods)
    yield a, b
    for name in mods:
        del sys.modules[name]


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_children(toy_package):
    a, b = toy_package
    # outer [0, 10] holds inner [1, 3] and inner [4, 7]
    tr = tracing.Tracer(clock=scripted_clock([0, 1, 3, 4, 7, 10]))
    assert tr.rebind("toypkg", "a", "inner", "inner") == 2     # a.inner and b.inner
    assert tr.rebind("toypkg", "a", "outer", "outer") == 1
    assert a.outer(1) == 4
    st = tr.self_times()
    assert st["outer"] == [1, 10, 5]
    assert st["inner"] == [2, 5, 5]
    assert tr.parents == [-1, 0, 0]
    assert b.inner is a.inner and b.inner.__wrapped__.__name__ == "inner"


def test_total_counts_a_recursive_layer_once(toy_package):
    a, _ = toy_package
    # rec(2) [0, 9] > rec(1) [1, 7] > rec(0) [2, 4]
    tr = tracing.Tracer(clock=scripted_clock([0, 1, 2, 4, 7, 9]))
    tr.rebind("toypkg", "a", "rec", "rec")
    a.rec(2)
    calls, total, self_s = tr.self_times()["rec"]
    assert (calls, total, self_s) == (3, 9, 9)


def test_failures_are_counted_and_spans_closed(toy_package):
    a, _ = toy_package
    tr = tracing.Tracer(clock=scripted_clock([0, 2]))
    tr.rebind("toypkg", "a", "boom", "boom")
    with pytest.raises(ValueError):
        a.boom()
    assert tr.failures["boom"] == 1
    assert tr.self_times()["boom"] == [1, 2, 2]


def test_checker_tells_wrong_from_failed():
    expect = {"d": 2, "N": 1, "lambda": 0.5, "scale": 1.0, "tasks": ["spectral"] * 3}
    good = {"lambda": 0.5 + 1e-12, "psi": [1.0, 1.0], "pi": [0.5, 0.5], "mu": [0.5, 0.5]}
    report = {"tasks": [
        {"task": "spectral", "status": "ok", "result": good},
        {"task": "spectral", "status": "ok", "result": {**good, "lambda": 0.5 + 1e-6}},
        {"task": "spectral", "status": "error", "error": {"type": "ConvergenceFailure"}},
    ]}
    assert [o for _, o in check.check_report(report, expect)] == ["ok", "wrong", "failed"]
    assert [o for _, o in check.check_report(None, expect)] == ["failed"] * 3
