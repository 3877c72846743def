"""The README's API table, first example and CLI examples against the
installed package."""

import builtins
import dataclasses
import importlib
import inspect
import math
import re
import shlex
from pathlib import Path

import pytest

import dvsemigroup
from dvsemigroup import cli, feynman_kac, multiparticle

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _tour_rows():
    tour = README[README.index("## Library tour"):README.index("\nConventions:")]
    rows = []
    for line in tour.splitlines():
        if line.startswith("| `"):
            spans = re.findall(r"`([^`]*)`", line)
            rows.append((spans[0], spans[1:]))
    return rows


def _member(obj, name):
    if hasattr(obj, name):
        return getattr(obj, name)
    if dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}:
        return None
    raise AttributeError(name)


def _resolve(module, name):
    """The object a table entry names, or None for a dataclass field."""
    head, *rest = name.split(".")
    for owner in (module, dvsemigroup):
        if hasattr(owner, head):
            obj = getattr(owner, head)
            for part in rest:
                obj = _member(obj, part)
            return obj
    if not rest:
        exc = getattr(builtins, head, None)
        if isinstance(exc, type) and issubclass(exc, BaseException):
            return exc
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                try:
                    return _member(cls, head)
                except AttributeError:
                    pass
    raise AttributeError(name)


ROWS = _tour_rows()


@pytest.mark.parametrize("module_name, entries", ROWS, ids=[row[0] for row in ROWS])
def test_library_tour_names_resolve(module_name, entries):
    module = importlib.import_module(f"dvsemigroup.{module_name}")
    for entry in entries:
        name, _, args = entry.partition("(")
        assert re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", name), entry
        try:
            obj = _resolve(module, name)
        except AttributeError:
            pytest.fail(f"README names `{entry}`, which dvsemigroup.{module_name} lacks")
        if args:
            # a listed signature names every parameter, in order
            listed = [a.strip() for a in args.rstrip(")").split(",")]
            assert listed == list(inspect.signature(obj).parameters), entry


def test_tour_covers_every_module():
    assert [row[0] for row in ROWS] == [
        "generator", "semigroup", "spectral", "rate_function", "multiparticle",
        "hohenberg_kohn", "feynman_kac"]


def test_first_example_runs():
    code = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def _cli_lines():
    section = README[README.index("## CLI"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("dvsemigroup ")]


def test_cli_examples_parse():
    # each example line goes to the CLI's own argument parser, which exits
    # on an unknown flag or subcommand; nothing runs
    lines = _cli_lines()
    assert len(lines) >= 4
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_tolerance_names_resolve():
    # the tolerance table and the sentence after it name library objects;
    # a bare name may also be a parameter of a function named there
    section = README[README.index("## Default tolerances"):README.index("\nScenario files")]
    names = re.findall(r"`([^`]*)`", section)
    found, params = set(), set()
    for name in names:
        try:
            obj = _resolve(dvsemigroup, name)
        except AttributeError:
            continue
        found.add(name)
        if inspect.isfunction(obj):
            params.update(inspect.signature(obj).parameters)
    missing = [name for name in names if name not in found | params]
    assert not missing, f"README's tolerance table names {missing}, which dvsemigroup lacks"


def test_byte_budget_matches_the_library():
    # the size limits the introduction states, against the budget and the
    # peak factors they come from
    intro = " ".join(README[:README.index("## Install and test")].split())
    budget = int(re.search(r"`multiparticle\._MAX_BYTES` = (\d+) bytes", intro).group(1))
    counts = re.search(r"(\d+) x d x C\(d\+N-1, N\) <= (\d+);", intro)
    grid = re.search(r"(\d+) x N x d\^N <= (\d+) \(at d = 2, N <= (\d+)\)", intro)
    chain = re.search(r"n <= (\d+) states \(N <= (\d+) at d = 2, N <= (\d+) at d = 3\)", intro)
    assert budget == multiparticle._MAX_BYTES
    assert [int(x) for x in counts.groups()] == [multiparticle._COUNTS_PEAK, budget // 8]
    peak, total, two_state = [int(x) for x in grid.groups()]
    assert (peak, total) == (multiparticle._GRID_PEAK, budget // 8)
    assert two_state == max(N for N in range(2, 64) if peak * N * 2 ** N <= total)
    # the chain on C(d+N-1, N) orbits, N + 1 at d = 2 and C(N+2, 2) at d = 3
    n, two, three = [int(x) for x in chain.groups()]
    assert n == math.isqrt(budget // (8 * multiparticle._CHAIN_PEAK))
    assert (two, three) == (n - 1, max(N for N in range(2, n) if math.comb(N + 2, 2) <= n))
    per_path, limit = re.search(r"(\d+) x paths <= \d+, so\s+paths <= (\d+)", intro).groups()
    assert int(per_path) == 8 * feynman_kac._PATHS_PEAK
    assert int(limit) == budget // int(per_path)
