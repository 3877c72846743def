"""The scenario reader's two parsers.

`cli._parse` reads a file of at least `cli._ORJSON_MIN_BYTES` with orjson
when it is installed, and everything else with json; json also decides
every file orjson refuses or might read differently.  These tests hold
the two to the same scenario objects, error messages and reports.
"""

import decimal
import json
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dvsemigroup import cli
from dvsemigroup.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]


def _scenario(body: str) -> bytes:
    """A two-state scenario with body's keys, one byte per character."""
    return ('{"Q": [[-1.0, 1.0], [2.0, -2.0]], ' + body + "}").encode("latin-1")


def _env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _same(a, b) -> bool:
    """Equal JSON values of the same types, floats bit for bit, keys in order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


def _json(data: bytes):
    return json.loads(data.decode("utf-8"), parse_constant=cli._non_finite_token)


def _outcome(path, tmp_path, capsys):
    """run's exit code, stderr and timing-free report for one scenario."""
    out = tmp_path / "report.json"
    if out.exists():
        out.unlink()
    code = cli.run(str(path), str(out))
    report = json.loads(out.read_text()) if out.exists() else None
    if report is not None:
        del report["timings"]
    return code, capsys.readouterr().err, report


def _doubles(rng, n):
    """n finite doubles of random sign, exponent and mantissa bits."""
    x = rng.integers(0, 2 ** 64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    return x[np.isfinite(x)]


def _float_strings(rng, n):
    """Decimal spellings of doubles and of the points between them."""
    x = _doubles(rng, n)
    subnormal = (rng.integers(1, 2 ** 52, n, dtype=np.uint64)
                 | (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))).view(np.float64)
    strings = [repr(float(v)) for v in np.concatenate([x, subnormal])]
    strings += [format(float(v), spec) for v in x for spec in (".16e", ".19e", ".24e")]
    strings += [format(float(v), ".16e") for v in subnormal]
    # exact halfway points between adjacent doubles, where a parser that
    # rounds once too often goes wrong, and roundings of them
    with decimal.localcontext() as ctx:
        ctx.prec = 2000
        for v in np.abs(x[: n // 2]):
            up = np.nextafter(v, np.inf)
            if not np.isfinite(up):
                continue
            mid = (decimal.Decimal(float(v)) + decimal.Decimal(float(up))) / 2
            # "e" keeps every digit and a float's spelling: a midpoint
            # past 2**53 is an integer
            strings += [format(mid, spec) for spec in ("e", ".15e", ".17e", ".39e")]
    return strings


class TestParsedLikeJson:
    def test_unreadable_scenario_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read scenario file"):
            cli.load_scenario(str(tmp_path / "missing.json"))

    def test_float_sweep_is_bit_identical(self, monkeypatch):
        orjson = pytest.importorskip("orjson")
        monkeypatch.setattr(cli, "_ORJSON_MIN_BYTES", 0)
        rng = np.random.default_rng(41)
        strings = _float_strings(rng, 4000)
        rows = ", ".join("[" + ", ".join(strings[i:i + 64]) + "]"
                         for i in range(0, len(strings), 64))
        data = (f'{{"Q": [{rows}], "v": [{", ".join(strings)}], '
                f'"tasks": [{{"name": "mc", "options": {{"t": {strings[0]}}}}}]}}').encode()
        expected = _json(data)
        assert len(expected["v"]) == len(strings) > 30000
        assert _same(orjson.loads(data), expected)
        assert _same(cli._parse(data), expected)

    def test_big_integer_sweep(self, monkeypatch):
        orjson = pytest.importorskip("orjson")
        monkeypatch.setattr(cli, "_ORJSON_MIN_BYTES", 0)
        rnd = random.Random(43)
        ints = []
        for _ in range(4000):
            bits = rnd.randrange(64, 1001)
            ints.append(rnd.choice((1, -1)) * (rnd.getrandbits(bits) | 1 << (bits - 1)))
        # exact ties between two doubles, rounded to the even one
        ints += [(2 ** 53 + 2 * k + 1) << s for k in range(4) for s in range(11, 900, 97)]
        ints += [2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, -2 ** 63, -2 ** 63 - 1, 1, -1]
        text = ", ".join(map(str, ints))
        data = f'{{"Q": [[{text}], [{text}, 0.5]], "v": [{text}]}}'.encode()
        expected = _json(data)
        # outside Q, orjson reads the integers past 64 bits as floats, so
        # json reads the file
        assert not _same(orjson.loads(data), expected)
        assert _same(cli._parse(data), expected)
        # inside Q, orjson's float equals numpy's conversion of json's int
        fast = orjson.loads(data)
        assert float in map(type, fast["Q"][0]) and float not in map(type, expected["Q"][0])
        for given, read in zip(fast["Q"], expected["Q"]):
            np.testing.assert_array_equal(cli._array(given, "Q").view(np.uint64),
                                          cli._array(read, "Q").view(np.uint64))

    @pytest.mark.parametrize("data", [
        _scenario('"tasks": [{"name": "mc", "options": {"t": 1e999, "paths": 10}}]'),
        _scenario('"v": [NaN, 0.0], "tasks": ["validate"]'),
        _scenario('"v": [1000000000000000000000000, -1000000000000000000000000], "tasks": []'),
        _scenario('"seed": 1000000000000000000000000, "tasks": []'),
        _scenario('"t_grid": [1000000000000000000000000], "tasks": []'),
        _scenario(r'"name": "\ud800", "tasks": []'),
        _scenario('"name": "caf\xe9", "tasks": []'),
        _scenario('"v": ' + "[" * 2000 + "]" * 2000 + ', "tasks": []'),
        b"\xef\xbb\xbf" + _scenario('"tasks": []'),
    ], ids=["1e999-option", "NaN", "25-digit-v", "25-digit-seed", "25-digit-t_grid",
            "lone-surrogate", "invalid-utf-8", "deep-nesting", "BOM"])
    def test_fallback_matches_json(self, tmp_path, capsys, monkeypatch, data):
        path = tmp_path / "scenario.json"
        path.write_bytes(data)
        outcomes = []
        for least in (0, float("inf")):
            monkeypatch.setattr(cli, "_ORJSON_MIN_BYTES", least)
            outcomes.append(_outcome(path, tmp_path, capsys))
        assert outcomes[0] == outcomes[1]
        # the trigger is real: orjson alone refuses the file or reads it
        # otherwise than json does
        orjson = pytest.importorskip("orjson")
        try:
            fast = orjson.loads(data)
        except orjson.JSONDecodeError:
            return
        try:
            assert not _same(fast, _json(data))
        except RecursionError:      # nesting json cannot read
            pass

    def test_deep_nesting_never_reaches_orjson(self, tmp_path):
        # orjson 3.8 recurses on the C stack, and a million nested "["
        # crashed the process; json refuses the file as too deep
        assert cli._orjson_may_read(b"[" * 4095 + b" " * (1 << 20))
        assert not cli._orjson_may_read(b"[" * 4096 + b" " * (1 << 20))
        assert not cli._orjson_may_read(b"[" * 4095)
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * (1 << 20) + b"]" * (1 << 20))
        proc = subprocess.run([sys.executable, "-m", "dvsemigroup.cli", "run", str(path)],
                              env=_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert "config error: scenario is not valid JSON" in proc.stderr


@pytest.fixture(scope="module")
def dense_300(tmp_path_factory):
    """A dense 300-state scenario, past the size orjson reads."""
    rng = np.random.default_rng(7)
    Q = rng.uniform(0.0, 1.0, (300, 300))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    body = {"name": "dense-300", "Q": Q.tolist(), "v": rng.normal(size=300).tolist(),
            "seed": 5, "tasks": ["validate", "spectral"]}
    path = tmp_path_factory.mktemp("dense") / "dense-300.json"
    path.write_text(json.dumps(body))
    assert path.stat().st_size >= cli._ORJSON_MIN_BYTES
    return path


class TestLargeScenario:
    @pytest.mark.parametrize("reader", ["orjson", "no-orjson"])
    def test_report_matches_json(self, dense_300, tmp_path, capsys, monkeypatch, reader):
        orjson = pytest.importorskip("orjson")
        calls = []
        monkeypatch.setattr(orjson, "loads", lambda data, loads=orjson.loads:
                            calls.append(len(data)) or loads(data))
        if reader == "no-orjson":
            monkeypatch.setitem(sys.modules, "orjson", None)
        fast = _outcome(dense_300, tmp_path, capsys)
        assert calls == ([dense_300.stat().st_size] if reader == "orjson" else [])
        monkeypatch.setattr(cli, "_ORJSON_MIN_BYTES", float("inf"))
        assert _outcome(dense_300, tmp_path, capsys) == fast
        assert fast[0] == 0 and fast[2]["config"]["Q"]["shape"] == [300, 300]

    def test_small_scenario_leaves_orjson_unimported(self, dense_300):
        pytest.importorskip("orjson")
        script = ("import sys; from dvsemigroup import cli; cli.load_scenario(sys.argv[1]); "
                  "print('orjson' in sys.modules)")
        seen = []
        for path in (ROOT / "scenarios" / "two_state_demo.json", dense_300):
            proc = subprocess.run([sys.executable, "-c", script, str(path)], env=_env(),
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            seen.append(proc.stdout.strip())
        assert seen == ["False", "True"]
