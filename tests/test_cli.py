"""Scenario loading, task dispatch, report determinism, exit codes."""

import json
import math
import os
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import oracles
from dvsemigroup import (
    Potential,
    dv_sup,
    ground_measure_by_averaging,
    ground_measure_by_evolution,
    growth_bound,
    make_operator,
    pairwise_potential,
    principal_eigen,
    rate_I,
    relative_entropy,
    separable_potential,
    total_variation,
    validate_generator,
)
from dvsemigroup.cli import load_scenario, main, run, run_scenario, sanitize
from dvsemigroup.errors import ConfigError


def write_scenario(tmp_path, body, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


DEMOS = Path(__file__).resolve().parents[1] / "scenarios"

BASE = {
    "name": "demo",
    "Q": [[-1.0, 1.0], [2.0, -2.0]],
    "v": [1.0, 0.0],
    "seed": 3,
}


def _cos_birth_death(n, a):
    """Unit-rate nearest-neighbour chain with V = a cos(linspace(0, pi, n))."""
    Q = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    return {"Q": (Q - np.diag(Q.sum(axis=1))).tolist(),
            "v": (a * np.cos(np.linspace(0.0, np.pi, n))).tolist()}


def _crc32(Q):
    """The report's Q checksum, recomputed from the validated rates."""
    rates = validate_generator(Q).rates
    return zlib.crc32(np.ascontiguousarray(rates, dtype="<f8").tobytes())


def _no_constant(token):
    raise AssertionError(f"report holds the non-finite token {token}")


class TestLoadScenario:
    def test_minimal(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, {"Q": BASE["Q"]}))
        assert sc.system.Q1.dim == 2 and sc.system.N == 1 and sc.tasks == []

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            load_scenario(write_scenario(tmp_path, dict(BASE, bogus=1)))
        assert "bogus" in str(exc.value)

    def test_unknown_task(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(write_scenario(tmp_path, dict(BASE, tasks=["frobnicate"])))

    def test_bad_potential_length(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(write_scenario(tmp_path, dict(BASE, v=[1.0, 2.0, 3.0])))

    def test_v_and_V_conflict(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(write_scenario(tmp_path, dict(BASE, V=[0.0, 0.0])))

    def test_pairwise_V0(self, tmp_path):
        body = dict(BASE, N=2, V0={"pairwise": [[0.0, 1.0], [1.0, 0.0]]})
        sc = load_scenario(write_scenario(tmp_path, body))
        # on the orbits (0, 0), (0, 1), (1, 1)
        assert sc.V0.tolist() == [0.0, 1.0, 0.0]

    def test_nearly_symmetric_pairwise_V0_is_invalid(self, tmp_path, capsys):
        # once read as the non-symmetric V0 [0, 1, 1.000001, 0], on which
        # every hk task failed
        body = dict(BASE, N=2, V0={"pairwise": [[0.0, 1.0], [1.0 + 1e-6, 0.0]]},
                    tasks=["ihk"])
        assert main(["run", write_scenario(tmp_path, body)]) == 2
        assert "invalid V0" in capsys.readouterr().err

    def test_infinite_pairwise_V0_is_invalid(self, tmp_path, capsys):
        # 1e999 reads as inf; the pair sums once emitted three numpy
        # RuntimeWarnings before the NaN potential was refused
        path = tmp_path / "scenario.json"
        path.write_text('{"Q": [[-1.0, 1.0], [2.0, -2.0]], "N": 2, '
                        '"V0": {"pairwise": [[0, 1e999], [1e999, 0]]}, "tasks": ["spectral"]}')
        out = str(tmp_path / "report.json")
        assert run(str(path), out) == 2
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert "pair interaction must be finite" in err and "Warning" not in err

    def test_hk_verify_tol_accepts_only_positive_finite(self, tmp_path):
        def scenario(options):
            task = {"name": "hk-verify", "options": options}
            return load_scenario(write_scenario(tmp_path, dict(BASE, N=2, tasks=[task])))

        for ok in ({}, {"tol": 1e-8}, {"tol": 1}):
            assert run_scenario(scenario(dict(ok, v2=[0.0, 2.0])))[1]
        for bad in ({"bogus": 1}, {"bogus": 1, "tol": 1e-10}, {"tol": True},
                    {"tol": 0}, {"tol": -1e-10}, {"tol": "1e-10"}, {"tol": 1e999}):
            with pytest.raises(ConfigError):
                run_scenario(scenario(dict(bad, v2=[0.0, 2.0])))
        with pytest.raises(ConfigError):
            scenario([1e-10])

    def test_non_finite_tokens_rejected(self, tmp_path, capsys):
        # json.dumps writes NaN, Infinity and -Infinity, which are not JSON.
        # Once loaded, a NaN hk-verify tol read v2 = v1 + 5 as distinct
        # marginals at distance 0, and an infinite t_grid failed averaging.
        for body in (dict(BASE, v=[1.0, float("nan")]),
                     dict(BASE, t_grid=[1.0, float("-inf")]),
                     dict(BASE, tasks=[{"name": "mc", "options": {"t": float("inf")}}])):
            with pytest.raises(ConfigError) as exc:
                load_scenario(write_scenario(tmp_path, body))
            assert "non-finite" in str(exc.value)
        with pytest.raises(ConfigError):
            load_scenario(write_scenario(tmp_path, dict(BASE, t_grid=[1e999])))
        body = dict(BASE, N=2, tasks=[{"name": "hk-verify",
                                       "options": {"v2": [6.0, 5.0], "tol": float("nan")}}])
        out = str(tmp_path / "out.json")
        assert main(["hk-verify", write_scenario(tmp_path, body), "-o", out]) == 2
        body = dict(BASE, t_grid=[float("inf")], tasks=["averaging"])
        assert main(["run", write_scenario(tmp_path, body), "-o", out]) == 2
        assert not os.path.exists(out)
        assert capsys.readouterr().err.count("non-finite number") == 2

    def test_name_must_be_a_string(self, tmp_path, capsys):
        # a list name once ran and named its CSV files "['a', {'b': 1}]__...",
        # and 1e999 (an infinite float to json.load) was reported as "infinity"
        for name in ('["a", {"b": 1}]', "1e999", "3", "null", "true"):
            path = tmp_path / "scenario.json"
            path.write_text('{"Q": [[-1.0, 1.0], [2.0, -2.0]], "name": ' + name
                            + ', "tasks": ["spectral"]}')
            with pytest.raises(ConfigError, match="name"):
                load_scenario(str(path))
            csv_dir = tmp_path / "csv"
            assert main(["run", str(path), "-o", str(tmp_path / "r.json"),
                         "--csv", str(csv_dir)]) == 2
            assert not csv_dir.exists()
        assert capsys.readouterr().err.count("name must be a string") == 5

    @pytest.mark.parametrize("tasks, message", [
        # each once ended in a TypeError traceback, and a string was read
        # as its letters: "unknown task 's'"
        (5, "tasks must be a list"),
        (None, "tasks must be a list"),
        ("spectral", "tasks must be a list"),
        ([{"name": ["spectral"]}], "a task name must be a string"),
        ([{"name": {"a": 1}}], "a task name must be a string"),
        (["spectral", 5], "tasks must be names or objects"),
        ([["spectral"]], "tasks must be names or objects"),
    ], ids=["number", "null", "string", "list-name", "object-name", "number-entry",
            "list-entry"])
    def test_malformed_tasks_exit_2(self, tmp_path, capsys, tasks, message):
        out = str(tmp_path / "out.json")
        assert main(["run", write_scenario(tmp_path, dict(BASE, tasks=tasks)), "-o", out]) == 2
        assert not os.path.exists(out)
        assert f"{message} (key: tasks)" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        # a name holding the latin-1 byte 0xe9 once raised UnicodeDecodeError
        (b'{"Q": [[-1.0, 1.0], [2.0, -2.0]], "name": "caf\xe9"}',
         "scenario is not UTF-8"),
        (b'\xef\xbb\xbf{"Q": [[-1.0, 1.0], [2.0, -2.0]]}', "Unexpected UTF-8 BOM"),
    ], ids=["latin-1", "BOM"])
    def test_file_not_plain_utf8_exits_2(self, tmp_path, capsys, data, message):
        path = tmp_path / "scenario.json"
        path.write_bytes(data)
        assert main(["run", str(path), "-o", str(tmp_path / "out.json")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        # numpy once converted each of these strings, and the scenario ran
        ({"Q": [["-1", "1"], ["2", "-2"]]}, "Q"),
        ({"v": ["1", "0"]}, "v"),
        ({"N": 2, "V0": {"pairwise": [["0", True], [True, "0"]]}}, "V0"),
        ({"N": 2, "V0": ["0", 1, 1, 0]}, "V0"),
        ({"N": 2, "tasks": [{"name": "hk-verify", "options": {"v2": ["0", "1"]}}]}, "v2"),
        ({"Q": [[-1.0, None], [2.0, -2.0]]}, "Q"),
        ({"v": [1.0, {"a": 1}]}, "v"),
    ], ids=["Q", "v", "V0-pairwise", "V0-array", "hk-verify-v2", "Q-null", "v-object"])
    def test_array_fields_hold_numbers(self, tmp_path, capsys, extra, key):
        out = str(tmp_path / "out.json")
        assert main(["run", write_scenario(tmp_path, dict(BASE, **extra)), "-o", out]) == 2
        assert f"{key} must be an array of numbers (key: {key})" in capsys.readouterr().err

    def test_ragged_q_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "out.json")
        body = dict(BASE, Q=[[-1.0, 1.0], [2.0]])
        assert main(["run", write_scenario(tmp_path, body), "-o", out]) == 2
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert "Q must be an array of numbers: " in err and err.rstrip().endswith("(key: Q)")

    def test_array_fields_read_big_integers_and_bools(self, tmp_path):
        # an integer past int64 leaves numpy an object array, which is read
        # when it holds only numbers; bools read as 1 and 0
        body = dict(BASE, v=[10 ** 30, True], N=2,
                    V0={"pairwise": [[0, 10 ** 20], [10 ** 20, False]]})
        sc = load_scenario(write_scenario(tmp_path, body))
        assert sc.v.tolist() == [1e30, 1.0] and sc.V0.tolist() == [0.0, 1e20, 0.0]

    def test_unknown_task_option_rejected(self, tmp_path):
        body = dict(BASE, tasks=[{"name": "mc", "options": {"bogus": 1}}])
        sc = load_scenario(write_scenario(tmp_path, body))
        with pytest.raises(ConfigError):
            run_scenario(sc)

    def test_hk_invert_step_option_rejected(self, tmp_path):
        # the Newton inversion has no step length to set
        body = dict(BASE, N=2, tasks=[{"name": "hk-invert",
                                       "options": {"v_star": [0.0, 1.0], "step": 0.5}}])
        out = str(tmp_path / "out.json")
        assert main(["run", write_scenario(tmp_path, body), "-o", out]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("text", [
        # 1e999 parses as an infinite float, and a 400-digit integer
        # overflows float(); each once ended in a traceback
        '"tasks": [{"name": "mc", "options": {"paths": 1e999}}]',
        '"tasks": [{"name": "mc", "options": {"t": [5]}}]',
        '"N": 2, "tasks": [{"name": "hk-invert", '
        '"options": {"v_star": [0.0, 1.0], "max_iter": 1e999}}]',
        '"t_grid": [1.0], "tasks": [{"name": "averaging", "options": {"n_grid": 1e999}}]',
        '"t_grid": [1' + "0" * 400 + '], "tasks": ["averaging"]',
        # a negative seed once loaded and then failed the rate task
        '"seed": -1, "tasks": ["rate"]',
        '"t_grid": [true], "tasks": ["averaging"]',
        # averaging once failed a zero horizon with an untyped ValueError
        '"t_grid": [0.0, 1.0], "tasks": ["averaging"]',
    ], ids=["mc-paths", "mc-t", "hk-invert-max_iter", "averaging-n_grid", "t_grid", "seed",
            "t_grid-bool", "t_grid-zero"])
    def test_bad_numeric_options_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_text('{"Q": [[-1.0, 1.0], [2.0, -2.0]], ' + text + "}")
        out = str(tmp_path / "out.json")
        assert main(["run", str(path), "-o", out]) == 2
        assert not os.path.exists(out)
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, code", [
        # 2^20000 product states once broke write_report, past the
        # 4300-digit int-to-str limit, and spectral reported that error
        ({"N": 20000, "tasks": ["validate"]}, 2),
        ({"N": 20000, "tasks": ["spectral"]}, 2),
        # load_scenario once formed the 10^12-bit integer 2^N to size V0
        ({"N": 10 ** 12, "V0": [0.0] * 4, "tasks": ["validate"]}, 2),
        ({"N": True, "tasks": ["validate"]}, 2),
        # 2^63 product states were refused while the CLI held d^N in int64;
        # the limit is now the byte budget of the orbit chain, 5181 orbits,
        # and 2^5180 is well inside the 4300 digits a report can print
        ({"N": 63, "tasks": ["validate"]}, 0),
        ({"N": 62, "tasks": ["validate"]}, 0),
        ({"N": 5180, "tasks": ["validate"]}, 0),
        ({"N": 5181, "tasks": ["validate"]}, 2),
        # 2^15 states, once past a 20000-state cap, fit the byte budget;
        # the coordinate grid of 2^40 states does not
        ({"N": 15, "tasks": ["validate", "spectral"]}, 0),
        ({"N": 40, "tasks": ["spectral"]}, 1),
    ], ids=["validate-20000", "spectral-20000", "V0-1e12", "bool", "63", "62", "5180",
            "5181", "15", "40"])
    def test_particle_count_bounded(self, tmp_path, capsys, extra, code):
        path = write_scenario(tmp_path, dict(BASE, **extra))
        out = str(tmp_path / "out.json")
        assert main(["run", path, "-o", out]) == code
        if code == 2:
            assert not os.path.exists(out)
            assert "config error" in capsys.readouterr().err
            return
        sections = json.loads(open(out).read())["tasks"]
        if code == 0:
            assert sections[0]["result"]["product_states"] == 2 ** extra["N"]
        else:
            assert sections[-1]["error"]["type"] == "StateSpaceTooLarge"


class TestRun:
    def test_two_state_demo_matches_closed_form(self, tmp_path):
        body = dict(BASE, tasks=["validate", "spectral"])
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, body), out) == 0
        report = json.loads(open(out).read())
        lam = [t for t in report["tasks"] if t["task"] == "spectral"][0]["result"]["lambda"]
        assert lam == pytest.approx(oracles.two_state_lambda(1, 2, 1, 0), abs=1e-10)

    @pytest.mark.parametrize("body, condition_B", [
        # exp(Q) underflows to zero corners, so epsilon_A reads 0.0
        (_cos_birth_death(256, 0.0), True),
        ({"Q": [[0.0, 0.0], [1.0, -1.0]]}, False),
    ], ids=["birth-death-256", "absorbing"])
    def test_validate_decides_condition_B_on_the_graph(self, tmp_path, body, condition_B):
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, dict(body, tasks=["validate"])), out) == 0
        result = json.loads(open(out).read())["tasks"][0]["result"]
        assert result["epsilon_A"] == 0.0
        assert result["condition_B"] is condition_B

    def test_spectral_past_20000_states(self, tmp_path):
        # 2^15 product states on 16 orbits: separable, so lambda is
        # N lambda_1(Q1, v / N)
        out = str(tmp_path / "result.json")
        assert main(["spectral", write_scenario(tmp_path, dict(BASE, N=15)), "-o", out]) == 0
        result = json.loads(open(out).read())
        assert abs(result["lambda"] - 15 * oracles.two_state_lambda(1, 2, 1 / 15, 0)) <= 1e-12
        assert len(result["psi"]) == 2 ** 15

    @pytest.mark.parametrize("V0", [None, "array"], ids=["symmetric", "array-V0"])
    def test_budget_refuses_before_allocating(self, tmp_path, capsys, V0):
        # (d, N) = (141, 2): the system solves on 10011 orbits, ~8 GB for the
        # solvers' n x n arrays, with or without a symmetric array V0.  Every
        # task but validate runs on that chain, so the scenario is invalid
        # (it was a StateSpaceTooLarge task error while d^N bounded N)
        body = dict(_cos_birth_death(141, 1.0), N=2, tasks=["spectral"])
        if V0 == "array":
            a = np.linspace(0.0, 1.0, 141)
            body["V0"] = np.add.outer(a, a).ravel().tolist()
        path, out = write_scenario(tmp_path, body), str(tmp_path / "report.json")
        tracemalloc.start()
        try:
            code = run(path, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 64 * 2 ** 20
        assert not os.path.exists(out)
        assert "budget is 2147483648 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("Q, eps", [([[-1, 1], [1, -1]], 1.0), ([[0, 0], [1, -1]], 0.0)],
                             ids=["mixing", "absorbing"])
    def test_validate_at_a_huge_horizon_reports_a_value(self, tmp_path, Q, eps):
        # at T = 1e308 the norm of TQ once overflowed (a bare OverflowError),
        # then expm's ~1030 squarings did (NonFinite).  eps_A never falls as
        # T grows, so the first horizon within 1e-13 of 1 certifies it, and a
        # chain that is not strongly connected has eps_A = 0 at every T
        body = {"Q": Q, "v": [0, 0], "tasks": [{"name": "validate", "options": {"T": 1e308}}]}
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, body), out) == 0
        result = json.loads(open(out).read())["tasks"][0]["result"]
        assert abs(result["epsilon_A"] - eps) <= 1e-13

    def test_mc_path_count_past_budget_fails_the_task(self, tmp_path):
        # 10^12 paths would hold 8 TB of weight exponents; the sampler once
        # died in numpy's allocator, with a traceback and no report
        body = dict(BASE, tasks=["spectral", {"name": "mc", "options": {"paths": 10 ** 12}}])
        path, out = write_scenario(tmp_path, body), str(tmp_path / "report.json")
        tracemalloc.start()
        try:
            code = run(path, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 64 * 2 ** 20
        spectral, mc = json.loads(open(out).read())["tasks"]
        assert "result" in spectral
        assert mc["error"]["type"] == "StateSpaceTooLarge"
        assert mc["error"]["message"] == (
            "arrays need 16000000000000 bytes, budget is 2147483648 bytes")

    def test_negative_off_diagonal_exits_2(self, tmp_path, capsys):
        body = {"Q": [[-0.5, 0.5], [-1.0, 1.0]], "tasks": []}
        assert run(write_scenario(tmp_path, body), str(tmp_path / "o.json")) == 2
        assert "Q[1,0]" in capsys.readouterr().err

    def test_empty_tasks_echoes_config(self, tmp_path):
        # every field but Q is echoed as read; Q as its shape and CRC-32
        body = dict(BASE, N=2, V0={"pairwise": [[0, 1.5], [1.5, 0]]},
                    t_grid=[1, 2.5], tasks=[])
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, body), out) == 0
        report = json.loads(open(out).read())
        assert report["config"] == dict(body, Q={"shape": [2, 2],
                                                 "crc32": _crc32(BASE["Q"])})
        assert report["tasks"] == []

    def test_q_echo_keeps_json_types(self, tmp_path):
        # the echo's shape and checksum are plain JSON ints, and Q spelled
        # with ints and bools has the checksum of its float spelling
        echoes = []
        for Q in ([[-1, True], [2, -2.0]], [[-1.0, 1.0], [2.0, -2.0]]):
            out = str(tmp_path / "report.json")
            assert run(write_scenario(tmp_path, {"Q": Q, "tasks": ["validate"]}), out) == 0
            echoes.append(json.loads(open(out).read())["config"]["Q"])
        assert echoes[0] == echoes[1] == {"shape": [2, 2], "crc32": _crc32(BASE["Q"])}
        for echo in echoes:
            assert [type(x) for x in echo["shape"]] == [int, int]
            assert type(echo["crc32"]) is int and 0 <= echo["crc32"] < 2 ** 32

    def test_q_echo_checksums_the_validated_rates(self, tmp_path):
        # the diagonal is recomputed before the checksum: a row sum of
        # 1e-13 is repaired, so both spellings echo the same value, and a
        # changed off-diagonal rate changes it
        Q = np.array([[-1.5, 0.5, 1.0], [0.25, -0.75, 0.5], [2.0, 0.0, -2.0]])
        nudged = Q.copy()
        nudged[0, 0] += 1e-13
        moved = Q.copy()
        moved[1, 0], moved[1, 1] = 0.375, -0.875
        echoes = []
        for given in (Q, nudged, moved):
            sc = load_scenario(write_scenario(tmp_path, {"Q": given.tolist()}))
            echoes.append(sc.raw["Q"])
        assert echoes[0] == echoes[1] == {"shape": [3, 3], "crc32": _crc32(Q)}
        assert echoes[2] == {"shape": [3, 3], "crc32": _crc32(moved)}
        assert echoes[2]["crc32"] != echoes[0]["crc32"]

    def test_large_chain_report_stays_small(self, tmp_path):
        # the echo of a dense 1000-state Q was ~20 MB of JSON; it is now
        # constant.  Integer rates keep the scenario file quick to write.
        Q = np.random.default_rng(5).integers(1, 4, (1000, 1000))
        np.fill_diagonal(Q, 0)
        np.fill_diagonal(Q, -Q.sum(axis=1))
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, {"Q": Q.tolist(), "tasks": []}), out) == 0
        assert os.path.getsize(out) < 4096
        echo = json.loads(open(out).read())["config"]["Q"]
        assert echo == {"shape": [1000, 1000], "crc32": _crc32(Q)}

    def test_reports_deterministic_up_to_timings(self, tmp_path):
        body = dict(BASE, t_grid=[1.0, 2.0],
                    tasks=["validate", "spectral", "rate", "averaging",
                           {"name": "mc", "options": {"t": 5.0, "paths": 50}}])
        path = write_scenario(tmp_path, body)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert run(path, out1) == 0
        assert run(path, out2) == 0
        r1 = json.loads(open(out1).read())
        r2 = json.loads(open(out2).read())
        del r1["timings"], r2["timings"]
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_task_error_exits_1(self, tmp_path):
        # rate task at a measure with zeros triggers a computation error
        body = dict(BASE, tasks=[{"name": "rate", "options": {"mu": [1.0, 0.0]}}])
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, body), out) == 1
        report = json.loads(open(out).read())
        assert report["tasks"][0]["status"] == "error"
        assert report["tasks"][0]["error"]["type"] == "UnsupportedSupport"

    @pytest.mark.parametrize("v", [[1.0, 0.0], [-1.0, -2.0]])
    def test_averaging_at_a_long_horizon_is_finite(self, tmp_path, v):
        # the growth bound once failed this task with NonFinite for
        # v = (1, 0) and reported "infinity" for v = (-1, -2)
        body = dict(BASE, v=v, t_grid=[2000.0], tasks=["averaging"])
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, body), out) == 0
        task = json.loads(open(out).read())["tasks"][0]
        assert task["status"] == "ok"
        op = make_operator(validate_generator(BASE["Q"]), v)
        A = op - oracles.eig_principal(op)[0] * np.eye(2)
        C = max(oracles.eig_expm(t * A).sum(axis=1).max() for t in np.linspace(0, 2000, 201))
        assert abs(task["result"]["log_growth_bound"] - np.log(C)) <= 1e-10

    def test_huge_averaging_grid_returns(self, tmp_path):
        # the trapezoid sum took n_grid - 1 row updates, so this grid ran
        # for hours; the binary ladder takes about 60 matrix products
        ladders = []
        for n_grid in (2 ** 30 + 1, 65537):
            body = dict(BASE, t_grid=[1.0, 4.0],
                        tasks=[{"name": "averaging", "options": {"n_grid": n_grid}}])
            out = str(tmp_path / "report.json")
            start = time.perf_counter()
            assert run(write_scenario(tmp_path, body), out) == 0
            assert time.perf_counter() - start < 5.0
            ladders.append(json.loads(open(out).read())["tasks"][0]["result"]["ladder"])
        for fine, coarse in zip(*ladders):
            for key in ("tv_average", "entropy_average"):
                assert abs(fine[key] - coarse[key]) <= 1e-8, key

    def test_rate_task_solves_perron_once(self, tmp_path, monkeypatch):
        from dvsemigroup import cli, rate_function, spectral
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return spectral.principal_eigen(*args, **kwargs)

        monkeypatch.setattr(cli, "principal_eigen", counted)
        monkeypatch.setattr(rate_function, "principal_eigen", counted)
        for options in ({}, {"mu": [0.3, 0.7]}):
            calls.clear()
            body = dict(BASE, tasks=[{"name": "rate", "options": options}])
            assert run(write_scenario(tmp_path, body), str(tmp_path / "r.json")) == 0
            assert len(calls) == 1

    def test_rate_task_ascent_starts_at_the_ground_measure(self, tmp_path, monkeypatch):
        # dv_sup starts at the scenario's certified equilibrium measure,
        # whose gap is already below 1e-9: one inner rate solve, where the
        # ascent from the uniform measure made one per point
        from dvsemigroup import cli, rate_function
        calls, in_dv_sup = [], []
        inner = rate_function._newton_min

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        def recorded(*args, **kwargs):
            before = len(calls)
            try:
                return dv_sup(*args, **kwargs)
            finally:
                in_dv_sup.append(len(calls) - before)

        monkeypatch.setattr(rate_function, "_newton_min", counted)
        monkeypatch.setattr(cli, "dv_sup", recorded)
        rng = np.random.default_rng(64)
        body = {"Q": oracles.rand_rate_matrix(64, rng).tolist(),
                "v": rng.uniform(-1, 1, 64).tolist(), "tasks": ["rate"]}
        assert run(write_scenario(tmp_path, body), str(tmp_path / "r.json")) == 0
        assert in_dv_sup == [1]

    def test_rate_task_ascent_starts_from_the_rate_solve(self, tmp_path, monkeypatch):
        # I comes from rate_I started at w = 0; its log-tilt at the
        # equilibrium measure starts dv_sup's inner solve there, which then
        # needs at most one Newton step (3 from w = 0 on this chain)
        from dvsemigroup import cli, rate_function
        steps, in_dv_sup = [], []
        inner = rate_function._newton_min

        def counted(*args, **kwargs):
            out = inner(*args, **kwargs)
            steps.append(out[3])
            return out

        def recorded(*args, **kwargs):
            before = len(steps)
            try:
                return dv_sup(*args, **kwargs)
            finally:
                in_dv_sup.extend(steps[before:])

        monkeypatch.setattr(rate_function, "_newton_min", counted)
        monkeypatch.setattr(cli, "dv_sup", recorded)
        rng = np.random.default_rng(64)
        body = {"Q": oracles.rand_rate_matrix(64, rng).tolist(),
                "v": rng.uniform(-1, 1, 64).tolist(), "tasks": ["rate"]}
        assert run(write_scenario(tmp_path, body), str(tmp_path / "r.json")) == 0
        assert len(steps) == 2 and steps[0] >= 2
        assert in_dv_sup == steps[1:] and in_dv_sup[0] <= 1

    def test_pair_demo_hk_verify_starts_at_the_ground(self, tmp_path, monkeypatch):
        # v1 is the scenario's own v, so its solve starts from the
        # scenario's certified ground data, and Noda's brackets hold at
        # once: no LU solve (at least one from the uniform start)
        from dvsemigroup import hohenberg_kohn, spectral
        lus, per_solve, inside = [], [], []
        noda, solve, eigen = spectral._noda, np.linalg.solve, spectral.principal_eigen

        def counted_solve(*args, **kwargs):
            if inside:
                lus.append(1)
            return solve(*args, **kwargs)

        def in_noda(*args, **kwargs):
            inside.append(1)
            try:
                return noda(*args, **kwargs)
            finally:
                inside.pop()

        def seen(*args, **kwargs):
            before = len(lus)
            try:
                return eigen(*args, **kwargs)
            finally:
                per_solve.append(len(lus) - before)

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        monkeypatch.setattr(spectral, "_noda", in_noda)
        monkeypatch.setattr(hohenberg_kohn, "principal_eigen", seen)
        raw = json.loads((DEMOS / "pair_interaction_demo.json").read_text())
        raw["tasks"] = [t for t in raw["tasks"] if isinstance(t, dict)
                        and t["name"] == "hk-verify"]
        report, ok = run_scenario(load_scenario(write_scenario(tmp_path, raw)))
        assert ok and report["tasks"][0]["task"] == "hk-verify"
        assert len(per_solve) == 2 and per_solve[0] == 0 < per_solve[1]

    def test_pair_demo_ihk_starts_at_the_ground_measure(self, tmp_path, monkeypatch):
        # the constrained Newton run starts at the scenario's equilibrium
        # measure, its own optimum: one inner rate solve, 4 from the product
        # measure
        from dvsemigroup import rate_function
        calls = []
        inner = rate_function._newton_min

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(rate_function, "_newton_min", counted)
        raw = json.loads((DEMOS / "pair_interaction_demo.json").read_text())
        raw["tasks"] = ["ihk"]
        report, ok = run_scenario(load_scenario(write_scenario(tmp_path, raw)))
        assert ok
        assert len(calls) <= 2

    def test_averaging_task_solves_perron_once(self, tmp_path, monkeypatch):
        # the ground-measure helpers take lambda from the scenario's ground
        # data; when they solved for it themselves, this scenario took 9
        from dvsemigroup import cli, spectral
        calls = []
        eigen = spectral.principal_eigen

        def counted(*args, **kwargs):
            calls.append(1)
            return eigen(*args, **kwargs)

        monkeypatch.setattr(cli, "principal_eigen", counted)
        monkeypatch.setattr(spectral, "principal_eigen", counted)
        body = dict(BASE, t_grid=[1.0, 2.0, 4.0, 8.0], tasks=["spectral", "averaging"])
        assert run(write_scenario(tmp_path, body), str(tmp_path / "r.json")) == 0
        assert len(calls) == 1

    def test_failed_ground_solve_runs_once(self, tmp_path, monkeypatch):
        # the equilibrium measure underflows at 4 states; every task that
        # reads the ground data fails with the one solve's error, where each
        # solved again (4 solves, 4 identical errors)
        from dvsemigroup import cli, spectral
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return spectral.principal_eigen(*args, **kwargs)

        monkeypatch.setattr(cli, "principal_eigen", counted)
        body = dict(_cos_birth_death(64, 1e3), t_grid=[1.0],
                    tasks=["spectral", "rate", "averaging",
                           {"name": "mc", "options": {"t": 1.0, "paths": 10}}])
        out = str(tmp_path / "r.json")
        assert run(write_scenario(tmp_path, body), out) == 1
        assert len(calls) == 1
        errors = [task["error"] for task in json.loads(open(out).read())["tasks"]]
        assert errors == 4 * [{"type": "NonFinite",
                               "message": "equilibrium measure underflows at 4 states"}]

    def test_ihk_task_solves_perron_once(self, tmp_path, monkeypatch):
        # ihk reads its marginal from the scenario's ground data, so only
        # the certificate of reduced_functional solves again; when it ran
        # equilibrium_marginal itself, this scenario took 3
        from dvsemigroup import cli, hohenberg_kohn, spectral
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return spectral.principal_eigen(*args, **kwargs)

        monkeypatch.setattr(cli, "principal_eigen", counted)
        monkeypatch.setattr(hohenberg_kohn, "principal_eigen", counted)
        body = dict(BASE, N=3, V0={"pairwise": [[0.0, 1.0], [1.0, 0.0]]},
                    tasks=["spectral", "ihk"])
        assert run(write_scenario(tmp_path, body), str(tmp_path / "r.json")) == 0
        assert len(calls) == 2

    def test_non_symmetric_rate_mu_fails_on_orbits(self, tmp_path):
        # the rate task sums a given mu onto the orbit chain, which keeps I
        # only for a permutation-symmetric mu
        body = dict(BASE, N=2, tasks=[{"name": "rate", "options": {"mu": [0.1, 0.2, 0.3, 0.4]}}])
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, body), out) == 1
        error = json.loads(open(out).read())["tasks"][0]["error"]
        assert error["type"] == "ValueError"
        assert "symmetric" in error["message"]

    def test_only_mc_reads_the_seed(self, tmp_path):
        # dv_sup runs one deterministic ascent, so the rate task does not
        # read the scenario seed; its Dirichlet restarts once failed this
        # chain at seed 0 and certified it at seed 7.  The mc sampler
        # still reads the seed.
        results = {}
        for seed in (0, 7):
            body = dict(_cos_birth_death(10, 1.5), seed=seed,
                        tasks=["rate", {"name": "mc", "options": {"t": 5.0, "paths": 50}}])
            out = str(tmp_path / f"r{seed}.json")
            assert run(write_scenario(tmp_path, body), out) == 0
            results[seed] = json.loads(open(out).read())["tasks"]
        assert results[0][0] == results[7][0]
        assert results[0][1]["result"]["lambda_mc"] != results[7][1]["result"]["lambda_mc"]

    def test_tiny_equilibrium_mass_rate_fails_fast(self, tmp_path):
        # min mu = 1e-32: an exponentiated-gradient fallback once overflowed
        # here for 3 s, with 500 RuntimeWarnings, before NotConverged
        out = str(tmp_path / "rate.json")
        start = time.perf_counter()
        assert main(["rate", write_scenario(tmp_path, _cos_birth_death(32, 2.0)), "-o", out]) == 1
        assert time.perf_counter() - start < 1.0
        assert json.loads(open(out).read())["error"]["type"] == "NotConverged"

    def test_non_symmetric_array_V0_exits_2(self, tmp_path, capsys):
        # V0(0, 1) != V0(1, 0) has no orbit chain: it once ran spectral on
        # the d^N chain, while the hk tasks rejected it
        body = dict(BASE, N=2, V0=[0.0, 1.0, 0.0, 0.0],
                    tasks=["spectral", {"name": "hk-verify", "options": {"v2": [0.0, 2.0]}}])
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, body), out) == 2
        assert not os.path.exists(out)
        assert "V0 must be symmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("N", [1, 2])
    def test_pairwise_V0_of_wrong_size_exits_2(self, tmp_path, capsys, N):
        # a 3 x 3 interaction for a 2-state Q once loaded, and every task
        # then failed on numpy's broadcast ValueError
        body = dict(BASE, N=N, V0={"pairwise": np.ones((3, 3)).tolist()}, tasks=["spectral"])
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, body), out) == 2
        assert not os.path.exists(out)
        assert "2 x 2" in capsys.readouterr().err

    @pytest.mark.parametrize("V0", [None, "pairwise", "array"])
    def test_every_task_shares_one_orbit_enumeration(self, tmp_path, monkeypatch, V0):
        # the pairwise V0, the separable potential and the system each
        # enumerated the orbits once, and no task reads the d^N x d^N QN
        from dvsemigroup import multiparticle
        calls = []
        orbits = multiparticle._orbits

        def counted(*args):
            calls.append(args)
            return orbits(*args)

        monkeypatch.setattr(multiparticle, "_orbits", counted)
        w = np.array([[0.0, 1.0, 0.5], [1.0, 0.2, 0.0], [0.5, 0.0, 0.3]])
        body = {"Q": oracles.rand_rate_matrix(3, np.random.default_rng(4)).tolist(),
                "v": [0.3, -0.2, 0.5], "N": 3, "t_grid": [1.0],
                "tasks": ["validate", "spectral", "rate", "averaging", "ihk",
                          {"name": "hk-verify", "options": {"v2": [0.0, 1.0, 0.0]}},
                          {"name": "hk-invert", "options": {"v_star": [0.0, 1.0, 0.5]}},
                          {"name": "mc", "options": {"t": 1.0, "paths": 50}}]}
        if V0 == "pairwise":
            body["V0"] = {"pairwise": w.tolist()}
        elif V0 == "array":
            body["V0"] = oracles.loop_pairwise(w, 3).tolist()
        sc = load_scenario(write_scenario(tmp_path, body))
        report, ok = run_scenario(sc)
        assert ok and len(report["tasks"]) == 8
        assert calls == [(3, 3)]
        assert "QN" not in sc.system.__dict__

    def test_infinite_mc_horizon_is_echoed_as_infinity(self, tmp_path):
        # json.load reads 1e999 as inf without calling parse_constant, so
        # the config echo still needs sanitize to stay valid JSON
        path = tmp_path / "scenario.json"
        path.write_text('{"Q": [[-1.0, 1.0], [2.0, -2.0]], '
                        '"tasks": [{"name": "mc", "options": {"t": 1e999, "paths": 10}}]}')
        out = str(tmp_path / "report.json")
        assert run(str(path), out) == 1
        text = open(out).read()
        assert "Infinity" not in text
        report = json.loads(text)
        assert report["config"]["tasks"][0]["options"]["t"] == "infinity"
        assert report["tasks"][0]["error"]["type"] == "ValueError"

    def test_symmetric_product_runs_on_orbits_only(self, tmp_path):
        # 81 states, 15 orbits: no task here reads the 81 x 81 generator,
        # and every result equals the same computation on the full chain
        rng = np.random.default_rng(11)
        w = rng.uniform(0, 1, (3, 3))
        r = np.array([0.2, 0.3, 0.5])
        mu_sym = np.kron(np.kron(r, r), np.kron(r, r))
        body = {"name": "orbits", "Q": oracles.rand_rate_matrix(3, rng).tolist(),
                "v": [0.3, -0.2, 0.5], "N": 4, "V0": {"pairwise": (w + w.T).tolist()},
                "t_grid": [1.0, 4.0],
                "tasks": ["validate", "spectral",
                          {"name": "hk-verify", "options": {"v2": [0.0, 1.0, 0.0]}},
                          {"name": "hk-invert", "options": {"v_star": [0.0, 1.0, 0.5]}},
                          "ihk", "rate",
                          {"name": "rate", "options": {"mu": mu_sym.tolist()}},
                          {"name": "averaging", "options": {"n_grid": 65}},
                          {"name": "mc", "options": {"t": 5.0, "paths": 2000}}]}
        sc = load_scenario(write_scenario(tmp_path, body))
        report, ok = run_scenario(sc)
        assert ok
        assert "QN" not in sc.system.__dict__
        results = [section["result"] for section in report["tasks"]]
        got = results[1]
        QN = sc.system.QN
        V = Potential(pairwise_potential(w + w.T, 4).values + separable_potential(sc.v, 4).values)
        full = principal_eigen(QN, V)
        scale = max(1.0, np.abs(QN.rates + np.diag(V.values)).max())
        assert abs(got["lambda"] - full.lam) <= 1e-12 * scale
        for key, ref in (("psi", full.psi), ("pi", full.pi.weights), ("mu", full.mu.weights)):
            assert len(got[key]) == 81
            assert np.abs(np.array(got[key]) - ref).max() <= 1e-12

        lam_dual, mu_star = dv_sup(QN, V)
        for got, mu in zip(results[5:7], (full.mu.weights, mu_sym)):
            I = rate_I(QN, mu).value
            ref = {"I": I, "IV": I - mu @ V.values + full.lam, "lambda_dual": lam_dual}
            for key, value in ref.items():
                assert abs(got[key] - value) <= 1e-12, key
            assert np.abs(np.array(got["mu_star"]) - mu_star.weights).max() <= 1e-12

        got = results[7]
        op = make_operator(QN, V)
        C = growth_bound(op, full.lam, np.linspace(0.0, 4.0, 201))
        assert abs(got["log_growth_bound"] - np.log(C)) <= 1e-12
        for row, T in zip(got["ladder"], sc.t_grid):
            avg = ground_measure_by_averaging(QN, V, full.lam, full.mu, T, 65)
            end = ground_measure_by_evolution(QN, V, full.lam, full.mu, T)
            ref = {"tv_average": total_variation(avg, full.pi),
                   "tv_evolved": total_variation(end, full.pi),
                   "entropy_average": relative_entropy(full.mu, avg),
                   "entropy_evolved": relative_entropy(full.mu, end)}
            for key, value in ref.items():
                assert abs(row[key] - value) <= 1e-12, key

        # mc starts uniformly over the 15 orbits: its target at finite t is
        # that chain's (1/t) log mean (e^{t(L + V)} 1)
        got = results[8]
        L, VL = sc.chain
        exact = np.log(oracles.scipy_expm(5.0 * (L.rates + np.diag(VL.values)))
                       .sum(axis=1).mean()) / 5.0
        assert L.dim == 15
        assert abs(got["lambda_mc"] - exact) <= 4.0 * got["stderr"]

    def test_one_particle_enumerates_no_orbits(self, tmp_path, monkeypatch):
        # at N = 1 the chain is Q itself: with the byte budget lowered to
        # 1e5, these tasks on 64 states once failed with StateSpaceTooLarge
        # (132096 bytes) from enumerating 64 one-state orbits
        from dvsemigroup import multiparticle
        monkeypatch.setattr(multiparticle, "_MAX_BYTES", 10 ** 5)
        rng = np.random.default_rng(5)
        body = dict(Q=oracles.rand_rate_matrix(64, rng).tolist(),
                    v=rng.uniform(-1, 1, 64).tolist(), t_grid=[1.0],
                    tasks=["spectral", "rate", "averaging",
                           {"name": "mc", "options": {"t": 1.0, "paths": 200}}])
        sc = load_scenario(write_scenario(tmp_path, body))
        report, ok = run_scenario(sc)
        assert ok, report["tasks"]
        assert "orbits" not in sc.system.__dict__

    def test_one_particle_hk_tasks_hold_unchecked_counts(self, tmp_path, monkeypatch):
        # the hk tasks and a pairwise V0 read the 64 one-state orbits and
        # their 64 x 64 counts, unchecked like Q; with the byte budget
        # lowered to 1e5 they once failed with StateSpaceTooLarge (132096
        # bytes), the pairwise V0 as an invalid scenario
        from dvsemigroup import multiparticle
        monkeypatch.setattr(multiparticle, "_MAX_BYTES", 10 ** 5)
        rng = np.random.default_rng(5)
        w = rng.uniform(0, 1, (64, 64))
        body = dict(Q=oracles.rand_rate_matrix(64, rng).tolist(),
                    v=rng.uniform(-1, 1, 64).tolist())
        for tasks, extra in (
                ([{"name": "hk-verify", "options": {"v2": rng.uniform(-1, 1, 64).tolist()}}], {}),
                (["ihk"], {}),
                ([{"name": "hk-invert", "options": {"v_star": rng.uniform(-1, 1, 64).tolist()}}],
                 {}),
                (["spectral"], {"V0": {"pairwise": (w + w.T).tolist()}})):
            sc = load_scenario(write_scenario(tmp_path, dict(body, tasks=tasks, **extra)))
            report, ok = run_scenario(sc)
            assert ok, report["tasks"]

    def test_ihk_at_a_given_rho_matches_a_scan(self, tmp_path):
        # the pair demo at rho = (0.3, 0.7): symmetric measures with that
        # marginal are (0.3 - t, t, t, 0.7 - t), and I_HK is the least
        # I(mu) - mu(V0) over t, with I from black-box minimization on QN
        import scipy.optimize
        raw = json.loads((DEMOS / "pair_interaction_demo.json").read_text())
        raw["tasks"] = [{"name": "ihk", "options": {"rho": [0.3, 0.7]}}]
        out = str(tmp_path / "ihk.json")
        assert run(write_scenario(tmp_path, raw), out) == 0
        got = json.loads(open(out).read())["tasks"][0]["result"]
        QN = load_scenario(write_scenario(tmp_path, raw)).system.QN.rates
        V0 = oracles.loop_pairwise(np.array(raw["V0"]["pairwise"]), 2)

        def objective(t):
            mu = np.array([0.3 - t, t, t, 0.7 - t])
            return oracles.rate_brute(QN, mu) - mu @ V0

        scan = scipy.optimize.minimize_scalar(objective, bounds=(1e-9, 0.3 - 1e-9),
                                              method="bounded", options={"xatol": 1e-9})
        assert got["rho"] == [0.3, 0.7]
        assert got["I_HK"] == pytest.approx(scan.fun, abs=1e-6)

    def test_hk_tasks_past_the_grid(self, tmp_path):
        # (2, 200) with a pairwise V0: the hk tasks run on the 201 orbits and
        # certify, while spectral and rate, which report d^N vectors, are
        # refused by the grid's byte budget, counted in exact integers
        # before int64 strides of 2^200 states could overflow
        body = dict(BASE, N=200, V0={"pairwise": [[0.0, 1.0], [1.0, 0.5]]}, tasks=[
            "validate", "spectral", "rate", {"name": "hk-verify", "options": {"v2": [0.0, 1.0]}},
            {"name": "hk-invert", "options": {"v_star": [1.0, 0.0]}}, "ihk"])
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, body), out) == 1
        sections = {t["task"]: t for t in json.loads(open(out).read())["tasks"]}
        assert sections["validate"]["result"]["product_states"] == 2 ** 200
        for task in ("spectral", "rate"):
            assert sections[task]["error"]["type"] == "StateSpaceTooLarge"
        assert sections["hk-verify"]["result"]["conclusion"] == "distinct_marginals"
        assert sections["hk-invert"]["result"]["converged"]
        assert abs(np.ptp(sections["hk-invert"]["result"]["v_recovered"]) - 1.0) <= 1e-6
        assert math.isfinite(sections["ihk"]["result"]["I_HK"])

    def test_hk_invert_without_a_target_exits_2(self, tmp_path, capsys):
        body = dict(BASE, N=2, tasks=["hk-invert"])
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, body), out) == 2
        assert not os.path.exists(out)
        assert "rho_target or v_star" in capsys.readouterr().err

    @pytest.mark.parametrize("N, V0, tasks", [
        (100, None, ["validate", "spectral", "ihk"]),
        (10 ** 6, None, ["validate", "spectral"]),
        (10 ** 5, {"pairwise": [[0.5]]}, ["validate", "spectral"]),
        (2 ** 63 - 1, {"pairwise": [[0.5]]}, ["validate", "spectral", "rate", "ihk"]),
    ], ids=["100", "spectral-1e6", "pairwise-1e5", "2**63-1"])
    def test_one_state_any_particle_count(self, tmp_path, N, V0, tasks):
        # load_scenario admits any N below 2**63 when d = 1: N > 64 once hit
        # numpy's 64-axis limit, and a pairwise V0 once looped over all
        # C(1e5, 2) pairs of its one state, for hours
        results = {}
        for n in (3, N):
            body = {"Q": [[0.0]], "v": [1.0], "N": n, "tasks": tasks}
            if V0 is not None:
                body["V0"] = V0
            out = str(tmp_path / "report.json")
            started = time.perf_counter()
            assert run(write_scenario(tmp_path, body), out) == 0
            assert time.perf_counter() - started < 5.0
            results[n] = [t["result"] for t in json.loads(open(out).read())["tasks"][1:]]
        lam = 1.0 if V0 is None else 1.5
        assert results[N][0] == {"lambda": lam, "psi": [1.0], "pi": [1.0], "mu": [1.0]}
        assert results[N] == results[3]

    def test_report_is_one_line_of_sorted_compact_json(self, tmp_path):
        body = dict(BASE, t_grid=[1.0, 2.0], tasks=["validate", "spectral", "averaging"])
        path = write_scenario(tmp_path, body)
        for argv in (["run", path], ["spectral", path]):
            out = str(tmp_path / "out.json")
            assert main(argv + ["-o", out]) == 0
            text = open(out).read()
            assert text.endswith("\n") and text.count("\n") == 1
            assert text == json.dumps(json.loads(text, parse_constant=_no_constant),
                                      sort_keys=True) + "\n"

    def test_unused_huge_integer_option_is_refused(self, tmp_path, capsys):
        # every given option is read before any task runs: with rho_target
        # given, hk-invert computes nothing from v_star, and its 400-digit
        # integer still makes the scenario invalid
        body = dict(BASE, N=2, tasks=[{"name": "hk-invert", "options": {
            "rho_target": [0.5, 0.5], "v_star": [10 ** 400, 0]}}])
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, body), out) == 2
        assert not os.path.exists(out)
        assert "v_star" in capsys.readouterr().err

    def test_options_are_read_before_any_task_runs(self, tmp_path, monkeypatch, capsys):
        # a bad option in the last task once surfaced only after the
        # earlier tasks had run
        from dvsemigroup import cli
        calls = []
        monkeypatch.setattr(cli, "check_condition_A", lambda *a: calls.append(a))
        body = dict(BASE, tasks=["validate", {"name": "mc", "options": {"paths": 1}}])
        path, out = write_scenario(tmp_path, body), str(tmp_path / "report.json")
        assert main(["run", path, "-o", out]) == 2
        assert not os.path.exists(out) and not calls
        assert "paths" in capsys.readouterr().err
        # the subcommand's flags are read like the scenario's options
        assert main(["mc", write_scenario(tmp_path, BASE, "b.json"), "--paths", "1"]) == 2

    def test_csv_emission(self, tmp_path):
        # CSV files are named by the scenario file's stem, not its name
        body = dict(BASE, tasks=["spectral"])
        out = str(tmp_path / "report.json")
        csv_dir = str(tmp_path / "csv")
        assert run(write_scenario(tmp_path, body, "chain.json"), out, csv_dir) == 0
        assert sorted(os.listdir(csv_dir)) == [
            f"chain__spectral__{key}.csv" for key in ("mu", "pi", "psi")]
        psi = [float(line) for line in open(os.path.join(csv_dir, "chain__spectral__psi.csv"))]
        assert psi == json.loads(open(out).read())["tasks"][0]["result"]["psi"]

    def test_csv_skips_failed_tasks(self, tmp_path):
        # the rate task fails at a measure with zeros; spectral's CSVs are
        # still written
        body = dict(BASE, tasks=["spectral", {"name": "rate", "options": {"mu": [1.0, 0.0]}}])
        csv_dir = tmp_path / "csv"
        assert run(write_scenario(tmp_path, body, "chain.json"),
                   str(tmp_path / "report.json"), str(csv_dir)) == 1
        assert sorted(os.listdir(csv_dir)) == [
            f"chain__spectral__{key}.csv" for key in ("mu", "pi", "psi")]

    def test_task_listed_twice_sums_its_timings(self, tmp_path, monkeypatch):
        # the second mc run once overwrote the first one's time
        from types import SimpleNamespace
        from dvsemigroup import cli
        clock = iter([0.0, 1.0, 3.0, 10.0, 20.0, 100.0, 107.0, 200.0])
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        mc = {"name": "mc", "options": {"paths": 10, "t": 1.0}}
        sc = load_scenario(write_scenario(tmp_path, dict(BASE, tasks=[mc, "validate", mc])))
        report, ok = run_scenario(sc)
        assert ok and [s["task"] for s in report["tasks"]] == ["mc", "validate", "mc"]
        assert report["timings"] == {"mc": 9.0, "validate": 10.0, "total": 200.0}


class TestSanitize:
    def test_nonfinite_values(self):
        out = sanitize({"a": float("inf"), "b": float("-inf"),
                        "c": float("nan"), "d": [1.0, np.float64(2.5)],
                        "e": np.array(np.nan), "g": np.array([[1.0, np.inf], [-np.inf, 0.0]])})
        assert out == {"a": "infinity", "b": "-infinity", "c": "nan", "d": [1.0, 2.5],
                       "e": "nan", "g": [[1.0, "infinity"], ["-infinity", 0.0]]}

    def test_numpy_types(self):
        out = sanitize({"n": np.int64(3), "x": np.array([0.5, 0.5]), "f": np.bool_(True),
                        "t": (1, np.float64(0.25)), "s": np.float32(0.5)})
        assert out == {"n": 3, "x": [0.5, 0.5], "f": True, "t": [1, 0.25], "s": 0.5}

    @pytest.mark.parametrize("given, expected", [
        ([1, -2, 3], [1, -2, 3]),
        ([1, 0.5, -2], [1, 0.5, -2]),
        ([0.5, float("inf"), float("nan"), -float("inf")],
         [0.5, "infinity", "nan", "-infinity"]),
        ([True, False, 1], [True, False, 1]),
        ([], []),
        ((0.25, 1.5), [0.25, 1.5]),
        ([10 ** 400, 0.5], [10 ** 400, 0.5]),
        ([[1.0, 2.0], [np.float64(3.0)]], [[1.0, 2.0], [3.0]]),
    ], ids=["ints", "mixed", "non-finite", "bools", "empty", "tuple", "huge-int", "nested"])
    def test_flat_number_lists(self, given, expected):
        out = sanitize({"x": given})["x"]
        assert out == expected and type(out) is list
        assert [type(x) for x in out] == [type(x) for x in expected]


class TestMain:
    def test_run_subcommand(self, tmp_path, capsys):
        path = write_scenario(tmp_path, dict(BASE, tasks=["validate"]))
        assert main(["run", path, "-o", str(tmp_path / "r.json")]) == 0

    def test_no_out_path_writes_to_stdout(self, tmp_path, capsys):
        path, out = write_scenario(tmp_path, BASE), str(tmp_path / "out.json")
        assert main(["spectral", path]) == 0
        text = capsys.readouterr().out
        assert text.count("\n") == 1
        assert main(["spectral", path, "-o", out]) == 0
        assert open(out).read() == text

    def test_single_task_subcommands_emit_bare_results(self, tmp_path, capsys):
        # each subcommand writes its task's bare result, and only the three
        # hk tasks add their wall time; a failed task writes its error alone
        # and exits 1, and an invalid scenario exits 2 without output
        body = dict(BASE, N=2, V0={"pairwise": [[0.0, 1.0], [1.0, 0.0]]},
                    tasks=[{"name": "hk-verify", "options": {"v2": [0.0, 2.0]}},
                           {"name": "hk-invert", "options": {"v_star": [0.0, 1.0]}},
                           {"name": "mc", "options": {"t": 5.0, "paths": 32}}])
        path = write_scenario(tmp_path, body)
        expected = {
            "spectral": {"lambda", "psi", "pi", "mu"},
            "rate": {"I", "IV", "lambda_dual", "mu_star"},
            "hk-verify": {"marginal_distance", "potential_residual", "lambdas",
                          "conclusion", "kappa", "inequality_margins"},
            "hk-invert": {"v_recovered", "iterations", "marginal_error", "converged"},
            "ihk": {"rho", "I_HK"},
            "mc": {"lambda_mc", "stderr", "lambda_spectral", "t", "paths"},
        }
        for task, keys in expected.items():
            out = str(tmp_path / f"{task}.json")
            assert main([task, path, "-o", out]) == 0
            result = json.loads(open(out).read())
            if task.startswith(("hk-", "ihk")):
                assert result.pop("timing_seconds") >= 0.0
            assert set(result) == keys, task

        body = dict(BASE, tasks=[{"name": "rate", "options": {"mu": [1.0, 0.0]}}])
        out = str(tmp_path / "failed.json")
        assert main(["rate", write_scenario(tmp_path, body, "f.json"), "-o", out]) == 1
        result = json.loads(open(out).read())
        assert set(result) == {"error"} and set(result["error"]) == {"type", "message"}
        assert result["error"]["type"] == "UnsupportedSupport"

        # hk-verify without a v2 option cannot run
        out = str(tmp_path / "invalid.json")
        assert main(["hk-verify", write_scenario(tmp_path, BASE, "b.json"), "-o", out]) == 2
        assert not os.path.exists(out)
        assert "config error" in capsys.readouterr().err

    def test_mc_subcommand_flags(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        out = str(tmp_path / "mc.json")
        assert main(["mc", path, "-o", out, "--t", "5", "--paths", "64",
                     "--seed", "99"]) == 0
        result = json.loads(open(out).read())
        assert set(result) >= {"lambda_mc", "stderr", "lambda_spectral"}
        assert result["paths"] == 64

    def test_mc_scenario_options_and_flags(self, tmp_path):
        # the scenario's mc options apply without flags; a given flag wins
        body = dict(BASE, tasks=[{"name": "mc", "options": {"t": 5.0, "paths": 32}}])
        path = write_scenario(tmp_path, body)
        out = str(tmp_path / "mc.json")
        assert main(["mc", path, "-o", out]) == 0
        result = json.loads(open(out).read())
        assert (result["t"], result["paths"]) == (5.0, 32)
        assert main(["mc", path, "-o", out, "--paths", "64"]) == 0
        result = json.loads(open(out).read())
        assert (result["t"], result["paths"]) == (5.0, 64)
        assert main(["mc", path, "-o", out, "--t", "2", "--paths", "16"]) == 0
        result = json.loads(open(out).read())
        assert (result["t"], result["paths"]) == (2.0, 16)

    def test_mc_nonfinite_horizon_exits_1(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        out = str(tmp_path / "mc.json")
        assert main(["mc", path, "-o", out, "--t", "nan", "--paths", "10"]) == 1
        assert json.loads(open(out).read())["error"]["type"] == "ValueError"

    def test_hk_subcommands(self, tmp_path):
        body = dict(BASE, N=2, V0={"pairwise": [[0.0, 1.0], [1.0, 0.0]]},
                    tasks=[{"name": "hk-verify", "options": {"v2": [0.0, 2.0]}},
                           {"name": "hk-invert", "options": {"v_star": [0.0, 1.0]}},
                           "ihk"])
        path = write_scenario(tmp_path, body)
        out = str(tmp_path / "hk.json")
        assert main(["run", path, "-o", out]) == 0
        report = json.loads(open(out).read())
        by_task = {t["task"]: t["result"] for t in report["tasks"]}
        assert by_task["hk-verify"]["conclusion"] == "distinct_marginals"
        assert by_task["hk-invert"]["converged"] is True
        # I(mu) >= 0 so I_HK is bounded below by -max(V0) = -1
        assert -1.0 <= by_task["ihk"]["I_HK"] < 0.5

    def test_hk_invert_max_iter_caps_the_newton_steps(self, tmp_path):
        demo = Path(__file__).resolve().parents[1] / "scenarios" / "pair_interaction_demo.json"
        body = dict(json.loads(demo.read_text()),
                    tasks=[{"name": "hk-invert",
                            "options": {"v_star": [0.0, 1.0], "max_iter": 1}}])
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, body), out) == 0
        result = json.loads(open(out).read())["tasks"][0]["result"]
        assert result["iterations"] == 1 and result["converged"] is False

    def test_multi_scenario_run(self, tmp_path, monkeypatch):
        # scenarios run one after another, each into its own report, which
        # equals the one a single-scenario run writes, up to timings; the
        # exit code is the largest of theirs
        tasks = ["validate", "spectral", "rate", "averaging"]
        body = dict(BASE, t_grid=[1.0, 2.0], tasks=tasks)
        p1 = write_scenario(tmp_path, dict(body, name="s1"), "s1.json")
        p2 = write_scenario(tmp_path, dict(body, name="s2", v=[0.0, 2.0]), "s2.json")
        p3 = write_scenario(tmp_path, dict(body, name="s3", tasks=["averaging"],
                                           t_grid=[]), "s3.json")
        out_dir = str(tmp_path / "reports")
        assert main(["run", p1, p2, "-o", out_dir]) == 0
        assert sorted(os.listdir(out_dir)) == ["s1.report.json", "s2.report.json"]
        for stem, path in (("s1", p1), ("s2", p2)):
            single = str(tmp_path / f"{stem}.single.json")
            assert main(["run", path, "-o", single]) == 0
            several = json.loads(open(os.path.join(out_dir, f"{stem}.report.json")).read())
            alone = json.loads(open(single).read())
            del several["timings"], alone["timings"]
            assert json.dumps(several, sort_keys=True) == json.dumps(alone, sort_keys=True)
        from dvsemigroup import cli
        seen, one = [], cli.run
        monkeypatch.setattr(cli, "run", lambda path, *args: seen.append(path) or one(path, *args))
        assert main(["run", p3, p1, "-o", out_dir]) == 2
        assert seen == [p3, p1]
        with pytest.raises(SystemExit):
            main(["run", p1, p2, "-o", out_dir, "--jobs", "2"])

    def test_scenarios_with_one_stem_are_refused(self, tmp_path, monkeypatch, capsys):
        # a/x.json and b/x.json once both wrote out/x.report.json, and a's
        # report was lost under exit code 0
        from dvsemigroup import cli
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        pa = write_scenario(tmp_path / "a", dict(BASE, tasks=["validate"]), "x.json")
        pb = write_scenario(tmp_path / "b", dict(BASE, tasks=["validate"]), "x.json")
        seen = []
        monkeypatch.setattr(cli, "run", lambda path, *args: seen.append(path))
        out_dir = tmp_path / "out"
        assert main(["run", pa, pb, "-o", str(out_dir)]) == 2
        assert seen == [] and not out_dir.exists()
        err = capsys.readouterr().err
        assert pa in err and pb in err

    def test_csv_of_two_files_with_one_name(self, tmp_path):
        # both files named "same" once wrote one set of CSVs, the second
        # file's, under exit code 0
        tasks = ["spectral"]
        pa = write_scenario(tmp_path, dict(BASE, name="same", tasks=tasks), "a.json")
        pb = write_scenario(tmp_path, dict(BASE, name="same", v=[0.0, 2.0], tasks=tasks),
                            "b.json")
        out_dir, csv_dir = tmp_path / "out", tmp_path / "csv"
        assert main(["run", pa, pb, "-o", str(out_dir), "--csv", str(csv_dir)]) == 0
        assert sorted(os.listdir(csv_dir)) == [
            f"{stem}__spectral__{key}.csv" for stem in "ab" for key in ("mu", "pi", "psi")]
        for stem in "ab":
            report = json.loads((out_dir / f"{stem}.report.json").read_text())
            for key, val in report["tasks"][0]["result"].items():
                if isinstance(val, list):
                    rows = (csv_dir / f"{stem}__spectral__{key}.csv").read_text().split()
                    assert [float(x) for x in rows] == val
        assert (csv_dir / "a__spectral__psi.csv").read_text() != (
            csv_dir / "b__spectral__psi.csv").read_text()

    def test_run_into_an_existing_directory(self, tmp_path):
        # one scenario and an existing -o directory once raised
        # IsADirectoryError; the report goes where several scenarios' would
        path = write_scenario(tmp_path, dict(BASE, tasks=["validate"]), "x.json")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["run", path, "-o", str(out_dir)]) == 0
        assert os.listdir(out_dir) == ["x.report.json"]
        assert json.loads((out_dir / "x.report.json").read_text())["name"] == "demo"

    @pytest.mark.parametrize("argv", [["run", "{p}", "{p2}", "-o", "{file}"],
                                      ["spectral", "{p}", "-o", "{dir}"]],
                             ids=["several-into-a-file", "single-task-into-a-directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv):
        # these once ended in FileExistsError and IsADirectoryError tracebacks
        paths = {"p": write_scenario(tmp_path, dict(BASE, tasks=["spectral"]), "p.json"),
                 "p2": write_scenario(tmp_path, dict(BASE, tasks=["spectral"]), "p2.json"),
                 "file": str(tmp_path / "file"), "dir": str(tmp_path / "dir")}
        (tmp_path / "file").write_text("kept\n")
        (tmp_path / "dir").mkdir()
        assert main([a.format(**paths) for a in argv]) == 2
        assert "error:" in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "kept\n"
        assert os.listdir(tmp_path / "dir") == []
