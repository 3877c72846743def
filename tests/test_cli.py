"""Scenario loading, task dispatch, report determinism, exit codes."""

import json
import os

import numpy as np
import pytest

import oracles
from dvsemigroup.cli import load_scenario, main, run, run_scenario, sanitize
from dvsemigroup.errors import ConfigError


def write_scenario(tmp_path, body, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


BASE = {
    "name": "demo",
    "Q": [[-1.0, 1.0], [2.0, -2.0]],
    "v": [1.0, 0.0],
    "seed": 3,
}


class TestLoadScenario:
    def test_minimal(self, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, {"Q": BASE["Q"]}))
        assert sc.Q1.dim == 2 and sc.N == 1 and sc.tasks == []

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
        assert sc.V0.values.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_unknown_task_option_rejected(self, tmp_path):
        body = dict(BASE, tasks=[{"name": "mc", "options": {"bogus": 1}}])
        sc = load_scenario(write_scenario(tmp_path, body))
        with pytest.raises(ConfigError):
            run_scenario(sc)


class TestRun:
    def test_two_state_demo_matches_closed_form(self, tmp_path):
        body = dict(BASE, tasks=["validate", "spectral"])
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, body), out) == 0
        report = json.loads(open(out).read())
        lam = [t for t in report["tasks"] if t["task"] == "spectral"][0]["result"]["lambda"]
        assert lam == pytest.approx(oracles.two_state_lambda(1, 2, 1, 0), abs=1e-10)

    def test_negative_off_diagonal_exits_2(self, tmp_path, capsys):
        body = {"Q": [[-0.5, 0.5], [-1.0, 1.0]], "tasks": []}
        assert run(write_scenario(tmp_path, body), str(tmp_path / "o.json")) == 2
        assert "Q[1,0]" in capsys.readouterr().err

    def test_empty_tasks_echoes_config(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert run(write_scenario(tmp_path, dict(BASE, tasks=[])), out) == 0
        report = json.loads(open(out).read())
        assert report["config"]["Q"] == BASE["Q"]
        assert report["tasks"] == []

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

    def test_csv_emission(self, tmp_path):
        body = dict(BASE, tasks=["spectral"])
        out = str(tmp_path / "report.json")
        csv_dir = str(tmp_path / "csv")
        assert run(write_scenario(tmp_path, body), out, csv_dir) == 0
        files = sorted(os.listdir(csv_dir))
        assert "demo__spectral__psi.csv" in files
        psi = [float(line) for line in open(os.path.join(csv_dir, "demo__spectral__psi.csv"))]
        assert len(psi) == 2


class TestSanitize:
    def test_nonfinite_values(self):
        out = sanitize({"a": float("inf"), "b": float("-inf"),
                        "c": float("nan"), "d": [1.0, np.float64(2.5)]})
        assert out == {"a": "infinity", "b": "-infinity", "c": "nan", "d": [1.0, 2.5]}

    def test_numpy_types(self):
        out = sanitize({"n": np.int64(3), "x": np.array([0.5, 0.5]), "f": np.bool_(True)})
        assert out == {"n": 3, "x": [0.5, 0.5], "f": True}


class TestMain:
    def test_run_subcommand(self, tmp_path, capsys):
        path = write_scenario(tmp_path, dict(BASE, tasks=["validate"]))
        assert main(["run", path, "-o", str(tmp_path / "r.json")]) == 0

    def test_single_task_subcommands_emit_bare_results(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        out = str(tmp_path / "spectral.json")
        assert main(["spectral", path, "-o", out]) == 0
        assert set(json.loads(open(out).read())) == {"lambda", "psi", "pi", "mu"}
        out = str(tmp_path / "rate.json")
        assert main(["rate", path, "-o", out]) == 0
        assert set(json.loads(open(out).read())) == {"I", "IV", "lambda_dual", "mu_star"}

    def test_mc_subcommand_flags(self, tmp_path):
        path = write_scenario(tmp_path, BASE)
        out = str(tmp_path / "mc.json")
        assert main(["mc", path, "-o", out, "--t", "5", "--paths", "64",
                     "--seed", "99"]) == 0
        result = json.loads(open(out).read())
        assert set(result) >= {"lambda_mc", "stderr", "lambda_spectral"}
        assert result["paths"] == 64

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

    def test_multi_scenario_jobs(self, tmp_path):
        # concurrent scenarios share no mutable state, so each report
        # equals the one a single-scenario run writes, up to timings
        tasks = ["validate", "spectral", "rate", "averaging"]
        body = dict(BASE, t_grid=[1.0, 2.0], tasks=tasks)
        p1 = write_scenario(tmp_path, dict(body, name="s1"), "s1.json")
        p2 = write_scenario(tmp_path, dict(body, name="s2", v=[0.0, 2.0]), "s2.json")
        out_dir = str(tmp_path / "reports")
        assert main(["run", p1, p2, "-o", out_dir, "--jobs", "2"]) == 0
        assert sorted(os.listdir(out_dir)) == ["s1.report.json", "s2.report.json"]
        for stem, path in (("s1", p1), ("s2", p2)):
            single = str(tmp_path / f"{stem}.single.json")
            assert main(["run", path, "-o", single]) == 0
            jobs = json.loads(open(os.path.join(out_dir, f"{stem}.report.json")).read())
            alone = json.loads(open(single).read())
            del jobs["timings"], alone["timings"]
            assert json.dumps(jobs, sort_keys=True) == json.dumps(alone, sort_keys=True)
