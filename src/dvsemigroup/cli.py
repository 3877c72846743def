"""Scenario-driven command line front end.

A scenario is a JSON object describing one system and a list of tasks:

    {
      "name": "two-state-demo",
      "Q": [[-1.0, 1.0], [2.0, -2.0]],
      "v": [1.0, 0.0],
      "N": 1,
      "V0": [...] or {"pairwise": [[...]]},     // N > 1 only
      "t_grid": [1, 2, 4, 8],
      "seed": 0,
      "tasks": ["validate", "spectral", {"name": "mc", "options": {"t": 50}}]
    }

Unknown keys anywhere, and the tokens NaN, Infinity and -Infinity, are
rejected.  `run` executes the tasks in order and writes a single JSON
report with a config echo, a section per task, the library version, and
wall-clock timings.  The echo repeats every scenario field as read except
Q, which it gives as {"shape": [d, d], "crc32": c}.  c is the CRC-32 (a
check value, not a cryptographic hash) of the validated generator, whose
diagonal is recomputed, as little-endian float64 in C order:

    zlib.crc32(np.ascontiguousarray(validate_generator(Q).rates, dtype="<f8"))

Exit codes: 0 success, 1 a task failed, 2 the scenario itself is
invalid or its report cannot be written.  Reports are deterministic for
fixed scenario and seed, apart from the timings section; non-finite
numbers are emitted as the strings "infinity", "-infinity", or "nan".  Reports, and the bare results of the
single-task subcommands, are one line of compact JSON with sorted keys;
`python -m json.tool report.json` pretty-prints one.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import __version__
from .errors import ConfigError, DVSemigroupError, StateSpaceTooLarge
from .generator import Generator, Potential, as_potential, validate_generator
from .generator import check_condition_A, check_condition_D
from .hohenberg_kohn import _orbit_marginal, hk_verify, i_hk, invert_potential
from .multiparticle import TensorSystem, _pair_sums, is_symmetric, kronecker_sum
from .rate_function import dv_sup, rate_I, relative_entropy
from .semigroup import check_condition_B, growth_bound, make_operator
from .spectral import (
    GroundData,
    ProbMeasure,
    as_measure,
    ground_measure_by_averaging,
    ground_measure_by_evolution,
    principal_eigen,
    total_variation,
)
from .feynman_kac import estimate_lambda

log = logging.getLogger("dvsemigroup")

SCENARIO_KEYS = {"name", "Q", "V", "v", "N", "V0", "t_grid", "seed", "tasks"}
TASK_NAMES = ("validate", "spectral", "rate", "hk-verify", "hk-invert",
              "ihk", "mc", "averaging")


@dataclass
class Scenario:
    name: str
    raw: dict
    system: TensorSystem
    v: np.ndarray
    V0: np.ndarray | None       # on the orbits; None when the scenario gives none
    t_grid: list[float]
    seed: int
    tasks: list[tuple[str, dict]]

    @property
    def Q1(self) -> Generator:
        return self.system.Q1

    @property
    def N(self) -> int:
        return self.system.N

    @cached_property
    def chain(self) -> tuple[Generator, Potential]:
        """The chain every task runs on: the product chain lumped onto its
        permutation orbits (Q1 itself at N = 1), with V0 + separable(v) at
        each orbit, the latter counts . v / N (v itself at N = 1, where no
        orbit is enumerated)."""
        v = self.v if self.N == 1 else self.system.orbits.counts @ self.v / self.N
        return self.system.lumped_QN, Potential((0.0 if self.V0 is None else self.V0) + v)

    @property
    def interaction(self) -> np.ndarray:
        """V0 on the orbits, zero when the scenario gives none."""
        return np.zeros(len(self.chain[1])) if self.V0 is None else self.V0

    @cached_property
    def ground(self) -> GroundData:
        """The Perron eigentriple of the chain, solved once."""
        return principal_eigen(*self.chain)

    def gather(self, mu: np.ndarray) -> ProbMeasure:
        """A permutation-symmetric measure on the d^N states summed onto the
        orbits; as given at N = 1, where every orbit is one state and the
        sum would only normalize it again."""
        mu = as_measure(mu, self.system.size)
        if self.N == 1:
            return mu
        if not is_symmetric(mu, self.system):
            raise ValueError("mu must be symmetric under particle permutations")
        return ProbMeasure(np.bincount(self.system.orbits.of, weights=mu.weights))


def _require(cond: bool, message: str, key: str | None = None):
    if not cond:
        raise ConfigError(message, key=key)


def _non_finite_token(token: str):
    raise ConfigError(f"scenario holds the non-finite number {token}")


def _to_float(x) -> float:
    """float(x), reading an int too large for a float as infinity."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _real(value, key: str, low: float | None = None) -> float:
    """A number (not a bool) as a float; with low given, low < value < inf."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{key} must be a number", key=key)
    x = _to_float(value)
    _require(low is None or low < x < math.inf,
             f"{key} must be finite and above {low}", key=key)
    return x


def _count(value, key: str, least: int) -> int:
    """An integer (not a bool) in [least, 2**63)."""
    _require(isinstance(value, int) and not isinstance(value, bool)
             and least <= value < 2 ** 63,
             f"{key} must be an integer from {least} below 2**63", key=key)
    return value


def _vector(value, key: str) -> np.ndarray:
    """A list of finite numbers as a float vector."""
    try:
        vec = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a list of numbers: {exc}", key=key) from exc
    _require(vec.ndim == 1 and bool(np.all(np.isfinite(vec))),
             f"{key} must be a list of finite numbers", key=key)
    return vec


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_non_finite_token)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc

    _require(isinstance(raw, dict), "scenario must be a JSON object")
    unknown = set(raw) - SCENARIO_KEYS
    _require(not unknown, "unknown scenario keys", key=",".join(sorted(unknown)))
    _require("Q" in raw, "scenario must define a rate matrix", key="Q")
    scenario_name = raw.get("name", os.path.basename(path))
    _require(isinstance(scenario_name, str), "name must be a string", key="name")

    try:
        Q1 = validate_generator(raw["Q"])
    except (DVSemigroupError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid rate matrix: {exc}", key="Q") from exc
    # Q is the one input that grows as d^2: the report echoes it as its
    # shape and the CRC-32 of the validated rates, little-endian float64
    raw["Q"] = {"shape": [Q1.dim, Q1.dim],
                "crc32": zlib.crc32(np.ascontiguousarray(Q1.rates, dtype="<f8"))}

    N = _count(raw.get("N", 1), "N", 1)
    system = kronecker_sum(Q1, N)
    try:  # every task but validate runs on the orbit chain: its bytes bound N
        system._check_chain()
    except StateSpaceTooLarge as exc:
        raise ConfigError(f"{N} particles on {Q1.dim} states: {exc}", key="N") from exc

    _require(not ("V" in raw and "v" in raw),
             "give either V or v, not both", key="V")
    key = "v" if "v" in raw else "V"
    v = _vector(raw[key], key) if key in raw else np.zeros(Q1.dim)
    _require(v.shape == (Q1.dim,), f"potential must have {Q1.dim} entries", key=key)

    # every task runs on the orbit chain, so V0 must be permutation
    # symmetric; it is kept on the orbits, and the system's orbits, read
    # here, serve the tasks too
    V0 = None
    if "V0" in raw:
        given = raw["V0"]
        try:
            if isinstance(given, dict):
                unknown = set(given) - {"pairwise"}
                _require(not unknown, "unknown V0 keys", key=",".join(sorted(unknown)))
                _require("pairwise" in given, "V0 object needs a pairwise matrix",
                         key="V0")
                V0 = _pair_sums(given["pairwise"], system.orbits, N)
            else:
                V0 = Potential(np.asarray(given, dtype=float))
                _require(len(V0) == system.size,
                         f"V0 must have {system.size} entries", key="V0")
                V0 = system.on_orbits(V0)
        except (DVSemigroupError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"invalid V0: {exc}", key="V0") from exc

    t_grid = raw.get("t_grid", [])
    _require(isinstance(t_grid, list) and
             all(isinstance(x, (int, float)) and not isinstance(x, bool)
                 and 0 < _to_float(x) < math.inf for x in t_grid),
             "t_grid must be a list of finite positive numbers", key="t_grid")

    seed = _count(raw.get("seed", 0), "seed", 0)

    tasks = []
    for entry in raw.get("tasks", []):
        if isinstance(entry, str):
            name, options = entry, {}
        elif isinstance(entry, dict):
            unknown = set(entry) - {"name", "options"}
            _require(not unknown, "unknown task keys", key=",".join(sorted(unknown)))
            _require("name" in entry, "task object needs a name", key="tasks")
            name = entry["name"]
            options = entry.get("options", {})
            _require(isinstance(options, dict), "task options must be an object",
                     key=name)
        else:
            raise ConfigError("tasks must be names or objects", key="tasks")
        _require(name in TASK_NAMES, f"unknown task '{name}'", key="tasks")
        tasks.append((name, options))

    return Scenario(name=scenario_name, raw=raw, system=system, v=v, V0=V0,
                    t_grid=[float(x) for x in t_grid], seed=seed, tasks=tasks)


# ---------------------------------------------------------------------------
# task runners


def _opt(options: dict, allowed: dict, task: str) -> dict:
    unknown = set(options) - set(allowed)
    _require(not unknown, f"unknown options for task '{task}'",
             key=",".join(sorted(unknown)))
    merged = dict(allowed)
    merged.update(options)
    return merged


def _task_validate(sc: Scenario, options: dict) -> dict:
    opts = _opt(options, {"T": 1.0}, "validate")
    T = _real(opts["T"], "T", low=0.0)
    return {
        "d": sc.Q1.dim,
        "N": sc.N,
        "product_states": sc.Q1.dim ** sc.N,
        "epsilon_A": check_condition_A(sc.Q1, T),
        "condition_B": check_condition_B(sc.Q1),
        "condition_D": check_condition_D(sc.Q1),
    }


def _task_spectral(sc: Scenario, options: dict) -> dict:
    _opt(options, {}, "spectral")
    gd = sc.system.lift(sc.ground)
    return {"lambda": gd.lam, "psi": gd.psi.tolist(),
            "pi": gd.pi.weights.tolist(), "mu": gd.mu.weights.tolist()}


def _task_rate(sc: Scenario, options: dict) -> dict:
    opts = _opt(options, {"mu": None}, "rate")
    (Q, V), gd = sc.chain, sc.ground
    mu = gd.mu if opts["mu"] is None else sc.gather(_vector(opts["mu"], "mu"))
    # I comes from a rate solve started at w = 0; at the default mu, the
    # equilibrium measure, its log-tilt starts dv_sup's rate solve there
    rate = rate_I(Q, mu)
    I = rate.value
    # the ascent starts at the certified equilibrium measure, where its
    # gap is at round-off; the value still rests on dv_sup's own gap
    lam_dual, mu_star = dv_sup(Q, V, start=gd.mu,
                               logu=rate.minimizer_logu if opts["mu"] is None else None)
    # rate_IV's I - mu(V) + lambda, reusing this task's rate solve and the
    # scenario's ground data
    return {
        "I": I,
        "IV": I - float(mu.weights @ V.values) + gd.lam,
        "lambda_dual": lam_dual,
        "mu_star": (mu_star.weights if sc.N == 1
                    else sc.system.orbits.spread(mu_star.weights)).tolist(),
    }


def _task_averaging(sc: Scenario, options: dict) -> dict:
    opts = _opt(options, {"n_grid": 1025}, "averaging")
    n_grid = _count(opts["n_grid"], "n_grid", 2)
    _require(len(sc.t_grid) > 0, "averaging needs a t_grid", key="t_grid")
    (Q, V), gd = sc.chain, sc.ground
    C = growth_bound(make_operator(Q, V), gd.lam, np.linspace(0.0, max(sc.t_grid), 201))
    rows = []
    for T in sc.t_grid:
        avg = ground_measure_by_averaging(Q, V, gd.lam, gd.mu, T, n_grid)
        end = ground_measure_by_evolution(Q, V, gd.lam, gd.mu, T)
        rows.append({
            "T": T,
            "tv_average": total_variation(avg, gd.pi),
            "tv_evolved": total_variation(end, gd.pi),
            "entropy_average": relative_entropy(gd.mu, avg),
            "entropy_evolved": relative_entropy(gd.mu, end),
        })
    return {"log_growth_bound": float(np.log(C)), "ladder": rows}


def _task_hk_verify(sc: Scenario, options: dict) -> dict:
    opts = _opt(options, {"v1": None, "v2": None, "tol": 1e-10}, "hk-verify")
    _require(opts["v2"] is not None, "hk-verify needs option v2", key="v2")
    v1 = sc.v if opts["v1"] is None else _vector(opts["v1"], "v1")
    # at the scenario's own v, the scenario's ground data start v1's solve
    report = hk_verify(sc.system, sc.interaction, v1, _vector(opts["v2"], "v2"),
                       tol=_real(opts["tol"], "tol", low=0.0),
                       start=sc.ground if opts["v1"] is None else None)
    return {
        "marginal_distance": report.marginal_distance,
        "potential_residual": report.potential_residual,
        "lambdas": list(report.lambdas),
        "conclusion": report.conclusion.value,
        "kappa": report.kappa,
        "inequality_margins": list(report.inequality_margins),
    }


def _task_hk_invert(sc: Scenario, options: dict) -> dict:
    opts = _opt(options, {"rho_target": None, "v_star": None, "tol": 1e-8,
                          "max_iter": 500}, "hk-invert")
    tol = _real(opts["tol"], "tol", low=0.0)
    max_iter = _count(opts["max_iter"], "max_iter", 1)
    sys, V0 = sc.system, sc.interaction
    if opts["rho_target"] is not None:
        rho_target = _vector(opts["rho_target"], "rho_target")
    elif opts["v_star"] is not None:
        v_star = as_potential(_vector(opts["v_star"], "v_star"), sys.d).values
        rho_target = _orbit_marginal(sys, V0, v_star)[1].weights
    else:
        raise ConfigError("hk-invert needs rho_target or v_star", key="rho_target")
    result = invert_potential(sys, V0, rho_target, tol=tol, max_iter=max_iter)
    return {
        "v_recovered": result.v_recovered.values.tolist(),
        "iterations": result.iterations,
        "marginal_error": result.marginal_error,
        "converged": result.converged,
    }


def _task_ihk(sc: Scenario, options: dict) -> dict:
    opts = _opt(options, {"rho": None}, "ihk")
    sys = sc.system
    if opts["rho"] is None:
        # the marginal of the scenario's equilibrium measure, from which
        # the constrained Newton run starts
        start = sc.ground.mu
        rho = ProbMeasure(sys.orbits.counts.T @ start.weights / sys.N).weights
    else:
        start, rho = None, _vector(opts["rho"], "rho")
    return {"rho": rho.tolist(), "I_HK": i_hk(sys, sc.interaction, rho, start)}


def _task_mc(sc: Scenario, options: dict) -> dict:
    opts = _opt(options, {"t": 50.0, "paths": 1000, "seed": sc.seed}, "mc")
    # the horizon's range is the sampler's to check (ValueError)
    t, paths = _real(opts["t"], "t"), _count(opts["paths"], "paths", 2)
    estimate, stderr = estimate_lambda(*sc.chain, t, paths, _count(opts["seed"], "seed", 0))
    return {"lambda_mc": estimate, "stderr": stderr,
            "lambda_spectral": sc.ground.lam, "t": t, "paths": paths}


_TASK_RUNNERS = {
    "validate": _task_validate,
    "spectral": _task_spectral,
    "rate": _task_rate,
    "averaging": _task_averaging,
    "hk-verify": _task_hk_verify,
    "hk-invert": _task_hk_invert,
    "ihk": _task_ihk,
    "mc": _task_mc,
}


# ---------------------------------------------------------------------------
# report plumbing


def sanitize(obj):
    """Make a report JSON-safe: numpy values become Python ones, and
    non-finite floats become the strings "nan", "infinity", "-infinity"."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # flat lists of plain finite numbers pass through as they are; ints
        # never reach isfinite, which overflows on one too large for a float
        types = set(map(type, obj))
        if types <= {int} or (types <= {float} and all(map(math.isfinite, obj))):
            return list(obj)
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return sanitize(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "infinity" if obj > 0 else "-infinity"
    return obj


def run_scenario(sc: Scenario) -> tuple[dict, bool]:
    """Execute the scenario's tasks; returns (report, all_ok)."""
    report = {"name": sc.name, "version": __version__,
              "config": sc.raw, "tasks": [], "timings": {}}
    ok = True
    total0 = time.perf_counter()
    for name, options in sc.tasks:
        t0 = time.perf_counter()
        section = {"task": name}
        try:
            section["status"] = "ok"
            section["result"] = _TASK_RUNNERS[name](sc, options)
        except ConfigError:
            raise
        except (DVSemigroupError, ValueError) as exc:
            log.warning("task %s failed: %s", name, exc)
            section["status"] = "error"
            section["error"] = {"type": type(exc).__name__, "message": str(exc)}
            ok = False
        report["tasks"].append(section)
        report["timings"][name] = time.perf_counter() - t0
    report["timings"]["total"] = time.perf_counter() - total0
    return sanitize(report), ok


def write_report(report: dict, out_path: str | None):
    # without indent, json uses its C encoder
    text = json.dumps(report, sort_keys=True) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def write_csv(report: dict, csv_dir: str):
    """Vector-valued result fields, one CSV per field."""
    os.makedirs(csv_dir, exist_ok=True)
    base = str(report.get("name", "scenario")).replace(os.sep, "_")
    for section in report.get("tasks", []):
        result = section.get("result")
        if not isinstance(result, dict):
            continue
        for key, val in result.items():
            if (isinstance(val, list) and val
                    and all(isinstance(x, (int, float)) for x in val)):
                path = os.path.join(csv_dir, f"{base}__{section['task']}__{key}.csv")
                with open(path, "w") as fh:
                    fh.writelines(f"{x}\n" for x in val)


def run(scenario_path: str, out_path: str | None = None,
        csv_dir: str | None = None) -> int:
    """Load, execute, and report one scenario; returns the exit code."""
    try:
        sc = load_scenario(scenario_path)
        report, ok = run_scenario(sc)
    except ConfigError as exc:
        log.error("config error in %s: %s", scenario_path, exc)
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    write_report(report, out_path)
    if csv_dir is not None:
        write_csv(report, csv_dir)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _single_task_run(path: str, task: str, flags: dict, out: str | None) -> int:
    """Emit the bare result object of one task (plus timing for hk tasks).

    Options come from the scenario's first entry for the task, overridden
    by the command-line flags given.
    """
    try:
        sc = load_scenario(path)
        options = next((opts for name, opts in sc.tasks if name == task), {})
        sc.tasks = [(task, {**options, **flags})]
        report, ok = run_scenario(sc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    section = report["tasks"][0]
    result = section["result"] if ok else {"error": section["error"]}
    if ok and task in ("hk-verify", "hk-invert", "ihk"):
        result["timing_seconds"] = report["timings"][task]
    write_report(result, out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvsemigroup",
        description="Schrodinger semigroup calculations on finite state spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the tasks of one or more scenarios")
    p_run.add_argument("scenarios", nargs="+")
    p_run.add_argument("-o", "--out", default=None,
                       help="output file (single scenario) or directory")
    p_run.add_argument("--csv", default=None, metavar="DIR",
                       help="also emit measure-valued outputs as CSV")

    for name in ("spectral", "rate", "hk-verify", "hk-invert", "ihk"):
        p = sub.add_parser(name, help=f"run only the {name} task")
        p.add_argument("scenario")
        p.add_argument("-o", "--out", default=None)

    p_mc = sub.add_parser("mc", help="Monte Carlo eigenvalue estimate")
    p_mc.add_argument("scenario")
    p_mc.add_argument("-o", "--out", default=None)
    p_mc.add_argument("--t", type=float, default=None)
    p_mc.add_argument("--paths", type=int, default=None)
    p_mc.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("DV_SEMIGROUP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command != "run":
            flags = {key: getattr(args, key) for key in ("t", "paths", "seed")
                     if getattr(args, key, None) is not None}
            return _single_task_run(args.scenario, args.command, flags, args.out)
        if len(args.scenarios) == 1 and not (args.out and os.path.isdir(args.out)):
            return run(args.scenarios[0], args.out, args.csv)
        out_dir = args.out or "."
        reports = {}
        for path in args.scenarios:
            stem = os.path.splitext(os.path.basename(path))[0]
            out = os.path.join(out_dir, f"{stem}.report.json")
            if out in reports:
                print(f"error: {reports[out]} and {path} would both write {out}",
                      file=sys.stderr)
                return 2
            reports[out] = path
        os.makedirs(out_dir, exist_ok=True)
        return max(run(path, out, args.csv) for out, path in reports.items())
    except OSError as exc:      # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
