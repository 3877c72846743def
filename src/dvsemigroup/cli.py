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
rejected; the file must be UTF-8, and one of at least 1 MiB is parsed by
orjson when it is installed, with the same result as json (see _parse).
The array fields Q, v, V0 and the vector task options hold numbers, not
strings.  `run` reads every task's options before any task runs, then
executes the tasks in order and writes a single JSON report with a
config echo, a section per task, the library version, and wall-clock
timings.  The echo repeats every scenario field as read except
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
from dataclasses import asdict, dataclass
from functools import cached_property, partial

import numpy as np

from . import __version__
from .errors import ConfigError, DVSemigroupError, StateSpaceTooLarge
from .generator import Generator, Potential, as_potential, validate_generator
from .generator import check_condition_A, check_condition_D
from .hohenberg_kohn import _orbit_marginal, hk_verify, i_hk, invert_potential
from .multiparticle import TensorSystem, _pair_sums, kronecker_sum
from .rate_function import dv_sup, rate_I, relative_entropy
from .semigroup import check_condition_B, growth_bound, make_operator
from .spectral import (
    GroundData,
    ProbMeasure,
    ground_measure_by_averaging,
    ground_measure_by_evolution,
    principal_eigen,
    total_variation,
)
from .feynman_kac import estimate_lambda

log = logging.getLogger("dvsemigroup")

SCENARIO_KEYS = {"name", "Q", "v", "N", "V0", "t_grid", "seed", "tasks"}
_MC_FLAGS = {"t": float, "paths": int, "seed": int}     # the mc subcommand's flags


@dataclass
class Scenario:
    name: str
    raw: dict
    system: TensorSystem
    v: np.ndarray
    V0: np.ndarray              # on the orbits; zeros when the scenario gives none
    t_grid: list[float]
    seed: int
    tasks: list[tuple[str, dict]]   # options as given; run_scenario reads them

    @cached_property
    def chain(self) -> tuple[Generator, Potential]:
        """The chain every task runs on: the product chain lumped onto its
        permutation orbits (Q1 itself at N = 1), with V0 + separable(v)."""
        return self.system.lumped_QN, Potential(self.system.chain_potential(self.V0, self.v))

    @cached_property
    def _ground(self) -> GroundData | Exception:
        try:
            return principal_eigen(*self.chain)
        except (DVSemigroupError, ValueError) as exc:
            return exc.with_traceback(None)     # holds no solver frame alive

    @property
    def ground(self) -> GroundData:
        """The Perron eigentriple of the chain, solved once; when that
        solve fails, every read raises its error."""
        if isinstance(self._ground, Exception):
            raise self._ground
        return self._ground


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


def _array(value, key: str) -> np.ndarray:
    """Numbers in nested lists as a float array; bools read as 1 and 0,
    strings are refused."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:       # ragged, or nested past numpy's dimensions
        raise ConfigError(f"{key} must be an array of numbers: {exc}", key=key) from exc
    # json reads an integer past 64 bits as an int, which numpy holds in an
    # object array, as it holds None and objects
    _require(arr.dtype.kind in "biuf" or arr.dtype == object
             and all(isinstance(x, (int, float)) for x in arr.flat),
             f"{key} must be an array of numbers", key=key)
    try:
        return arr.astype(float, copy=False)
    except OverflowError as exc:    # an int past the largest float
        raise ConfigError(f"{key} must be an array of numbers: {exc}", key=key) from exc


def _vector(value, key: str) -> np.ndarray:
    """A list of finite numbers as a float vector."""
    vec = _array(value, key)
    _require(vec.ndim == 1 and bool(np.all(np.isfinite(vec))),
             f"{key} must be a list of finite numbers", key=key)
    return vec


# orjson parses dense-512's 5.70 MiB in 15.6 ms where json takes 107 ms,
# but importing it costs 6-8 ms (it loads uuid, zoneinfo and sysconfig):
# on a 0.35 MiB file the parse saves less than the import costs
_ORJSON_MIN_BYTES = 1 << 20
# orjson 3.8 recurses on the C stack once per nesting level, and a
# million nested "[" crash the process; a file with fewer opening
# brackets than this nests no deeper (a d-state Q holds d + 1)
_ORJSON_MAX_OPENS = 4096


def _orjson_may_read(data: bytes) -> bool:
    """Whether data is large enough to repay orjson's import and holds
    too few brackets to nest past its stack."""
    if len(data) < _ORJSON_MIN_BYTES:
        return False
    chars = np.frombuffer(data, np.uint8)
    opens = np.count_nonzero(chars == ord("[")) + np.count_nonzero(chars == ord("{"))
    return opens < _ORJSON_MAX_OPENS


def _int_as_float(value) -> bool:
    """Whether value holds an integral float of magnitude 2**63 or more:
    orjson reads an integer token outside [-2**63, 2**64) as a float,
    where json reads an int.  Recurses as json does, so nesting json
    cannot read raises RecursionError here too."""
    if isinstance(value, float):
        return abs(value) >= 2 ** 63 and value.is_integer()
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        return False
    return any(map(_int_as_float, value))


def _parse(data: bytes):
    """The JSON value of a scenario file's bytes, as json.loads reads it.

    A file of at least _ORJSON_MIN_BYTES is read by orjson when it is
    installed.  json decides whatever orjson refuses (1e999, NaN, a lone
    surrogate, a BOM, invalid UTF-8), and any file whose value outside Q
    holds a float orjson may have read from an integer token.  Inside Q
    such a token only becomes a float64 rate, and orjson's float equals
    numpy's conversion of json's int.
    """
    if _orjson_may_read(data):
        try:
            import orjson
            raw = orjson.loads(data)
            rest = [v for k, v in raw.items() if k != "Q"] if isinstance(raw, dict) else raw
            if not _int_as_float(rest):
                return raw
        except (ImportError, ValueError, RecursionError):
            pass        # json decides
    try:
        return json.loads(data.decode("utf-8"), parse_constant=_non_finite_token)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scenario is not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    raw = _parse(data)

    _require(isinstance(raw, dict), "scenario must be a JSON object")
    unknown = set(raw) - SCENARIO_KEYS
    _require(not unknown, "unknown scenario keys", key=",".join(sorted(unknown)))
    _require("Q" in raw, "scenario must define a rate matrix", key="Q")
    scenario_name = raw.get("name", os.path.basename(path))
    _require(isinstance(scenario_name, str), "name must be a string", key="name")

    Q = _array(raw["Q"], "Q")
    try:
        Q1 = validate_generator(Q)
    except (DVSemigroupError, ValueError) as exc:
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

    v = _vector(raw["v"], "v") if "v" in raw else np.zeros(Q1.dim)
    _require(v.shape == (Q1.dim,), f"potential must have {Q1.dim} entries", key="v")

    # every task runs on the orbit chain, so V0 must be permutation
    # symmetric; the system's orbits, read here, serve the tasks too
    V0 = np.zeros(system.n_orbits)
    if "V0" in raw:
        given = raw["V0"]
        try:
            if isinstance(given, dict):
                unknown = set(given) - {"pairwise"}
                _require(not unknown, "unknown V0 keys", key=",".join(sorted(unknown)))
                _require("pairwise" in given, "V0 object needs a pairwise matrix",
                         key="V0")
                V0 = _pair_sums(_array(given["pairwise"], "V0"), system.orbits, N)
            else:
                V0 = Potential(_array(given, "V0"))
                _require(len(V0) == system.size,
                         f"V0 must have {system.size} entries", key="V0")
                V0 = system.on_orbits(V0)
        except (DVSemigroupError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"invalid V0: {exc}", key="V0") from exc

    t_grid = raw.get("t_grid", [])
    _require(isinstance(t_grid, list) and
             all(isinstance(x, (int, float)) and not isinstance(x, bool)
                 and 0 < _to_float(x) < math.inf for x in t_grid),
             "t_grid must be a list of finite positive numbers", key="t_grid")

    seed = _count(raw.get("seed", 0), "seed", 0)

    entries = raw.get("tasks", [])
    _require(isinstance(entries, list), "tasks must be a list", key="tasks")
    tasks = []
    for entry in entries:
        if isinstance(entry, str):
            name, options = entry, {}
        elif isinstance(entry, dict):
            unknown = set(entry) - {"name", "options"}
            _require(not unknown, "unknown task keys", key=",".join(sorted(unknown)))
            _require("name" in entry, "task object needs a name", key="tasks")
            name = entry["name"]
            _require(isinstance(name, str), "a task name must be a string", key="tasks")
            options = entry.get("options", {})
            _require(isinstance(options, dict), "task options must be an object",
                     key=name)
        else:
            raise ConfigError("tasks must be names or objects", key="tasks")
        _require(name in TASKS, f"unknown task '{name}'", key="tasks")
        tasks.append((name, options))

    return Scenario(name=scenario_name, raw=raw, system=system, v=v, V0=V0,
                    t_grid=[float(x) for x in t_grid], seed=seed, tasks=tasks)


# ---------------------------------------------------------------------------
# task runners


def _task_validate(sc: Scenario, opts: dict) -> dict:
    return {
        "d": sc.system.d,
        "N": sc.system.N,
        "product_states": sc.system.size,
        "epsilon_A": check_condition_A(sc.system.Q1, opts["T"]),
        "condition_B": check_condition_B(sc.system.Q1),
        "condition_D": check_condition_D(sc.system.Q1),
    }


def _task_spectral(sc: Scenario, opts: dict) -> dict:
    gd = sc.system.lift(sc.ground)
    return {"lambda": gd.lam, "psi": gd.psi.tolist(),
            "pi": gd.pi.weights.tolist(), "mu": gd.mu.weights.tolist()}


def _task_rate(sc: Scenario, opts: dict) -> dict:
    (Q, V), gd = sc.chain, sc.ground
    mu = gd.mu if opts["mu"] is None else sc.system.gather(opts["mu"])
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
        "mu_star": sc.system.spread(mu_star.weights).tolist(),
    }


def _task_averaging(sc: Scenario, opts: dict) -> dict:
    (Q, V), gd = sc.chain, sc.ground
    C = growth_bound(make_operator(Q, V), gd.lam, np.linspace(0.0, max(sc.t_grid), 201))
    rows = []
    for T in sc.t_grid:
        avg = ground_measure_by_averaging(Q, V, gd.lam, gd.mu, T, opts["n_grid"])
        end = ground_measure_by_evolution(Q, V, gd.lam, gd.mu, T)
        rows.append({
            "T": T,
            "tv_average": total_variation(avg, gd.pi),
            "tv_evolved": total_variation(end, gd.pi),
            "entropy_average": relative_entropy(gd.mu, avg),
            "entropy_evolved": relative_entropy(gd.mu, end),
        })
    return {"log_growth_bound": float(np.log(C)), "ladder": rows}


def _task_hk_verify(sc: Scenario, opts: dict) -> dict:
    v1 = sc.v if opts["v1"] is None else opts["v1"]
    # at the scenario's own v, the scenario's ground data start v1's solve
    report = hk_verify(sc.system, sc.V0, v1, opts["v2"], tol=opts["tol"],
                       start=sc.ground if opts["v1"] is None else None)
    return {**asdict(report), "conclusion": report.conclusion.value}


def _task_hk_invert(sc: Scenario, opts: dict) -> dict:
    sys, V0, rho_target = sc.system, sc.V0, opts["rho_target"]
    if rho_target is None:
        v_star = as_potential(opts["v_star"], sys.d).values
        rho_target = _orbit_marginal(sys, V0, v_star)[1].weights
    result = invert_potential(sys, V0, rho_target, tol=opts["tol"], max_iter=opts["max_iter"])
    return {**asdict(result), "v_recovered": result.v_recovered.values.tolist()}


def _task_ihk(sc: Scenario, opts: dict) -> dict:
    sys = sc.system
    if opts["rho"] is None:
        # the marginal of the scenario's equilibrium measure, from which
        # the constrained Newton run starts
        start = sc.ground.mu
        rho = ProbMeasure(sys.marginal_map @ start.weights).weights
    else:
        start, rho = None, opts["rho"]
    return {"rho": rho.tolist(), "I_HK": i_hk(sys, sc.V0, rho, start)}


def _task_mc(sc: Scenario, opts: dict) -> dict:
    t, paths = opts["t"], opts["paths"]
    seed = sc.seed if opts["seed"] is None else opts["seed"]
    estimate, stderr = estimate_lambda(*sc.chain, t, paths, seed)
    return {"lambda_mc": estimate, "stderr": stderr,
            "lambda_spectral": sc.ground.lam, "t": t, "paths": paths}


# each task's runner and options: every option's default and the reader
# that checks a given value; a None default means "not given", so a given
# null is read as absent there.  The mc horizon's range is the sampler's
# to check (ValueError).
_positive = partial(_real, low=0.0)
TASKS = {
    "validate": (_task_validate, {"T": (1.0, _positive)}),
    "spectral": (_task_spectral, {}),
    "rate": (_task_rate, {"mu": (None, _vector)}),
    "averaging": (_task_averaging, {"n_grid": (1025, partial(_count, least=2))}),
    "hk-verify": (_task_hk_verify, {"v1": (None, _vector), "v2": (None, _vector),
                                    "tol": (1e-10, _positive)}),
    "hk-invert": (_task_hk_invert, {"rho_target": (None, _vector), "v_star": (None, _vector),
                                    "tol": (1e-8, _positive),
                                    "max_iter": (500, partial(_count, least=1))}),
    "ihk": (_task_ihk, {"rho": (None, _vector)}),
    "mc": (_task_mc, {"t": (50.0, _real), "paths": (1000, partial(_count, least=2)),
                      "seed": (None, partial(_count, least=0))}),
}


def _read_options(sc: Scenario, name: str, options: dict) -> dict:
    """A task's options as its runner takes them: each read by its reader,
    defaults filled in, and the rules that tie options together checked."""
    table = TASKS[name][1]
    unknown = set(options) - set(table)
    _require(not unknown, f"unknown options for task '{name}'",
             key=",".join(sorted(unknown)))
    opts = {}
    for key, (default, reader) in table.items():
        value = options.get(key, default)
        opts[key] = None if value is None and default is None else reader(value, key)
    _require(name != "averaging" or sc.t_grid, "averaging needs a t_grid", key="t_grid")
    _require(name != "hk-verify" or opts["v2"] is not None,
             "hk-verify needs option v2", key="v2")
    _require(name != "hk-invert" or opts["rho_target"] is not None
             or opts["v_star"] is not None, "hk-invert needs rho_target or v_star",
             key="rho_target")
    return opts


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
    """Execute the scenario's tasks; returns (report, all_ok).  Every
    task's options are read first: ConfigError before any task runs."""
    tasks = [(name, _read_options(sc, name, options)) for name, options in sc.tasks]
    report = {"name": sc.name, "version": __version__,
              "config": sc.raw, "tasks": [], "timings": {}}
    ok = True
    total0 = time.perf_counter()
    for name, opts in tasks:
        t0 = time.perf_counter()
        section = {"task": name}
        try:
            section["status"] = "ok"
            section["result"] = TASKS[name][0](sc, opts)
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

    for name in ("spectral", "rate", "hk-verify", "hk-invert", "ihk", "mc"):
        p = sub.add_parser(name, help=f"run only the {name} task")
        p.add_argument("scenario")
        p.add_argument("-o", "--out", default=None)
        for flag, kind in _MC_FLAGS.items() if name == "mc" else ():
            p.add_argument(f"--{flag}", type=kind, default=None)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("DV_SEMIGROUP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command != "run":
            flags = {key: getattr(args, key) for key in _MC_FLAGS
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
