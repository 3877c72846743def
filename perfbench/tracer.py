"""Outside-in tracer: spans around the library's layer entry points.

The tracer wraps chosen functions of the installed `dvsemigroup` modules
from outside; the library itself is not edited.  Each call records a span
(name, start, end, parent span) in plain lists kept in memory, and the
pass writes a summary at its end.  A span's self time is its duration
minus the durations of its direct children.  Spans nest strictly because
a pass runs on one thread.

A wrapped function is rebound in every `dvsemigroup.*` namespace that
holds it, since modules from-import each other's functions: `spectral`
calls `expm` and `cli` calls `principal_eigen` through their own names.
`cli.sanitize` is recursive (hundreds of thousands of calls per pass) and
is deliberately not wrapped; the report layer is derived from the CLI's
own `timings` instead (see `layer_metrics`).

Derived counters are computed in hooks that run before or after the
measured call, inside a span named `trace.counters`, so their cost shows
as tracer time rather than as the caller's self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

COUNTERS = "trace.counters"


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, a.dtype.str)).encode())
        h.update(memoryview(a).cast("B"))
    return h.digest()


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.failures: dict[str, int] = defaultdict(int)
        self._seen: dict[str, set] = defaultdict(set)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, before=None, after=None):
        """fn inside a span; before(args, kwargs) -> state, after(state, args, kwargs, result)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                j = tracer._open(COUNTERS)
                state = before(args, kwargs)
                tracer._close(j)
            i = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(i)
                tracer.failures[name] += 1
                raise
            tracer._close(i)
            if after is not None:
                j = tracer._open(COUNTERS)
                after(state, args, kwargs, result)
                tracer._close(j)
            return result

        return traced

    def rebind(self, package: str, module: str, attr: str, name: str,
               before=None, after=None) -> int:
        """Wrap package.module.attr and rebind it wherever the package holds it."""
        orig = getattr(importlib.import_module(f"{package}.{module}"), attr)
        traced = self.wrap(orig, name, before, after)
        rebound = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)
                    rebound += 1
        return rebound

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[str, list[float]]:
        """name -> [calls, total seconds, self seconds].

        Total counts a span only when no ancestor has the same name, so a
        recursive layer is not counted twice.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            row = out[self.names[i]]
            row[0] += 1
            row[2] += dur[i] - child[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != self.names[i]:
                p = self.parents[p]
            if p < 0:
                row[1] += dur[i]
        return dict(out)

    # -- counters ----------------------------------------------------------

    def repeat(self, layer: str, key: bytes) -> None:
        """Count a call whose hashed arguments were already seen in this pass."""
        seen = self._seen[layer]
        if key in seen:
            self.counts[layer + ".repeats"] += 1
        seen.add(key)


def install(tracer: Tracer, package: str = "dvsemigroup") -> None:
    """Wrap every traced layer of the package and attach its counters."""
    semigroup = importlib.import_module(f"{package}.semigroup")
    c = tracer.counts

    def rebind(module, attr, name, before=None, after=None):
        if tracer.rebind(package, module, attr, name, before, after) == 0:
            raise RuntimeError(f"{package}.{module}.{attr} was not rebound")

    # cli: the report layer is run_scenario minus its task timings plus
    # write_report; the task timings come from the report itself
    def after_run(state, args, kwargs, result):
        timings = result[0].get("timings", {})
        c["cli.task_s"] += sum(v for k, v in timings.items() if k != "total")

    def after_write(state, args, kwargs, result):
        out = args[1] if len(args) > 1 else kwargs.get("out_path")
        if out is not None:
            c["cli.report.bytes"] += os.path.getsize(out)

    rebind("cli", "load_scenario", "cli.load_scenario")
    rebind("cli", "run_scenario", "cli.run_scenario", after=after_run)
    rebind("cli", "write_report", "cli.write_report", after=after_write)

    rebind("generator", "validate_generator", "generator.validate_generator")
    rebind("generator", "check_condition_A", "generator.checks")
    rebind("generator", "check_condition_D", "generator.checks")

    # expm: a call is served from the process-global cache when it returns
    # an array that was cached before the call; only the other calls
    # compute.  Computed flops: 6 products of the [13/13] approximant plus
    # s squarings at 2 d^3 each, and the LU solve with d right-hand sides
    # (8/3 d^3), s being the squaring count expm derives from the input's
    # infinity norm.
    def before_expm(args, kwargs):
        cache = getattr(semigroup, "_EXPM_CACHE", None)
        return {id(v) for v in cache.values()} if cache else set()

    def after_expm(cached_ids, args, kwargs, result):
        A = np.asarray(args[0] if args else kwargs["A"], dtype=float)
        tracer.repeat("semigroup.expm", _digest(A))
        if id(result) in cached_ids:
            return
        d = A.shape[0]
        norm = float(np.abs(A).sum(axis=1).max()) if d else 0.0
        s = int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0
        c["semigroup.expm.flop_computed"] += (2.0 * (6 + s) + 8.0 / 3.0) * d ** 3

    rebind("semigroup", "expm", "semigroup.expm", before_expm, after_expm)
    rebind("semigroup", "growth_bound", "semigroup.growth_bound")

    def after_eigen(state, args, kwargs, result):
        Q = args[0] if args else kwargs["Q"]
        V = args[1] if len(args) > 1 else kwargs["V"]
        V = V.values if hasattr(V, "values") else np.asarray(V, dtype=float)
        tracer.repeat("spectral.principal_eigen", _digest(Q.rates, V))

    rebind("spectral", "principal_eigen", "spectral.principal_eigen", after=after_eigen)
    rebind("spectral", "ground_measure_by_averaging", "spectral.ground_measure")
    rebind("spectral", "ground_measure_by_evolution", "spectral.ground_measure")

    def after_rate(state, args, kwargs, result):
        c["rate_function.rate_I.iterations"] += result.iterations

    rebind("rate_function", "rate_I", "rate_function.rate_I", after=after_rate)
    rebind("rate_function", "dv_sup", "rate_function.dv_sup")
    rebind("rate_function", "_newton_min", "rate_function.newton")
    rebind("rate_function", "_rate_parts", "rate_function.rate_parts")
    rebind("rate_function", "hessian_of_rate", "rate_function.hessian")

    # kronecker_sum allocates, per particle, eye(d^i), eye(d^(N-1-i)),
    # kron(eye, Q1) and the full-size term, plus the full-size accumulator
    def after_kron(state, args, kwargs, result):
        d, N = result.d, result.N
        size2 = float(result.size) ** 2
        per = sum(d ** (2 * i) + d ** (2 * (N - 1 - i)) + d ** (2 * (i + 1)) + size2
                  for i in range(N))
        c["multiparticle.kronecker_sum.bytes_computed"] += 8.0 * (per + size2)

    rebind("multiparticle", "kronecker_sum", "multiparticle.kronecker_sum", after=after_kron)
    rebind("multiparticle", "symmetrize_measure", "multiparticle.symmetrize_measure")

    def after_invert(state, args, kwargs, result):
        c["hohenberg_kohn.invert_potential.iterations"] += result.iterations

    rebind("hohenberg_kohn", "equilibrium_marginal", "hohenberg_kohn.equilibrium_marginal")
    rebind("hohenberg_kohn", "invert_potential", "hohenberg_kohn.invert_potential",
           after=after_invert)
    rebind("hohenberg_kohn", "reduced_functional", "hohenberg_kohn.reduced_functional")

    def after_mc(state, args, kwargs, result):
        c["feynman_kac.paths"] += args[3] if len(args) > 3 else kwargs["n_paths"]

    rebind("feynman_kac", "estimate_lambda", "feynman_kac.estimate_lambda", after=after_mc)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pass_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    cli.report.self_s is run_scenario's wall time minus the task time the
    CLI records in `timings`, plus write_report: sanitizing, the config
    echo and serialization.  pass.unaccounted_s is what remains of the
    pass once every layer's self time (and the tracer's own counter time)
    is taken out: glue in the CLI's task runners that calls no traced
    layer.
    """
    st = tracer.self_times()
    c = tracer.counts

    def calls(n):
        return st.get(n, [0, 0.0, 0.0])[0]

    def total(n):
        return st.get(n, [0, 0.0, 0.0])[1]

    def self_s(n):
        return st.get(n, [0, 0.0, 0.0])[2]

    report_s = total("cli.run_scenario") - c["cli.task_s"] + total("cli.write_report")
    accounted = report_s + sum(row[2] for name, row in st.items()
                               if name not in ("cli.run_scenario", "cli.write_report"))
    mc_s = total("feynman_kac.estimate_lambda")
    return {
        "cli.load_scenario.self_s": self_s("cli.load_scenario"),
        "cli.report.self_s": report_s,
        "cli.report.bytes": c["cli.report.bytes"],
        "generator.validate_generator.self_s": self_s("generator.validate_generator"),
        "generator.checks.self_s": self_s("generator.checks"),
        "semigroup.expm.calls": calls("semigroup.expm"),
        "semigroup.expm.self_s": self_s("semigroup.expm"),
        "semigroup.expm.repeat_frac": _ratio(c["semigroup.expm.repeats"],
                                             calls("semigroup.expm")),
        "semigroup.expm.gflop_computed": c["semigroup.expm.flop_computed"] / 1e9,
        "semigroup.growth_bound.total_s": total("semigroup.growth_bound"),
        "spectral.principal_eigen.calls": calls("spectral.principal_eigen"),
        "spectral.principal_eigen.self_s": self_s("spectral.principal_eigen"),
        "spectral.principal_eigen.repeat_frac": _ratio(
            c["spectral.principal_eigen.repeats"], calls("spectral.principal_eigen")),
        "spectral.principal_eigen.failures": tracer.failures["spectral.principal_eigen"],
        "spectral.ground_measure.total_s": total("spectral.ground_measure"),
        "rate_function.rate_I.iterations": c["rate_function.rate_I.iterations"],
        "rate_function.dv_sup.self_s": self_s("rate_function.dv_sup"),
        "rate_function.newton.calls": calls("rate_function.newton"),
        "rate_function.newton.self_s": self_s("rate_function.newton"),
        "rate_function.rate_parts.self_s": self_s("rate_function.rate_parts"),
        "rate_function.hessian.self_s": self_s("rate_function.hessian"),
        "multiparticle.kronecker_sum.self_s": self_s("multiparticle.kronecker_sum"),
        "multiparticle.kronecker_sum.bytes_computed":
            c["multiparticle.kronecker_sum.bytes_computed"],
        "multiparticle.symmetrize_measure.self_s": self_s("multiparticle.symmetrize_measure"),
        "hohenberg_kohn.invert_potential.total_s": total("hohenberg_kohn.invert_potential"),
        "hohenberg_kohn.invert_potential.iterations":
            c["hohenberg_kohn.invert_potential.iterations"],
        "hohenberg_kohn.reduced_functional.calls": calls("hohenberg_kohn.reduced_functional"),
        "hohenberg_kohn.reduced_functional.self_s": self_s("hohenberg_kohn.reduced_functional"),
        "hohenberg_kohn.equilibrium_marginal.calls":
            calls("hohenberg_kohn.equilibrium_marginal"),
        "feynman_kac.estimate_lambda.self_s": self_s("feynman_kac.estimate_lambda"),
        "feynman_kac.estimate_lambda.paths_per_s": _ratio(c["feynman_kac.paths"], mc_s),
        "trace.counters_s": self_s(COUNTERS),
        "pass.unaccounted_s": pass_s - accounted,
    }
