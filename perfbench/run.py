"""Outside-in benchmark of the dvsemigroup CLI.

    python3 perfbench/run.py --workload single-chain --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The benchmark writes the
workload's scenario files from --seed, then runs passes for --seconds:
each pass is a fresh process that loads, runs and reports every scenario
of the workload through the CLI's entry points (passrun.py).  The load is
a closed loop with one client: the next pass starts when the previous one
has ended.  After each pass every task's output is checked against
references computed here (check.py).

With --trace 0 the last line of stdout reports the end-to-end metrics;
with --trace 1 untraced and traced passes alternate and it reports the
per-layer metrics of the traced ones (tracer.py).  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

STARTED = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

# One BLAS thread for this process and every pass it starts.  With a
# thread per core, BLAS threads spin-wait on each other, and any other
# load on the machine then slows a pass several-fold (a product-hk pass
# went from 15 s to 80 s beside one other busy process).  Set before
# numpy is imported; machine_info() records the count in effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

RUN_LIMIT_S = 170.0   # a run must end within 180 s of its start


def machine_info() -> dict:
    """CPU count, Python, numpy, and numpy's OpenBLAS build with its thread count."""
    import numpy as np
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    lib = ctypes.CDLL(libs[0]) if libs else None   # numpy loaded it: same handle
    if hasattr(lib, "scipy_openblas_get_config64_"):
        lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        info["blas"] = lib.scipy_openblas_get_config64_().decode()
        info["blas_threads"] = lib.scipy_openblas_get_num_threads64_()
    return info


def tail(values: list[float]) -> tuple[float, int]:
    """(p90, samples beyond it), interpolating between order statistics.

    The highest percentile with ten samples beyond it needs 21 samples
    before it even reaches the median, and these runs hold 2 to 20
    passes; a fixed percentile also stays comparable when a faster
    program fits more passes into the run.
    """
    if len(values) == 1:
        return values[0], 0
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return p90, sum(x > p90 for x in values)


def run_pass(manifest: str, outdir: str, trace: bool, deadline: float) -> dict:
    """Run one pass in a fresh process and return what it wrote."""
    os.makedirs(outdir)
    spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "passrun.py"), manifest,
                             outdir, repr(spawn), "1" if trace else "0"],
                            stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("a pass did not finish in time") from None
    finally:
        if proc.poll() is None:       # timed out, or this process is stopping
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"a pass exited with code {code}")
    with open(os.path.join(outdir, "pass.json")) as fh:
        return json.load(fh)


def check_pass(result: dict, items: list[dict]) -> dict[str, int]:
    from check import check_report
    tally = {"attempted": 0, "failed": 0, "wrong": 0}
    for i, item in enumerate(items):
        report = None
        if "report" in result["reports"][i]:
            with open(result["reports"][i]["report"]) as fh:
                report = json.load(fh)
        for _, outcome in check_report(report, item["expect"]):
            tally["attempted"] += 1
            tally["failed"] += outcome != "ok"
            tally["wrong"] += outcome == "wrong"
    return tally


def measure(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    from workloads import generate
    t = time.monotonic()
    items = generate(workload, seed, os.path.join(work, "scenarios"),
                     os.path.join(ROOT, "scenarios"))
    manifest = os.path.join(work, "manifest.json")
    with open(manifest, "w") as fh:
        json.dump([item["path"] for item in items], fh)
    print(f"# {workload} seed {seed}: {len(items)} scenarios, "
          f"{sum(len(i['expect']['tasks']) for i in items)} tasks, "
          f"inputs and references in {time.monotonic() - t:.1f} s")

    deadline = STARTED + RUN_LIMIT_S
    plain, traced = [], []
    totals = {"attempted": 0, "failed": 0, "wrong": 0}
    k = 0
    measured = 0.0
    while (measured < seconds or not plain or (trace and not traced)) \
            and time.monotonic() < deadline:
        tracing = trace and k % 2 == 1
        outdir = os.path.join(work, f"pass-{k}")
        t = time.monotonic()
        result = run_pass(manifest, outdir, tracing, deadline)
        measured += time.monotonic() - t
        for key, n in check_pass(result, items).items():
            totals[key] += n
        shutil.rmtree(outdir)
        (traced if tracing else plain).append(result)
        k += 1
    return {"plain": plain, "traced": traced, **totals}


def end_to_end(m: dict) -> dict[str, tuple[float, str]]:
    times = [p["pass_s"] for p in m["plain"]]
    value, beyond = tail(times)
    print(f"# pass_s.tail is the p90 of {len(times)} passes "
          f"({beyond} samples beyond it)")
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in m["plain"]), "s"),
        "pass_s": (statistics.median(times), "s"),
        "pass_s.tail": (value, "s"),
        "ok_frac": ((m["attempted"] - m["failed"]) / m["attempted"], "ratio"),
        "peak_rss_bytes": (statistics.median(p["peak_rss_bytes"] for p in m["plain"]),
                           "bytes"),
    }


UNITS = {"self_s": "s", "total_s": "s", "unaccounted_s": "s", "counters_s": "s",
         "calls": "count", "iterations": "count", "failures": "count",
         "repeat_frac": "ratio", "overhead_frac": "ratio", "gflop_computed": "GFLOP",
         "bytes": "bytes", "bytes_computed": "bytes", "paths_per_s": "1/s"}


def per_layer(m: dict) -> dict[str, tuple[float, str]]:
    names = m["traced"][0]["layers"]
    out = {name: (statistics.median(p["layers"][name] for p in m["traced"]),
                  UNITS[name.rsplit(".", 1)[1]]) for name in names}
    plain = statistics.median(p["pass_s"] for p in m["plain"])
    traced = statistics.median(p["pass_s"] for p in m["traced"])
    out["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
    print(f"# traced passes: {len(m['traced'])}, untraced: {len(m['plain'])}")
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in (os.path.join(ROOT, "src", "dvsemigroup", "cli.py"),
                 os.path.join(ROOT, "scenarios", "two_state_demo.json"),
                 os.path.join(ROOT, "scenarios", "pair_interaction_demo.json")):
        if not os.path.isfile(need):
            print(f"error: {need} is missing; run from the root of a dvsemigroup "
                  "source checkout", file=sys.stderr)
            return 2

    # SIGTERM unwinds like an exception, so the running pass is killed and
    # the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    info = machine_info()
    print("# machine: " + json.dumps(info, sort_keys=True))
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, "_work"))
        except OSError:
            pass

    metrics = per_layer(m) if args.trace else end_to_end(m)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:16.6g} {unit}")
    print(f"# tasks attempted {m['attempted']}, failed {m['failed']} "
          f"(wrong answers {m['wrong']})")
    print(json.dumps({
        "correct": m["wrong"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
