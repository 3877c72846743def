"""Output checker: every task of a report is judged against the references.

Each task ends as one of three outcomes:

    "ok"      the task succeeded and its numbers agree with the reference;
    "failed"  the task reported an error (ConvergenceFailure, NotConverged,
              ...) or said itself that it did not converge;
    "wrong"   the task claimed success but its numbers disagree.

Both "failed" and "wrong" count as failures; only "wrong" makes a run
incorrect.  Tolerances are the ones the acceptance suite pins.
"""

from __future__ import annotations

import math

LAMBDA_REL = 1e-9        # lambda vs reference, times max(1, max|M|)
DUAL_ABS = 1e-8          # lambda_dual vs lambda (criterion 1)
EQUILIBRIUM_ABS = 1e-8   # I^V at the equilibrium measure (criterion 3)
INVERT_ABS = 1e-4        # hk-invert round trip (criterion 8)
REDUCED_ABS = 1e-4       # rho(v) - I_HK(rho) vs lambda (criterion 9)
MC_SIGMAS = 3.0          # mc: 3 (stderr + 0.05 / t) (criterion 11)
MASS_ABS = 1e-9


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def _lambda_ok(lam, expect) -> bool:
    return _finite(lam) and abs(lam - expect["lambda"]) <= LAMBDA_REL * expect["scale"]


def _measure_ok(weights, size) -> bool:
    return (len(weights) == size and _finite(*weights) and min(weights) > 0
            and abs(sum(weights) - 1.0) <= MASS_ABS)


def _validate(r, e):
    size = e["d"] ** e["N"]
    return (r["d"] == e["d"] and r["N"] == e["N"] and r["product_states"] == size
            and r["condition_B"] is True and r["condition_D"] is True
            and _finite(r["epsilon_A"]) and 0.0 < r["epsilon_A"] <= 1.0)


def _spectral(r, e):
    size = e["d"] ** e["N"]
    return (_lambda_ok(r["lambda"], e) and _measure_ok(r["pi"], size)
            and _measure_ok(r["mu"], size) and len(r["psi"]) == size
            and min(r["psi"]) > 0)


def _rate(r, e):
    return (_finite(r["I"], r["IV"], r["lambda_dual"]) and r["I"] >= 0.0
            and abs(r["lambda_dual"] - e["lambda"]) <= DUAL_ABS
            and abs(r["IV"]) <= EQUILIBRIUM_ABS
            and _measure_ok(r["mu_star"], e["d"]))


def _averaging(r, e):
    rows = r["ladder"]
    return (_finite(r["log_growth_bound"]) and r["log_growth_bound"] >= 0.0
            and len(rows) == len(e["t_grid"])
            and all(_finite(x["tv_average"], x["tv_evolved"], x["entropy_average"],
                            x["entropy_evolved"])
                    and 0.0 <= x["tv_average"] <= 1.0 and 0.0 <= x["tv_evolved"] <= 1.0
                    and x["entropy_average"] >= 0.0 and x["entropy_evolved"] >= 0.0
                    for x in rows))


def _hk_verify(r, e):
    return _lambda_ok(r["lambdas"][0], e) and r["conclusion"] != "violation"


def _hk_invert(r, e):
    if r["converged"] is not True:
        return None
    star = e["v_star"]
    mean = sum(star) / len(star)
    got = r["v_recovered"]
    return (len(got) == len(star) and _finite(*got)
            and max(abs(g - (s - mean)) for g, s in zip(got, star)) <= INVERT_ABS)


def _ihk(r, e):
    rho, value = r["rho"], r["I_HK"]
    if not _finite(value, *rho) or len(rho) != e["d"]:
        return False
    dual = sum(p * v for p, v in zip(rho, e["v"])) - value
    return abs(dual - e["lambda"]) <= REDUCED_ABS


def _mc(r, e):
    if not _finite(r["lambda_mc"], r["stderr"]):
        return False
    band = MC_SIGMAS * (r["stderr"] + 0.05 / r["t"])
    return abs(r["lambda_mc"] - e["lambda"]) <= band and _lambda_ok(r["lambda_spectral"], e)


CHECKS = {
    "validate": _validate,
    "spectral": _spectral,
    "rate": _rate,
    "averaging": _averaging,
    "hk-verify": _hk_verify,
    "hk-invert": _hk_invert,
    "ihk": _ihk,
    "mc": _mc,
}


def check_report(report: dict | None, expect: dict) -> list[tuple[str, str]]:
    """[(task name, outcome)] for every task the scenario lists.

    A missing report (the scenario was rejected) fails all its tasks.
    """
    if report is None:
        return [(name, "failed") for name in expect["tasks"]]
    sections = report.get("tasks", [])
    out = []
    for i, name in enumerate(expect["tasks"]):
        section = sections[i] if i < len(sections) else None
        if section is None or section.get("task") != name or section.get("status") != "ok":
            out.append((name, "failed"))
            continue
        try:
            verdict = CHECKS[name](section["result"], expect)
        except (KeyError, TypeError, IndexError, ValueError):
            verdict = False
        out.append((name, "ok" if verdict else "failed" if verdict is None else "wrong"))
    return out
