"""The benchmark tracer's layer names against the package.

perfbench/tracer.py wraps library functions by module and name, and its
`install` raises when one of them is gone, so a removed or renamed layer
fails here and not only in a traced benchmark run.  The tracer runs in a
subprocess, which keeps its wrappers out of this test session.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
import tracer
from dvsemigroup import cli

tr = tracer.Tracer()
tracer.install(tr)
out, scenarios = sys.argv[1], sys.argv[2:]
codes = [cli.main(["run", path, "-o", out]) for path in scenarios]
calls = {name: row[0] for name, row in tr.self_times().items()}
print(json.dumps({"codes": codes, "calls": calls,
                  "metrics": sorted(tracer.layer_metrics(tr, 0.0))}))
"""


def test_tracer_installs_and_traces_the_demos(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    demos = [str(ROOT / "scenarios" / name)
             for name in ("two_state_demo.json", "pair_interaction_demo.json")]
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path / "report.json"),
                           *demos], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    # the layers of the rate and Hohenberg-Kohn paths that the demos reach
    assert {"rate_function.rate_I", "rate_function.dv_sup", "rate_function.newton",
            "rate_function.rate_parts", "rate_function.hessian",
            "hohenberg_kohn.invert_potential",
            "hohenberg_kohn.reduced_functional"} <= set(result["calls"])
    assert "pass.unaccounted_s" in result["metrics"]
    # every inner rate solve serves rate_I or one _rate_parts point, of
    # which the simplex Newton run makes one per point: 6 = 5 + 1 solves
    # here, where solving each point again made 21 against 12 + 1
    calls = result["calls"]
    assert calls["rate_function.newton"] == (calls["rate_function.rate_parts"]
                                             + calls["rate_function.rate_I"])
    # the rate task's ascent starts at the certified equilibrium measure
    # and takes no Newton step; the Hess I solves left are the pair demo's
    # reduced_functional run, where the ascent from the uniform measure
    # made 9
    assert calls["rate_function.hessian"] <= 4
