"""The benchmark's own output checker, run over its seed-41 scenarios.

The benchmark pass drives load_scenario -> run_scenario -> write_report
and rates every task against its references; running the same chain here
catches a wrong answer before a benchmark run does.
"""

import json
import os
import sys
from collections import Counter

from dvsemigroup.cli import TASKS, load_scenario, run_scenario, write_report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import check  # noqa: E402
import workloads  # noqa: E402


def test_checker_rates_every_task_ok(tmp_path):
    rated = []
    for workload in ("product-hk", "mc-rate"):
        items = workloads.generate(workload, 41, str(tmp_path / workload),
                                   os.path.join(ROOT, "scenarios"))
        for i, item in enumerate(items):
            out = str(tmp_path / workload / f"{i}.report.json")
            write_report(run_scenario(load_scenario(item["path"]))[0], out)
            with open(out) as fh:
                report = json.load(fh)
            rated += [(workload, name, outcome)
                      for name, outcome in check.check_report(report, item["expect"])]
    assert [r for r in rated if r[2] != "ok"] == []
    assert Counter(workload for workload, _, _ in rated) == {"product-hk": 16, "mc-rate": 12}
    assert {name for _, name, _ in rated} == set(TASKS)
