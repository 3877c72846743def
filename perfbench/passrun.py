"""One benchmark pass, run in a fresh process by run.py.

    python3 passrun.py MANIFEST OUTDIR SPAWN_TIME TRACE

MANIFEST is a JSON list of scenario paths.  The pass drives the CLI's own
entry points the way `dvsemigroup run a.json b.json ... --jobs 1` does,
one scenario at a time on the calling thread:
load_scenario -> run_scenario -> write_report.  It writes OUTDIR/pass.json
with its timings; reports go to OUTDIR/<i>.report.json.

A fresh process per pass matters: semigroup._EXPM_CACHE is process-global,
so a second pass in the same process would be served from the cache.

SPAWN_TIME is time.monotonic() in the parent just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s includes
interpreter start-up and `import dvsemigroup`.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    manifest, outdir, spawn, trace = argv[0], argv[1], float(argv[2]), argv[3] == "1"
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))

    from dvsemigroup import cli
    from dvsemigroup.errors import ConfigError
    imported = time.monotonic()

    with open(manifest) as fh:
        paths = json.load(fh)

    tracer = None
    if trace:
        sys.path.insert(0, here)
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    load_s = 0.0
    reports = []
    t0 = time.monotonic()
    for i, path in enumerate(paths):
        t = time.monotonic()
        try:
            sc = cli.load_scenario(path)
            load_s += time.monotonic() - t
            report, _ = cli.run_scenario(sc)
        except ConfigError as exc:         # the checker fails all its tasks
            reports.append({"config_error": str(exc)})
            continue
        out = os.path.join(outdir, f"{i}.report.json")
        cli.write_report(report, out)
        reports.append({"report": out})
    pass_s = time.monotonic() - t0

    result = {
        "setup_s": (imported - spawn) + load_s,
        "pass_s": pass_s,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "reports": reports,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, pass_s)
    with open(os.path.join(outdir, "pass.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
