"""One benchmark run in a fresh process: set up, run the checks, record.

    python3 perfbench/worker.py <workdir> <seconds> <trace 0|1>

`run.py` starts this with `src/` on PYTHONPATH and reads
`<workdir>/result.json` when it exits.  Set-up ends when chevnet is
imported and every scenario of `<workdir>/workload.json` is parsed and
built: ring tables, net closure and structure constants.  Structure
constants are cached per root system, so building them here keeps every
round doing the same work.  A round runs every check of every scenario
once, through `verify.run_scenario`.

- trace 0: rounds repeat until `seconds` have passed (at least one).
- trace 1: one traced round, then one untraced round; the difference in
  round time is the tracing overhead.  The traced round runs first so
  that each check's rise in peak RSS is seen in a fresh process.
"""

import json
import resource
import sys
import time


def one_round(verify, scenarios):
    t = time.perf_counter()
    reports = [verify.run_scenario(scn) for scn in scenarios]
    return time.perf_counter() - t, reports


def main(workdir: str, seconds: float, trace: bool):
    from chevnet import chevalg, verify

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    scenarios = [verify.Scenario(raw)
                 for raw in verify.load_config(f"{workdir}/workload.json")]
    for scn in scenarios:
        chevalg.compute_structure_constants(scn.rs)
    result = {"setup_done": time.time(), "rounds": [], "reports": []}

    if trace:
        traced_s, reports = one_round(verify, scenarios)
        tracer.uninstall()
        untraced_s, reports2 = one_round(verify, scenarios)
        result["rounds"] = [untraced_s]
        result["reports"] = [reports, reports2]
        layers = tracer.metrics()
        layers["trace.overhead_s"] = (traced_s - untraced_s, "s")
        result["layers"] = layers
        result["absent"] = tracer.absent
        tracer.write_spans(f"{workdir}/spans.json")
    else:
        start = time.perf_counter()
        while not result["rounds"] or time.perf_counter() - start < seconds:
            dt, reports = one_round(verify, scenarios)
            result["rounds"].append(dt)
            result["reports"].append(reports)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"{workdir}/result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1")
