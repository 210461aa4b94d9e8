"""The chevnet benchmark: one workload, measured from outside, checked.

    python3 perfbench/run.py --workload ambient_bfs --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The workload's scenarios are
generated from the seed (`workloads.py`) and written under
`perfbench/out/`; a fresh process (`worker.py`) sets up chevnet from
`src/` and runs every check of every scenario.  Every report is checked
by the closed-form oracle (`oracle.py`).  The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (`setup_s`,
`verify_s`, `peak_rss_mb`); with `--trace 1` they are the per-layer ones
of `tracer.py`.  An operation is one check of one scenario; it fails
unless its status is `pass`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent

# a run must end within 180 s; leave room to stop the worker and report
WORKER_TIMEOUT_S = 170


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "chevnet" / "__init__.py").is_file():
        print(f"error: no chevnet sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2

    specs = workloads.scenarios(args.workload, args.seed)
    workdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "workload.json").write_text(json.dumps({"scenarios": specs}, indent=1))

    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "worker.py"), str(workdir), str(args.seconds),
           str(args.trace)]
    # a terminated benchmark stops its worker too (see the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    t0 = time.time()
    proc = subprocess.Popen(cmd, env=env, cwd=root)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        print(f"error: worker exited with code {code}", file=sys.stderr)
        return 1
    res = json.loads((workdir / "result.json").read_text())

    problems = []
    attempted = failed = 0
    for reports in res["reports"]:
        if len(reports) != len(specs):
            problems.append(f"{len(reports)} reports for {len(specs)} scenarios")
        for spec, rep in zip(specs, reports):
            problems += oracle.check_report(spec, rep)
            for chk in rep["checks"]:
                attempted += 1
                failed += chk["status"] != "pass"
    for p in sorted(set(problems)):
        print(f"oracle: {p}", file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
        for name in res["absent"]:
            print(f"trace: {name} not found; its metrics are absent", file=sys.stderr)
        print(f"trace: spans in {workdir / 'spans.json'}")
    else:
        metrics = {
            "setup_s": {"value": res["setup_done"] - t0, "unit": "s"},
            "verify_s": {"value": statistics.median(res["rounds"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"rounds: {len(res['rounds'])}, verify_s each: "
              + ", ".join(f"{r:.3f}" for r in res["rounds"]))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
