"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-cameras --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The report goes to standard
output, one ``name = value unit`` line per metric, and the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  A record of the run (machine,
Spark settings, checks, every metric) and, for a traced run, its spans
are written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("paper-cameras", "live-feed")


def machine_record() -> dict:
    record = {
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        import pyspark

        record["pyspark"] = pyspark.__version__
    except ImportError:
        record["pyspark"] = None
    try:
        record["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        record["commit"] = "unknown (not a git checkout)"
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring budget, spent in whole rounds of the workload's legs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    # The Spark workers are started by the JVM and import the program
    # and the jobs package from the same checkout.
    sys.path[:0] = [SRC, ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, ROOT, os.environ.get("PYTHONPATH")) if p
    )

    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS, Run

    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    run = Run(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        tracer=Tracer() if args.trace else None, out_dir=out_dir,
    )
    t0 = time.perf_counter()
    try:
        WORKLOADS[args.workload](run)
    except Exception:
        run.op(False)
        run.error(f"workload {args.workload}")

    if args.trace:
        run.layer["failed_share"] = (run.failed + run.probe_failures) / max(
            run.attempted + run.probes, 1
        )
        run.layer["trace.spans"] = len(run.tracer.start)
        values, wanted = run.layer, spec["per_layer"]
    else:
        values, wanted = run.e2e, spec["end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "wall_s": time.perf_counter() - t0, "machine": machine_record(),
        "attempted": run.attempted, "failed": run.failed,
        "probes": run.probes, "probe_failures": run.probe_failures,
        "checks": run.checks, "errors": run.errors, "info": run.info,
        "end_to_end": run.e2e, "per_layer": dict(run.layer), "report": run.report,
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if run.tracer is not None:
        run.tracer.write(os.path.join(out_dir, f"{tag}-spans.npz"))

    for line in run.report:
        print(line)
    for c in run.checks:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['check']} {c['detail']}".rstrip())
    for e in run.errors:
        print(f"error {e}", file=sys.stderr)
    print(f"known-defect probes: {run.probe_failures}/{run.probes} failed")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
