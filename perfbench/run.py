"""Ticket-serving benchmark: one workload per process.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload sessions-closed --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that gives the per-layer numbers. Each metric is
printed with its unit, the run is written as a
``watchit-experiment-report/v1`` document under ``perfbench/results/``
(``repro history --db X --import 'perfbench/results/*.json'`` loads it),
and the last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: a run that has not ended by now is stuck: dump the stacks and exit 1
WATCHDOG_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_tps": "tickets/s",
    "success_ratio": "ratio",
    "class_accuracy": "ratio",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.startswith("self_ms."):
        return "ms"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_per_ticket") or name.endswith("_per_trail"):
        return "count/ticket"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {root / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    out = harness.run(workload, args.seed, args.seconds, bool(args.trace),
                      root, results_dir)
    ledger = out["ledger"]
    e2e = dict(out["e2e"])
    e2e["success_ratio"] = 1.0 - ledger.failed / ledger.attempted
    if args.trace:
        values = out["layers"]
        metrics = {name: {"value": values[name], "unit": layer_unit(name)}
                   for name in harness.per_layer_names()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    report = harness.write_report(
        out, workload, args.seed, args.seconds, bool(args.trace),
        {name: m["value"] for name, m in metrics.items()}, results_dir)

    print(f"workload {workload.name} ({workload.loop} loop"
          + (f", {workload.rate:g} tickets/s offered" if workload.rate
             else f", {out['clients']} clients") + f"), seed {args.seed}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.4f} {m['unit']}")
    print(f"  attempted {ledger.attempted}, failed {ledger.failed}"
          + (f" {ledger.failures}" if ledger.failures else "")
          + f", latency samples {out['samples']['latency']}")
    print(f"  report {report.relative_to(root)}")
    faulthandler.cancel_dump_traceback_later()
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
