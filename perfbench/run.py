"""Benchmark of the SolarCore reproduction: one command, four workloads.

    python3 perfbench/run.py --workload <grid-table|slice-exact|service|cli-cold>
        --seed N --seconds S --trace <0|1>

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: End-to-end metrics and their units (every workload reports all).
END_TO_END = {
    "setup_s": "s",
    "days_per_s": "day/s",
    "peak_rss_mb": "MB",
    "table_err_rel": "1",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "job/s",
    "recovery_s": "s",
    "cli_p50_s": "s",
}

WORKLOADS = {
    "grid-table": "wl_grid",
    "slice-exact": "wl_slice",
    "service": "wl_service",
    "cli-cold": "wl_cli",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.require_repro()
        common.warm_surfaces()
    except (common.SetupError, ImportError) as exc:
        print(f"error: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2

    import importlib

    import layers

    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        out = module.run(args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 — any crash is a failed run, not a result
        traceback.print_exc()
        return 1
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = layers.report(out["metrics"])
    else:
        metrics = {
            name: {"value": out["metrics"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(json.dumps({
        "correct": not out["problems"],
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
