"""Fresh-process helpers the benchmark launches as children.

    python3 perfbench/probe.py setup <grid|cli> [--trace FILE]
        Time ``import repro.cli``, load the operating surfaces from .npz
        and (``grid``) run one 2-worker harness wave; print one JSON line
        when ready.  The parent times spawn -> that line as ``setup_s``.

    python3 perfbench/probe.py run --trace FILE -- <repro CLI args>
        Run the ``repro`` CLI with the per-layer tracer installed and
        write the layer metrics to FILE when the command ends, or on
        SIGUSR1 (how a server that is about to be SIGKILLed reports).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import common


def _write(path: str, values: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(values, handle)
    os.replace(tmp, path)


def setup(kind: str, trace_file: str | None) -> int:
    t0 = time.perf_counter()
    common.require_repro()
    import repro.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    tracer = None
    if trace_file:
        from layers import LayerTracer

        tracer = LayerTracer().install()
    from repro.power.surface import get_surfaces
    from repro.pv.array import PVArray

    if get_surfaces(PVArray()) is None:
        raise SystemExit("no operating surfaces")
    if kind == "grid":
        # The harness's own 2-worker pool, started by a one-wave prefetch
        # of two cheap days in two cells (one chunk per worker).
        from repro.core.config import SolarCoreConfig
        from repro.harness.parallel import SweepTask
        from repro.harness.runner import SimulationRunner

        tasks = [SweepTask("battery", "L1", site, 1, derating=0.81)
                 for site in ("PFCI", "BMS")]
        SimulationRunner(SolarCoreConfig(solver="table"), jobs=2).prefetch(tasks)
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    if tracer is not None:
        _write(trace_file, {**tracer.metrics(), "cli.import_s": import_s})
    return 0


def run(trace_file: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    common.require_repro()
    import repro.cli

    import_s = time.perf_counter() - t0
    from layers import LayerTracer

    tracer = LayerTracer().install()

    def dump(*_args) -> None:
        _write(trace_file, {**tracer.metrics(), "cli.import_s": import_s})

    signal.signal(signal.SIGUSR1, dump)
    try:
        return repro.cli.main(argv)
    finally:
        dump()


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        trace_file = argv[3] if argv[2:3] == ["--trace"] else None
        return setup(argv[1], trace_file)
    if argv[:2] == ["run", "--trace"] and argv[3:4] == ["--"]:
        return run(argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
