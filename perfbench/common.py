"""Shared plumbing for the benchmark: paths, the repro import, timing helpers.

Everything the benchmark writes lives under ``.perfbench/`` at the root of
the checkout it runs in.  Warm operating surfaces persist there between
runs (``.perfbench/surfaces``); every other directory is per run and is
deleted when the run ends.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SURFACE_DIR = WORK / "surfaces"

#: The four stations, four evaluated months, ten Table 5 mixes, three MPPT
#: policies, five Fixed-Power budgets and two battery bounds of Section 6.
STATIONS = ("PFCI", "BMS", "ECSU", "ORNL")
MONTHS = (1, 4, 7, 10)
MIXES = ("H1", "H2", "M1", "M2", "L1", "L2", "HM1", "HM2", "ML1", "ML2")
POLICIES = ("MPPT&IC", "MPPT&RR", "MPPT&Opt")
BUDGETS_W = (50.0, 60.0, 75.0, 100.0, 125.0)
DERATINGS = {"Battery-L": 0.81, "Battery-U": 0.92}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, no repro)."""


def require_repro() -> None:
    """Put the checkout's ``src`` on the path and import ``repro``.

    Raises:
        SetupError: There is no ``src/repro`` here to benchmark.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["SOLARCORE_SURFACE_DIR"] = str(SURFACE_DIR)
    import repro  # noqa: F401


def child_env() -> dict:
    """Environment for child Python processes: the checkout's sources and
    the warm surface directory, nothing inherited that could redirect them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["SOLARCORE_SURFACE_DIR"] = str(SURFACE_DIR)
    env.pop("SOLARCORE_CACHE_DIR", None)
    env.pop("SOLARCORE_JOBS", None)
    return env


def warm_surfaces() -> None:
    """Build the operating surfaces once per checkout (not timed).

    Every timed set-up then loads them from ``.npz``, as a deployed
    service or a second CLI invocation does.
    """
    from repro.power.surface import get_surfaces
    from repro.pv.array import PVArray

    SURFACE_DIR.mkdir(parents=True, exist_ok=True)
    get_surfaces(PVArray())


def run_dir(name: str) -> Path:
    """A fresh per-run scratch directory under ``.perfbench``."""
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent, reproducible RNG per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")


def peak_rss_mb(include_self: bool = True) -> float:
    """Largest resident set [MB] of this process or any reaped child."""
    peaks = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    if include_self:
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return max(peaks) / 1024.0


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return float(ordered[rank - 1])


class Deadline:
    """Whole rounds until ``seconds`` of measurement have elapsed."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.seconds = seconds

    def more(self, rounds_done: int) -> bool:
        return rounds_done == 0 or time.perf_counter() - self.start < self.seconds


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


def repro_cmd(*args: str) -> list[str]:
    return python_cmd("-m", "repro", *args)


def simulate_args(task, solver: str, export=None) -> list[str]:
    """``repro simulate`` arguments for one grid task (battery days print
    their figures; other days can be exported with ``--export-json``)."""
    args = ["simulate", "--mix", task.mix_name, "--site", task.location_code,
            "--month", str(task.month), "--solver", solver]
    if task.kind == "battery":
        return args + ["--battery-derating", str(task.derating)]
    if task.kind == "fixed":
        args += ["--fixed-budget", str(task.budget_w)]
    else:
        args += ["--policy", task.policy]
    return args + (["--export-json", str(export)] if export is not None else [])


def probe_cmd(*args: str) -> list[str]:
    return python_cmd(str(BENCH_DIR / "probe.py"), *args)


def spawn(cmd: list[str], **kwargs) -> subprocess.Popen:
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        **kwargs,
    )


def wait_ready(proc: subprocess.Popen, marker: str, timeout_s: float = 60.0) -> str:
    """Read ``proc``'s stdout until a line containing ``marker``.

    Raises:
        RuntimeError: The process exited or stayed silent too long.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if marker in line:
            return line
        if not line and proc.poll() is not None:
            raise RuntimeError(
                f"{proc.args!r} exited {proc.returncode} before ready: "
                f"{proc.stderr.read()[-2000:]}"
            )
    raise RuntimeError(f"{proc.args!r} not ready after {timeout_s}s")


def run_child(cmd: list[str], timeout_s: float = 120.0) -> tuple[float, str]:
    """Run a child to completion; (wall seconds, stdout).

    Raises:
        RuntimeError: Non-zero exit.
    """
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout_s,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd!r} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, proc.stdout


def stop(proc: subprocess.Popen, sig: int = signal.SIGTERM, timeout_s: float = 30.0) -> None:
    """Signal ``proc`` (if alive) and reap it; SIGKILL if it lingers."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def setup_probe(kind: str, trace_file: str | None = None) -> float:
    """Spawn -> ready wall of one fresh set-up probe (see probe.py)."""
    args = ["setup", kind] + (["--trace", trace_file] if trace_file else [])
    t0 = time.perf_counter()
    proc = spawn(probe_cmd(*args))
    try:
        wait_ready(proc, '"ready"')
        wall = time.perf_counter() - t0
        proc.wait(timeout=60)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return wall


def read_json(path) -> dict:
    import json

    with open(path) as handle:
        return json.load(handle)


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
