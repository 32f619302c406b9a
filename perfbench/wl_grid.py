"""Workload ``grid-table``: the full paper grid in table mode.

1600 days (4 stations x 4 months x 10 mixes x 10 schemes) through
``SimulationRunner.prefetch`` with 2 workers and a cold disk cache, in
whole rounds.  After the timed rounds, fresh ``repro experiment fig21``
processes render Figure 21 from the warm disk cache, and 2-worker
prefetches whose pool worker is SIGKILLed show how the harness recovers.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import checks
import common
import layers

#: Set-up probes per run, and repeats of the Fig 21 render and of the
#: worker-kill recovery (the median of each is reported).
SETUPS = 5
REPEATS = 2
#: Exact-mode twins of grid days, for ``table_err_rel`` (fixed, so the
#: value is comparable between runs).
TWINS = (
    ("mppt", "HM2", "PFCI", 7, dict(policy="MPPT&Opt")),
    ("fixed", "L1", "BMS", 4, dict(budget_w=100.0)),
    ("mppt", "M2", "ORNL", 10, dict(policy="MPPT&RR")),
    ("battery", "H1", "ECSU", 1, dict(derating=0.92)),
)
#: Days whose ``mpp_w`` is checked against the brute-force sweep, and
#: steps sampled per day.
MPP_DAYS, MPP_STEPS = 4, 6
#: Seconds between both pool workers existing and the SIGKILL.
KILL_AFTER_S = 0.1


def paper_grid(seed: int):
    """The 1600 grid tasks, cells in a seeded order (tasks stay grouped by
    cell, so the harness still chunks one cell per worker task)."""
    from repro.harness.parallel import grid_tasks

    tasks = grid_tasks(
        common.MIXES, common.STATIONS, common.MONTHS,
        policies=common.POLICIES, budgets_w=common.BUDGETS_W,
        deratings=tuple(common.DERATINGS.values()),
    )
    cells = sorted({t.cell for t in tasks})
    common.rng_for(seed, "cells").shuffle(cells)
    rank = {cell: i for i, cell in enumerate(cells)}
    return sorted(tasks, key=lambda t: rank[t.cell])


def twin_tasks():
    from repro.harness.parallel import SweepTask

    return [SweepTask(kind, mix, site, month, **kw) for kind, mix, site, month, kw in TWINS]


def table_config(solver: str = "table"):
    from repro.core.config import SolarCoreConfig

    return SolarCoreConfig(solver=solver)


def same_day(a, b) -> bool:
    """Byte-for-byte equality of two day results."""
    import pickle

    return pickle.dumps(a) == pickle.dumps(b)


def kill_recovery(tasks, config, workdir) -> tuple[float, dict]:
    """Prefetch ``tasks`` on 2 workers, SIGKILL a pool worker
    ``KILL_AFTER_S`` after both exist (mid-chunk: no chunk has returned
    yet, so every task is retried), and time kill -> every task returned.

    Returns:
        (recovery seconds, results).
    """
    import os
    import signal

    from repro.harness.runner import SimulationRunner

    runner = SimulationRunner(config, jobs=2, retries=1, cache_dir=workdir)
    killed: list[float] = []
    stop = threading.Event()

    def killer() -> None:
        while not stop.is_set():
            workers = multiprocessing.active_children()
            if len(workers) >= 2:
                # Not sooner: a worker that dies while the wave is still
                # being submitted breaks the harness (see CHANGES.md).
                time.sleep(KILL_AFTER_S)
                os.kill(workers[0].pid, signal.SIGKILL)
                killed.append(time.perf_counter())
                return
            time.sleep(0.001)

    thread = threading.Thread(target=killer, daemon=True)
    thread.start()
    try:
        results = runner.prefetch(tasks)
    finally:
        stop.set()
        thread.join()
    if not killed:
        raise RuntimeError("no pool worker appeared to kill")
    return time.perf_counter() - killed[0], results


def mpp_check(results, seed: int, rtol: float, n_days: int, n_steps: int):
    """Brute-force check of ``mpp_w`` on seeded fault-free days/steps."""
    import numpy as np

    from repro.core.config import SolarCoreConfig
    from repro.environment.irradiance import generate_trace
    from repro.environment.locations import location_by_code
    from repro.pv.array import PVArray

    rng = common.rng_for(seed, "mpp")
    candidates = [t for t in results if t.kind != "battery" and t.faults is None]
    problems, worst = [], 0.0
    array = PVArray()
    step = SolarCoreConfig().step_minutes
    for task in rng.sample(candidates, min(n_days, len(candidates))):
        day = results[task]
        trace = generate_trace(
            location_by_code(task.location_code), task.month, seed=task.seed,
            step_minutes=step,
        )
        lit = [i for i in range(len(day.mpp_w)) if trace.irradiance[i] > 0]
        idx = rng.sample(lit, min(n_steps, len(lit)))
        found, err = checks.mpp_samples(day, trace, array, idx, rtol)
        problems += found
        worst = max(worst, err)
    return problems, float(np.float64(worst))


def declared_mpp_rel() -> float:
    from repro.power.surface import get_surfaces
    from repro.pv.array import PVArray

    return get_surfaces(PVArray()).error_report["declared"]["mpp_power_rel"]


def table_error(results) -> tuple[float, list[str]]:
    """Mean relative PTP error of the grid's twin days against exact mode."""
    from repro.harness.parallel import compute_task

    exact = table_config("exact")
    errs, problems = [], []
    for task in twin_tasks():
        twin = compute_task(task, exact)
        problems += checks.same_identity(twin, results[task])
        errs.append(abs(results[task].ptp - twin.ptp) / twin.ptp)
    return sum(errs) / len(errs), problems


def grid_checks(results, tasks, seed: int) -> list[str]:
    problems = []
    missing = [t for t in tasks if t not in results]
    if missing:
        return [f"{len(missing)} grid day(s) missing, e.g. {missing[0].describe()}"]
    opt = {(t.mix_name, t.cell): results[t] for t in tasks
           if t.kind == "mppt" and t.policy == "MPPT&Opt"}
    for task in tasks:
        day = results[task]
        problems += checks.day_invariants(day)
        if task.kind == "battery":
            problems += checks.battery_harvest(day, opt[(task.mix_name, task.cell)])
    found, _ = mpp_check(results, seed, declared_mpp_rel(), MPP_DAYS, MPP_STEPS)
    problems += found
    problems += checks.grand_mean_order(checks.grand_means(results))
    return problems


def fig21_text(runner) -> str:
    from repro.harness import experiments, reporting

    return reporting.render_fig21_summary(experiments.fig21_normalized_ptp(runner=runner))


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.harness.runner import SimulationRunner

    work = common.run_dir("grid")
    tasks = paper_grid(seed)
    config = table_config()
    problems: list[str] = []
    try:
        if trace:
            return traced(tasks, config, work)
        setups = [common.setup_probe("grid") for _ in range(SETUPS)]

        deadline = common.Deadline(seconds)
        walls: list[float] = []
        while deadline.more(len(walls)):
            # Drop the previous round's days before this one runs, so the
            # peak resident set is that of one round however many run.
            results = None
            runner = SimulationRunner(config, jobs=2, cache_dir=work / f"cache{len(walls)}")
            t0 = time.perf_counter()
            results = runner.prefetch(tasks)
            walls.append(time.perf_counter() - t0)
        rss = common.peak_rss_mb()

        cli_walls = []
        expected = fig21_text(runner)
        for _ in range(REPEATS):
            wall, out = common.run_child(common.repro_cmd(
                "experiment", "fig21", "--solver", "table",
                "--cache-dir", str(runner.disk.root)))
            cli_walls.append(wall)
            if expected not in out:
                problems.append("repro experiment fig21 output differs from the grid's Fig 21")

        subset = [t for t in tasks if t.cell in {tasks[0].cell, tasks[-1].cell}
                  and t.mix_name in common.MIXES[:4]]
        recoveries = []
        for i in range(REPEATS):
            recovery_s, recovered = kill_recovery(subset, config, work / f"recovery{i}")
            recoveries.append(recovery_s)
            bad = [t for t in subset if not same_day(recovered[t], results[t])]
            if bad:
                problems.append(f"{len(bad)} day(s) differ after worker-kill recovery")

        problems += grid_checks(results, tasks, seed)
        err, found = table_error(results)
        problems += found
        wall = sum(walls)
        metrics = {
            "setup_s": common.median(setups),
            "days_per_s": len(tasks) * len(walls) / wall,
            "peak_rss_mb": rss,
            "table_err_rel": err,
            "job_p50_s": common.median(walls),
            "job_tail_s": common.percentile(walls, 90),
            "jobs_per_s": len(walls) / wall,
            "recovery_s": common.median(recoveries),
            "cli_p50_s": common.median(cli_walls),
        }
        return dict(problems=problems, attempted=len(tasks) * len(walls),
                    failed=0, metrics=metrics)
    finally:
        common.cleanup(work)


def traced(tasks, config, work) -> dict:
    """One round with every wrapped call in this process (1 worker), plus
    the traced set-up and Fig 21 render in their own processes."""
    from repro.harness.runner import SimulationRunner

    values: dict = {}
    setup_file = work / "setup.json"
    common.setup_probe("grid", str(setup_file))
    setup = common.read_json(setup_file)
    tracer = layers.LayerTracer().install()
    try:
        runner = SimulationRunner(config, jobs=1, cache_dir=work / "cache")
        results = runner.prefetch(tasks)
    finally:
        tracer.uninstall()
    layers.merge(values, tracer.metrics())
    cli_file = work / "cli.json"
    common.run_child(common.probe_cmd(
        "run", "--trace", str(cli_file), "--", "experiment", "fig21",
        "--solver", "table", "--cache-dir", str(runner.disk.root)))
    cli = common.read_json(cli_file)
    layers.merge(values, {k: v for k, v in cli.items() if k != "cli.import_s"})
    layers.merge(values, {k: v for k, v in setup.items() if k != "cli.import_s"})
    values["cli.import_s"] = setup["cli.import_s"]
    problems = [] if len(results) == len(tasks) else ["traced grid incomplete"]
    return dict(problems=problems, attempted=len(tasks), failed=0, metrics=values)
