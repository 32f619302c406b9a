"""Workload ``slice-exact``: whole grid cells, three ways.

Two (station, month) cells of the paper grid -- every mix under every MPPT
policy, Fixed-Power budget and battery bound, 200 days -- each run (a)
with the exact solver, (b) in table mode, the accuracy twin of (a), and
(c) in table mode under a fault schedule mixing trace, sensor and
converter faults.  A round is five waves, each the three ways of two
mixes over both cells (120 days, three ``SimulationRunner.prefetch``
calls on 2 workers, one cell per worker); each wave is timed on its own
and the throughput figures are medians over waves.

Known fault, counted as failed operations: table-mode days outside the
documented 1e-2 tolerance against their exact twins.  ECSU January holds
ML1 MPPT&IC (PTP +6.0%), ORNL April the ten Fixed-75W days; the cells are
fixed, so every round fails the same 12 of its 600 days.
"""

from __future__ import annotations

import json
import time

import checks
import common
import layers
import wl_grid

CELLS = (("ECSU", 1), ("ORNL", 4))
SETUPS = 5
#: Mixes per timed wave.
WAVE_MIXES = 2
#: Fault windows (minutes since midnight); the noise seed is the run's.
FAULTS = ("trace_gap@600-615,soiling@660-780:0.85,sensor_noise@720-840:0.05,"
          "sensor_dropout@800-812,conv_eff@840-960:0.9,seed={seed}")
#: Seeded samples: exact and table days for the brute-force MPP sweep,
#: faulted days re-run through the public engine factories.
MPP_DAYS, MPP_STEPS, LEDGER_DAYS = 2, 5, 4


def slice_tasks(seed: int, faults: str | None = None):
    from repro.harness.parallel import grid_tasks

    tasks = []
    for station, month in CELLS:
        tasks += grid_tasks(
            common.MIXES, (station,), (month,), policies=common.POLICIES,
            budgets_w=common.BUDGETS_W, deratings=tuple(common.DERATINGS.values()),
            faults=faults,
        )
    return tasks


def waves(free, faulty):
    """(fault-free, faulted) tasks of each wave, ``WAVE_MIXES`` mixes each."""
    groups = [common.MIXES[i:i + WAVE_MIXES]
              for i in range(0, len(common.MIXES), WAVE_MIXES)]
    return [([t for t in free if t.mix_name in g], [t for t in faulty if t.mix_name in g])
            for g in groups]


def ledger_check(faulted: dict, config, seed: int) -> list[str]:
    """Re-run seeded faulted days through the public ``*_day_engine``
    factories: the ledger balances and the result matches the runner's."""
    from repro.core.simulation import fixed_day_engine, mppt_day_engine
    from repro.environment.locations import location_by_code

    rng = common.rng_for(seed, "ledger")
    candidates = [t for t in faulted if t.kind != "battery"]
    problems = []
    for task in rng.sample(candidates, LEDGER_DAYS):
        loc = location_by_code(task.location_code)
        if task.kind == "mppt":
            engine = mppt_day_engine(task.mix_name, loc, task.month, task.policy,
                                     config=config, faults=task.faults)
        else:
            engine = fixed_day_engine(task.mix_name, loc, task.month, task.budget_w,
                                      config=config, faults=task.faults)
        day = engine.run()
        problems += [f"{task.describe()}: {p}" for p in checks.ledger(engine, day)]
        if not wl_grid.same_day(day, faulted[task]):
            problems.append(f"{task.describe()}: engine factory day != runner day")
    return problems


def cli_days(seed: int, exact: dict, table: dict, work) -> tuple[list[float], list[str]]:
    """``repro simulate`` of one seeded slice day, exact and with
    ``--solver table``.  Each export must equal the slice's own day."""
    task = common.rng_for(seed, "cli").choice([t for t in exact if t.kind != "battery"])
    walls, problems = [], []
    for solver, results in (("exact", exact), ("table", table)):
        path = work / "simulate.json"
        wall, _ = common.run_child(common.repro_cmd(
            *common.simulate_args(task, solver, path)))
        walls.append(wall)
        problems += checks.export_matches(json.loads(path.read_text()), results[task])
    return walls, problems


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.harness.runner import SimulationRunner

    work = common.run_dir("slice")
    exact_cfg, table_cfg = wl_grid.table_config("exact"), wl_grid.table_config()
    free = slice_tasks(seed)
    faulty = slice_tasks(seed, FAULTS.format(seed=seed))
    try:
        if trace:
            return traced(free, faulty, exact_cfg, table_cfg, work)
        setups = [common.setup_probe("grid") for _ in range(SETUPS)]

        deadline = common.Deadline(seconds)
        walls: list[float] = []
        rates: list[float] = []
        failed = rounds = 0
        while deadline.more(rounds):
            # Rebinding drops the previous round's days before this one runs.
            exact, table, faulted = {}, {}, {}
            for free_w, faulty_w in waves(free, faulty):
                t0 = time.perf_counter()
                exact.update(SimulationRunner(exact_cfg, jobs=2).prefetch(free_w))
                table.update(SimulationRunner(table_cfg, jobs=2).prefetch(free_w))
                faulted.update(SimulationRunner(table_cfg, jobs=2).prefetch(faulty_w))
                walls.append(time.perf_counter() - t0)
                rates.append((2 * len(free_w) + len(faulty_w)) / walls[-1])
            rounds += 1
            failed += sum(1 for t in free if checks.table_violations(exact[t], table[t]))
        rss = common.peak_rss_mb()
        per_round = len(free) + len(free) + len(faulty)

        cli_walls, problems = cli_days(seed, exact, table, work)

        subset = [t for t in free if t.mix_name == common.MIXES[0]]
        recovery_s, recovered = wl_grid.kill_recovery(subset, exact_cfg, work / "recovery")
        bad = [t for t in subset if not wl_grid.same_day(recovered[t], exact[t])]
        if bad:
            problems.append(f"{len(bad)} day(s) differ after worker-kill recovery")

        problems += slice_checks(exact, table, faulted, free, seed)
        problems += ledger_check(faulted, table_cfg, seed)
        errs = [abs(table[t].ptp - exact[t].ptp) / exact[t].ptp for t in free]
        metrics = {
            "setup_s": common.median(setups),
            "days_per_s": common.median(rates),
            "peak_rss_mb": rss,
            "table_err_rel": sum(errs) / len(errs),
            "job_p50_s": common.median(walls),
            "job_tail_s": common.percentile(walls, 80),
            "jobs_per_s": 1.0 / common.median(walls),
            "recovery_s": recovery_s,
            "cli_p50_s": common.median(cli_walls),
        }
        return dict(problems=problems, attempted=per_round * rounds,
                    failed=failed, metrics=metrics)
    finally:
        common.cleanup(work)


def slice_checks(exact, table, faulted, free, seed) -> list[str]:
    problems = []
    for results in (exact, table, faulted):
        problems += [p for t in results for p in checks.day_invariants(results[t])]
    for results in (exact, table):
        opt = {(t.mix_name, t.cell): results[t] for t in free
               if t.kind == "mppt" and t.policy == "MPPT&Opt"}
        for t in free:
            if t.kind == "battery":
                problems += checks.battery_harvest(results[t], opt[(t.mix_name, t.cell)])
    for t in free:
        problems += checks.same_identity(exact[t], table[t])
    found, _ = wl_grid.mpp_check(exact, seed, checks.EXACT_MPP_RTOL, MPP_DAYS, MPP_STEPS)
    problems += found
    found, _ = wl_grid.mpp_check(table, seed, wl_grid.declared_mpp_rel(), MPP_DAYS, MPP_STEPS)
    problems += found
    return problems


def traced(free, faulty, exact_cfg, table_cfg, work) -> dict:
    """One round of the three ways on 1 worker, every call in this process."""
    from repro.harness.runner import SimulationRunner

    values: dict = {}
    setup_file = work / "setup.json"
    common.setup_probe("grid", str(setup_file))
    setup = common.read_json(setup_file)
    tracer = layers.LayerTracer().install()
    try:
        exact = SimulationRunner(exact_cfg, jobs=1).prefetch(free)
        table = SimulationRunner(table_cfg, jobs=1).prefetch(free)
        faulted = SimulationRunner(table_cfg, jobs=1).prefetch(faulty)
    finally:
        tracer.uninstall()
    layers.merge(values, tracer.metrics())
    layers.merge(values, {k: v for k, v in setup.items() if k != "cli.import_s"})
    values["cli.import_s"] = setup["cli.import_s"]
    failed = sum(1 for t in free if checks.table_violations(exact[t], table[t]))
    done = len(exact) + len(table) + len(faulted)
    problems = [] if done == 3 * len(free) else ["traced slice incomplete"]
    return dict(problems=problems, attempted=done, failed=failed, metrics=values)
