"""Workload ``cli-cold``: fresh ``python -m repro`` invocations.

One round is a fixed sequence of five cold invocations (surfaces warm as
``.npz``): ``simulate`` with the default exact solver, the same day with
``--solver table``, a ``--fixed-budget`` day, a ``--battery-derating`` day
and a short ``campaign --solver table``.  The seed only rotates the order
of the sequence within each round.  Every exported or printed figure is
compared with the same computation made in the library.

Recovery: a longer ``campaign --checkpoint`` is SIGKILLed as soon as its
first checkpoint flush lands, then re-run with ``--resume``.
"""

from __future__ import annotations

import json
import signal
import time

import checks
import common
import layers
import wl_grid

SETUPS = 5
RECOVERIES = 3
#: (kind, mix, station, month, scheme) of the single-day invocations.
DAY = ("mppt", "ML1", "ECSU", 1, dict(policy="MPPT&IC"))
FIXED = ("fixed", "L1", "BMS", 4, dict(budget_w=100.0))
BATTERY = ("battery", "H2", "PFCI", 7, dict(derating=0.92))
CAMPAIGN = dict(mix="HM2", sites=("PFCI", "ORNL"), months=(1, 7), days=2)
RECOVERY_CAMPAIGN = dict(mix="M1", sites=("PFCI", "BMS", "ECSU", "ORNL"),
                         months=(1, 7), days=3)


def campaign_args(spec: dict) -> list[str]:
    return ["campaign", "--solver", "table", "--mix", spec["mix"],
            "--sites", *spec["sites"], "--months", *map(str, spec["months"]),
            "--days", str(spec["days"])]


def day_tasks() -> dict:
    """The single-day invocations' tasks and solvers, by name."""
    from repro.harness.parallel import SweepTask

    day, fixed, battery = (SweepTask(*spec[:4], **spec[4]) for spec in (DAY, FIXED, BATTERY))
    return {"exact": (day, "exact"), "table": (day, "table"),
            "fixed": (fixed, "table"), "battery": (battery, "table")}


def invocations(work) -> list[tuple[str, list[str], int]]:
    """(name, CLI args, simulated days) of one round."""
    out = []
    for name, (task, solver) in day_tasks().items():
        export = None if task.kind == "battery" else work / f"{name}.json"
        out.append((name, common.simulate_args(task, solver, export), 1))
    spec = CAMPAIGN
    out.append(("campaign", campaign_args(spec),
                len(spec["sites"]) * len(spec["months"]) * spec["days"]))
    return out


def campaign_lines(spec: dict) -> list[str]:
    """Lines ``repro campaign`` must print, computed in the library."""
    from repro.core.campaign import run_campaign
    from repro.environment.locations import location_by_code
    from repro.harness.runner import SimulationRunner

    config = wl_grid.table_config()
    campaign = run_campaign(
        spec["mix"], [location_by_code(s) for s in spec["sites"]], spec["months"],
        days_per_cell=spec["days"], config=config,
        runner=SimulationRunner(config),
    )
    carbon = campaign.carbon()
    lines = [
        f"overall utilization {campaign.overall_utilization:.1%} "
        f"over {len(campaign.all_days)} simulated days",
        f"carbon: {carbon.avoided_kg:.2f} kg CO2 avoided, "
        f"{carbon.emitted_kg:.2f} kg emitted "
        f"({carbon.reduction_fraction:.0%} footprint reduction)",
    ]
    problems = [p for day in campaign.all_days for p in checks.day_invariants(day)]
    return lines, problems, [f"{c.mean('ptp'):,.0f}" for c in campaign.cells]


def expected(work) -> tuple[dict, list[str]]:
    """Per-invocation output checks, from library computations."""
    from repro.harness.parallel import compute_task

    days = {name: compute_task(task, wl_grid.table_config(solver))
            for name, (task, solver) in day_tasks().items()}
    problems = [p for d in days.values() for p in checks.day_invariants(d)]
    lines, found, ptps = campaign_lines(CAMPAIGN)
    problems += found

    def check(name: str, stdout: str) -> list[str]:
        if name == "battery":
            return checks.printed_matches(stdout, [checks.battery_line(days[name])])
        if name in days:
            doc = json.loads((work / f"{name}.json").read_text())
            return checks.export_matches(doc, days[name])
        missing = [p for p in ptps if p not in stdout]
        return checks.printed_matches(stdout, lines) + [
            f"campaign output lacks cell PTP {p}" for p in missing]

    err = abs(days["table"].ptp - days["exact"].ptp) / days["exact"].ptp
    return dict(check=check, table_err=err), problems


def recovery(work) -> tuple[float, list[str]]:
    """SIGKILL a checkpointed campaign at its first flush; time the kill
    -> the ``--resume`` run's result.  The resumed output must match a
    library computation of the whole campaign."""
    path = work / "campaign.ckpt"
    args = campaign_args(RECOVERY_CAMPAIGN) + ["--checkpoint", str(path)]
    proc = common.spawn(common.repro_cmd(*args))
    try:
        while not path.exists():
            if proc.poll() is not None:
                raise RuntimeError("recovery campaign ended before its first checkpoint")
            time.sleep(0.002)
        t_kill = time.perf_counter()
        proc.send_signal(signal.SIGKILL)
    finally:
        common.stop(proc, signal.SIGKILL)
    _, out = common.run_child(common.repro_cmd(*args, "--resume"))
    recovery_s = time.perf_counter() - t_kill
    lines, problems, ptps = campaign_lines(RECOVERY_CAMPAIGN)
    problems += checks.printed_matches(out, lines)
    problems += [f"resumed campaign lacks cell PTP {p}" for p in ptps if p not in out]
    if "resumed 0 completed" in out or "resumed" not in out:
        problems.append("resumed campaign restored no checkpointed day")
    return recovery_s, problems


def run(seed: int, seconds: float, trace: bool) -> dict:
    work = common.run_dir("cli")
    try:
        sequence = invocations(work)
        if trace:
            return traced(sequence, work)
        setups = [common.setup_probe("cli") for _ in range(SETUPS)]
        rng = common.rng_for(seed, "order")
        exp, problems = expected(work)

        deadline = common.Deadline(seconds)
        walls: list[float] = []
        days = rounds = 0
        while deadline.more(rounds):
            order = list(sequence)
            rng.shuffle(order)
            for name, args, n_days in order:
                wall, out = common.run_child(common.repro_cmd(*args))
                walls.append(wall)
                days += n_days
                problems += exp["check"](name, out)
            rounds += 1
        rss = common.peak_rss_mb(include_self=False)
        recoveries = []
        for _ in range(RECOVERIES):
            recovery_s, found = recovery(work)
            recoveries.append(recovery_s)
            problems += found
        total = sum(walls)
        metrics = {
            "setup_s": common.median(setups),
            "days_per_s": days / total,
            "peak_rss_mb": rss,
            "table_err_rel": exp["table_err"],
            "job_p50_s": common.median(walls),
            "job_tail_s": common.percentile(walls, 90),
            "jobs_per_s": len(walls) / total,
            "recovery_s": common.median(recoveries),
            "cli_p50_s": common.median(walls),
        }
        return dict(problems=problems, attempted=len(walls), failed=0, metrics=metrics)
    finally:
        common.cleanup(work)


def traced(sequence, work) -> dict:
    """One round, each invocation with the layer tracer in its process."""
    values: dict = {}
    imports = []
    setup_file = work / "setup.json"
    common.setup_probe("cli", str(setup_file))
    for name, value in common.read_json(setup_file).items():
        if name == "cli.import_s":
            imports.append(value)
        else:
            values[name] = values.get(name, 0) + value
    for i, (_name, args, _days) in enumerate(sequence):
        trace_file = work / f"trace{i}.json"
        common.run_child(common.probe_cmd("run", "--trace", str(trace_file), "--", *args))
        layer = common.read_json(trace_file)
        imports.append(layer.pop("cli.import_s"))
        layers.merge(values, layer)
    values["cli.import_s"] = common.median(imports)
    return dict(problems=[], attempted=len(sequence), failed=0, metrics=values)
