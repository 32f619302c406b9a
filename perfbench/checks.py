"""Output checks: properties every result must have, or agreement with a
computation made apart from the code under test.

Each check returns a list of problem strings (empty = the output passed).
None compares against a stored copy of today's output.  ``selftest.py``
plants a wrong output for each and shows that it is rejected.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Tolerance of table mode against exact mode on day energies and PTP, as
#: documented in ``tests/golden/test_golden_table_mode.py``.
TABLE_DAY_RTOL = 1e-2
#: Exact-mode MPP power against the brute-force sweep (measured ~1e-15).
EXACT_MPP_RTOL = 1e-9
#: ``retired_ginst_total`` against the integrated throughput series.
GINST_RTOL = 1e-9
#: Energy-ledger residual and ledger-vs-series agreement [Wh].
LEDGER_TOL_WH = 1e-9
#: Float fields of a served summary against a library compute.  The two
#: may take different deterministic paths (batched fast path or scalar
#: loop, measured up to ~1e-14 apart); counts and names must be equal.
SUMMARY_RTOL = 1e-12
SUMMARY_ATOL = 1e-9


# ----------------------------------------------------------------------
# Per-day invariants
# ----------------------------------------------------------------------
def day_invariants(day) -> list[str]:
    """Invariants of one simulated day (``DayResult`` or battery day)."""
    where = f"{day.mix_name}@{day.location_code}m{day.month}"
    if not hasattr(day, "mpp_w"):
        problems = []
        if not (day.harvested_wh >= 0.0 and day.ptp >= 0.0):
            problems.append(f"{where} battery: negative harvest or PTP")
        if not day.runtime_minutes >= 0.0:
            problems.append(f"{where} battery: negative runtime")
        return problems
    where += f" {day.policy}"
    problems = []
    on = np.asarray(day.on_solar, dtype=bool)
    over = np.asarray(day.consumed_w)[on] > np.asarray(day.mpp_w)[on]
    if over.any():
        problems.append(f"{where}: consumed_w > mpp_w on {int(over.sum())} solar step(s)")
    step_s = float(day.minutes[1] - day.minutes[0]) * 60.0
    integrated = float(np.sum(day.throughput_gips)) * step_s
    total = day.retired_ginst_total
    if abs(integrated - total) > GINST_RTOL * max(abs(total), 1.0):
        problems.append(
            f"{where}: retired_ginst_total {total!r} != integrated throughput {integrated!r}"
        )
    if day.retired_ginst_solar > total:
        problems.append(f"{where}: retired_ginst_solar > retired_ginst_total")
    eu = day.energy_utilization
    if not 0.0 <= eu <= 1.0:
        problems.append(f"{where}: energy_utilization {eu!r} outside [0, 1]")
    return problems


def battery_harvest(battery_day, mppt_day) -> list[str]:
    """A battery day harvests ``derating`` x the MPP energy its MPPT twin
    (same cell, same solver) saw as available."""
    want = battery_day.derating * mppt_day.solar_available_wh
    got = battery_day.harvested_wh
    if abs(got - want) > GINST_RTOL * max(abs(want), 1.0):
        return [
            f"{battery_day.mix_name}@{battery_day.location_code}m{battery_day.month} "
            f"battery {battery_day.derating}: harvested {got!r} != derating x "
            f"available {want!r}"
        ]
    return []


# ----------------------------------------------------------------------
# MPP against a brute-force voltage sweep
# ----------------------------------------------------------------------
def brute_force_mpp(array, irradiance: float, cell_temp_c: float) -> float:
    """Maximum of ``array.power`` by successively finer voltage sweeps.

    Eleven zooms of 41 points each shrink the bracket by 20x per zoom,
    far below the curvature-limited float resolution of the maximum.
    """
    if irradiance <= 0.0:
        return 0.0
    lo, hi = 0.0, array.open_circuit_voltage(irradiance, cell_temp_c)
    best = 0.0
    for _ in range(11):
        volts = np.linspace(lo, hi, 41)
        powers = [array.power(float(v), irradiance, cell_temp_c) for v in volts]
        i = int(np.argmax(powers))
        best = max(best, powers[i])
        lo, hi = volts[max(i - 1, 0)], volts[min(i + 1, 40)]
    return best


def mpp_samples(day, trace, array, indices, rtol: float) -> tuple[list[str], float]:
    """Check ``day.mpp_w`` at ``indices`` against the brute-force sweep.

    Args:
        day: A fault-free ``DayResult``.
        trace: The day's environment trace, regenerated independently.
        array: The PV array the day simulated.
        indices: Step indices to sample.
        rtol: Allowed relative error.

    Returns:
        (problems, worst relative error seen).
    """
    problems, worst = [], 0.0
    for i in indices:
        g = float(trace.irradiance[i])
        t_cell = array.cell_temperature_from_ambient(g, float(trace.ambient_c[i]))
        want = brute_force_mpp(array, g, t_cell)
        got = float(day.mpp_w[i])
        err = abs(got - want) / want if want > 0 else abs(got)
        worst = max(worst, err)
        if err > rtol:
            problems.append(
                f"{day.mix_name}@{day.location_code}m{day.month} {day.policy} "
                f"step {i}: mpp_w {got!r} vs sweep {want!r} (rel {err:.2e} > {rtol:.1e})"
            )
    return problems, worst


# ----------------------------------------------------------------------
# Paper orderings (Fig 17 / Fig 21) over the grid's grand means
# ----------------------------------------------------------------------
def grand_mean_order(means: dict) -> list[str]:
    """The Fig 21/17 ordering of grand-mean PTP over the whole grid.

    Args:
        means: Grand-mean PTP per scheme: the three MPPT policy names,
            ``Fixed-<budget>`` per budget, ``Battery-L`` and ``Battery-U``.
    """
    problems = []
    ic, rr, opt = means["MPPT&IC"], means["MPPT&RR"], means["MPPT&Opt"]
    if not ic < rr < opt:
        problems.append(f"grand-mean PTP not IC < RR < Opt: {ic:.1f}, {rr:.1f}, {opt:.1f}")
    best_fixed = max(v for k, v in means.items() if k.startswith("Fixed-"))
    if not opt > best_fixed:
        problems.append(f"MPPT&Opt {opt:.1f} not above best Fixed {best_fixed:.1f}")
    if not means["Battery-U"] > means["Battery-L"]:
        problems.append(
            f"Battery-U {means['Battery-U']:.1f} not above Battery-L {means['Battery-L']:.1f}"
        )
    return problems


def scheme_of(task) -> str:
    if task.kind == "mppt":
        return task.policy
    if task.kind == "fixed":
        return f"Fixed-{task.budget_w:g}"
    return "Battery-U" if task.derating > 0.9 else "Battery-L"


def grand_means(results: dict) -> dict:
    """Grand-mean PTP per scheme from ``{SweepTask: result}``."""
    sums: dict[str, list[float]] = {}
    for task, day in results.items():
        sums.setdefault(scheme_of(task), []).append(day.ptp)
    return {k: math.fsum(v) / len(v) for k, v in sums.items()}


# ----------------------------------------------------------------------
# Table mode against its exact twin
# ----------------------------------------------------------------------
def table_violations(exact, table) -> list[str]:
    """Fields where a table-mode day leaves the documented tolerance."""
    if hasattr(exact, "mpp_w"):
        names = ("utility_wh", "solar_available_wh", "solar_used_wh",
                 "retired_ginst_solar", "retired_ginst_total")
    else:
        names = ("harvested_wh", "runtime_minutes", "ptp")
    bad = []
    for name in names:
        want, got = getattr(exact, name), getattr(table, name)
        if abs(got - want) > TABLE_DAY_RTOL * max(abs(want), 1e-6):
            bad.append(f"{name} {(got - want) / max(abs(want), 1e-6):+.2%}")
    return bad


def same_identity(exact, table) -> list[str]:
    """Twin days must describe the same simulation."""
    names = ["mix_name", "location_code", "month"]
    names.append("policy" if hasattr(exact, "policy") else "derating")
    diff = [n for n in names if getattr(exact, n) != getattr(table, n)]
    if hasattr(exact, "minutes") and exact.minutes.tobytes() != table.minutes.tobytes():
        diff.append("minutes")
    return [f"twin days differ in {', '.join(diff)}"] if diff else []


# ----------------------------------------------------------------------
# Energy ledger (faulted days)
# ----------------------------------------------------------------------
def ledger(engine, day) -> list[str]:
    """A run engine's ledger: zero residual, and its independently booked
    solar and utility energy equal the result's summed series."""
    led = engine.ledger
    problems = []
    if abs(led.residual_wh) > LEDGER_TOL_WH:
        problems.append(f"ledger residual {led.residual_wh!r} Wh")
    for name, booked, series in (
        ("solar", led.solar_wh, day.solar_used_wh),
        ("utility", led.utility_wh, day.utility_wh),
    ):
        if abs(booked - series) > LEDGER_TOL_WH * max(1.0, abs(series)):
            problems.append(f"ledger {name} {booked!r} Wh != series {series!r} Wh")
    return problems


# ----------------------------------------------------------------------
# Service and CLI outputs against the library
# ----------------------------------------------------------------------
def summary_matches(got: dict, task, result) -> list[str]:
    """A served summary equals ``summarize_result`` of a library compute
    (after the JSON round trip the wire imposes): float fields within
    ``SUMMARY_RTOL``, every other field exactly."""
    from repro.service.app import summarize_result

    want = json.loads(json.dumps(summarize_result(task, result)))

    def same(a, b) -> bool:
        if isinstance(b, float) and isinstance(a, (int, float)) and not isinstance(a, bool):
            return math.isclose(a, b, rel_tol=SUMMARY_RTOL, abs_tol=SUMMARY_ATOL)
        return a == b

    keys = sorted(k for k in set(got) | set(want)
                  if k not in got or k not in want or not same(got[k], want[k]))
    if keys:
        return [f"{task.describe()}: summary differs in {keys}"]
    return []


def export_matches(doc: dict, day) -> list[str]:
    """``simulate --export-json`` metrics equal the library day's."""
    want = {
        "energy_utilization": day.energy_utilization,
        "effective_duration_fraction": day.effective_duration_fraction,
        "mean_tracking_error": day.mean_tracking_error,
        "ptp_ginst": day.ptp,
        "solar_available_wh": day.solar_available_wh,
        "solar_used_wh": day.solar_used_wh,
        "utility_wh": day.utility_wh,
        "tracking_events": day.tracking_events,
        "dvfs_transitions": day.dvfs_transitions,
    }
    want = json.loads(json.dumps(want))
    ident = (doc.get("mix"), doc.get("location"), doc.get("month"), doc.get("policy"))
    problems = []
    if ident != (day.mix_name, day.location_code, day.month, day.policy):
        problems.append(f"export names {ident}, library day is {day.policy} {day.mix_name}")
    if doc.get("metrics") != want:
        problems.append(f"export metrics differ from the library day ({ident})")
    return problems


def battery_line(day) -> str:
    """The figures line ``repro simulate --battery-derating`` prints."""
    return (f"  harvested {day.harvested_wh:.0f} Wh, full-speed runtime "
            f"{day.runtime_minutes:.0f} min, PTP {day.ptp:.0f} Ginst")


def printed_matches(stdout: str, expected_lines: list[str]) -> list[str]:
    """Every expected line appears verbatim in the command's output."""
    lines = set(stdout.splitlines())
    return [f"missing output line {line!r}" for line in expected_lines if line not in lines]
