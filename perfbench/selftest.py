"""Self-test of the benchmark's output checks.

Each check must accept a correct output and reject a planted wrong one,
so none of them passes vacuously.  Run from the checkout root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import common  # noqa: E402

common.require_repro()
common.warm_surfaces()

from repro.core.config import SolarCoreConfig  # noqa: E402
from repro.core.simulation import mppt_day_engine  # noqa: E402
from repro.environment.irradiance import generate_trace  # noqa: E402
from repro.environment.locations import location_by_code  # noqa: E402
from repro.harness.export import day_to_json  # noqa: E402
from repro.harness.parallel import SweepTask, compute_task  # noqa: E402
from repro.pv.array import PVArray  # noqa: E402
from repro.service.app import summarize_result  # noqa: E402

TABLE = SolarCoreConfig(solver="table")
EXACT = SolarCoreConfig()
MPPT = SweepTask("mppt", "ML1", "ECSU", 1, policy="MPPT&IC")
FIXED = SweepTask("fixed", "L1", "ORNL", 4, budget_w=75.0)
BATTERY = SweepTask("battery", "ML1", "ECSU", 1, derating=0.92)
OPT = SweepTask("mppt", "ML1", "ECSU", 1, policy="MPPT&Opt")


def copy(day, **changes):
    """A deep copy of a day result with ``changes`` applied."""
    fields = {f.name: getattr(day, f.name) for f in dataclasses.fields(day)}
    fields = {k: (v.copy() if hasattr(v, "copy") else v) for k, v in fields.items()}
    fields.update(changes)
    return type(day)(**fields)


class Days:
    table = {t: compute_task(t, TABLE) for t in (MPPT, FIXED, BATTERY, OPT)}
    exact = {t: compute_task(t, EXACT) for t in (MPPT, FIXED)}


def solar_step(day) -> int:
    return int(next(i for i, on in enumerate(day.on_solar) if on and day.mpp_w[i] > 0))


class TestDayInvariants(unittest.TestCase):
    def test_accepts_real_days(self):
        for day in Days.table.values():
            self.assertEqual(checks.day_invariants(day), [])

    def test_rejects_overdraw(self):
        day = Days.table[MPPT]
        i = solar_step(day)
        consumed = day.consumed_w.copy()
        consumed[i] = day.mpp_w[i] * 1.01
        self.assertTrue(checks.day_invariants(copy(day, consumed_w=consumed)))

    def test_rejects_unintegrated_total(self):
        day = Days.table[FIXED]
        bad = copy(day, retired_ginst_total=day.retired_ginst_total * (1 + 1e-6))
        self.assertTrue(checks.day_invariants(bad))

    def test_rejects_solar_above_total(self):
        day = Days.table[MPPT]
        bad = copy(day, retired_ginst_solar=day.retired_ginst_total * 1.001)
        self.assertTrue(checks.day_invariants(bad))

    def test_rejects_utilization_above_one(self):
        day = Days.table[FIXED]
        bad = copy(day, mpp_w=day.mpp_w * 0.1, consumed_w=day.consumed_w)
        self.assertGreater(bad.energy_utilization, 1.0)
        self.assertTrue(any("energy_utilization" in p for p in checks.day_invariants(bad)))

    def test_rejects_negative_battery(self):
        day = Days.table[BATTERY]
        self.assertTrue(checks.day_invariants(dataclasses.replace(day, ptp=-1.0)))


class TestBatteryHarvest(unittest.TestCase):
    def test_accepts_and_rejects(self):
        battery, opt = Days.table[BATTERY], Days.table[OPT]
        self.assertEqual(checks.battery_harvest(battery, opt), [])
        bad = dataclasses.replace(battery, harvested_wh=battery.harvested_wh * 1.0001)
        self.assertTrue(checks.battery_harvest(bad, opt))


class TestBruteForceMpp(unittest.TestCase):
    def setUp(self):
        self.trace = generate_trace(location_by_code("ECSU"), 1, step_minutes=1.0)
        self.array = PVArray()

    def _steps(self, day):
        lit = [i for i in range(len(day.mpp_w)) if self.trace.irradiance[i] > 0]
        return lit[:: max(1, len(lit) // 4)][:4]

    def test_exact_mode_agrees_tightly(self):
        day = Days.exact[MPPT]
        problems, worst = checks.mpp_samples(
            day, self.trace, self.array, self._steps(day), checks.EXACT_MPP_RTOL)
        self.assertEqual(problems, [])
        self.assertLess(worst, 1e-12)

    def test_rejects_perturbed_mpp_step(self):
        day = Days.exact[MPPT]
        steps = self._steps(day)
        mpp = day.mpp_w.copy()
        mpp[steps[1]] *= 1 + 1e-7
        problems, _ = checks.mpp_samples(
            copy(day, mpp_w=mpp), self.trace, self.array, steps, checks.EXACT_MPP_RTOL)
        self.assertEqual(len(problems), 1)

    def test_table_day_fails_the_exact_bound(self):
        # A day from the wrong solver: table-mode MPP is not exact.
        day = Days.table[MPPT]
        problems, worst = checks.mpp_samples(
            day, self.trace, self.array, self._steps(day), checks.EXACT_MPP_RTOL)
        self.assertTrue(problems)
        self.assertLess(worst, 1.5e-3)


class TestGrandMeanOrder(unittest.TestCase):
    MEANS = {"MPPT&IC": 116.7e3, "MPPT&RR": 158.7e3, "MPPT&Opt": 165.2e3,
             "Fixed-50": 90e3, "Fixed-75": 103.6e3, "Battery-L": 120e3,
             "Battery-U": 136e3}

    def test_accepts_paper_order(self):
        self.assertEqual(checks.grand_mean_order(self.MEANS), [])

    def test_rejects_swapped_policies(self):
        swapped = dict(self.MEANS, **{"MPPT&IC": 165.2e3, "MPPT&Opt": 116.7e3})
        self.assertTrue(checks.grand_mean_order(swapped))

    def test_rejects_fixed_above_opt(self):
        self.assertTrue(checks.grand_mean_order(dict(self.MEANS, **{"Fixed-75": 170e3})))

    def test_rejects_swapped_batteries(self):
        swapped = dict(self.MEANS, **{"Battery-L": 136e3, "Battery-U": 120e3})
        self.assertTrue(checks.grand_mean_order(swapped))

    def test_grand_means_groups_by_scheme(self):
        means = checks.grand_means({MPPT: Days.table[MPPT], FIXED: Days.table[FIXED],
                                    BATTERY: Days.table[BATTERY]})
        self.assertEqual(set(means), {"MPPT&IC", "Fixed-75", "Battery-U"})


class TestTableTolerance(unittest.TestCase):
    def test_known_fault_day_is_flagged(self):
        # ML1 @ ECSU Jan MPPT&IC: table-mode PTP +6.0% against exact.
        bad = checks.table_violations(Days.exact[MPPT], Days.table[MPPT])
        self.assertTrue(any(b.startswith("retired_ginst_solar") for b in bad))

    def test_exact_twin_is_within(self):
        day = Days.exact[FIXED]
        self.assertEqual(checks.table_violations(day, copy(day)), [])

    def test_rejects_wrong_twin(self):
        self.assertTrue(checks.same_identity(Days.table[MPPT], Days.table[OPT]))
        self.assertEqual(checks.same_identity(Days.exact[MPPT], Days.table[MPPT]), [])


class TestLedger(unittest.TestCase):
    def test_faulted_day_balances_and_bad_books_do_not(self):
        engine = mppt_day_engine(
            "HM2", location_by_code("PFCI"), 7, "MPPT&Opt", config=TABLE,
            faults="sensor_dropout@700-720,conv_eff@800-900:0.9,seed=3")
        day = engine.run()
        self.assertEqual(checks.ledger(engine, day), [])
        engine.ledger.solar_wh += 1e-6
        self.assertTrue(checks.ledger(engine, day))
        engine.ledger.solar_wh -= 1e-6
        engine.ledger.load_wh += 1e-6
        self.assertTrue(checks.ledger(engine, day))


class TestServiceAndCliOutputs(unittest.TestCase):
    def _wire(self, task, day) -> dict:
        return json.loads(json.dumps(summarize_result(task, day)))

    def test_summary_match(self):
        day = Days.table[FIXED]
        self.assertEqual(checks.summary_matches(self._wire(FIXED, day), FIXED, day), [])

    def test_summary_tolerates_last_bits_only(self):
        day = Days.table[FIXED]
        wire = self._wire(FIXED, day)
        wire["ptp"] *= 1 + 1e-14
        self.assertEqual(checks.summary_matches(wire, FIXED, day), [])
        wire["ptp"] *= 1 + 1e-9
        self.assertTrue(checks.summary_matches(wire, FIXED, day))
        wire = self._wire(FIXED, day)
        wire["tracking_events"] += 1
        self.assertTrue(checks.summary_matches(wire, FIXED, day))
        del wire["tracking_events"]
        self.assertTrue(checks.summary_matches(wire, FIXED, day))

    def test_rejects_summary_from_wrong_solver(self):
        wire = self._wire(FIXED, Days.exact[FIXED])
        self.assertTrue(checks.summary_matches(wire, FIXED, Days.table[FIXED]))

    def test_rejects_summary_of_swapped_task(self):
        wire = self._wire(OPT, Days.table[OPT])
        self.assertTrue(checks.summary_matches(wire, MPPT, Days.table[MPPT]))

    def test_export_match_and_mismatch(self):
        doc = json.loads(day_to_json(Days.table[MPPT]))
        self.assertEqual(checks.export_matches(doc, Days.table[MPPT]), [])
        self.assertTrue(checks.export_matches(doc, Days.exact[MPPT]))
        self.assertTrue(checks.export_matches(doc, Days.table[OPT]))

    def test_printed_lines(self):
        self.assertEqual(checks.printed_matches("a\nb\n", ["b"]), [])
        self.assertTrue(checks.printed_matches("a\nb\n", ["c"]))

    def test_battery_line_names_the_day(self):
        day = Days.table[BATTERY]
        printed = f"battery system\n{checks.battery_line(day)}\n"
        self.assertEqual(checks.printed_matches(printed, [checks.battery_line(day)]), [])
        other = dataclasses.replace(day, ptp=day.ptp + 1.0)
        self.assertTrue(checks.printed_matches(printed, [checks.battery_line(other)]))


if __name__ == "__main__":
    unittest.main()
