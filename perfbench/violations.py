"""List every paper-grid day whose table-mode result leaves the documented
tolerance (1e-2 relative on day energies and PTP) against exact mode.

Usage (from the checkout root; ~3 minutes on 2 cores)::

    python3 perfbench/violations.py

Runs the full grid both ways on 2 workers and prints one line per
violating day, the count per (station, month) cell, and the total.
"""

from __future__ import annotations

import sys
from collections import Counter

import common


def main() -> int:
    common.require_repro()
    common.warm_surfaces()

    import checks
    from repro.core.config import SolarCoreConfig
    from repro.harness.parallel import grid_tasks
    from repro.harness.runner import SimulationRunner

    tasks = grid_tasks(
        common.MIXES, common.STATIONS, common.MONTHS, policies=common.POLICIES,
        budgets_w=common.BUDGETS_W, deratings=tuple(common.DERATINGS.values()),
    )
    exact = SimulationRunner(SolarCoreConfig(), jobs=2).prefetch(tasks)
    table = SimulationRunner(SolarCoreConfig(solver="table"), jobs=2).prefetch(tasks)
    per_cell: Counter = Counter()
    for task in tasks:
        bad = checks.table_violations(exact[task], table[task])
        if bad:
            per_cell[task.cell] += 1
            print(f"{task.describe()}: {', '.join(bad)}")
    for cell, count in sorted(per_cell.items()):
        print(f"cell {cell[0]} m{cell[1]}: {count}")
    print(f"total: {sum(per_cell.values())} of {len(tasks)} days")
    return 0


if __name__ == "__main__":
    sys.exit(main())
