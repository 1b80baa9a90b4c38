"""Nightly shard / crash / merge smoke for the crash-safe sweep engine.

One drill, three grids.  The drill mirrors how a real long sweep dies and
comes back:

1. run the grid uninterrupted and unsharded into ``single.jsonl``;
2. run shard ``0/2`` and *kill it mid-journal* (the engine's
   deterministic ``crash_after`` fault hook — the process dies between
   two journal appends, exactly like a SIGKILL would land), then resume
   it over the torn journal;
3. run shard ``1/2`` into its own journal;
4. merge the two shard journals and demand the merged records are
   **bit-identical** to the unsharded run.

The grids:

* ``sweep_resume`` — the engine's synthetic demo grid.  Also checks the
  resume replayed the journaled prefix and executed the remainder, and
  compares raw result rows as well as canonical records.
* ``trajectory`` — the real physics task over every catalog trajectory,
  three packets per cell.  Also demands the merged records match the
  frozen golden journal ``tests/golden/cases/sweep_trajectory.jsonl``.
* ``polarization`` — the fidelity ladder's divergence task, all four
  rungs at two extinction grades.  Also demands a match with
  ``tests/golden/cases/sweep_polarization.jsonl``.

The golden gates are cross-release identity gates: if a physics or spec
change moves a row, they trip with the journals in hand.  Exit status is
non-zero on any failed check.  Artifacts (every journal plus a JSON
verdict) land under ``benchmarks/results/<grid>_smoke/`` (``sweep_smoke``
for ``sweep_resume``) and are uploaded by the nightly CI lane.

Run from the repository root::

    PYTHONPATH=src python benchmarks/smoke_grid.py --grid trajectory
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.experiments.batch import make_grid
from repro.experiments.polarization_fidelity import polarization_fidelity_grid
from repro.experiments.sweep_demo import demo_task
from repro.experiments.sweeps import (
    SimulatedCrash,
    SweepRunner,
    canonical_records,
    journal_rows,
    merge_journals,
)
from repro.experiments.trajectory_study import trajectory_study_grid

RESULTS = Path(__file__).parent / "results"
GOLDEN = Path(__file__).parent.parent / "tests" / "golden" / "cases"
CRASH_AFTER = 2  # journal appends before the injected kill (1 header + 1 task)

DEMO_TASKS = make_grid(
    {name: {"gain": g} for name, g in [("mono", 1.0), ("lcd", 1.7), ("turbo", 2.4)]},
    [1.0, 2.0, 3.0, 4.0],
    "x",
)
# The frozen grids: full catalog, n_packets=[3], root_seed=51; all four
# rungs, extinctions [20, 30] dB, root_seed=61.
TRAJECTORY_GRID = dict(n_packets_list=[3], root_seed=51)
POLARIZATION_GRID = dict(extinctions_db=[20.0, 30.0], root_seed=61)


def _run_demo(journal, shard=None, crash_after=None):
    return SweepRunner(
        demo_task, journal, root_seed=97, shard=shard, crash_after=crash_after
    ).run(DEMO_TASKS)


def _grid_runner(grid_fn: Callable, grid: dict) -> Callable:
    def run(journal, shard=None, crash_after=None):
        sweep = None if crash_after is None else {"crash_after": crash_after}
        return grid_fn(**grid, journal=journal, shard=shard, sweep=sweep)

    return run


@dataclass(frozen=True)
class Grid:
    label: str
    smoke_dir: str
    run: Callable  # (journal, shard=None, crash_after=None) -> result
    golden: str | None = None  # frozen journal under tests/golden/cases
    grid: dict | None = None  # the frozen grid's arguments


GRIDS = {
    "sweep_resume": Grid("kill-and-resume", "sweep_smoke", _run_demo),
    "trajectory": Grid(
        "trajectory-study",
        "trajectory_smoke",
        _grid_runner(trajectory_study_grid, TRAJECTORY_GRID),
        golden="sweep_trajectory.jsonl",
        grid=TRAJECTORY_GRID,
    ),
    "polarization": Grid(
        "polarization-fidelity",
        "polarization_smoke",
        _grid_runner(polarization_fidelity_grid, POLARIZATION_GRID),
        golden="sweep_polarization.jsonl",
        grid=POLARIZATION_GRID,
    ),
}


def drill(name: str) -> int:
    spec = GRIDS[name]
    smoke_dir = RESULTS / spec.smoke_dir
    smoke_dir.mkdir(parents=True, exist_ok=True)
    for stale in smoke_dir.glob("*.jsonl"):
        stale.unlink()
    run = spec.run

    single = smoke_dir / "single.jsonl"
    run(single)

    shard0 = smoke_dir / "shard0.jsonl"
    crashed = False
    try:
        run(shard0, shard="0/2", crash_after=CRASH_AFTER)
    except SimulatedCrash:
        crashed = True
    resumed = run(shard0, shard="0/2")

    shard1 = smoke_dir / "shard1.jsonl"
    run(shard1, shard="1/2")

    merged = smoke_dir / "merged.jsonl"
    merge_journals([shard0, shard1], merged)

    merged_records = canonical_records(merged)
    unsharded = merged_records == canonical_records(single)
    checks = {"crash_injected": crashed}
    if spec.golden is None:
        golden = None
        checks["resume_executed_remainder"] = resumed.executed > 0 and resumed.replayed > 0
        checks["merged_rows_bit_identical"] = journal_rows(merged) == journal_rows(single)
        checks["merged_records_bit_identical"] = unsharded
        verdict = {
            "n_tasks": len(DEMO_TASKS),
            "resumed_executed": resumed.executed,
            "resumed_replayed": resumed.replayed,
        }
    else:
        golden = GOLDEN / spec.golden
        checks["merged_matches_unsharded"] = unsharded
        checks["matches_golden_journal"] = merged_records == canonical_records(golden)
        verdict = {"grid": dict(spec.grid), "golden": str(golden)}
    verdict.update(checks=checks, ok=all(checks.values()))

    (smoke_dir / "verdict.json").write_text(json.dumps(verdict, indent=2) + "\n")
    for check, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {check}")
    if not verdict["ok"]:
        print(f"{spec.label} smoke FAILED; journals kept under {smoke_dir}", file=sys.stderr)
        return 1
    gates = "2 shards" + ("" if golden is None else " + golden gate")
    print(f"{spec.label} smoke OK ({gates}); artifacts in {smoke_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", required=True, choices=sorted(GRIDS))
    return drill(parser.parse_args(argv).grid)


if __name__ == "__main__":
    raise SystemExit(main())
