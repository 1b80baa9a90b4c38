"""Run-to-run spread of the end-to-end metrics, one seed per run.

Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 1-10 [--workloads packet_8k,stream_1k] [--write]

Runs ``run.py --trace 0`` once per seed and workload, one after another,
and prints each metric's median and quartile spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  ``--write`` records the result in ``baseline.json``,
which ``run.py`` prints next to every metric so that a later change can be
told from noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run not correct: {result}")
    sim_digest = next(ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("sim_digest"))
    return result["metrics"], sim_digest


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "iqr_share": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    table = {}
    for workload in workloads:
        runs, digests = [], set()
        t0 = time.monotonic()
        for seed in seeds:
            metrics, sim_digest = run_once(workload, seed, bench["run_seconds"])
            runs.append(metrics)
            digests.add(sim_digest)
        wall = time.monotonic() - t0
        table[workload] = {name: summarize([r[name]["value"] for r in runs]) for name in bounds}
        print(f"{workload}: {len(seeds)} runs in {wall:.0f} s, {len(digests)} distinct sim_digests")
        for name, s in table[workload].items():
            flag = "" if name == "setup_s" or s["iqr_share"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:20s} median {s['median']:12.6g}  spread {100 * s['iqr_share']:6.2f} %"
                  f"  (bound {100 * bounds[name]:.0f} %){flag}")

    if args.write:
        path = HERE / "baseline.json"
        old = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
        old["workloads"].update(table)
        old.update(seeds=args.seeds, run_seconds=bench["run_seconds"])
        path.write_text(json.dumps(old, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
