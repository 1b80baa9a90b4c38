"""The repository's benchmark: four workloads, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload packet_8k --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``; README.md next to
this file says why each workload was chosen and which layer metric should
move which end-to-end metric.  Each workload runs in its own interpreter
(``child.py``) with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1.

``--trace 0`` prints every end-to-end metric.  ``setup_s`` is the median
over three fresh processes: two that stop after set-up and the measuring
one.  ``--trace 1`` makes one traced run and prints every per-layer metric.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine block, the ``sim_digest`` and each metric with the run-to-run
spread recorded in ``baseline.json``.

Without the program's sources under ``src/repro`` the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh processes whose set-up times give the ``setup_s`` median.
SETUP_REPEATS = 3
#: Every run ends within this many seconds, or fails.
BUDGET_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(ROOT / ".perfbench"),
    )
    return env


def run_child(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def recorded_spreads(workload: str) -> dict:
    path = HERE / "baseline.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get("workloads", {}).get(workload, {})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src / 'repro'}", file=sys.stderr)
        return 2
    # The build: byte-compile the sources once so no timed process pays it.
    if not compileall.compile_dir(str(src), quiet=1):
        print("perfbench: the program's sources do not compile", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    try:
        setups = []
        if not args.trace:
            setups = [
                run_child(args, deadline, setup_only=True)["setup_s"]
                for _ in range(SETUP_REPEATS - 1)
            ]
        result = run_child(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    measured = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        measured["setup_s"] = statistics.median(setups)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"perfbench: {args.workload} produced no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    spreads = recorded_spreads(args.workload)
    machine = result["machine"]
    print(f"workload     : {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace})")
    print(f"machine      : nproc={machine['nproc']} python={machine['python']} "
          f"numpy={machine['numpy']} blas={machine['blas']} threads={machine['threads']}")
    print(f"blas build   : {machine['blas_config']}")
    print(f"samples      : {result.get('counts', {})}")
    print(f"sim_digest   : {result['sim_digest']}")
    print(f"fail_rate    : {result['failed']}/{result['attempted']}")
    for line in result["failures"]:
        print(f"failure      : {line}")
    for name, m in metrics.items():
        spread = spreads.get(name, {}).get("iqr_share")
        note = f"  (run-to-run spread {100 * spread:.1f} %)" if spread is not None else ""
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}{note}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
