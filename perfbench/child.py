"""One workload in its own interpreter: set-up, timed ops, checks, metrics.

``run.py`` starts this script with the BLAS thread variables pinned to 1
and reads the JSON object it prints as its last stdout line.  With
``--setup-only`` it stops after set-up and reports only ``setup_s``.

Set-up runs from just before ``import repro`` to the first timed op.  The
timed loop then runs ops for ``--seconds`` (and at least one input pool,
two when tracing).  A traced run installs the :mod:`tracer` wrappers for
set-up and for every other pool of ops; the ops in between run unwrapped,
so ``bench.trace_overhead`` compares interleaved traced and untraced ops.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# numpy is imported inside the functions below, after set-up timing starts,
# so that its import counts in ``setup_s`` like the program's own.
ROOT = Path(__file__).resolve().parents[1]
#: Sweep journals and span tables; inside the checkout, ignored by git.
WORKDIR = ROOT / ".perfbench"


def machine_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def percentile_ms(values_s, q) -> float:
    """The ``q``-th percentile in ms, taken no higher than the rank that
    leaves ten samples beyond it (and never below the median), so a tail
    read from a small sample is not its maximum."""
    import numpy as np

    q = max(50.0, min(q, 100.0 * (1.0 - 10.0 / len(values_s))))
    return float(np.percentile(values_s, q)) * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import repro

    import_s = time.perf_counter() - t0
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"child: repro imported from {repro.__file__}, not from this checkout",
              file=sys.stderr)
        return 3

    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, OpFailed, digest

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    WORKDIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, str(WORKDIR))
    wl.setup()
    setup_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    min_ops = wl.pool * (2 if tracer is not None else 1)
    canon: dict[int, str] = {}
    samples, failures = [], []
    op_times: dict[bool, list[float]] = {False: [], True: []}
    traced_ops: list[int] = []
    attempted = 0
    deadline = time.perf_counter() + args.seconds
    while attempted < min_ops or time.perf_counter() < deadline:
        i = attempted
        attempted += 1
        traced = tracer is not None and (i // wl.pool) % 2 == 1
        if traced:
            tracer.op_id = i
            tracer.install()
        t = time.perf_counter()
        try:
            raw = wl.op(i)
        except Exception as exc:  # an op that raises counts as failed
            failures.append(f"op {i}: raised {type(exc).__name__}: {exc}")
            continue
        finally:
            op_s = time.perf_counter() - t
            if traced:
                tracer.uninstall()
        try:
            sample = wl.sample(i, raw, op_s)
            got = digest(sample.canon)
            if canon.setdefault(i % wl.pool, got) != got:
                raise OpFailed(f"output differs from op {i % wl.pool} on the same input")
        except OpFailed as exc:
            failures.append(f"op {i}: {exc}")
            continue
        samples.append((sample, op_s))
        op_times[traced].append(op_s)
        if traced:
            traced_ops.append(i)
    wl.close()

    out = {
        "attempted": attempted,
        "failed": len(failures),
        "correct": not failures and len(canon) == wl.pool,
        "failures": failures[:10],
        "sim_digest": digest([canon.get(k) for k in range(wl.pool)]),
        "machine": machine_block(),
        "setup_s": setup_s,
    }
    fail_rate = len(failures) / attempted
    if tracer is not None:
        metrics = layer_metrics(tracer, traced_ops, import_s)
        untraced, traced_s = op_times[False], op_times[True]
        metrics["bench.trace_overhead"] = (
            statistics.median(traced_s) / statistics.median(untraced)
            if traced_s and untraced else 0.0
        )
        metrics["fail_rate"] = fail_rate
        tracer.save(WORKDIR / f"trace-{args.workload}.npz")
        out["counts"] = {"traced_ops": len(traced_ops), "spans": len(tracer.start)}
    elif samples:
        units = [u for s, _ in samples for u in s.units_s]
        calls = [c for s, _ in samples for c in s.calls_s]
        p50 = percentile_ms(units, 50)
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "packet_ms_p50": p50,
            "packet_ms_p95": percentile_ms(units, 95),
            "capture_ms_p50": p50,
            "push_ms_p999": percentile_ms(calls, 99.9),
            "cells_per_s": len(units) / sum(op_s for _, op_s in samples),
            "fleet_sim_s_per_s": statistics.median(s.sim_s / op_s for s, op_s in samples),
            "fail_rate": fail_rate,
        }
        out["counts"] = {"ops": len(samples), "units": len(units), "calls": len(calls)}
    else:
        metrics = {}
    out["metrics"] = metrics
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
