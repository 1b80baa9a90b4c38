"""The benchmark's own checks.

Run from the repository root::

    python3 -m pytest -q perfbench

Each workload is run briefly (one input pool): the same seed must give the
same ``sim_digest``, another seed a different one (so the seed reaches the
program), and the traced run the untraced digest (so the wrappers change
nothing).  Both modes must print every metric ``BENCHMARK.json`` declares,
with its unit, and no failed op.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench_run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    return proc


def parse(proc) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    sim_digest = next(ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("sim_digest"))
    return result, sim_digest


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_reach_the_program_and_tracing_changes_nothing(workload):
    first, digest_1 = parse(bench_run(workload, 1, trace=0))
    check_result(first, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in first["metrics"].values())

    _, digest_1_again = parse(bench_run(workload, 1, trace=0))
    assert digest_1_again == digest_1

    _, digest_2 = parse(bench_run(workload, 2, trace=0))
    assert digest_2 != digest_1

    traced, digest_traced = parse(bench_run(workload, 1, trace=1))
    check_result(traced, BENCH["per_layer"])
    assert digest_traced == digest_1
    assert traced["metrics"]["fail_rate"]["value"] == 0.0
    assert traced["metrics"]["bench.trace_overhead"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run(WORKLOADS[0], 1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    outer, inner = tracer._ix("outer"), tracer._ix("inner")

    def body():
        time.sleep(0.01)
        tracer.call(inner, time.sleep, (0.02,), {})

    tracer.call(outer, body, (), {})
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    assert list(spans["parent"]) == [-1, 0]
    assert spans["self_s"][1] == pytest.approx(dur[1])
    assert spans["self_s"][0] == pytest.approx(dur[0] - dur[1])
    assert 0.005 < spans["self_s"][0] < dur[0]
