"""The benchmark's four workloads.

Every workload is closed-loop: one caller in one process, no pool and no
extra threads; the next op starts when the previous one returned.  Inputs
come from ``--seed`` alone.  Op ``i`` replays input ``i % pool``, so the
first ``pool`` ops fix the run's ``sim_digest`` and every later op must
reproduce its pool-mate's output exactly (a mismatch counts as a failed
op).  README.md records why each workload was chosen and which layer
metrics should move it.

A workload's ``op(i)`` is the timed call.  ``sample(i, raw, op_s)`` runs
outside the timed window: it checks the output (raising
:class:`OpFailed`) and returns a :class:`Sample`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass

import numpy as np


class OpFailed(Exception):
    """An op's output failed its workload's correctness check."""


@dataclass
class Sample:
    """What one successful op contributes to the end-to-end metrics."""

    #: Latency of each unit of work the op completed (packet, capture,
    #: grid cell, fleet run), seconds.
    units_s: list[float]
    #: Each caller-facing blocking call inside the op, seconds.
    calls_s: list[float]
    #: Simulated (on-air or fleet) seconds the op covered.
    sim_s: float
    #: JSON-ready output, hashed into ``sim_digest``.
    canon: object


def digest(obj) -> str:
    """sha256 of a JSON-ready object (floats by repr, so bit-exact)."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def array_digest(a) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(str(a.dtype).encode() + a.tobytes()).hexdigest()


def pool_seeds(seed: int, tag: str, n: int) -> list[int]:
    """``n`` input seeds derived from the workload seed (and a per-use tag)."""
    entropy = [int(seed), *tag.encode()]
    return [int(s) for s in np.random.SeedSequence(entropy).generate_state(n)]


class Workload:
    name = ""
    pool = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir

    def setup(self) -> None:
        """Build the program's objects and warm them up (not timed per op)."""

    def op(self, i: int):
        raise NotImplementedError

    def sample(self, i: int, raw, op_s: float) -> Sample:
        raise NotImplementedError

    def close(self) -> None:
        """Release what setup made."""


class Packet8k(Workload):
    """Warm batch packets at the paper's headline operating point."""

    name = "packet_8k"
    pool = 64

    def setup(self):
        from repro import ScenarioSpec

        spec = ScenarioSpec(
            kind="packet", rate_bps=8000, distance_m=3, payload_bytes=24, k_branches=16
        )
        self.sim = spec.build()
        self.seeds = pool_seeds(self.seed, self.name, self.pool)
        # First-use warm-up: opcache fills and lazy state, on an input
        # outside the pool.
        self.sim.measure_ber(n_packets=1, rng=pool_seeds(self.seed, "warmup", 1)[0])
        self.frame_s = self.sim.frame.duration_s

    def op(self, i):
        return self.sim.measure_ber(n_packets=1, rng=self.seeds[i % self.pool], keep_results=True)

    def sample(self, i, raw, op_s):
        r = raw.results[0]
        if not (r.detected and r.crc_ok and r.n_bit_errors == 0):
            raise OpFailed(
                f"packet not clean: detected={r.detected} crc_ok={r.crc_ok} "
                f"bit_errors={r.n_bit_errors} failure={r.failure}"
            )
        canon = [r.ber, r.n_bit_errors, r.n_bits, r.detected, r.crc_ok, r.snr_link_db,
                 r.snr_est_db, r.equalizer_mse, str(r.failure)]
        return Sample([op_s], [op_s], self.frame_s, canon)


def receiver_canon(out) -> list:
    """The fields the streaming/batch equivalence is checked on."""
    return [out.payload.hex(), bool(out.crc_ok), array_digest(out.levels_i),
            array_digest(out.levels_q), int(out.detection.offset),
            float(out.equalizer_mse)]


class Stream1k(Workload):
    """1 Kbps captures pushed chunk by chunk through the streaming receiver."""

    name = "stream_1k"
    pool = 32
    chunks = (64, 256, 1024, 4096)

    def setup(self):
        from repro import ScenarioSpec

        spec = ScenarioSpec(
            kind="packet", rate_bps=1000, distance_m=3, payload_bytes=24, k_branches=16
        )
        self.sim = spec.build()
        self.caps = [self.sim.make_capture(rng=s) for s in pool_seeds(self.seed, self.name, self.pool)]
        self.refs: dict[int, list] = {}
        self._rng = np.random.default_rng(pool_seeds(self.seed, "chunks", 1)[0])
        self._order: list[int] = []
        self.fs = self.sim.config.fs
        # First-use warm-up of the batch and the streaming path.
        self.batch_canon(0)
        self._push_all(self.caps[0], 256)

    def batch_canon(self, slot: int) -> list:
        """The batch receiver's output on capture ``slot``: the reference
        the streamed outputs must equal (computed once, outside timed ops)."""
        if slot not in self.refs:
            cap = self.caps[slot]
            self.refs[slot] = receiver_canon(
                self.sim.receiver.receive(cap.samples, search_start=0, search_stop=cap.search_stop)
            )
        return self.refs[slot]

    def chunk_for(self, i: int) -> int:
        """Chunk size of op ``i``: each block of four consecutive ops uses
        every size once, in a seeded order, so every run has the same mix."""
        while len(self._order) <= i:
            self._order.extend(self._rng.permutation(self.chunks).tolist())
        return self._order[i]

    def _push_all(self, cap, chunk):
        rx = self.sim.make_streaming_receiver(search_stop=cap.search_stop)
        x = cap.samples
        outs, stalls = [], []
        for k in range(0, x.size, chunk):
            t = time.perf_counter()
            outs += rx.push(x[k : k + chunk])
            stalls.append(time.perf_counter() - t)
        outs += rx.close()
        return outs, stalls

    def op(self, i):
        return self._push_all(self.caps[i % self.pool], self.chunk_for(i))

    def sample(self, i, raw, op_s):
        outs, stalls = raw
        slot = i % self.pool
        if len(outs) != 1:
            raise OpFailed(f"capture {slot} streamed {len(outs)} outputs, expected 1")
        canon = receiver_canon(outs[0])
        if canon != self.batch_canon(slot):
            raise OpFailed(f"capture {slot} streamed output differs from the batch receiver's")
        return Sample([op_s], stalls, self.caps[slot].samples.size / self.fs, canon)


class SweepCold(Workload):
    """Journaled ``rate_vs_distance_grid`` passes on an empty opcache."""

    name = "sweep_cold"
    pool = 4
    rates_bps = [2000, 4000, 8000]
    distances_m = [1.0, 2.0, 3.0, 4.0]

    def setup(self):
        from repro.modem.config import preset_for_rate
        from repro.phy.frame import FrameFormat

        self.tmp = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)
        self.seeds = pool_seeds(self.seed, self.name, self.pool)
        self.frame_s = {
            float(r): FrameFormat(preset_for_rate(r), payload_bytes=24).duration_s
            for r in self.rates_bps
        }
        # First-use warm-up of the process (lazy imports, numpy plans) on a
        # grid seed outside the pool; every timed pass starts opcache-cold.
        self._pass(pool_seeds(self.seed, "warmup", 1)[0], "warmup")

    def _pass(self, root_seed, tag):
        from repro.experiments.fig16 import rate_vs_distance_grid
        from repro.utils.opcache import OpCache, set_global_opcache

        set_global_opcache(OpCache())
        journal = os.path.join(self.tmp, f"{tag}.jsonl")
        rate_vs_distance_grid(
            rates_bps=self.rates_bps, distances_m=self.distances_m, n_packets=1,
            payload_bytes=24, n_workers=1, root_seed=root_seed, journal=journal,
        )
        return journal

    def op(self, i):
        return self._pass(self.seeds[i % self.pool], f"op{i}")

    def sample(self, i, journal, op_s):
        from repro.experiments.sweeps import journal_rows, read_journal

        state = read_journal(journal)
        n = len(self.rates_bps) * len(self.distances_m)
        if state.quarantined or len(state.tasks) != n:
            raise OpFailed(
                f"grid pass journaled {len(state.tasks)}/{n} cells, "
                f"{len(state.quarantined)} quarantined"
            )
        rows = journal_rows(journal)
        os.remove(journal)
        cells = [rec["elapsed_s"] for rec in state.tasks.values()]
        sim_s = sum(self.frame_s[float(row["scheme"])] for row in rows)
        return Sample(cells, cells, sim_s, rows)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class FleetCrowded(Workload):
    """The default 3-reader fleet over-subscribed under compound chaos."""

    name = "fleet_crowded"
    pool = 4
    n_tags = 2000
    duration_s = 90.0

    def setup(self):
        from repro.network import FleetConfig

        self.config = FleetConfig(n_tags=self.n_tags, duration_s=self.duration_s)
        self.seeds = pool_seeds(self.seed, self.name, self.pool)
        # First-use warm-up on a small fleet (lazy imports, scipy.stats).
        self._run(FleetConfig(n_tags=50, duration_s=5.0), pool_seeds(self.seed, "warmup", 1)[0])

    def _run(self, config, seed):
        from repro.faults.network import network_scenario
        from repro.network import FleetSimulator

        plan = network_scenario("compound", config.duration_s, seed=seed)
        return FleetSimulator(config, fault_plan=plan, root_seed=seed).run()

    def op(self, i):
        return self._run(self.config, self.seeds[i % self.pool])

    def sample(self, i, result, op_s):
        violation = result.check_contract()
        if violation is not None:
            raise OpFailed(f"fleet contract violated: {violation}")
        canon = [result.row(), array_digest(result.per_tag_delivered())]
        return Sample([op_s], [op_s], self.duration_s, canon)


WORKLOADS = {w.name: w for w in (Packet8k, Stream1k, SweepCold, FleetCrowded)}
