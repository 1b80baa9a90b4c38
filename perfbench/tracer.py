"""Span recorder that wraps the program's public layer calls from outside.

The program is not edited: :class:`Tracer` replaces a fixed list of public
functions and methods (``LAYERS``) with thin wrappers while it is
installed, and puts the originals back on :meth:`Tracer.uninstall`.  Each
wrapped call records one span — name, start, end, parent span and the op it
belongs to — into flat in-memory arrays, so a fleet op with ~10^5 queue
calls stays a few MB.  Spans are written out once, when the run ends
(:meth:`Tracer.save`).

Self time is a span's duration minus the time its child spans cover.  The
wrappers only observe: they pass every argument and return value through
unchanged, so a traced run's ``sim_digest`` equals an untraced one's.

Layer idea after the Iris receiver's ``timeit`` decorator (SNIPPETS.md),
with the timings going into the result instead of a log.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

#: (module, attribute path, span name).  Every target is a public call of
#: the layer the span name starts with.
LAYERS = [
    ("repro.api.spec", "ScenarioSpec.build", "api.spec.build"),
    ("repro.training.offline", "OfflineTrainer.collect_condition_tables", "training.offline.collect"),
    ("repro.training.offline", "OfflineTrainer.extract_bases", "training.offline.extract"),
    ("repro.utils.opcache", "OpCache.get", "utils.opcache.get"),
    ("repro.phy.transmitter", "PhyTransmitter.transmit", "phy.transmitter.transmit"),
    ("repro.lcm.array", "LCMArray.emit", "lcm.array.emit"),
    ("repro.channel.link", "OpticalLink.transmit", "channel.link.transmit"),
    ("repro.modem.preamble", "Preamble.detect", "modem.preamble.detect"),
    ("repro.training.online", "OnlineTrainer.train", "training.online.train"),
    ("repro.training.online", "OnlineTrainer.solve_with_diagnostics", "training.online.solve"),
    ("repro.training.online", "OnlineTrainer.build_bank", "training.online.build_bank"),
    ("repro.modem.dfe", "DFEDemodulator.demodulate", "modem.dfe.demodulate"),
    ("repro.modem.dfe", "DFEDemodulator.begin_block", "modem.dfe.begin_block"),
    ("repro.modem.dfe", "DFEBlockSession.feed", "modem.dfe.block_feed"),
    ("repro.modem.references", "ReferenceBank.dense_split_planes", "modem.references.dense_split_planes"),
    ("repro.phy.receiver", "PhyReceiver.receive", "phy.receiver.receive"),
    ("repro.phy.frame", "FrameFormat.decode_payload", "phy.frame.decode_payload"),
    ("repro.phy.streaming", "StreamingReceiver.push", "phy.streaming.push"),
    ("repro.experiments.sweeps", "SweepRunner.run", "experiments.sweeps.run"),
    ("repro.experiments.common", "simulate_grid_task", "experiments.common.cell"),
    ("repro.network.core", "EventQueue.push", "network.core.push"),
    ("repro.network.core", "EventQueue.pop", "network.core.pop"),
    ("repro.network.reader", "Reader.admit", "network.reader.admit"),
    ("repro.network.fleet", "FleetSimulator.run", "network.fleet.run"),
    ("repro.network.linkstore", "LinkStateStore.serve_round", "network.linkstore.serve_round"),
]

#: Artifact kinds the operating-point cache stores (``OpCache.get`` callers).
OPCACHE_KINDS = (
    "unit_table",
    "preamble_reference",
    "training_design",
    "training_factorization",
    "tx_prefix",
)

SETUP_OP = -1


class Tracer:
    """Records spans of the wrapped layer calls; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = SETUP_OP
        self._stack: list[int] = []
        #: Side counters keyed ``(name, op)``: opcache hits/misses, accepted
        #: admissions, emitting pushes.
        self.counts: Counter = Counter()
        #: Distinct ``dense_split_planes`` argument keys per op.
        self.keys: defaultdict = defaultdict(set)
        #: (module, path, owner, attribute, original) per installed wrapper.
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _ix(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self.names)
            self.names.append(name)
        return ix

    def call(self, ix: int, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``names[ix]``."""
        i = len(self.start)
        stack = self._stack
        self.name.append(ix)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------- wrapping

    def _wrapper(self, name: str, fn):
        ix = self._ix(name)
        call = self.call
        if name == "utils.opcache.get":
            def get(cache, kind, key, build):
                built = []

                def timed_build():
                    built.append(True)
                    return call(self._ix(f"utils.opcache.build.{kind}"), build, (), {})

                value = call(ix, fn, (cache, kind, key, timed_build), {})
                self.counts[(f"opcache.{'miss' if built else 'hit'}.{kind}", self.op_id)] += 1
                return value

            return get
        if name == "modem.references.dense_split_planes":
            def planes(bank, *args, **kwargs):
                self.keys[self.op_id].add((args, tuple(sorted(kwargs.items()))))
                return call(ix, fn, (bank, *args), kwargs)

            return planes
        if name in ("network.reader.admit", "phy.streaming.push"):
            def counted(*args, **kwargs):
                out = call(ix, fn, args, kwargs)
                if out:
                    self.counts[(name, self.op_id)] += 1
                return out

            return counted

        def wrapped(*args, **kwargs):
            return call(ix, fn, args, kwargs)

        return wrapped

    def install(self) -> None:
        """Wrap every target of :data:`LAYERS` whose module is imported and
        that is not wrapped yet.

        Importing nothing keeps import cost where the program pays it: a
        module first imported by, say, ``ScenarioSpec.build`` is wrapped at
        the next call, after that build.
        """
        done = {(module, path) for module, path, *_ in self._saved}
        for module, path, name in LAYERS:
            owner = sys.modules.get(module)
            if owner is None or (module, path) in done:
                continue
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((module, path, owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original))

    def uninstall(self) -> None:
        """Put every original back."""
        for _, _, owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ----------------------------------------------------------- reduction

    def arrays(self) -> dict[str, np.ndarray]:
        """The span table as numpy arrays, with self time per span."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        covered = np.zeros_like(dur)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": start.copy(),
            "end": end.copy(),
            "parent": parent.copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "self_s": dur - covered,
        }

    def save(self, path) -> None:
        """Write the span table (``.npz``; span names in ``names``)."""
        np.savez(path, names=np.array(self.names or [""]), **self.arrays())


def layer_metrics(tracer: Tracer, traced_ops: list[int], import_s: float) -> dict[str, float]:
    """Per-layer metrics from a traced run.

    ``*_ms`` are self times per traced op (mean), except the set-up ones
    (``api.spec.build_ms``, ``training.offline.ms``): those are whole span
    durations summed over set-up.  Counts are per traced op; ratios are
    over all traced ops and read 0 when the layer was not called.
    """
    t = tracer.arrays()
    name_ix = {n: i for i, n in enumerate(tracer.names)}
    ops = set(traced_ops)
    n_ops = max(len(ops), 1)
    in_ops = np.isin(t["op"], list(ops))
    in_setup = t["op"] == SETUP_OP

    def select(names, mask):
        ids = [name_ix[n] for n in names if n in name_ix]
        return mask & np.isin(t["name"], ids)

    def self_ms(*names):
        return float(t["self_s"][select(names, in_ops)].sum()) * 1e3 / n_ops

    def setup_ms(*names):
        span = select(names, in_setup)
        return float((t["end"][span] - t["start"][span]).sum()) * 1e3

    def calls(*names):
        return int(select(names, in_ops).sum())

    def side(name):
        return sum(v for (k, op), v in tracer.counts.items() if k == name and op in ops)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "repro.import_s": import_s,
        "api.spec.build_ms": setup_ms("api.spec.build"),
        "training.offline.ms": setup_ms("training.offline.collect", "training.offline.extract"),
    }
    for kind in OPCACHE_KINDS:
        hits, misses = side(f"opcache.hit.{kind}"), side(f"opcache.miss.{kind}")
        m[f"utils.opcache.misses.{kind}"] = misses / n_ops
        m[f"utils.opcache.hit_ratio.{kind}"] = ratio(hits, hits + misses)
        m[f"utils.opcache.build_ms.{kind}"] = self_ms(f"utils.opcache.build.{kind}")
    pushes = calls("phy.streaming.push")
    admits = calls("network.reader.admit")
    m.update({
        "phy.transmitter.transmit_ms": self_ms("phy.transmitter.transmit"),
        "lcm.array.emit_ms": self_ms("lcm.array.emit"),
        "channel.link.transmit_ms": self_ms("channel.link.transmit"),
        "modem.preamble.detect_ms": self_ms("modem.preamble.detect"),
        "modem.preamble.detect_calls": calls("modem.preamble.detect") / n_ops,
        "training.online.train_ms": self_ms(
            "training.online.train", "training.online.solve", "training.online.build_bank"
        ),
        "modem.dfe.demodulate_ms": self_ms("modem.dfe.demodulate"),
        "modem.dfe.begin_block_ms": self_ms("modem.dfe.begin_block"),
        "modem.dfe.block_feed_ms": self_ms("modem.dfe.block_feed"),
        "modem.references.dense_split_planes_calls":
            calls("modem.references.dense_split_planes") / n_ops,
        "modem.references.dense_split_planes_keys":
            sum(len(tracer.keys[op]) for op in ops) / n_ops,
        "phy.receiver.receive_ms": self_ms("phy.receiver.receive"),
        "phy.frame.decode_payload_ms": self_ms("phy.frame.decode_payload"),
        "phy.streaming.push_ms": self_ms("phy.streaming.push"),
        "phy.streaming.pushes": pushes / n_ops,
        "phy.streaming.emitting_push_ratio": ratio(side("phy.streaming.push"), pushes),
        "experiments.sweeps.self_ms": self_ms("experiments.sweeps.run"),
        "experiments.common.cell_ms": self_ms("experiments.common.cell"),
        "network.core.events": calls("network.core.pop") / n_ops,
        "network.core.queue_ms": self_ms("network.core.push", "network.core.pop"),
        "network.reader.admit_calls": admits / n_ops,
        "network.reader.admit_accept_ratio": ratio(side("network.reader.admit"), admits),
        "network.fleet.self_ms": self_ms("network.fleet.run"),
        "network.linkstore.serve_round_ms": self_ms("network.linkstore.serve_round"),
        "network.linkstore.serve_round_calls": calls("network.linkstore.serve_round") / n_ops,
    })
    return m
