"""Unit tests for the streaming receiver's capture lifecycle.

The bit-identity contract lives in ``test_streaming_equivalence.py`` and
the golden wall; this file covers the machinery around it — capture
delimiting, the run() generator, probe(), backpressure policy, the
``stream.*`` gauges, and the ``buffer_pending`` classification the batch
receiver grew for resumable streaming decodes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FailureStage
from repro.modem.config import ModemConfig
from repro.obs import Observer, use_observer
from repro.phy.pipeline import PacketSimulator
from repro.phy.streaming import StreamingReceiver, _GrowBuffer


@pytest.fixture(scope="module")
def sim(fast_config):
    return PacketSimulator(config=fast_config, payload_bytes=6, rng=5)


@pytest.fixture(scope="module")
def capture(sim):
    return sim.make_capture(rng=17)


def chunks_of(x, size):
    return [x[i : i + size] for i in range(0, x.size, size)]


class TestGrowBuffer:
    def test_append_and_view_round_trip(self):
        buf = _GrowBuffer(np, initial_capacity=2)
        pieces = [np.arange(3) + 0j, np.arange(5) * 1j, np.zeros(0, dtype=complex)]
        for p in pieces:
            buf.append(p)
        np.testing.assert_array_equal(buf.view(), np.concatenate(pieces))

    def test_growth_is_capacity_doubling(self):
        buf = _GrowBuffer(np, initial_capacity=1)
        for i in range(100):
            buf.append(np.full(7, i, dtype=complex))
        assert buf.size == 700
        assert buf._data.size >= 700
        np.testing.assert_array_equal(
            buf.view(), np.repeat(np.arange(100), 7).astype(complex)
        )


class TestCaptureLifecycle:
    def test_push_after_close_raises(self, sim):
        rx = StreamingReceiver(sim.receiver)
        rx.close()
        with pytest.raises(RuntimeError, match="closed"):
            rx.push(np.zeros(4, dtype=complex))

    def test_close_is_idempotent(self, sim, capture):
        rx = StreamingReceiver(sim.receiver, search_stop=capture.search_stop)
        # With a bounded window the full-capture push decodes mid-push.
        outs = rx.push(capture.samples)
        assert len(outs) == 1
        assert rx.close() == []
        assert rx.close() == []

    def test_non_1d_chunk_rejected(self, sim):
        rx = StreamingReceiver(sim.receiver)
        with pytest.raises(ValueError, match="1-D"):
            rx.push(np.zeros((2, 2), dtype=complex))

    def test_empty_chunks_are_harmless(self, sim, capture):
        rx = StreamingReceiver(sim.receiver, search_stop=capture.search_stop)
        outs = []
        empty = np.zeros(0, dtype=complex)
        outs.extend(rx.push(empty))
        for c in chunks_of(capture.samples, 500):
            outs.extend(rx.push(c))
            outs.extend(rx.push(empty))
        outs.extend(rx.close())
        assert len(outs) == 1 and outs[0].crc_ok

    def test_end_capture_without_samples_is_a_no_op(self, sim):
        rx = StreamingReceiver(sim.receiver)
        assert rx.end_capture() == []
        assert rx.captures_completed == 0

    def test_run_generator_yields_one_output_per_capture(self, sim):
        caps = [sim.make_capture(rng=s) for s in (21, 22)]
        n = max(c.samples.size for c in caps)
        padded = [
            np.concatenate([c.samples, np.full(n - c.samples.size, c.samples[-1])])
            for c in caps
        ]
        rx = StreamingReceiver(sim.receiver, capture_samples=n)
        outs = list(rx.run(chunks_of(np.concatenate(padded), 333)))
        assert len(outs) == 2
        assert [o.crc_ok for o in outs] == [True, True]
        assert rx.captures_completed == 2
        assert rx.packets_emitted == 2

    def test_chunk_spanning_capture_boundary_splits_correctly(self, sim):
        cap = sim.make_capture(rng=23)
        n = cap.samples.size
        stream = np.concatenate([cap.samples, cap.samples])
        rx = StreamingReceiver(sim.receiver, capture_samples=n)
        # One push covering capture 1's tail and capture 2's head.
        outs = []
        outs.extend(rx.push(stream[: n - 100]))
        outs.extend(rx.push(stream[n - 100 : n + 300]))
        outs.extend(rx.push(stream[n + 300 :]))
        outs.extend(rx.close())
        assert len(outs) == 2
        assert outs[0].crc_ok and outs[1].crc_ok
        assert outs[0].payload == outs[1].payload

    def test_mid_push_emission_in_fixed_mode(self, sim):
        """With a bounded window and a fixed capture size, the decode
        completes as soon as the frame is buffered — before the capture
        boundary, so the output arrives mid-push."""
        cap = sim.make_capture(rng=29)
        pad = np.full(4000, cap.samples[-1])
        stream = np.concatenate([cap.samples, pad])
        rx = StreamingReceiver(
            sim.receiver, capture_samples=stream.size, search_stop=cap.search_stop
        )
        outs = rx.push(cap.samples)
        assert len(outs) == 1 and outs[0].crc_ok
        assert rx.buffered_samples == 0  # capture buffer freed at emission
        assert rx.push(pad) == []  # draining to the boundary re-buffers nothing

    def test_probe_reports_pending_then_full_decode(self, sim, capture):
        rx = StreamingReceiver(sim.receiver, search_stop=capture.search_stop)
        with pytest.raises(RuntimeError, match="no samples"):
            rx.probe()
        rx.push(capture.samples[: capture.search_stop + 400])
        partial = rx.probe()
        assert partial.failure is not None
        assert partial.failure.code == "buffer_pending"
        outs = rx.push(capture.samples[capture.search_stop + 400 :])
        outs.extend(rx.close())
        assert len(outs) == 1 and outs[0].crc_ok


class TestBackpressure:
    def test_oversized_capture_is_dropped_and_classified(self, sim, capture):
        rx = StreamingReceiver(sim.receiver, max_buffered_samples=64)
        outs = []
        for c in chunks_of(capture.samples, 50):
            outs.extend(rx.push(c))
        outs.extend(rx.close())
        assert len(outs) == 1
        out = outs[0]
        assert not out.crc_ok
        assert out.failure is not None
        assert out.failure.stage is FailureStage.CAPTURE
        assert out.failure.code == "backpressure_drop"

    def test_drop_counter_and_stream_continues(self, sim, capture):
        obs = Observer()
        with use_observer(obs):
            rx = StreamingReceiver(
                sim.receiver,
                capture_samples=capture.samples.size,
                max_buffered_samples=64,
                observer=obs,
            )
            outs = list(rx.run(chunks_of(np.concatenate([capture.samples] * 2), 50)))
        assert len(outs) == 2
        assert all(o.failure.code == "backpressure_drop" for o in outs)
        series = {
            e["name"]: e for e in obs.metrics.snapshot()["series"] if not e["labels"]
        }
        assert series["stream.backpressure_drops"]["value"] == 2.0

    def test_bound_must_be_positive(self, sim):
        with pytest.raises(ValueError, match="max_buffered_samples"):
            StreamingReceiver(sim.receiver, max_buffered_samples=0)


class TestStreamGauges:
    def test_stream_gauges_are_exported(self, sim, capture):
        obs = Observer()
        with use_observer(obs):
            rx = StreamingReceiver(
                sim.receiver, search_stop=capture.search_stop, observer=obs
            )
            list(rx.run(chunks_of(capture.samples, 256)))
        names = {e["name"] for e in obs.metrics.snapshot()["series"]}
        for gauge in (
            "stream.chunks_total",
            "stream.buffered_samples",
            "stream.packets_emitted_total",
            "stream.sustained_pps",
            "stream.agc_rms",
            "stream.agc_dc_mag",
        ):
            assert gauge in names, gauge

    def test_agc_tracks_signal_moments(self, sim, capture):
        obs = Observer()
        x = capture.samples
        with use_observer(obs):
            rx = StreamingReceiver(sim.receiver, observer=obs)
            rx.push(x)
            rx.close()
        series = {
            e["name"]: e for e in obs.metrics.snapshot()["series"] if not e["labels"]
        }
        rms = float(np.sqrt(np.mean(np.abs(x) ** 2)))
        dc = float(np.abs(np.mean(x)))
        assert series["stream.agc_rms"]["value"] == pytest.approx(rms)
        assert series["stream.agc_dc_mag"]["value"] == pytest.approx(dc)


class TestBufferPending:
    """The receiver-level ``stream_end=False`` contract (the whole-buffer
    assumption fix): a frame overrunning a *partial* buffer is pending, not
    lost, and the decode resumes cleanly once the buffer fills."""

    @pytest.fixture(scope="class", params=[True, False], ids=["hardened", "unhardened"])
    def rig(self, request, fast_config):
        s = PacketSimulator(config=fast_config, payload_bytes=6, hardened=request.param, rng=5)
        cap = s.make_capture(rng=31)
        full = s.receiver.receive(cap.samples, 0, cap.search_stop)
        assert full.crc_ok
        return s, cap, full

    def _short_prefix(self, sim, cap, full, cut=3):
        needed = sim.receiver.frame_samples_after_offset()
        return cap.samples[: full.detection.offset + needed - cut]

    def test_partial_buffer_is_classified_pending(self, rig):
        sim, cap, full = rig
        out = sim.receiver.receive(
            self._short_prefix(sim, cap, full), 0, cap.search_stop, stream_end=False
        )
        assert out.failure is not None
        assert out.failure.stage is FailureStage.CAPTURE
        assert out.failure.code == "buffer_pending"
        assert "need" in out.failure.detail and "have" in out.failure.detail
        assert out.payload == b"" and not out.crc_ok
        assert [e.status for e in out.events if e.stage is FailureStage.CAPTURE] == [
            "pending"
        ]

    def test_resumed_decode_matches_whole_buffer(self, rig):
        sim, cap, full = rig
        sim.receiver.receive(
            self._short_prefix(sim, cap, full), 0, cap.search_stop, stream_end=False
        )
        again = sim.receiver.receive(cap.samples, 0, cap.search_stop, stream_end=False)
        assert again.crc_ok and again.payload == full.payload
        assert again.equalizer_mse == full.equalizer_mse
        assert again.detection.offset == full.detection.offset

    def test_stream_end_true_keeps_the_old_ladder(self, rig):
        """With ``stream_end=True`` (the default, i.e. batch semantics) a
        deeply truncated buffer still runs the truncation ladder / raises —
        the pending classification never leaks into batch calls."""
        sim, cap, full = rig
        prefix = self._short_prefix(sim, cap, full, cut=600)
        if sim.receiver.hardened:
            out = sim.receiver.receive(prefix, 0, cap.search_stop)
            if out.failure is not None:
                assert out.failure.code != "buffer_pending"
            assert all(e.status != "pending" for e in out.events)
        else:
            with pytest.raises(ValueError, match="truncated"):
                sim.receiver.receive(prefix, 0, cap.search_stop)

    def test_pending_when_buffer_shorter_than_preamble(self, rig):
        """A probe before even one search offset is buffered is pending,
        not a detection ValueError."""
        sim, cap, full = rig
        short = cap.samples[: sim.receiver.frame.preamble.n_samples // 2]
        out = sim.receiver.receive(short, 0, cap.search_stop, stream_end=False)
        assert out.failure is not None
        assert out.failure.code == "buffer_pending"
        assert not out.detection.detected
        with pytest.raises(ValueError):  # batch semantics unchanged
            sim.receiver.receive(short, 0, cap.search_stop)


class TestPipelineCaptureFactory:
    def test_make_capture_is_deterministic_per_seed(self, sim):
        a, b = sim.make_capture(rng=41), sim.make_capture(rng=41)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.payload == b.payload
        assert (a.offset, a.search_stop) == (b.offset, b.search_stop)

    def test_run_packet_consumes_make_capture(self, sim):
        """The packet loop and the factory must stay the same synthesis:
        decoding the factory's capture reproduces _run_packet on the seed."""
        res = sim._run_packet(rng=np.random.default_rng(43))
        cap = sim.make_capture(rng=np.random.default_rng(43))
        assert res.snr_link_db == cap.link_snr_db
        rx = sim.receiver.receive(cap.samples, 0, cap.search_stop)
        assert rx.crc_ok == res.crc_ok
        assert rx.equalizer_mse == res.equalizer_mse
        assert (rx.payload == cap.payload) == (res.n_bit_errors == 0)

    def test_make_streaming_receiver_wires_the_inner_receiver(self, sim):
        rx = sim.make_streaming_receiver(search_stop=123)
        assert isinstance(rx, StreamingReceiver)
        assert rx._inner is sim.receiver
        assert rx.search_stop == 123
