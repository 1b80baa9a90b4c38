"""Reed-Solomon-coded frames: the real Fig 18b configuration in the PHY."""

import numpy as np
import pytest

from repro.coding.reed_solomon import RSCodec
from repro.modem.config import ModemConfig
from repro.phy.frame import FrameFormat

FAST = ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3)


@pytest.fixture(scope="module")
def coded_frame() -> FrameFormat:
    return FrameFormat(FAST, payload_bytes=16, codec=RSCodec(n=30, k=18))


class TestLayout:
    def test_on_air_bytes_cover_blocks(self, coded_frame):
        # 16 + 2 CRC bytes in k=18 -> exactly one 30-byte block.
        assert coded_frame.on_air_bytes == 30
        assert coded_frame.payload_slots >= 30 * 8 // FAST.bits_per_symbol

    def test_uncoded_on_air(self):
        frame = FrameFormat(FAST, payload_bytes=16)
        assert frame.on_air_bytes == 18

    def test_coded_frame_is_longer(self, coded_frame):
        uncoded = FrameFormat(FAST, payload_bytes=16)
        assert coded_frame.payload_slots > uncoded.payload_slots

    def test_bad_interleave_depth_rejected(self):
        with pytest.raises(ValueError):
            FrameFormat(FAST, payload_bytes=16, codec=RSCodec(30, 18), interleave_depth=7)


class TestRoundTrip:
    def test_clean(self, coded_frame):
        payload = bytes(range(16))
        levels = coded_frame.encode_payload(payload)
        decoded, ok = coded_frame.decode_payload(*levels)
        assert decoded == payload and ok

    def test_corrects_symbol_errors(self, coded_frame):
        """Flipping a few level symbols stays within t = 6 corrections."""
        payload = bytes(range(16))
        li, lq = coded_frame.encode_payload(payload)
        li = li.copy()
        for n in (0, 7, 13):
            li[n] ^= 1
        decoded, ok = coded_frame.decode_payload(li, lq)
        assert decoded == payload and ok

    def test_uncoded_frame_fails_same_errors(self):
        frame = FrameFormat(FAST, payload_bytes=16)
        payload = bytes(range(16))
        li, lq = frame.encode_payload(payload)
        li = li.copy()
        li[0] ^= 1
        _, ok = frame.decode_payload(li, lq)
        assert not ok

    def test_burst_corrected_with_interleaving(self):
        """A slot-contiguous burst spreads across RS blocks and decodes."""
        frame = FrameFormat(FAST, payload_bytes=40, codec=RSCodec(n=30, k=22))
        payload = bytes(range(40))
        li, lq = frame.encode_payload(payload)
        li, lq = li.copy(), lq.copy()
        for n in range(10, 22):  # 12 consecutive corrupted symbols
            li[n] ^= 1
            lq[n] ^= 1
        decoded, ok = frame.decode_payload(li, lq)
        assert decoded == payload and ok

    def test_overwhelming_errors_flagged(self, coded_frame):
        payload = bytes(16)
        li, lq = coded_frame.encode_payload(payload)
        rng = np.random.default_rng(0)
        li = rng.integers(0, 2, li.size)
        lq = rng.integers(0, 2, lq.size)
        _, ok = coded_frame.decode_payload(li, lq)
        assert not ok


class TestPipelineIntegration:
    def test_coded_packet_end_to_end(self):
        from repro.channel.link import OpticalLink
        from repro.optics.geometry import LinkGeometry
        from repro.phy.pipeline import PacketSimulator

        sim = PacketSimulator(
            config=FAST,
            link=OpticalLink(geometry=LinkGeometry(distance_m=2.0)),
            payload_bytes=16,
            codec=RSCodec(n=30, k=18),
            rng=7,
        )
        r = sim._run_packet(rng=1)
        assert r.ber == 0.0 and r.crc_ok

    def test_coding_extends_range(self):
        """At a marginal distance the coded frame delivers more packets."""
        from repro.channel.link import OpticalLink
        from repro.optics.geometry import LinkGeometry
        from repro.phy.pipeline import PacketSimulator

        kwargs = dict(
            config=FAST,
            payload_bytes=16,
            rng=7,
        )
        distance = 21.0
        coded = PacketSimulator(
            link=OpticalLink(geometry=LinkGeometry(distance_m=distance)),
            codec=RSCodec(n=30, k=18),
            **kwargs,
        )
        raw = PacketSimulator(
            link=OpticalLink(geometry=LinkGeometry(distance_m=distance)),
            **kwargs,
        )
        coded_ok = sum(coded._run_packet(rng=s).crc_ok for s in range(6))
        raw_ok = sum(raw._run_packet(rng=s).crc_ok for s in range(6))
        assert coded_ok >= raw_ok
