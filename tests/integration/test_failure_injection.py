"""Failure injection: the receiver must fail loudly, never silently wrong."""

import numpy as np
import pytest

from repro.channel.link import OpticalLink
from repro.modem.config import ModemConfig
from repro.optics.geometry import LinkGeometry
from repro.phy.pipeline import PacketSimulator
from repro.radio.frontend import ReaderFrontend

FAST = ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3)


def make_sim(**kwargs) -> PacketSimulator:
    defaults = dict(
        config=FAST,
        link=OpticalLink(geometry=LinkGeometry(distance_m=2.0)),
        payload_bytes=8,
        rng=7,
    )
    defaults.update(kwargs)
    return PacketSimulator(**defaults)


class TestFrontendFaults:
    def test_coarse_adc_still_decodes(self):
        """6-bit quantisation leaves plenty of margin at short range."""
        sim = make_sim()
        sim.link = OpticalLink(
            geometry=LinkGeometry(distance_m=2.0),
            frontend=ReaderFrontend(adc_bits=6),
        )
        assert sim._run_packet(rng=1).ber == 0.0

    def test_4bit_adc_degrades(self):
        """4-bit conversion cannot resolve the DSM superposition."""
        sim = make_sim(config=ModemConfig())  # 16 levels/axis needs headroom
        sim.link = OpticalLink(
            geometry=LinkGeometry(distance_m=2.0),
            frontend=ReaderFrontend(adc_bits=4),
        )
        result = sim._run_packet(rng=2)
        assert result.ber > 0.0 or not result.crc_ok

    def test_agc_handles_weak_capture(self):
        """AGC rescales a tiny signal; the regression absorbs the gain."""
        sim = make_sim()
        sim.link = OpticalLink(
            geometry=LinkGeometry(distance_m=2.0),
            frontend=ReaderFrontend(agc_target=0.05),
        )
        assert sim._run_packet(rng=3).ber == 0.0


class TestTagFaults:
    def test_dead_group_caught_by_crc(self):
        """A whole dead LCM (gain ~ 0) may exceed what training can fix —
        then the CRC must flag the packet, never pass garbage."""
        sim = make_sim()
        g = sim.array.groups_on("I")[0]
        for p in g.pixels:
            p.gain = 1e-3
        sim.array = type(sim.array)(sim.array.groups, params=sim.array.params)
        sim.transmitter.array = sim.array
        sim.transmitter.modulator.array = sim.array
        result = sim._run_packet(payload=bytes(range(8)), rng=4)
        if result.n_bit_errors > 0:
            assert not result.crc_ok

    def test_wrong_preamble_reference_not_detected(self):
        """A reader listening for a different preamble must say so.

        The tag keeps transmitting its own preamble; only the *reader's*
        reference waveform is swapped for one built from a different seed.
        """
        from repro.lcm.array import LCMArray
        from repro.modem.dsm_pqam import DsmPqamModulator
        from repro.modem.preamble import Preamble

        sim = make_sim()
        wrong = Preamble(FAST, n_slots=sim.frame.preamble.n_slots, seed=0x1F)
        wrong.record_reference(
            DsmPqamModulator(FAST, LCMArray.build(FAST.dsm_order, FAST.levels_per_axis))
        )
        sim.frame.preamble.install_reference(wrong.reference)
        result = sim._run_packet(rng=5)
        assert (not result.detected) or (not result.crc_ok)


class TestNoiseOnlyCaptures:
    def test_pure_noise_rarely_detects(self):
        """False-alarm control: noise must not look like a preamble."""
        sim = make_sim()
        rng = np.random.default_rng(6)
        false_alarms = 0
        n_samples = sim.frame.preamble.n_samples + 200
        for _ in range(10):
            noise = rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)
            det = sim.frame.preamble.detect(noise, search_stop=150)
            false_alarms += det.detected
        assert false_alarms <= 1

    def test_all_zero_capture_flagged(self):
        sim = make_sim()
        flat = np.zeros(sim.frame.preamble.n_samples + 100, dtype=complex)
        det = sim.frame.preamble.detect(flat, search_stop=50)
        assert not det.detected
