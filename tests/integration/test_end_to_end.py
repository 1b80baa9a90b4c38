"""End-to-end scenarios at the paper's default 8 Kbps operating point.

These are slower than unit tests (full ODE tag, full receiver) but exercise
the exact paper configuration across the §7.2 conditions.
"""

import numpy as np
import pytest

from repro.channel.link import OpticalLink
from repro.lcm.heterogeneity import HeterogeneityModel
from repro.modem.config import ModemConfig, preset_for_rate
from repro.optics.ambient import AMBIENT_PRESETS, MOBILITY_CASES
from repro.optics.geometry import LinkGeometry
from repro.phy.pipeline import PacketSimulator


def simulator(distance_m=3.0, rate=8000, **kwargs) -> PacketSimulator:
    geo_keys = {"roll_rad", "yaw_rad", "off_axis_rad"}
    geo = {k: kwargs.pop(k) for k in list(kwargs) if k in geo_keys}
    link_keys = {"ambient", "mobility"}
    link_extra = {k: kwargs.pop(k) for k in list(kwargs) if k in link_keys}
    link = OpticalLink(geometry=LinkGeometry(distance_m=distance_m, **geo), **link_extra)
    return PacketSimulator(
        config=preset_for_rate(rate), link=link, payload_bytes=16, rng=17, **kwargs
    )


class TestDefaultLink:
    def test_8kbps_reliable_at_5m(self):
        m = simulator(distance_m=5.0).measure_ber(n_packets=3, rng=1)
        assert m.ber < 0.01
        assert m.detection_rate == 1.0

    def test_fails_far_beyond_range(self):
        m = simulator(distance_m=16.0).measure_ber(n_packets=2, rng=2)
        assert m.ber > 0.01


class TestRollInvariance:
    @pytest.mark.parametrize("roll_deg", [30, 90, 135])
    def test_roll_free(self, roll_deg):
        """Fig 16b: arbitrary roll at working range stays reliable."""
        sim = simulator(distance_m=4.0, roll_rad=float(np.deg2rad(roll_deg)))
        m = sim.measure_ber(n_packets=2, rng=3)
        assert m.ber < 0.01


class TestYaw:
    def test_moderate_yaw_tolerated_with_training(self):
        sim = simulator(distance_m=2.0, yaw_rad=float(np.deg2rad(35)))
        m = sim.measure_ber(n_packets=2, rng=4)
        assert m.ber < 0.01

    def test_extreme_yaw_fails(self):
        sim = simulator(distance_m=2.0, yaw_rad=float(np.deg2rad(75)))
        m = sim.measure_ber(n_packets=2, rng=5)
        assert m.ber > 0.01


class TestAmbientAndMobility:
    def test_ambient_presets_all_reliable(self):
        """Fig 16d: dark / night / day all fine at working range."""
        for name, ambient in AMBIENT_PRESETS.items():
            sim = simulator(distance_m=4.0, ambient=ambient)
            m = sim.measure_ber(n_packets=2, rng=6)
            assert m.ber < 0.01, name

    def test_mobility_cases_all_reliable(self):
        """Table 4: human mobility barely moves the needle."""
        for name, mobility in MOBILITY_CASES.items():
            sim = simulator(distance_m=4.0, mobility=mobility)
            m = sim.measure_ber(n_packets=2, rng=7)
            assert m.ber < 0.01, name


class TestFailureInjection:
    def test_broken_pixel_absorbed_by_training(self):
        """A dead (stuck-dim) pixel is heterogeneity online training fixes."""
        sim = simulator(distance_m=2.0)
        sim.array.pixels[3].gain = 0.3
        sim.array = type(sim.array)(sim.array.groups, params=sim.array.params)
        sim.transmitter.array = sim.array
        sim.transmitter.modulator.array = sim.array
        r = sim._run_packet(rng=8)
        assert r.ber < 0.02

    def test_wrong_scrambler_seed_garbles(self):
        from repro.coding.scrambler import Scrambler

        sim = simulator(distance_m=2.0)
        sim.receiver.frame.scrambler = Scrambler(seed=0x111)
        sim.frame.scrambler = Scrambler(seed=0x111)
        tx_frame_scrambler = Scrambler(seed=0x222)
        payload = bytes(range(16))
        # Encode with one scrambler, decode with another.
        sim.frame.scrambler = tx_frame_scrambler
        levels = sim.frame.frame_levels(payload)
        u = sim.transmitter.modulator.waveform_for_levels(*levels)
        sim.frame.scrambler = Scrambler(seed=0x111)
        out = sim.receiver.receive(u, search_stop=4 * sim.config.samples_per_slot)
        assert not out.crc_ok

    def test_rate_presets_decode_in_emulation(self):
        """Every preset decodes its own emulated waveform at high SNR."""
        from repro.experiments.fig18 import emulated_packet_ber

        for rate in (1000, 4000, 8000, 16000):
            cfg = preset_for_rate(rate)
            ber = emulated_packet_ber(cfg, snr_db=60.0, n_symbols=48, rng=9)
            assert ber == 0.0, rate
