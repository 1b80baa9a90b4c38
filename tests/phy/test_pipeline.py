"""Packet pipeline: the full tag -> channel -> reader loop."""

import numpy as np
import pytest

from repro.channel.link import OpticalLink
from repro.lcm.heterogeneity import HeterogeneityModel
from repro.modem.config import ModemConfig
from repro.optics.geometry import LinkGeometry
from repro.phy.pipeline import PacketSimulator

FAST = ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3)


def make_sim(distance_m=1.0, **kwargs) -> PacketSimulator:
    defaults = dict(
        config=FAST,
        link=OpticalLink(geometry=LinkGeometry(distance_m=distance_m)),
        payload_bytes=8,
        rng=7,
    )
    defaults.update(kwargs)
    return PacketSimulator(**defaults)


class TestCleanDecoding:
    def test_high_snr_zero_ber(self):
        sim = make_sim()
        r = sim._run_packet(rng=1)
        assert r.ber == 0.0
        assert r.crc_ok
        assert r.detected

    def test_payload_preserved_exactly(self):
        sim = make_sim()
        payload = bytes(range(8))
        r = sim._run_packet(payload=payload, rng=2)
        assert r.n_bit_errors == 0

    def test_genie_mode(self):
        sim = make_sim(bank_mode="genie")
        assert sim._run_packet(rng=3).ber == 0.0

    def test_nominal_mode_with_ideal_tag(self):
        sim = make_sim(bank_mode="nominal", heterogeneity=HeterogeneityModel.ideal())
        assert sim._run_packet(rng=4).ber == 0.0

    def test_default_8kbps_config(self):
        sim = PacketSimulator(
            link=OpticalLink(geometry=LinkGeometry(distance_m=2.0)),
            payload_bytes=16,
            rng=9,
        )
        r = sim._run_packet(rng=5)
        assert r.ber == 0.0
        assert r.crc_ok


class TestDegradation:
    def test_ber_grows_with_distance(self):
        bers = []
        for d in (2.0, 18.0, 32.0):
            sim = make_sim(distance_m=d)
            m = sim.measure_ber(n_packets=3, rng=6)
            bers.append(m.ber)
        assert bers[0] <= bers[1] <= bers[2]
        assert bers[2] > 0.0

    def test_out_of_fov_fails(self):
        sim = make_sim()
        sim.link = OpticalLink(
            geometry=LinkGeometry(distance_m=2.0, off_axis_rad=np.deg2rad(45))
        )
        r = sim._run_packet(rng=7)
        assert not r.crc_ok
        assert r.ber > 0.1


class TestMeasurement:
    def test_measure_ber_aggregates(self):
        sim = make_sim()
        m = sim.measure_ber(n_packets=3, rng=8)
        assert m.n_packets == 3
        assert m.n_bits == 3 * 64
        assert m.ber == m.n_bit_errors / m.n_bits
        assert m.detection_rate == 1.0
        assert m.reliable

    def test_results_kept_on_request(self):
        m = make_sim().measure_ber(n_packets=2, rng=9, keep_results=True)
        assert len(m.results) == 2

    def test_results_dropped_by_default(self):
        """Large sweeps aggregate only; per-packet records are opt-in."""
        m = make_sim().measure_ber(n_packets=2, rng=9)
        assert m.results == []
        assert m.n_packets == 2

    def test_bad_bank_mode_rejected(self):
        with pytest.raises(ValueError):
            make_sim(bank_mode="magic")

    def test_deterministic_given_seeds(self):
        a = make_sim()._run_packet(rng=11)
        b = make_sim()._run_packet(rng=11)
        assert a.ber == b.ber
        assert a.snr_est_db == pytest.approx(b.snr_est_db)
