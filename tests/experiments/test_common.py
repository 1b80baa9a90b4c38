"""Experiment plumbing: simulator factory and sweep-point mechanics."""

import numpy as np
import pytest

from repro.experiments.common import SweepPoint, _make_simulator, format_table
from repro.optics.ambient import AMBIENT_PRESETS, MOBILITY_CASES


class TestMakeSimulator:
    def test_geometry_wired_through(self):
        sim = _make_simulator(distance_m=4.0, roll_deg=30.0, yaw_deg=10.0, payload_bytes=8)
        geo = sim.link.geometry
        assert geo.distance_m == 4.0
        assert geo.roll_rad == pytest.approx(np.deg2rad(30.0))
        assert geo.yaw_rad == pytest.approx(np.deg2rad(10.0))

    def test_rate_preset_selected(self):
        sim = _make_simulator(rate_bps=4000, payload_bytes=8)
        assert sim.config.rate_bps == pytest.approx(4000.0)

    def test_explicit_config_overrides_rate(self):
        from repro.modem.config import ModemConfig

        cfg = ModemConfig(dsm_order=2, pqam_order=4, slot_s=2e-3, fs=10e3)
        sim = _make_simulator(config=cfg, payload_bytes=8)
        assert sim.config is cfg

    def test_ambient_and_mobility_attached(self):
        sim = _make_simulator(
            ambient=AMBIENT_PRESETS["day"],
            mobility=MOBILITY_CASES["walk_behind_tag"],
            payload_bytes=8,
        )
        assert sim.link.ambient.lux == 1000.0
        assert sim.link.mobility.name == "walk_behind_tag"

    def test_bank_mode_passthrough(self):
        sim = _make_simulator(bank_mode="nominal", payload_bytes=8)
        assert sim.bank_mode == "nominal"


class TestSweepPoint:
    def test_iterable(self):
        p = SweepPoint(x=3.0, ber=0.01, extras={"snr_db": 20.0})
        x, ber = p
        assert (x, ber) == (3.0, 0.01)


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["col", "value"], [(1, 10.0), (200, 0.5)])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular

    def test_float_formatting(self):
        text = format_table(["x"], [(0.123456789,)])
        assert "0.1235" in text
