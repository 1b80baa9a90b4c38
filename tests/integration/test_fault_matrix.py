"""The fault matrix: every injected fault yields a *classified* outcome.

The contract the fault-injection subsystem enforces end to end: for every
named scenario, a packet pushed through the full pipeline either decodes
cleanly or carries a typed :class:`repro.errors.FailureReason` — no
unhandled exception, and never ``crc_ok=True`` over a corrupted payload.
"""

import numpy as np
import pytest

from repro.channel.link import OpticalLink
from repro.errors import FailureStage
from repro.faults import (
    FaultPlan,
    InterferenceBurst,
    PixelDropout,
    scenario,
    scenario_names,
)
from repro.modem.config import ModemConfig
from repro.optics.geometry import LinkGeometry
from repro.phy.pipeline import PacketSimulator

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


class TestScenarioMatrix:
    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("seed", [3, 19])
    def test_outcome_is_classified(self, name, seed):
        """Clean decode, or a typed failure — never a crash, never a lie."""
        sim = make_sim(fault_plan=scenario(name, seed=seed))
        result = sim._run_packet(rng=11)  # must not raise
        if result.crc_ok:
            # A passing CRC must mean the payload really survived.
            assert result.n_bit_errors == 0
            assert result.failure is None
        else:
            assert result.failure is not None
            assert isinstance(result.failure.stage, FailureStage)
            assert result.failure.code

    @pytest.mark.parametrize("name", scenario_names())
    def test_scenarios_are_reproducible(self, name):
        """A seeded plan produces the identical outcome every run."""
        a = make_sim(fault_plan=scenario(name, seed=5))._run_packet(rng=4)
        b = make_sim(fault_plan=scenario(name, seed=5))._run_packet(rng=4)
        assert a.ber == b.ber
        assert a.crc_ok == b.crc_ok
        assert a.failure == b.failure

    def test_lost_packets_score_every_bit_errored(self):
        """No silent zero-padding: an unrecovered packet has BER 1.0."""
        sim = make_sim(fault_plan=scenario("truncation", seed=3))
        result = sim._run_packet(rng=11)
        assert not result.crc_ok
        assert result.failure is not None
        assert result.ber == 1.0
        assert result.lost

    def test_events_record_every_stage(self):
        sim = make_sim()
        result = sim._run_packet(rng=1)
        assert result.crc_ok
        stages = [e.stage for e in result.events]
        assert FailureStage.DETECTION in stages
        assert FailureStage.DECODE in stages
        assert all(e.status in ("ok", "retried", "fallback", "failed") for e in result.events)


class TestComposition:
    def test_injectors_compose_in_one_plan(self):
        plan = FaultPlan(
            [
                PixelDropout(n_pixels=1),
                InterferenceBurst(section="payload", amplitude=1.0),
            ],
            seed=2,
        )
        result = make_sim(fault_plan=plan)._run_packet(rng=11)
        assert result.crc_ok in (True, False)
        if not result.crc_ok:
            assert result.failure is not None

    def test_measure_ber_survives_fault_sweep(self):
        """Aggregation over a faulted link never raises and stays honest."""
        sim = make_sim(fault_plan=scenario("payload_burst", seed=3))
        m = sim.measure_ber(n_packets=3, rng=8, keep_results=True)
        assert m.n_packets == 3
        assert 0.0 <= m.ber <= 1.0
        for r in m.results:
            assert r.crc_ok or r.failure is not None

    def test_unknown_scenario_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            scenario("does_not_exist")
