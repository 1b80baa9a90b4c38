"""Hardened-receiver recovery: faults that kill the seed receiver decode.

Two scenarios the original (``hardened=False``) receiver demonstrably
fails — a corrupted leading preamble and a poisoned online-training
section — must decode cleanly through the hardened degradation ladder
(tail-reference re-search; nominal-bank fallback).  A third, capture
truncation, crashes the seed receiver and must be *classified* instead.
"""

import numpy as np
import pytest

from repro.channel.link import OpticalLink
from repro.errors import FailureStage
from repro.faults import scenario
from repro.lcm.heterogeneity import HeterogeneityModel
from repro.modem.config import ModemConfig
from repro.optics.geometry import LinkGeometry
from repro.phy.pipeline import PacketSimulator

FAST = ModemConfig(dsm_order=2, pqam_order=4, slot_s=2.0e-3, fs=10e3)


def make_sim(hardened: bool, plan_name: str, seed: int = 3, **kwargs) -> PacketSimulator:
    defaults = dict(
        config=FAST,
        link=OpticalLink(geometry=LinkGeometry(distance_m=2.0)),
        payload_bytes=8,
        rng=7,
        hardened=hardened,
        fault_plan=scenario(plan_name, seed=seed),
    )
    defaults.update(kwargs)
    return PacketSimulator(**defaults)


class TestPreambleCorruptionRecovery:
    """A burst obliterating the preamble's head (corrupted first search)."""

    def test_seed_receiver_loses_the_packet(self):
        result = make_sim(hardened=False, plan_name="preamble_corruption")._run_packet(rng=11)
        assert not result.detected
        assert not result.crc_ok

    def test_hardened_receiver_recovers_cleanly(self):
        result = make_sim(hardened=True, plan_name="preamble_corruption")._run_packet(rng=11)
        assert result.detected
        assert result.crc_ok
        assert result.n_bit_errors == 0
        retried = [e for e in result.events if e.stage == FailureStage.DETECTION and e.status == "retried"]
        assert retried, "recovery must be recorded in the stage audit trail"


class TestTrainingBurstRecovery:
    """Interference over the training section (ill-conditioned training)."""

    def test_seed_receiver_decodes_garbage(self):
        result = make_sim(hardened=False, plan_name="training_burst")._run_packet(rng=11)
        assert result.detected
        assert not result.crc_ok
        assert result.n_bit_errors > 0

    def test_hardened_receiver_falls_back_to_nominal_bank(self):
        result = make_sim(hardened=True, plan_name="training_burst")._run_packet(rng=11)
        assert result.crc_ok
        assert result.n_bit_errors == 0
        fallbacks = [e for e in result.events if e.stage == FailureStage.TRAINING and e.status == "fallback"]
        assert fallbacks, "the nominal-bank fallback must be recorded"

    def test_fallback_works_from_kl_bases(self):
        """The fallback bank must be the true nominal table, not KL basis 0."""
        result = make_sim(
            hardened=True,
            plan_name="training_burst",
            heterogeneity=HeterogeneityModel.ideal(),
            n_bases=2,
        )._run_packet(rng=11)
        assert result.crc_ok
        assert result.n_bit_errors == 0


class TestTruncationClassification:
    """A truncated capture: seed crashes, hardened classifies."""

    def test_seed_receiver_raises(self):
        with pytest.raises(ValueError, match="truncated"):
            make_sim(hardened=False, plan_name="truncation")._run_packet(rng=11)

    def test_hardened_receiver_classifies(self):
        result = make_sim(hardened=True, plan_name="truncation")._run_packet(rng=11)
        assert not result.crc_ok
        assert result.failure is not None
        assert result.failure.stage == FailureStage.CAPTURE
        assert result.failure.code == "truncated_capture"
        assert result.ber == 1.0


class TestEqualizationErrorClassification:
    """An equalizer refusal mid-packet: seed crashes, hardened classifies
    it as an EQUALIZATION-stage failure with the dedicated error code."""

    @staticmethod
    def _clean_sim(hardened: bool) -> PacketSimulator:
        return PacketSimulator(
            config=FAST,
            link=OpticalLink(geometry=LinkGeometry(distance_m=2.0)),
            payload_bytes=8,
            rng=7,
            hardened=hardened,
        )

    @staticmethod
    def _raising(monkeypatch, exc):
        from repro.modem.dfe import DFEDemodulator

        def boom(self, *args, **kwargs):
            raise exc

        monkeypatch.setattr(DFEDemodulator, "demodulate", boom)

    def test_seed_receiver_raises(self, monkeypatch):
        from repro.errors import EqualizationError

        self._raising(monkeypatch, EqualizationError("forced"))
        with pytest.raises(EqualizationError, match="forced"):
            self._clean_sim(hardened=False)._run_packet(rng=11)

    def test_hardened_receiver_classifies_equalization_error(self, monkeypatch):
        from repro.errors import EqualizationError

        self._raising(monkeypatch, EqualizationError("forced"))
        result = self._clean_sim(hardened=True)._run_packet(rng=11)
        assert not result.crc_ok
        assert result.failure is not None
        assert result.failure.stage == FailureStage.EQUALIZATION
        assert result.failure.code == "equalization_error"

    def test_hardened_receiver_distinguishes_generic_errors(self, monkeypatch):
        """A plain ValueError out of the demodulator is *not* an
        equalization refusal and must keep its own code."""
        self._raising(monkeypatch, ValueError("singular"))
        result = self._clean_sim(hardened=True)._run_packet(rng=11)
        assert result.failure is not None
        assert result.failure.stage == FailureStage.EQUALIZATION
        assert result.failure.code == "demodulator_error"

    def test_short_input_raises_equalization_error(self, fast_bank):
        """The block engine's own validation speaks EqualizationError."""
        from repro.errors import EqualizationError
        from repro.modem.dfe import DFEDemodulator

        demod = DFEDemodulator(fast_bank, k_branches=4)
        with pytest.raises(EqualizationError, match="need"):
            demod.demodulate_block(np.zeros((2, 10)), n_symbols=64)
        with pytest.raises(EqualizationError, match="2-D"):
            demod.demodulate_block(np.zeros(10), n_symbols=1)


class TestCleanPathUnchanged:
    def test_hardened_receiver_identical_on_clean_link(self):
        """Hardening must not perturb the happy path at all."""
        clean = dict(
            config=FAST,
            link=OpticalLink(geometry=LinkGeometry(distance_m=2.0)),
            payload_bytes=8,
            rng=7,
        )
        a = PacketSimulator(hardened=True, **clean)._run_packet(rng=5)
        b = PacketSimulator(hardened=False, **clean)._run_packet(rng=5)
        assert a.ber == b.ber == 0.0
        assert a.crc_ok and b.crc_ok
        assert a.snr_est_db == pytest.approx(b.snr_est_db)
