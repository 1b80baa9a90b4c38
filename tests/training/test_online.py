"""Online training: pattern design and coefficient recovery."""

import numpy as np
import pytest
from scipy.linalg import hadamard

from repro.channel.awgn import add_awgn
from repro.modem.dsm_pqam import DsmPqamModulator
from repro.modem.references import ReferenceBank, collect_unit_table
from repro.training.online import OnlineTrainer, TrainingSequence, _hadamard


class TestTrainingSequence:
    def test_length_is_multiple_of_l(self, fast_config):
        seq = TrainingSequence(fast_config)
        assert seq.n_slots % fast_config.dsm_order == 0

    def test_patterns_distinct(self, fast_config):
        seq = TrainingSequence(fast_config)
        rows = {tuple(r) for r in seq.patterns}
        assert len(rows) == 2 * fast_config.dsm_order

    def test_patterns_linearly_independent(self, fast_config):
        seq = TrainingSequence(fast_config)
        signed = 2.0 * seq.patterns.astype(float) - 1.0
        assert np.linalg.matrix_rank(signed) == seq.patterns.shape[0]

    def test_levels_fire_group_slots_only(self, fast_config):
        seq = TrainingSequence(fast_config)
        li, lq = seq.levels()
        m = fast_config.levels_per_axis
        for gi in range(fast_config.dsm_order):
            fired = li[gi :: fast_config.dsm_order]
            np.testing.assert_array_equal(fired, seq.group_levels(0, gi))
        assert set(np.unique(li)) <= {0, m - 1}

    def test_too_few_rounds_rejected(self, fast_config):
        with pytest.raises(ValueError):
            TrainingSequence(fast_config, n_rounds=2)

    @pytest.mark.parametrize("n", [2**k for k in range(9)])
    def test_hadamard_matches_scipy(self, n):
        got, want = _hadamard(n), hadamard(n)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestCoefficientRecovery:
    def test_recovers_synthetic_gains(self, fast_config, fast_bank):
        """Scale the true per-group pulses; the solver must find the scales."""
        from repro.modem.references import assemble_waveform

        seq = TrainingSequence(fast_config)
        trainer = OnlineTrainer(
            fast_config, [fast_bank.group(0, 0).unit_tables[0]], seq
        )
        # Build the training waveform with per-group complex gains applied.
        true_coefs = {}
        scaled = ReferenceBank.from_unit_table(
            fast_config, fast_bank.group(0, 0).unit_tables[0]
        )
        rng = np.random.default_rng(1)
        updates = {}
        for ch in (0, 1):
            for gi in range(fast_config.dsm_order):
                c = complex(rng.normal(1.0, 0.1), rng.normal(0.0, 0.1))
                true_coefs[(ch, gi)] = c
                updates[(ch, gi)] = c
        scaled.set_coefficients(updates)
        li, lq = seq.levels()
        z = assemble_waveform(scaled, li, lq)
        solved = trainer.solve(z)
        for key, expected in true_coefs.items():
            assert solved[key][0] == pytest.approx(expected, abs=1e-6)

    def test_trained_bank_reproduces_waveform(self, fast_config, fast_bank):
        from repro.modem.references import assemble_waveform

        seq = TrainingSequence(fast_config)
        unit = fast_bank.group(0, 0).unit_tables[0]
        trainer = OnlineTrainer(fast_config, [unit], seq)
        li, lq = seq.levels()
        z = assemble_waveform(fast_bank, li, lq)
        bank = trainer.train(z)
        recon = assemble_waveform(bank, li, lq)
        np.testing.assert_allclose(recon, z, atol=1e-6)

    def test_noise_robustness(self, fast_config, fast_bank):
        from repro.modem.references import assemble_waveform

        seq = TrainingSequence(fast_config)
        unit = fast_bank.group(0, 0).unit_tables[0]
        trainer = OnlineTrainer(fast_config, [unit], seq)
        li, lq = seq.levels()
        z = add_awgn(assemble_waveform(fast_bank, li, lq), 30.0, reference_power=1.0, rng=2)
        solved = trainer.solve(z)
        for theta in solved.values():
            assert theta[0] == pytest.approx(1.0, abs=0.1)

    def test_short_segment_rejected(self, fast_config, fast_bank):
        trainer = OnlineTrainer(
            fast_config, [fast_bank.group(0, 0).unit_tables[0]]
        )
        with pytest.raises(ValueError):
            trainer.solve(np.zeros(10, dtype=complex))

    def test_empty_bases_rejected(self, fast_config):
        with pytest.raises(ValueError):
            OnlineTrainer(fast_config, [])


class TestEndToEndTraining:
    def test_absorbs_heterogeneity(self, fast_config):
        """Training on a heterogeneous tag must beat the nominal bank."""
        from repro.lcm.array import LCMArray
        from repro.lcm.heterogeneity import HeterogeneityModel
        from repro.modem.references import assemble_waveform

        array = LCMArray.build(
            fast_config.dsm_order,
            fast_config.levels_per_axis,
            heterogeneity=HeterogeneityModel(),
            rng=3,
        )
        modulator = DsmPqamModulator(fast_config, array)
        seq = TrainingSequence(fast_config)
        li, lq = seq.levels()
        z = modulator.waveform_for_levels(li, lq)
        unit = collect_unit_table(fast_config)
        trainer = OnlineTrainer(fast_config, [unit], seq)
        trained = trainer.train(z)
        nominal = ReferenceBank.from_unit_table(fast_config, unit)
        err_trained = np.abs(assemble_waveform(trained, li, lq) - z).mean()
        err_nominal = np.abs(assemble_waveform(nominal, li, lq) - z).mean()
        assert err_trained < 0.5 * err_nominal
