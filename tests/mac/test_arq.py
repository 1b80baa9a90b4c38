"""Stop-and-wait ARQ."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.arq import StopAndWaitARQ


class TestAnalytic:
    def test_perfect_link_one_attempt(self):
        arq = StopAndWaitARQ()
        assert arq.expected_attempts(1.0) == pytest.approx(1.0)
        assert arq.delivery_probability(1.0) == pytest.approx(1.0)

    def test_half_link_two_attempts(self):
        arq = StopAndWaitARQ(max_attempts=100)
        assert arq.expected_attempts(0.5) == pytest.approx(2.0, rel=1e-6)

    def test_dead_link(self):
        arq = StopAndWaitARQ(max_attempts=8)
        assert arq.expected_attempts(0.0) == 8.0
        assert arq.delivery_probability(0.0) == 0.0

    def test_truncation_bounds_attempts(self):
        arq = StopAndWaitARQ(max_attempts=3)
        assert arq.expected_attempts(0.01) < 3.0 + 1e-9


class TestMonteCarlo:
    def test_simulation_matches_analytics(self):
        arq = StopAndWaitARQ(max_attempts=8)
        stats = arq._simulate(0.6, n_frames=4000, rng=1)
        assert stats.mean_attempts == pytest.approx(arq.expected_attempts(0.6), rel=0.05)
        assert stats.delivered / 4000 == pytest.approx(arq.delivery_probability(0.6), abs=0.02)

    def test_gave_up_counted(self):
        arq = StopAndWaitARQ(max_attempts=2)
        stats = arq._simulate(0.1, n_frames=2000, rng=2)
        assert stats.gave_up > 0
        assert stats.delivered + stats.gave_up == 2000

    def test_efficiency(self):
        arq = StopAndWaitARQ()
        stats = arq._simulate(1.0, n_frames=100, rng=3)
        assert stats.efficiency() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StopAndWaitARQ(max_attempts=0)
        with pytest.raises(ValueError):
            StopAndWaitARQ()._simulate(1.5, 10)
        with pytest.raises(ValueError):
            StopAndWaitARQ()._simulate(0.5, -1)


class TestEdgeCases:
    def test_success_probability_zero(self):
        """A dead link burns the whole attempt budget on every frame."""
        arq = StopAndWaitARQ(max_attempts=5)
        stats = arq._simulate(0.0, n_frames=50, rng=1)
        assert stats.delivered == 0
        assert stats.gave_up == 50
        assert stats.attempts == 50 * 5
        assert stats.efficiency() == 0.0

    def test_success_probability_one(self):
        """A perfect link delivers every frame on the first attempt."""
        arq = StopAndWaitARQ(max_attempts=5)
        stats = arq._simulate(1.0, n_frames=50, rng=1)
        assert stats.delivered == 50
        assert stats.gave_up == 0
        assert stats.attempts == 50
        assert stats.mean_attempts == pytest.approx(1.0)

    def test_single_attempt_budget(self):
        """max_attempts=1 degenerates to plain (un-ARQ'd) transmission."""
        arq = StopAndWaitARQ(max_attempts=1)
        stats = arq._simulate(0.5, n_frames=1000, rng=2)
        assert stats.attempts == 1000
        assert stats.delivered + stats.gave_up == 1000
        assert arq.expected_attempts(0.5) == pytest.approx(1.0)
        assert arq.delivery_probability(0.5) == pytest.approx(0.5)

    def test_zero_frames(self):
        stats = StopAndWaitARQ()._simulate(0.5, n_frames=0, rng=3)
        assert stats.delivered == stats.attempts == stats.gave_up == 0
        assert stats.mean_attempts == 0.0

    @settings(deadline=None, max_examples=40)
    @given(
        p=st.floats(min_value=0.0, max_value=1.0),
        n_frames=st.integers(min_value=0, max_value=200),
        max_attempts=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_every_frame_is_accounted_for(self, p, n_frames, max_attempts, seed):
        """Invariant: delivered + gave_up == n_frames, attempts bounded."""
        arq = StopAndWaitARQ(max_attempts=max_attempts)
        stats = arq._simulate(p, n_frames=n_frames, rng=seed)
        assert stats.delivered + stats.gave_up == n_frames
        assert n_frames <= stats.attempts <= n_frames * max_attempts or n_frames == 0
