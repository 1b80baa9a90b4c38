"""MAC link watchdog: failure streaks -> backoff -> rate fallback."""

import pytest

from repro.errors import ConfigError
from repro.mac.arq import StopAndWaitARQ
from repro.mac.watchdog import LinkWatchdog

LADDER = [1_000, 2_000, 4_000, 8_000]


def make_watchdog(**kwargs) -> LinkWatchdog:
    defaults = dict(rates=LADDER, fail_threshold=3, base_backoff_s=0.1, backoff_factor=2.0, max_backoff_s=1.0)
    defaults.update(kwargs)
    return LinkWatchdog(**defaults)


class TestTracking:
    def test_starts_at_highest_rate(self):
        assert make_watchdog().current_rate_bps == 8_000

    def test_success_is_a_no_op(self):
        wd = make_watchdog()
        action = wd.record(True)
        assert not action.retransmit
        assert action.backoff_s == 0.0
        assert action.reason == "ok"
        assert wd.consecutive_failures == 0

    def test_failures_below_threshold_just_retry(self):
        wd = make_watchdog()
        for _ in range(2):
            action = wd.record(False)
            assert action.retransmit
            assert action.reason == "retry"
            assert action.rate_bps == 8_000

    def test_threshold_triggers_rate_fallback(self):
        wd = make_watchdog()
        actions = [wd.record(False) for _ in range(3)]
        assert actions[-1].reason == "rate_fallback"
        assert actions[-1].rate_bps == 4_000
        assert wd.current_rate_bps == 4_000
        assert wd.consecutive_failures == 0  # streak restarts per rung

    def test_exponential_backoff_growth_and_cap(self):
        wd = make_watchdog()
        backoffs = [wd.record(False).backoff_s for _ in range(6)]
        assert backoffs[:4] == pytest.approx([0.1, 0.2, 0.4, 0.8])
        assert backoffs[4] == pytest.approx(1.0)  # capped at max_backoff_s
        assert backoffs[5] == pytest.approx(1.0)

    def test_success_resets_backoff(self):
        wd = make_watchdog()
        wd.record(False)
        wd.record(False)
        wd.record(True)
        assert wd.record(False).backoff_s == pytest.approx(0.1)

    def test_link_down_at_lowest_rate(self):
        wd = make_watchdog(initial_rate_bps=1_000)
        actions = [wd.record(False) for _ in range(3)]
        assert actions[-1].reason == "link_down"
        assert actions[-1].rate_bps == 1_000

    def test_walks_down_the_whole_ladder(self):
        wd = make_watchdog(fail_threshold=1)
        rates = [wd.record(False).rate_bps for _ in range(5)]
        assert rates == [4_000, 2_000, 1_000, 1_000, 1_000]

    def test_observe_rate_syncs_external_assignment(self):
        wd = make_watchdog()
        wd.observe_rate(2_000)
        assert wd.current_rate_bps == 2_000
        with pytest.raises(ConfigError):
            wd.observe_rate(3_000)

    def test_validation(self):
        with pytest.raises(ConfigError):
            LinkWatchdog(rates=[])
        with pytest.raises(ConfigError):
            make_watchdog(fail_threshold=0)
        with pytest.raises(ConfigError):
            make_watchdog(backoff_factor=0.5)
        with pytest.raises(ConfigError):
            make_watchdog(initial_rate_bps=3_000)


class TestSimulation:
    def test_good_link_stays_at_top_rate(self):
        wd = make_watchdog()
        stats = wd._simulate(lambda rate: 1.0, n_frames=50, rng=1)
        assert stats.delivered == 50
        assert stats.gave_up == 0
        assert stats.total_backoff_s == 0.0
        assert stats.final_rate_bps == 8_000

    def test_rate_dependent_link_settles_on_working_rung(self):
        """Only the lowest two rungs work: the watchdog must find them."""
        p = {1_000: 1.0, 2_000: 1.0, 4_000: 0.0, 8_000: 0.0}
        wd = make_watchdog()
        stats = wd._simulate(p, n_frames=30, arq=StopAndWaitARQ(max_attempts=8), rng=2)
        assert stats.final_rate_bps in (1_000, 2_000)
        assert stats.delivered > 20
        assert stats.total_backoff_s > 0.0

    def test_dead_link_gives_up_and_backs_off(self):
        wd = make_watchdog()
        stats = wd._simulate(lambda rate: 0.0, n_frames=5, arq=StopAndWaitARQ(max_attempts=4), rng=3)
        assert stats.delivered == 0
        assert stats.gave_up == 5
        assert stats.attempts == 20
        assert stats.total_backoff_s > 0.0
        assert stats.final_rate_bps == 1_000

    def test_frame_accounting_invariant(self):
        wd = make_watchdog()
        stats = wd._simulate(lambda rate: 0.5, n_frames=200, rng=4)
        assert stats.delivered + stats.gave_up == 200
        assert len(stats.rate_trace) == 200


class TestRecoveryHysteresis:
    """After a fallback, K consecutive clean frames must precede any raise."""

    def test_fresh_watchdog_is_recovery_ready(self):
        assert make_watchdog().recovery_ready

    def test_fallback_arms_hysteresis(self):
        wd = make_watchdog()
        for _ in range(3):
            wd.record(False)
        assert not wd.recovery_ready

    def test_recovers_after_k_consecutive_successes(self):
        wd = make_watchdog(recover_after=4)
        for _ in range(3):
            wd.record(False)
        reasons = [wd.record(True).reason for _ in range(4)]
        assert reasons == ["ok", "ok", "ok", "recovered"]
        assert wd.recovery_ready
        assert wd.consecutive_successes == 4

    def test_flap_restarts_the_clean_streak(self):
        """A failure mid-streak resets the recovery counter entirely."""
        wd = make_watchdog(recover_after=3)
        for _ in range(3):
            wd.record(False)
        wd.record(True)
        wd.record(True)
        wd.record(False)  # flap: streak torn down
        assert not wd.recovery_ready
        reasons = [wd.record(True).reason for _ in range(3)]
        assert reasons[-1] == "recovered"

    def test_link_down_also_arms_hysteresis(self):
        wd = make_watchdog(initial_rate_bps=1_000)
        for _ in range(3):
            wd.record(False)  # link_down at the bottom rung
        assert not wd.recovery_ready

    def test_reset_clears_hysteresis(self):
        wd = make_watchdog()
        for _ in range(3):
            wd.record(False)
        wd.reset()
        assert wd.recovery_ready
        assert wd.consecutive_successes == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_watchdog(recover_after=0)

    def test_hysteresis_property(self):
        """For any outcome sequence: recovery_ready is false iff a fallback
        happened and fewer than recover_after successes followed it
        uninterrupted (trailing-streak invariant)."""
        from hypothesis import given, strategies as st

        @given(
            st.lists(st.booleans(), max_size=60),
            st.integers(min_value=1, max_value=5),
            st.integers(min_value=1, max_value=4),
        )
        def check(outcomes, recover_after, fail_threshold):
            wd = make_watchdog(recover_after=recover_after, fail_threshold=fail_threshold)
            fallback_seen = False
            trailing_successes = 0
            for ok in outcomes:
                action = wd.record(ok)
                if action.reason in ("rate_fallback", "link_down"):
                    fallback_seen = True
                    trailing_successes = 0
                elif ok:
                    trailing_successes += 1
                else:
                    trailing_successes = 0
                if action.reason == "recovered":
                    fallback_seen = False
                expect_ready = (not fallback_seen) or trailing_successes >= recover_after
                assert wd.recovery_ready == expect_ready

        check()


class TestSessionIntegration:
    def test_session_accepts_watchdog_and_tracks_backoff(self):
        """The closed loop runs with a watchdog and accounts its backoff."""
        from repro.mac.session import LinkSession

        session = LinkSession(distance_m=4.0, payload_bytes=8, watchdog=LinkWatchdog(), rng=3)
        stats = session.run(n_rounds=4)
        assert len(stats.rounds) == 4
        assert stats.total_backoff_s >= 0.0

    def test_session_rejects_mismatched_ladder(self):
        from repro.mac.session import LinkSession

        with pytest.raises(ValueError):
            LinkSession(distance_m=2.0, watchdog=LinkWatchdog(rates=LADDER), rng=1)
