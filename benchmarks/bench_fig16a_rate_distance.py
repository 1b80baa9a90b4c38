"""Fig 16a — BER versus LoS distance per uplink rate.

Paper: the 8 Kbps link is reliable (BER < 1%) to ~7.5 m and 4 Kbps to
~10.5 m.  Shape targets: BER monotone-ish in distance, 4 Kbps outranging
8 Kbps by roughly the 1.4x the paper reports.
"""

from _common import emit, format_table

from repro.experiments.fig16 import rate_vs_distance, working_range

PAPER_RANGE = {4000: 10.5, 8000: 7.5}


def test_fig16a_rate_vs_distance(benchmark):
    out = rate_vs_distance(
        rates_bps=[4000, 8000],
        distances_m=[3.0, 5.0, 6.5, 7.5, 8.5, 9.5, 10.5, 11.5],
        n_packets=5,
        payload_bytes=24,
        rng=11,
    )
    rows = []
    for rate, points in out.items():
        for p in points:
            rows.append((f"{rate / 1000:g}k", p.x, f"{p.extras['snr_db']:.1f}", f"{p.ber:.4f}"))
    ranges = {rate: working_range(points) for rate, points in out.items()}
    rows.append(("-", "-", "-", "-"))
    for rate, rng_m in ranges.items():
        rows.append((f"{rate / 1000:g}k range", rng_m, f"paper {PAPER_RANGE[rate]}", "m"))
    emit(
        "fig16a_rate_distance",
        format_table(
            ["rate", "distance m", "SNR dB", "BER"],
            rows,
            title="Fig 16a - BER vs distance (working range at BER < 1%)",
        ),
    )
    assert ranges[4000] > ranges[8000], "the slower link must reach farther"
    assert 6.0 <= ranges[8000] <= 9.5, "8 Kbps range should sit near the paper's 7.5 m"
    assert 8.5 <= ranges[4000] <= 12.0, "4 Kbps range should sit near the paper's 10.5 m"

    from repro.experiments.common import _make_simulator

    sim = _make_simulator(rate_bps=8000, distance_m=5.0, payload_bytes=16, rng=1)
    benchmark(sim._run_packet, rng=2)
