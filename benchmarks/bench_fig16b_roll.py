"""Fig 16b — BER versus roll (polarization) misalignment.

Paper: "the influence of roll angular misalignment is almost negligible"
at any angle — PQAM's rotation tolerance plus preamble correction.  Shape
target: flat, reliable BER across the full 0-180deg sweep at working range.
"""

import numpy as np
from _common import emit, format_table

from repro.experiments.fig16 import roll_sweep


def test_fig16b_roll(benchmark):
    points = roll_sweep(
        roll_degs=[0, 22.5, 45, 67.5, 90, 120, 150, 180],
        distance_m=4.5,
        n_packets=5,
        rng=12,
    )
    rows = [(p.x, f"{p.ber:.4f}", "reliable" if p.ber < 0.01 else "NOT") for p in points]
    emit(
        "fig16b_roll",
        format_table(
            ["roll deg", "BER", "verdict"],
            rows,
            title="Fig 16b - BER vs roll misalignment (paper: negligible effect)",
        ),
    )
    bers = np.array([p.ber for p in points])
    assert bers.max() < 0.01, "every roll angle must stay reliable"

    from repro.experiments.common import _make_simulator

    sim = _make_simulator(distance_m=5.0, roll_deg=45.0, payload_bytes=16, rng=3)
    benchmark(sim._run_packet, rng=4)
