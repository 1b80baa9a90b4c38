"""Fig 17b — channel-training tail memory V.

Paper: V=1 "has inferior performance even with sufficient SNR" (the tail
effect is left unmodelled, a system error floor); the default V=2 loses
almost nothing against V=3 while halving offline training time.  Shape
targets: total error V=1 > V=2, and V=3 within a whisker of V=2.
"""

from _common import emit, format_table

from repro.experiments.fig17 import training_memory_sweep


def test_fig17b_training_memory(benchmark):
    out = training_memory_sweep(
        memories=[1, 2, 3],
        distances_m=[4.0, 6.0, 7.0],
        n_packets=4,
        rng=22,
    )
    distances = [p.x for p in out[1]]
    rows = []
    for i, d in enumerate(distances):
        rows.append((d, f"{out[1][i].ber:.4f}", f"{out[2][i].ber:.4f}", f"{out[3][i].ber:.4f}"))
    emit(
        "fig17b_training",
        format_table(
            ["distance m", "V=1", "V=2", "V=3"],
            rows,
            title="Fig 17b - BER vs training memory (paper: V=1 floored, V=2 ~ V=3)",
        ),
    )
    total = {v: sum(p.ber for p in pts) for v, pts in out.items()}
    assert total[1] > total[2], "V=1 must show the tail-effect system error"
    assert total[3] <= total[2] + 0.01, "V=3 adds little over V=2"

    from dataclasses import replace

    from repro.experiments.common import _make_simulator
    from repro.modem.config import ModemConfig

    sim = _make_simulator(config=replace(ModemConfig(), tail_memory=1), distance_m=5.0, payload_bytes=16, rng=13)
    benchmark(sim._run_packet, rng=14)
