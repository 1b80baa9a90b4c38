"""Fig 16c — BER versus yaw misalignment.

Paper: channel training keeps the link reliable to at least +-40deg of yaw;
preamble detection and training "will likely fail beyond +-55deg".  Shape
targets: reliable through 40deg, broken past ~60deg, and online training
visibly better than the untrained (nominal-reference) receiver at
moderate yaw.
"""

from _common import emit, format_table

from repro.experiments.fig16 import yaw_sweep


def test_fig16c_yaw(benchmark):
    trained = yaw_sweep(
        yaw_degs=[0, 20, 40, 50, 60, 70], distance_m=3.0, n_packets=4, rng=13
    )
    untrained = yaw_sweep(
        yaw_degs=[0, 20, 40], distance_m=3.0, n_packets=4, online_training=False, rng=13
    )
    rows = [
        (p.x, f"{p.ber:.4f}", f"{p.extras['detection_rate']:.2f}") for p in trained
    ]
    rows.append(("-", "-", "-"))
    for p in untrained:
        rows.append((f"{p.x} (no training)", f"{p.ber:.4f}", f"{p.extras['detection_rate']:.2f}"))
    emit(
        "fig16c_yaw",
        format_table(
            ["yaw deg", "BER", "detect rate"],
            rows,
            title="Fig 16c - BER vs yaw (paper: tolerate 40deg, fail past ~55deg)",
        ),
    )
    by_yaw = {p.x: p.ber for p in trained}
    assert by_yaw[40] < 0.02, "40deg yaw must stay near-reliable with training"
    assert by_yaw[70] > 0.05, "past the cliff the link must fail"
    untrained_by_yaw = {p.x: p.ber for p in untrained}
    assert untrained_by_yaw[40] >= by_yaw[40], "training must not hurt at 40deg"

    from repro.experiments.common import _make_simulator

    sim = _make_simulator(distance_m=3.0, yaw_deg=30.0, payload_bytes=16, rng=5)
    benchmark(sim._run_packet, rng=6)
