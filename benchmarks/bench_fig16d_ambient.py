"""Fig 16d — BER under different ambient light conditions.

Paper: "RetroTurbo behaves consistently regardless of the illumination
level" — ambient light is DC-rejected by the 455 kHz passband and only its
shot noise leaks in.  Shape target: dark (20 lux), night (200 lux) and day
(1000 lux) all reliable with no meaningful ordering.
"""

from _common import emit, format_table

from repro.experiments.fig16 import ambient_sweep

PAPER_NOTE = {"dark": "20 lux", "night": "200 lux (default)", "day": "1000 lux"}


def test_fig16d_ambient(benchmark):
    out = ambient_sweep(distance_m=5.0, n_packets=4, rng=14)
    rows = [(name, PAPER_NOTE[name], f"{p.ber:.4f}") for name, p in out.items()]
    emit(
        "fig16d_ambient",
        format_table(
            ["condition", "illuminance", "BER"],
            rows,
            title="Fig 16d - BER vs ambient light (paper: flat)",
        ),
    )
    assert all(p.ber < 0.01 for p in out.values()), "all conditions must be reliable"

    from repro.experiments.common import _make_simulator
    from repro.optics.ambient import AMBIENT_PRESETS

    sim = _make_simulator(distance_m=5.0, ambient=AMBIENT_PRESETS["day"], payload_bytes=16, rng=7)
    benchmark(sim._run_packet, rng=8)
