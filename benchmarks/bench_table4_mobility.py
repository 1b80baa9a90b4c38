"""Table 4 — BER with ambient human mobility.

Paper BERs: no human 0.25%, walk 10 cm off LoS 0.25%, walk behind tag
0.11%, work 5 cm off LoS 0.29%, three people walking 0.17% — all below
0.3%.  Shape target: every case reliable and within a small factor of the
static baseline (retroreflectivity makes mobility nearly free).
"""

from _common import emit, format_table

from repro.experiments.table4 import mobility_study

PAPER = {
    "no_human": 0.0025,
    "walk_10cm_off_los": 0.0025,
    "walk_behind_tag": 0.0011,
    "work_5cm_off_los": 0.0029,
    "three_walk_around_los": 0.0017,
}


def test_table4_mobility(benchmark):
    out = mobility_study(distance_m=4.5, n_packets=8, rng=41)
    rows = [
        (name, f"{PAPER[name]:.2%}", f"{p.ber:.2%}") for name, p in out.items()
    ]
    emit(
        "table4_mobility",
        format_table(
            ["case", "paper BER", "measured BER"],
            rows,
            title="Table 4 - BER with ambient human mobility (paper: all < 0.3%)",
        ),
    )
    assert all(p.ber < 0.01 for p in out.values()), "every mobility case reliable"

    from repro.experiments.common import _make_simulator
    from repro.optics.ambient import MOBILITY_CASES

    sim = _make_simulator(
        distance_m=5.0, mobility=MOBILITY_CASES["three_walk_around_los"], payload_bytes=16, rng=9
    )
    benchmark(sim._run_packet, rng=10)
