"""Fig 17a — decision-feedback equalizer versus the optimal detector.

Paper: the naive single-branch DFE loses ~0.7 m (~10%) of working range;
the 16-branch DFE is "nearly close to the optimal" Viterbi at 16x the
compute of the single branch.  Exact Viterbi is intractable at the default
(P=16, L=8) point — the paper says so too — so, as documented in
EXPERIMENTS.md, the comparison runs at a reduced configuration where the
full trellis fits (P=4, L=4, V=1 -> 64 states).

Shape targets: total errors dfe_1 >= dfe_16 >= viterbi, with dfe_16 close
to viterbi and dfe_1 measurably worse.
"""

from _common import emit, format_table

from repro.experiments.fig17 import dfe_comparison


def test_fig17a_dfe_branches(benchmark):
    out = dfe_comparison(
        distances_m=[10.0, 12.0, 13.0, 14.0, 15.0],
        n_packets=4,
        rng=21,
    )
    distances = [p.x for p in out["dfe_1"]]
    rows = []
    for i, d in enumerate(distances):
        rows.append(
            (
                d,
                f"{out['dfe_1'][i].ber:.4f}",
                f"{out['dfe_16'][i].ber:.4f}",
                f"{out['viterbi'][i].ber:.4f}",
            )
        )
    emit(
        "fig17a_dfe",
        format_table(
            ["distance m", "DFE K=1", "DFE K=16", "Viterbi"],
            rows,
            title="Fig 17a - DFE branches vs optimal (reduced config P=4, L=4)",
        ),
    )
    total = {k: sum(p.ber for p in pts) for k, pts in out.items()}
    assert total["dfe_16"] <= total["dfe_1"] + 1e-9
    assert total["viterbi"] <= total["dfe_1"] + 1e-9
    assert total["viterbi"] <= total["dfe_16"] + 0.02, "16 branches ~ optimal"

    from repro.experiments.common import _make_simulator
    from repro.experiments.fig17 import VITERBI_CONFIG

    sim = _make_simulator(config=VITERBI_CONFIG, distance_m=10.0, payload_bytes=16, rng=11)
    benchmark(sim._run_packet, rng=12)
