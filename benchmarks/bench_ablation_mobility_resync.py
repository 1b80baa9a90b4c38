"""Extension — mid-packet re-sync under channel drift (paper §8 proposal).

The paper's mobility discussion proposes "inserting multiple
synchronization frames based on the mobility level ... to perform dynamic
channel equalization".  This benchmark implements and evaluates it: BER
versus roll drift rate with the block-resync receiver against the static
head-of-packet estimate.  Expected shape: both clean when static, the
static estimate degrading first as drift grows, re-sync extending the
usable mobility range severalfold.
"""

from _common import emit, format_table

from repro.experiments.mobility import mobility_resync_sweep


def test_ablation_mobility_resync(benchmark):
    out = mobility_resync_sweep(
        roll_rates_deg_s=[0.0, 10.0, 20.0, 40.0],
        n_packets=3,
        rng=61,
    )
    rates = [p.x for p in out["resync"]]
    rows = []
    for i, rate in enumerate(rates):
        rows.append(
            (
                f"{rate:g} deg/s",
                f"{out['static_estimate'][i].ber:.4f}",
                f"{out['resync'][i].ber:.4f}",
            )
        )
    emit(
        "ablation_mobility_resync",
        format_table(
            ["roll drift", "static estimate BER", "re-sync BER"],
            rows,
            title="Extension - mid-packet re-sync vs channel drift (paper §8)",
        ),
    )
    static = {p.x: p.ber for p in out["static_estimate"]}
    resync = {p.x: p.ber for p in out["resync"]}
    assert static[0.0] < 0.01 and resync[0.0] < 0.01, "both clean when static"
    assert resync[20.0] < static[20.0], "re-sync must win under drift"
    total_static = sum(static.values())
    total_resync = sum(resync.values())
    assert total_resync < 0.6 * total_static, "re-sync must be a clear net win"

    from repro.channel.dynamics import ChannelDrift
    from repro.experiments.mobility import MobileLinkSimulator
    import numpy as np

    sim = MobileLinkSimulator(
        distance_m=3.0,
        drift=ChannelDrift(roll_rate_rad_s=float(np.deg2rad(15.0))),
        payload_bytes=24,
        rng=7,
    )
    benchmark(sim._run_packet, rng=3)
