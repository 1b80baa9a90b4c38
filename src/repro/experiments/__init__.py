"""Experiment harnesses: one module per table/figure of the paper's
evaluation (§5 and §7), shared by the benchmark suite and the examples.

Every harness returns plain-data rows and provides a ``print_table`` style
textual rendering mirroring what the paper reports, so benchmark runs read
as paper-versus-measured comparisons.
"""

from repro.experiments.batch import BatchRunner, GridTask, make_grid, rows_to_sweeps
from repro.experiments.common import (
    SweepPoint,
    format_table,
    simulate_grid_task,
)
from repro.experiments.fig16 import (
    ambient_sweep,
    rate_vs_distance,
    rate_vs_distance_grid,
    roll_sweep,
    working_range,
    yaw_sweep,
)
from repro.experiments.fig17 import dfe_comparison, dfe_comparison_grid, training_memory_sweep
from repro.experiments.fig18 import (
    coding_goodput_sweep,
    emulated_ber_vs_snr,
    emulated_ber_vs_snr_batched,
    emulated_packet_ber,
    emulated_packet_bers_block,
    profile_from_waterfalls,
    rate_adaptation_gain,
    waterfall_threshold,
)
from repro.experiments.micro import (
    headline_rate_gain,
    latency_report,
    power_report,
)
from repro.experiments.mobility import MobileLinkSimulator, mobility_resync_sweep
from repro.experiments.multiaccess import ConcurrentUplinkResult, concurrent_uplink_study
from repro.experiments.network_scale import fleet_scale_task, network_scale_grid
from repro.experiments.polarization_fidelity import (
    format_polarization_report,
    polarization_fidelity_grid,
    polarization_task,
)
from repro.experiments.sweeps import (
    ShardSpec,
    SweepResult,
    SweepRunner,
    canonical_records,
    journal_rows,
    merge_journals,
    read_journal,
    run_grid,
    task_fingerprint,
)
from repro.experiments.table4 import mobility_study, mobility_study_grid
from repro.experiments.trajectory_study import (
    format_trajectory_report,
    trajectory_study_grid,
    trajectory_task,
)

__all__ = [
    "BatchRunner",
    "ConcurrentUplinkResult",
    "GridTask",
    "MobileLinkSimulator",
    "ShardSpec",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "ambient_sweep",
    "canonical_records",
    "coding_goodput_sweep",
    "concurrent_uplink_study",
    "dfe_comparison",
    "dfe_comparison_grid",
    "emulated_ber_vs_snr",
    "emulated_ber_vs_snr_batched",
    "emulated_packet_ber",
    "emulated_packet_bers_block",
    "format_polarization_report",
    "format_table",
    "format_trajectory_report",
    "headline_rate_gain",
    "journal_rows",
    "latency_report",
    "make_grid",
    "merge_journals",
    "fleet_scale_task",
    "mobility_resync_sweep",
    "mobility_study",
    "mobility_study_grid",
    "network_scale_grid",
    "polarization_fidelity_grid",
    "polarization_task",
    "power_report",
    "read_journal",
    "run_grid",
    "profile_from_waterfalls",
    "rate_adaptation_gain",
    "rate_vs_distance",
    "rate_vs_distance_grid",
    "roll_sweep",
    "rows_to_sweeps",
    "simulate_grid_task",
    "task_fingerprint",
    "trajectory_study_grid",
    "trajectory_task",
    "training_memory_sweep",
    "waterfall_threshold",
    "working_range",
    "yaw_sweep",
]
