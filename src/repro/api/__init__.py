"""The unified run API: one validated spec, one entry point, one artifact.

::

    from repro.api import PhyKnobs, ScenarioSpec, Session

    spec = ScenarioSpec(kind="packet", distance_m=3.0,
                        phy=PhyKnobs(roll_deg=25.0))
    report = Session(spec).run(n_packets=10)
    print(report.summary["ber"], sorted(report.metric_names()))
    report.write("run.json")            # schema-validated RunReport

* :class:`ScenarioSpec` (v2) keeps the shared link fields flat and nests
  everything kind-private in knob groups (:mod:`repro.api.knobs`); a
  group is the only way to set its knobs, and ``describe()`` output stays
  byte-identical to v1.
* :class:`Session` owns an :class:`~repro.obs.Observer` and returns a
  :class:`~repro.obs.RunReport`.
* :data:`SCENARIO_CATALOG` names ready-to-run trajectory scenarios
  (:func:`named_scenario`).
"""

from repro.api.catalog import SCENARIO_CATALOG, named_scenario, scenario_catalog_names
from repro.api.knobs import (
    MacKnobs,
    MobilityKnobs,
    PhyKnobs,
    StreamKnobs,
    TrajectoryKnobs,
)
from repro.api.session import Session, trajectory_summary
from repro.api.spec import KIND_GROUPS, SCENARIO_KINDS, ScenarioSpec

__all__ = [
    "KIND_GROUPS",
    "MacKnobs",
    "MobilityKnobs",
    "PhyKnobs",
    "SCENARIO_CATALOG",
    "SCENARIO_KINDS",
    "ScenarioSpec",
    "Session",
    "StreamKnobs",
    "TrajectoryKnobs",
    "named_scenario",
    "scenario_catalog_names",
    "trajectory_summary",
]
