"""Experiment harness shared by ``benchmarks/`` and ``examples/``.

- :mod:`repro.experiments.workloads` — packet-placement generators (who
  initially holds the ``k`` packets).
- :mod:`repro.experiments.harness` — seeded multi-trial runners and
  aggregation.
- :mod:`repro.experiments.orchestrator` — the fault-tolerant campaign
  runner: supervised worker pool, retry/backoff, quarantine, and
  checkpointed resume (journal + atomic manifest).
- :mod:`repro.experiments.report` — plain-text table rendering for the
  per-experiment outputs recorded in EXPERIMENTS.md.
- :mod:`repro.experiments.stability` — offered-load vs. service-capacity
  sweeps of the continuous driver and the bounded-queue knee locator.
"""

from repro.experiments.harness import (
    TrialStats,
    aggregate,
    run_trials,
)
from repro.experiments.export import read_csv, read_json, write_csv, write_json
from repro.experiments.orchestrator import (
    CampaignError,
    CampaignInterrupted,
    CampaignOutcome,
    FaultInjection,
    Journal,
    OrchestratorConfig,
    SeedFailure,
    build_manifest,
    campaign_header,
    campaign_status,
    load_manifest,
    manifest_to_bytes,
    run_supervised,
    write_manifest,
)
from repro.experiments.plotting import ascii_chart, sparkline
from repro.experiments.report import format_float, render_table
from repro.experiments.scenarios import Scenario, get_scenario, scenario_names
from repro.experiments.stability import (
    CHURN_REGIMES,
    StabilityPoint,
    find_knee,
    measure_point,
    pick_insiders,
    service_capacity_bound,
    stability_sweep,
)
from repro.experiments.stats import (
    min_trials_for_failure_detection,
    wilson_interval,
)
from repro.experiments.workloads import (
    all_nodes_one_packet,
    hotspot_placement,
    single_source_burst,
    uniform_random_placement,
)

__all__ = [
    "CHURN_REGIMES",
    "CampaignError",
    "CampaignInterrupted",
    "CampaignOutcome",
    "FaultInjection",
    "Journal",
    "OrchestratorConfig",
    "Scenario",
    "SeedFailure",
    "StabilityPoint",
    "TrialStats",
    "aggregate",
    "ascii_chart",
    "all_nodes_one_packet",
    "build_manifest",
    "campaign_header",
    "campaign_status",
    "find_knee",
    "format_float",
    "get_scenario",
    "hotspot_placement",
    "load_manifest",
    "manifest_to_bytes",
    "measure_point",
    "min_trials_for_failure_detection",
    "pick_insiders",
    "read_csv",
    "read_json",
    "render_table",
    "service_capacity_bound",
    "stability_sweep",
    "run_supervised",
    "run_trials",
    "scenario_names",
    "single_source_burst",
    "sparkline",
    "uniform_random_placement",
    "wilson_interval",
    "write_csv",
    "write_json",
    "write_manifest",
]
