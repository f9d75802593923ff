"""Testing infrastructure shared by the test suite and CI jobs.

:mod:`repro.testing.differential` is the differential-testing harness
that runs pinned-seed scenarios through the full fault stack and
replays every round of each run against the per-transmitter scan
(``RadioNetwork.resolve_round_scan``): the reception kernel must match
it round for round, receiver order included.

:mod:`repro.testing.semantic` keeps only ``DEFAULT_BOUND_FACTOR``, the
Theorem-2 round ceiling the benchmark gates each execution with.
"""

from repro.testing.differential import (
    PINNED_SCENARIOS,
    DifferentialReport,
    DifferentialScenario,
    EngineRun,
    replay_against_scan,
    run_scenario,
    scenario_by_name,
    serialize_entry,
    transcript_digest,
)

__all__ = [
    "PINNED_SCENARIOS",
    "DifferentialReport",
    "DifferentialScenario",
    "EngineRun",
    "replay_against_scan",
    "run_scenario",
    "scenario_by_name",
    "serialize_entry",
    "transcript_digest",
]
