"""Testing infrastructure shared by the test suite and CI jobs.

:mod:`repro.testing.differential` is the differential-testing harness
that runs pinned-seed scenarios under the ``reference`` engine and
replays every round against the per-transmitter scan
(``RadioNetwork.resolve_round_scan``): the reception kernel must match
it round for round, receiver order included.

:mod:`repro.testing.semantic` is the semantic-equivalence gate for the
``columnar`` engine, whose batched RNG draws legitimately reorder the
random stream: instead of digests it checks delivered sets, outcome
equality, reception-rule and vector-resolver replays, drop accounting,
and the Theorem-2 round envelope.  :func:`run_three_way` combines both
into the full matrix, feeding one ``reference`` run to each.
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
from repro.testing.semantic import (
    SEMANTIC_ORACLES,
    SemanticReport,
    SemanticVerdict,
    ThreeWayReport,
    round_collision_count,
    run_three_way,
    semantic_compare,
)

__all__ = [
    "PINNED_SCENARIOS",
    "DifferentialReport",
    "DifferentialScenario",
    "EngineRun",
    "SEMANTIC_ORACLES",
    "SemanticReport",
    "SemanticVerdict",
    "ThreeWayReport",
    "replay_against_scan",
    "round_collision_count",
    "run_scenario",
    "run_three_way",
    "scenario_by_name",
    "semantic_compare",
    "serialize_entry",
    "transcript_digest",
]
