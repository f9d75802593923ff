"""Differential tests: on every pinned scenario, every round of the run
must re-resolve identically, receiver order included, under the
per-transmitter scan oracle.

The scenario matrix (:data:`repro.testing.PINNED_SCENARIOS`) crosses
three topology families (grid, random geometric, hypercube) with four
fault profiles (clean, crash, jam, byzantine).  The reception kernel is
the only code a scan-resolved simulator would differ in, so agreement on
every executed round means such a run would draw the same randomness
and produce the same transcripts, results and delivery sets.
"""

import pytest

from repro.radio.transcript import verify_transcript
from repro.resilience.chaos.runner import execute_campaign
from repro.testing import (
    PINNED_SCENARIOS,
    replay_against_scan,
    run_scenario,
    scenario_by_name,
    transcript_digest,
)


@pytest.mark.parametrize("scenario", PINNED_SCENARIOS, ids=lambda s: s.name)
def test_engines_identical(scenario):
    report = replay_against_scan(scenario)
    assert report.equal, report.explain()
    assert report.run.inner_rounds > 0


def test_matrix_covers_all_profiles_and_topologies():
    topologies = {s.topology["kind"] for s in PINNED_SCENARIOS}
    profiles = {s.faults for s in PINNED_SCENARIOS}
    assert topologies == {"grid", "rgg", "hypercube"}
    assert profiles == {"clean", "crash", "jam", "byzantine"}
    assert len(PINNED_SCENARIOS) == 12
    assert len({s.name for s in PINNED_SCENARIOS}) == 12


def test_scenario_by_name_round_trip_and_unknown():
    for scenario in PINNED_SCENARIOS:
        assert scenario_by_name(scenario.name) is scenario
    with pytest.raises(KeyError):
        scenario_by_name("torus-meteor-strike")


def test_fault_profiles_actually_fire():
    """Guard against a scenario matrix that silently degenerates to
    twelve clean runs: each profile must leave its fingerprint."""
    crash, _, _ = run_scenario(scenario_by_name("grid-crash"))
    assert crash.result_summary["fault_stats"]["crashes"] == 2

    jam, _, _ = run_scenario(scenario_by_name("grid-jam"))
    stats = jam.result_summary["fault_stats"]
    assert stats["rx_suppressed_jam"] + stats["rx_jammed_adversary"] > 0

    byz, _, _ = run_scenario(scenario_by_name("grid-byzantine"))
    assert byz.result_summary["fault_stats"]["rows_poisoned"] > 0
    assert byz.result_summary["byzantine_rx_discarded"] > 0


def _reverse_first_multi_receiver_round(inner):
    """Reverse the receiver order of the first round with >= 2
    receivers, in place, and return that round."""
    for entry in inner:
        if len(entry.received) >= 2:
            items = list(entry.received.items())
            entry.received.clear()
            entry.received.update(reversed(items))
            return entry
    raise AssertionError("no round with >= 2 receivers")


def test_digest_is_order_sensitive():
    """The canonical serialization must distinguish reception order —
    that ordering is part of the resolver contract."""
    _, inner, _ = run_scenario(scenario_by_name("grid-clean"))
    baseline = transcript_digest(inner)
    _reverse_first_multi_receiver_round(inner)
    assert transcript_digest(inner) != baseline


def test_scan_replay_and_verify_transcript_are_order_sensitive():
    """Both physics checks against the scan — the one-run gate and the
    transcript auditor ``verify_transcript`` — flag a round whose
    receivers come out reversed, and name that round."""
    scenario = scenario_by_name("grid-clean")
    execution = execute_campaign(
        scenario.campaign(), preset=scenario.preset
    )
    net, inner = execution.base_network, execution.inner_transcript
    assert replay_against_scan(scenario, execution=execution).equal
    assert verify_transcript(net, inner) == []

    swapped = _reverse_first_multi_receiver_round(inner)
    report = replay_against_scan(scenario, execution=execution)
    assert not report.equal
    assert f"round {swapped.index} " in report.divergences[0]
    problems = verify_transcript(net, inner)
    assert len(problems) == 1
    assert problems[0].startswith(f"round {swapped.index}:")
