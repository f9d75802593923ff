"""The full matrix: scan replay + semantic gate.

``tests/test_differential_engines.py`` replays every round of a
``reference`` run against the per-transmitter scan on the 12 pinned
scenarios; this file adds the ``columnar`` engine.  It batches its RNG
draws, so it is judged by the :mod:`repro.testing.semantic` oracle suite
instead of transcript digests — same delivered sets, same outcome,
reception rule intact, vector resolver faithful on every recorded round,
fault drops fully booked, round totals inside the Theorem-2 envelope.
Together the two files run the full matrix the CI smoke job samples
from.

The failure-reporting tests hand the oracles deliberately broken
transcripts and check the report names the failing oracle and the first
diverging round — the property that makes a red matrix actionable.
"""

import numpy as np
import pytest

from repro.radio.transcript import TranscriptEntry
from repro.testing import (
    PINNED_SCENARIOS,
    SEMANTIC_ORACLES,
    round_collision_count,
    run_three_way,
    scenario_by_name,
    semantic_compare,
)
from repro.testing.semantic import (
    _check_collision_counts,
    _check_reception_rule,
)
from repro.topology import grid


@pytest.mark.parametrize(
    "name", [s.name for s in PINNED_SCENARIOS]
)
def test_columnar_semantic_matrix(name):
    """Every pinned scenario: columnar passes all semantic oracles."""
    report = semantic_compare(scenario_by_name(name))
    assert report.equal, report.explain()
    assert [v.oracle for v in report.verdicts] == list(SEMANTIC_ORACLES)


@pytest.mark.parametrize("name", ["grid-clean", "hypercube-byzantine"])
def test_three_way_report_combines_both_gates(name):
    report = run_three_way(scenario_by_name(name))
    assert report.equal, report.explain()
    assert report.replay.equal and report.semantic.equal
    text = report.explain()
    assert "identical" in text and "semantically equivalent" in text


def _entry(index, transmissions, received):
    return TranscriptEntry(
        index=index, transmissions=transmissions, received=received
    )


def test_reception_rule_oracle_flags_invented_reception():
    net = grid(3, 3)
    good = net.resolve_round({0: "a"})
    bad = dict(net.resolve_round({0: "a"}))
    bad[8] = "a"  # node 8 is not adjacent to 0
    verdict = _check_reception_rule(
        net, [_entry(0, {0: "a"}, good), _entry(1, {0: "a"}, bad)]
    )
    assert not verdict.passed
    assert verdict.oracle == "reception_rule"


def test_collision_oracle_names_first_diverging_round():
    net = grid(3, 3)
    tx = {0: "a", 2: "b"}
    good = net.resolve_round(tx)
    bad = dict(good)
    bad[4] = "a"  # node 4 hears both 0 and 2: a collision, not a reception
    verdict = _check_collision_counts(
        net,
        [
            _entry(0, tx, dict(good)),
            _entry(1, tx, bad),
            _entry(2, tx, dict(good)),
        ],
    )
    assert not verdict.passed
    assert verdict.oracle == "collision_counts"
    assert verdict.round == 1
    assert "round 1" in verdict.describe()


def test_collision_oracle_passes_honest_transcript():
    net = grid(3, 4)
    rng = np.random.default_rng(7)
    entries = []
    for i in range(40):
        senders = rng.choice(net.n, size=int(rng.integers(0, 6)),
                             replace=False)
        tx = {int(v): f"m{int(v)}" for v in senders}
        entries.append(_entry(i, tx, net.resolve_round(tx)))
    verdict = _check_collision_counts(net, entries)
    assert verdict.passed, verdict.detail


def test_round_collision_count_matches_hand_count():
    net = grid(2, 3)  # nodes 0 1 2 / 3 4 5
    # 0 and 2 both reach node 1 -> one collision; node 4 hears only 3
    assert round_collision_count(net, {0: "x", 2: "y"}) == 1
    assert round_collision_count(net, {3: "x"}) == 0
    assert round_collision_count(net, {}) == 0


def test_semantic_report_explain_names_failing_oracle():
    report = semantic_compare(scenario_by_name("grid-clean"))
    # sabotage one verdict to exercise the failure rendering
    report.verdicts[3].passed = False
    report.verdicts[3].round = 17
    report.verdicts[3].detail = "synthetic divergence"
    assert not report.equal
    text = report.explain()
    assert "collision_counts" in text
    assert "round 17" in text
    assert "synthetic divergence" in text
