"""Semantic-equivalence gating for the ``columnar`` engine.

A ``reference`` run is held to *bit-identical* rounds against the
per-transmitter scan
(:func:`repro.testing.differential.replay_against_scan`).  The
``columnar`` engine cannot be held to the reference run's digests: it
draws whole Decay schedules and coded subset masks in batched numpy
calls and skips provably-redundant post-saturation rounds, so its RNG
stream — and therefore every digest — legitimately diverges.  What must
NOT diverge is the *semantics*: the physics of every round it executed,
the sets it delivered, the fault accounting, and the round budget.  This
module makes that gate explicit as a suite of per-run oracles:

``delivered_sets``
    The candidate run's delivery artifacts (packets lost/undelivered,
    survivors, blacklist) equal the baseline engine's.
``outcome``
    Protocol-level outcome equality: success flag, informed fraction,
    coverage, elected leader, mis-decode count.
``reception_rule``
    Every recorded pre-fault round re-resolves exactly, receiver order
    included, under the per-transmitter scan
    (:func:`verify_transcript`), which shares no code with the kernel.
``collision_counts``
    Every recorded round is re-resolved through the array entry point
    of the kernel (:meth:`RadioNetwork.resolve_round_vector`) on a
    fresh copy of the topology: receiver sets and per-round collision
    counts must match the transcript, and the first diverging round is
    reported.
``drop_accounting``
    The chaos-harness identity: receptions lost between the inner and
    outer transcripts are booked by exactly one fault counter (reuses
    :func:`repro.resilience.chaos.oracles.check_drop_accounting`).
``round_envelope``
    The candidate finished within the Theorem 2 budget envelope and
    within a constant factor of the baseline's total rounds.

:func:`run_three_way` combines the scan replay with the semantic gate,
producing one report per pinned scenario for the CI matrix; one
``reference`` run feeds both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.complexity import theorem2_total_bound
from repro.radio.transcript import TranscriptEntry, verify_transcript
from repro.resilience.chaos.oracles import check_drop_accounting
from repro.resilience.chaos.runner import execute_campaign
from repro.testing.differential import (
    DifferentialReport,
    DifferentialScenario,
    EngineRun,
    replay_against_scan,
    run_scenario,
)

#: Oracle catalog, in evaluation order.
SEMANTIC_ORACLES: Tuple[str, ...] = (
    "delivered_sets",
    "outcome",
    "reception_rule",
    "collision_counts",
    "drop_accounting",
    "round_envelope",
)

#: The candidate may take up to this multiple of the baseline's rounds
#: (and no less than the reciprocal).  Stage budgets are deterministic
#: and retries are rare on the pinned scenarios, so divergence here
#: means a scheduling bug, not noise.
DEFAULT_ROUND_RATIO = 3.0

#: Absolute ceiling as a multiple of the unit-constant Theorem 2 bound;
#: matches the chaos harness's calibration (see
#: :data:`repro.resilience.chaos.oracles.DEFAULT_ROUND_BOUND_FACTOR`).
DEFAULT_BOUND_FACTOR = 200.0


@dataclass
class SemanticVerdict:
    """One oracle's judgment of one candidate run."""

    oracle: str
    passed: bool
    detail: str = ""
    round: Optional[int] = None  #: first diverging round, when known

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        where = f" @ round {self.round}" if self.round is not None else ""
        return f"{self.oracle}{where}: {status} — {self.detail}"


@dataclass
class SemanticReport:
    """Outcome of one candidate-vs-baseline semantic comparison."""

    scenario: str
    candidate: EngineRun
    baseline: EngineRun
    verdicts: List[SemanticVerdict] = field(default_factory=list)

    @property
    def equal(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def failing(self) -> List[SemanticVerdict]:
        return [v for v in self.verdicts if not v.passed]

    def explain(self) -> str:
        if self.equal:
            return (
                f"{self.scenario}: {self.candidate.engine} semantically "
                f"equivalent to {self.baseline.engine} "
                f"({len(self.verdicts)} oracles)"
            )
        lines = [
            f"{self.scenario}: {self.candidate.engine} DIVERGES from "
            f"{self.baseline.engine}"
        ]
        lines.extend(f"  - {v.describe()}" for v in self.failing())
        return "\n".join(lines)


def round_collision_count(network, transmissions: Dict) -> int:
    """Collisions in one round: silent nodes with >= 2 transmitting
    neighbors (the receptions the radio model destroys)."""
    if not transmissions:
        return 0
    counts: Dict[int, int] = {}
    for sender in transmissions:
        for v in network.neighbors(sender):
            counts[int(v)] = counts.get(int(v), 0) + 1
    return sum(
        1
        for v, c in counts.items()
        if c >= 2 and v not in transmissions
    )


def _check_delivered_sets(
    candidate: EngineRun, baseline: EngineRun
) -> SemanticVerdict:
    if candidate.decoded == baseline.decoded:
        return SemanticVerdict(
            "delivered_sets", True, "delivery artifacts identical"
        )
    diffs = [
        f"{key}: {candidate.engine}={candidate.decoded[key]!r} "
        f"{baseline.engine}={baseline.decoded[key]!r}"
        for key in candidate.decoded
        if candidate.decoded[key] != baseline.decoded[key]
    ]
    return SemanticVerdict("delivered_sets", False, "; ".join(diffs))


#: Result-summary keys that define the protocol-level outcome.  Round
#: totals, retry counts and fault tallies depend on the RNG stream and
#: are governed by ``round_envelope`` / ``drop_accounting`` instead.
_OUTCOME_KEYS = (
    "success",
    "informed_fraction",
    "coverage",
    "leader",
    "mis_decodes",
)


def _check_outcome(
    candidate: EngineRun, baseline: EngineRun
) -> SemanticVerdict:
    diffs = [
        f"{key}: {candidate.engine}="
        f"{candidate.result_summary[key]!r} {baseline.engine}="
        f"{baseline.result_summary[key]!r}"
        for key in _OUTCOME_KEYS
        if candidate.result_summary[key] != baseline.result_summary[key]
    ]
    if diffs:
        return SemanticVerdict("outcome", False, "; ".join(diffs))
    return SemanticVerdict(
        "outcome", True,
        f"success={candidate.result_summary['success']} "
        f"informed={candidate.result_summary['informed_fraction']:.3f}",
    )


def _check_reception_rule(
    base_network, inner: List[TranscriptEntry]
) -> SemanticVerdict:
    problems = verify_transcript(base_network, inner)
    if problems:
        return SemanticVerdict(
            "reception_rule",
            False,
            f"{len(problems)} violation(s): {problems[0]}",
        )
    return SemanticVerdict(
        "reception_rule", True,
        f"{len(inner)} rounds re-resolved exactly",
    )


def _check_collision_counts(
    base_network, inner: List[TranscriptEntry]
) -> SemanticVerdict:
    """Replay every recorded round through the vectorized resolver."""
    total = 0
    for i, entry in enumerate(inner):
        tx_ids = np.array(sorted(entry.transmissions), dtype=np.int64)
        receivers, senders_of = base_network.resolve_round_vector(tx_ids)
        recorded = [int(v) for v in entry.received]
        if list(receivers) != recorded:
            return SemanticVerdict(
                "collision_counts",
                False,
                f"vector resolver delivers to {list(receivers)[:12]} "
                f"but transcript records {recorded[:12]}",
                round=i,
            )
        for rcv, snd in zip(receivers, senders_of):
            if entry.received[int(rcv)] != entry.transmissions[int(snd)]:
                return SemanticVerdict(
                    "collision_counts",
                    False,
                    f"vector resolver attributes node {int(rcv)}'s "
                    f"reception to sender {int(snd)}, whose message "
                    f"differs from the recorded one",
                    round=i,
                )
        total += round_collision_count(base_network, entry.transmissions)
    return SemanticVerdict(
        "collision_counts", True,
        f"{len(inner)} rounds re-resolved by the CSR kernel; "
        f"{total} collisions recounted",
    )


def _check_drop_accounting(execution) -> SemanticVerdict:
    verdict = check_drop_accounting(execution)
    return SemanticVerdict(
        "drop_accounting", verdict.passed, verdict.detail
    )


def _check_round_envelope(
    execution,
    candidate: EngineRun,
    baseline: EngineRun,
    ratio: float,
    bound_factor: float,
) -> SemanticVerdict:
    cand_rounds = int(candidate.result_summary["total_rounds"])
    base_rounds = int(baseline.result_summary["total_rounds"])
    net = execution.base_network
    result = execution.result
    bound = bound_factor * theorem2_total_bound(
        net.n, net.diameter, net.max_degree, max(result.k, 1)
    )
    if cand_rounds > bound:
        return SemanticVerdict(
            "round_envelope",
            False,
            f"{cand_rounds} rounds exceeds {bound_factor:g} x the "
            f"Theorem 2 bound ({bound:.0f})",
        )
    if base_rounds and not (
        base_rounds / ratio <= cand_rounds <= base_rounds * ratio
    ):
        return SemanticVerdict(
            "round_envelope",
            False,
            f"{cand_rounds} rounds vs baseline {base_rounds} is outside "
            f"the {ratio:g}x envelope",
        )
    return SemanticVerdict(
        "round_envelope", True,
        f"{cand_rounds} rounds (baseline {base_rounds}, "
        f"ceiling {bound:.0f})",
    )


def semantic_compare(
    scenario: DifferentialScenario,
    candidate_engine: str = "columnar",
    baseline_engine: str = "reference",
    round_ratio: float = DEFAULT_ROUND_RATIO,
    bound_factor: float = DEFAULT_BOUND_FACTOR,
    baseline: Optional[EngineRun] = None,
) -> SemanticReport:
    """Run ``scenario`` under both engines and apply the oracle suite.

    The baseline run only feeds the cross-engine oracles
    (``delivered_sets`` / ``outcome`` / ``round_envelope``); pass an
    already-reduced ``baseline`` to reuse one.  The physics-level
    oracles judge the candidate's own transcript against the scan and
    the vectorized resolver.
    """
    cand_exec = execute_campaign(
        scenario.campaign(), preset=scenario.preset, engine=candidate_engine
    )
    candidate, cand_inner, _ = run_scenario(
        scenario, candidate_engine, execution=cand_exec
    )
    if baseline is None:
        baseline, _, _ = run_scenario(scenario, baseline_engine)

    base_net = cand_exec.rebuild_channel()
    verdicts = [
        _check_delivered_sets(candidate, baseline),
        _check_outcome(candidate, baseline),
        _check_reception_rule(base_net, cand_inner),
        _check_collision_counts(base_net, cand_inner),
        _check_drop_accounting(cand_exec),
        _check_round_envelope(
            cand_exec, candidate, baseline, round_ratio, bound_factor
        ),
    ]
    return SemanticReport(
        scenario=scenario.name,
        candidate=candidate,
        baseline=baseline,
        verdicts=verdicts,
    )


@dataclass
class ThreeWayReport:
    """One scenario judged across the scan, the kernel and columnar.

    ``replay`` holds the reference run replayed round by round against
    the scan; ``semantic`` holds the columnar-vs-reference oracle suite.
    The matrix passes only when both do.
    """

    scenario: str
    replay: DifferentialReport
    semantic: SemanticReport

    @property
    def equal(self) -> bool:
        return self.replay.equal and self.semantic.equal

    def explain(self) -> str:
        return "\n".join([self.replay.explain(), self.semantic.explain()])


def run_three_way(
    scenario: DifferentialScenario,
    round_ratio: float = DEFAULT_ROUND_RATIO,
    bound_factor: float = DEFAULT_BOUND_FACTOR,
) -> ThreeWayReport:
    """The full matrix on one scenario: one ``reference`` run, replayed
    against the scan and used as the semantic gate's baseline."""
    replay = replay_against_scan(scenario)
    return ThreeWayReport(
        scenario=scenario.name,
        replay=replay,
        semantic=semantic_compare(
            scenario,
            round_ratio=round_ratio,
            bound_factor=bound_factor,
            baseline=replay.run,
        ),
    )
