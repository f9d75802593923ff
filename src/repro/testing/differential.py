"""Differential testing of the reception kernel against the scan oracle.

Every dict round of a run is resolved by the one CSR reception kernel
behind ``RadioNetwork.resolve_round``.
``RadioNetwork.resolve_round_scan`` states the same rule as a plain
per-transmitter neighbor scan, and this module holds the kernel to it on
whole executions, as data:

- a :class:`DifferentialScenario` pins one complete execution — topology,
  workload, fault profile and every seed — as a serializable description;
- :func:`run_scenario` executes it and reduces the execution to digests
  and summaries (:class:`EngineRun`);
- :func:`replay_against_scan` re-resolves every recorded pre-fault round
  of that run through the scan, reporting the first round whose received
  dict differs, receiver order included (:class:`DifferentialReport`).

One run plus a replay guarantees what running a scan-resolved simulator
beside the kernel would: the resolver is the only code in which the two
would differ, so if kernel and scan agree, order included, on every
round the run executed, a scan-resolved run would make the same random
draws and produce the same transcripts.

:data:`PINNED_SCENARIOS` is the standing matrix — grid, random
geometric and hypercube topologies crossed with clean, crash, jam and
byzantine fault profiles — used by ``tests/test_differential_engines.py``
and the CI differential-smoke job.

Everything funnels through the chaos-campaign executor, so the harness
exercises the full stack: ``RecordingNetwork`` (inner transcript) →
``TranscribingFaultNetwork``/``DynamicFaultNetwork`` (fault injection,
outer transcript) → ``SupervisedBroadcast`` (all four stages plus
recovery).  Behind those wrappers every stage runs its dict loop, which
the bare-network tests in ``tests/test_engine_equivalence.py`` hold to
the direct path.  A clean profile is a campaign with an empty fault
schedule, which the supervisor documents as bit-identical to the plain
algorithm.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.radio.network import RadioNetwork
from repro.radio.transcript import TranscriptEntry
from repro.resilience.chaos.fuzzer import ChaosCampaign
from repro.resilience.chaos.runner import execute_campaign
from repro.resilience.schedule import FaultSchedule


# ----------------------------------------------------------------------
# Scenario description
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DifferentialScenario:
    """One pinned execution to replay.

    ``faults`` is a named profile (``clean`` / ``crash`` / ``jam`` /
    ``byzantine``); :meth:`campaign` expands it into a fully seeded
    :class:`ChaosCampaign`, so the scenario stays a small, readable
    description while the replay is bit-for-bit deterministic.
    """

    name: str
    topology: Dict[str, object]
    k: int
    seed: int
    faults: str = "clean"
    preset: str = "fast"

    def campaign(self) -> ChaosCampaign:
        schedule = FaultSchedule()
        jam_prob = 0.0
        adversary_seed = 0
        byzantine_nodes: Tuple[int, ...] = ()
        byzantine_mode: Optional[str] = None
        authentication = False
        if self.faults == "crash":
            # two mid-run crashes; rounds land inside the BFS /
            # collection window for these small topologies
            schedule.crash(1, at_round=40)
            schedule.crash(3, at_round=400)
        elif self.faults == "jam":
            # a scheduled local jammer plus a probabilistic adversary
            schedule.jam([0, 2], start=50, stop=220, prob=0.8)
            jam_prob = 0.08
            adversary_seed = self.seed + 1
        elif self.faults == "byzantine":
            byzantine_nodes = (2,)
            byzantine_mode = "row_poison"
            authentication = True
        elif self.faults != "clean":
            raise ValueError(f"unknown fault profile {self.faults!r}")
        return ChaosCampaign(
            topology=dict(self.topology),
            workload={"kind": "uniform", "k": self.k, "seed": self.seed},
            seed=self.seed,
            schedule=schedule,
            jam_prob=jam_prob,
            adversary_seed=adversary_seed,
            byzantine_nodes=byzantine_nodes,
            byzantine_mode=byzantine_mode,
            authentication=authentication,
            profile="differential",
            expect_delivery=(self.faults == "clean"),
        )


#: The standing scenario matrix: three topology families x four fault
#: profiles.  Small enough for CI, large enough to cover sparse rounds
#: (grid), denser contended rounds (RGG), regular degree (hypercube) and
#: every fault-layer hook.
PINNED_SCENARIOS: Tuple[DifferentialScenario, ...] = tuple(
    DifferentialScenario(
        name=f"{topo_name}-{faults}",
        topology=topo_spec,
        k=k,
        seed=seed,
        faults=faults,
    )
    for (topo_name, topo_spec, k, seed) in (
        ("grid", {"kind": "grid", "rows": 4, "cols": 5}, 6, 11),
        ("rgg", {"kind": "rgg", "n": 24, "seed": 5}, 7, 23),
        ("hypercube", {"kind": "hypercube", "dimension": 4}, 6, 37),
    )
    for faults in ("clean", "crash", "jam", "byzantine")
)


def scenario_by_name(name: str) -> DifferentialScenario:
    """Look up a pinned scenario (KeyError on unknown names)."""
    for scenario in PINNED_SCENARIOS:
        if scenario.name == name:
            return scenario
    raise KeyError(
        f"no pinned scenario {name!r}; known: "
        f"{[s.name for s in PINNED_SCENARIOS]}"
    )


# ----------------------------------------------------------------------
# Execution + reduction to comparable form
# ----------------------------------------------------------------------


def serialize_entry(entry: TranscriptEntry) -> str:
    """Canonical one-line rendering of one transcript round.

    Dict iteration order is serialized as-is: reception order is part
    of the resolver contract (ascending receivers, see
    ``RadioNetwork.resolve_round``), so a run that produced the same
    receptions in a different order must NOT digest equal.
    """
    tx = ";".join(f"{v}={m!r}" for v, m in entry.transmissions.items())
    rx = ";".join(f"{v}={m!r}" for v, m in entry.received.items())
    return f"{entry.index}|clock={entry.clock}|tx[{tx}]|rx[{rx}]"


def transcript_digest(transcript: List[TranscriptEntry]) -> str:
    """sha256 over the canonical serialization of every round."""
    h = hashlib.sha256()
    for entry in transcript:
        h.update(serialize_entry(entry).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class EngineRun:
    """One scenario execution reduced to comparable artifacts."""

    scenario: str
    inner_digest: str  #: physics-level transcript (pre-fault rounds)
    outer_digest: str  #: post-fault transcript (what protocols saw)
    inner_rounds: int
    outer_rounds: int
    result_summary: Dict[str, object]
    decoded: Dict[str, object]  #: who decoded what (delivery sets)


def run_scenario(
    scenario: DifferentialScenario, execution=None
) -> Tuple[EngineRun, List[TranscriptEntry], List[TranscriptEntry]]:
    """Execute ``scenario``.

    Returns the reduced :class:`EngineRun` plus the raw inner and outer
    transcripts (kept so a failed comparison can point at the exact
    diverging round instead of just two hashes).

    ``execution`` optionally supplies an already-executed
    :class:`~repro.resilience.chaos.runner.TrialExecution` of this
    scenario, so callers that also need the execution object itself
    (:func:`replay_against_scan` re-resolves its base network's rounds)
    can reduce it without running the campaign twice.
    """
    if execution is None:
        execution = execute_campaign(
            scenario.campaign(), preset=scenario.preset
        )
    result = execution.result
    inner = execution.inner_transcript
    outer = execution.outer_transcript
    summary = {
        "success": bool(result.success),
        "total_rounds": int(result.total_rounds),
        "informed_fraction": float(result.informed_fraction),
        "coverage": float(result.coverage),
        "leader": int(result.leader),
        "watchdog_tripped": bool(result.watchdog_tripped),
        "retries": int(result.retries),
        "reelections": int(result.reelections),
        "corrupt_discarded": int(result.corrupt_discarded),
        "mis_decodes": int(result.mis_decodes),
        "byzantine_rx_discarded": int(result.byzantine_rx_discarded),
        "poisoned_rows_attributed": int(result.poisoned_rows_attributed),
        "timing": dict(result.timing),
        "fault_stats": {k: int(v) for k, v in result.fault_stats.items()},
    }
    decoded = {
        "packets_lost": sorted(int(p) for p in result.packets_lost),
        "packets_undelivered": sorted(
            int(p) for p in result.packets_undelivered
        ),
        "survivors": sorted(int(v) for v in result.survivors),
        "blacklisted": sorted(int(v) for v in result.blacklisted),
    }
    run = EngineRun(
        scenario=scenario.name,
        inner_digest=transcript_digest(inner),
        outer_digest=transcript_digest(outer),
        inner_rounds=len(inner),
        outer_rounds=len(outer),
        result_summary=summary,
        decoded=decoded,
    )
    return run, inner, outer


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


@dataclass
class DifferentialReport:
    """Outcome of one run replayed against the scan."""

    scenario: str
    equal: bool
    run: EngineRun
    divergences: List[str] = field(default_factory=list)

    def explain(self) -> str:
        if self.equal:
            return (
                f"{self.scenario}: kernel and scan identical on all "
                f"{self.run.inner_rounds} rounds of the run"
            )
        return f"{self.scenario}: KERNEL DIVERGES FROM SCAN\n" + "\n".join(
            f"  - {d}" for d in self.divergences
        )


def _first_scan_divergence(
    network: RadioNetwork, transcript: List[TranscriptEntry]
) -> Optional[str]:
    """The first round of ``transcript`` whose received dict differs,
    receiver order included, from ``network.resolve_round_scan`` on the
    same transmissions; ``None`` when every round agrees."""
    for entry in transcript:
        expected = network.resolve_round_scan(entry.transmissions)
        if list(expected.items()) != list(entry.received.items()):
            return (
                f"inner round {entry.index} differs from the scan:\n"
                f"      kernel: {list(entry.received.items())!r:.400}\n"
                f"      scan:   {list(expected.items())!r:.400}"
            )
    return None


def replay_against_scan(
    scenario: DifferentialScenario, execution=None
) -> DifferentialReport:
    """Run ``scenario`` and re-resolve every inner (pre-fault) round
    through :meth:`RadioNetwork.resolve_round_scan`.

    ``execution`` optionally supplies an already-executed
    :class:`~repro.resilience.chaos.runner.TrialExecution` of
    ``scenario``, so a caller that inspects the run can share it with
    this replay.  The pinned scenarios have no churn layer, so the inner
    transcript holds exactly what the base network resolved.
    """
    if execution is None:
        execution = execute_campaign(
            scenario.campaign(), preset=scenario.preset
        )
    run, inner, _ = run_scenario(scenario, execution=execution)
    divergence = _first_scan_divergence(execution.base_network, inner)
    return DifferentialReport(
        scenario=scenario.name,
        equal=divergence is None,
        run=run,
        divergences=[] if divergence is None else [divergence],
    )
