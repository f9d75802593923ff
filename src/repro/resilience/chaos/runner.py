"""Campaign execution: N seeded fuzz trials, oracles on every one.

The execution path records *two* transcripts of the same run:

- the **inner** transcript sits between the fault layer and the
  collision model, so it sees what the channel actually resolved
  (crash-filtered transmissions, insider lies included);
- the **outer** transcript is recorded by the fault network itself
  (:class:`TranscribingFaultNetwork`), so it sees what the protocol
  saw after every scheduled and adversarial drop.

The delta between the two is exactly the fault layer's doing, which is
what the ``drop_accounting`` and ``replay_receptions`` oracles audit.

:func:`run_campaign` fans trials across the supervised
:mod:`repro.experiments.orchestrator` worker pool (checkpointed and
resumable via :func:`resume_campaign` when given a directory); the
per-trial entry point :func:`run_fuzz_trial` therefore returns a plain
JSON-able summary dict (campaign, verdicts, headline metrics), not
live network objects.  Shrinking and artifact replay re-execute
locally from the campaign JSON.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import AlgorithmParameters
from repro.coding.packets import Packet
from repro.dynamic.arrivals import build_arrival_process
from repro.dynamic.churn import ChurnNetwork
from repro.dynamic.continuous import (
    ContinuousBroadcast,
    ContinuousPolicy,
    ContinuousResult,
)
from repro.radio.network import ENGINES, RadioNetwork
from repro.radio.transcript import RecordingNetwork, TranscriptEntry
from repro.resilience.byzantine import ByzantineSet
from repro.resilience.network import DynamicFaultNetwork
from repro.resilience.report import make_adversary
from repro.resilience.supervisor import (
    SupervisedBroadcast,
    SupervisedResult,
    SupervisionPolicy,
)
from repro.resilience.chaos.fuzzer import (
    PROFILES,
    ChaosCampaign,
    build_topology_spec,
    build_workload_spec,
    sample_campaign,
)
from repro.resilience.chaos.oracles import (
    DEFAULT_ROUND_BOUND_FACTOR,
    OracleVerdict,
    run_oracles,
    violated,
)

_PRESETS = {
    "default": AlgorithmParameters,
    "fast": AlgorithmParameters.fast,
    "paper": AlgorithmParameters.paper,
}


class TranscribingFaultNetwork(DynamicFaultNetwork):
    """A fault network that records its own (post-fault) resolutions.

    Kept as a subclass rather than an outer :class:`RecordingNetwork`
    wrapper because :class:`SupervisedBroadcast` type-switches on
    ``isinstance(network, DynamicFaultNetwork)`` — a wrapper would be
    re-wrapped in a second fault layer.  Each entry is stamped with the
    pre-resolution clock so a replayer can advance a fresh fault
    network to the exact same round.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.outer_transcript: List[TranscriptEntry] = []

    def resolve_round(self, transmissions):
        clock = self.clock
        received = super().resolve_round(transmissions)
        self.outer_transcript.append(
            TranscriptEntry(
                index=len(self.outer_transcript),
                transmissions=dict(transmissions),
                received=dict(received),
                clock=clock,
            )
        )
        return received


def build_fault_stack(
    campaign: ChaosCampaign,
    base,
    schedule=None,
    transcribe: bool = False,
) -> DynamicFaultNetwork:
    """Instantiate the campaign's full fault stack over ``base``.

    Everything is seeded from campaign fields, so two calls build
    stacks with identical random streams — the determinism the replay
    oracle and the artifact replayer rely on.
    """
    adversary = make_adversary(
        jam_prob=campaign.jam_prob,
        corruption_rate=campaign.corrupt_rate,
        jam_budget=campaign.jam_budget,
        seed=campaign.adversary_seed,
    )
    byzantine = None
    if campaign.byzantine_nodes:
        byzantine = ByzantineSet(
            campaign.byzantine_nodes,
            campaign.byzantine_mode,
            authentication=campaign.authentication,
        )
    cls = TranscribingFaultNetwork if transcribe else DynamicFaultNetwork
    return cls(
        base,
        schedule=campaign.schedule if schedule is None else schedule,
        seed=campaign.seed,
        adversary=adversary,
        byzantine=byzantine,
    )


def wrap_churn(campaign: ChaosCampaign, base: RadioNetwork):
    """Apply the campaign's churn layer over ``base`` (identity when
    the campaign has none).  The ``leaky_churn`` ablation arms the
    planted phantom-delivery bug the no_phantom_delivery oracle exists
    to catch."""
    if campaign.churn is None:
        return base
    return ChurnNetwork(
        base,
        campaign.churn,
        deliver_to_absent=(campaign.ablation == "leaky_churn"),
    )


@dataclass
class TrialExecution:
    """One executed trial with everything the oracles inspect.

    Exactly one of ``result`` (one-shot supervised broadcast) and
    ``continuous`` (open-ended traffic run) is set, matching
    ``campaign.mode``.
    """

    campaign: ChaosCampaign
    result: Optional[SupervisedResult]
    fault_net: TranscribingFaultNetwork
    inner_transcript: List[TranscriptEntry]
    outer_transcript: List[TranscriptEntry]
    base_network: RadioNetwork
    packets: Sequence[Packet]
    continuous: Optional[ContinuousResult] = None

    def rebuild_base(self) -> RadioNetwork:
        """A fresh, identical copy of the underlying topology (specs
        are deterministic), for replay against untouched state."""
        return build_topology_spec(self.campaign.topology)

    def rebuild_channel(self):
        """A fresh copy of the churn-wrapped channel (what the inner
        transcript actually recorded), for exact re-resolution."""
        return wrap_churn(self.campaign, self.rebuild_base())


def make_policy(
    campaign: ChaosCampaign,
    max_stage_retries: int = 4,
    max_reelections: int = 3,
) -> SupervisionPolicy:
    """The supervision policy campaigns run under.

    Retry/re-election headroom matches the R2/R3 experiment settings
    (the envelope the light/medium profiles are calibrated against).
    The campaign's ablation switches off the corresponding repair —
    that is the planted-bug mechanism the fuzzer is expected to catch.
    """
    return SupervisionPolicy(
        max_stage_retries=max_stage_retries,
        max_reelections=max_reelections,
        enable_tree_repair=(campaign.ablation != "no_repair"),
    )


def execute_campaign(
    campaign: ChaosCampaign,
    policy: Optional[SupervisionPolicy] = None,
    params: Optional[AlgorithmParameters] = None,
    preset: str = "default",
    engine: Optional[str] = None,
) -> TrialExecution:
    """Run one campaign end to end, recording both transcripts.

    ``engine`` optionally overrides the simulation engine for the whole
    fault stack.  The stack wraps the base network, so every stage runs
    its dict loop and both engines give the identical execution; a
    ``"reference"`` run replays bit-identically, round by round, against
    the per-transmitter scan (:mod:`repro.testing.differential`).
    """
    base = build_topology_spec(campaign.topology)
    if engine is not None:
        base.set_engine(engine)
    packets = build_workload_spec(base, campaign.workload)
    # stack order: faults over transcript over churn over the channel —
    # the inner transcript records the churn-resolved receptions, which
    # is what the reception_rule and no_phantom_delivery oracles replay
    inner = RecordingNetwork(wrap_churn(campaign, base))
    fault_net = build_fault_stack(campaign, inner, transcribe=True)
    params = params if params is not None else _PRESETS[preset]()
    if params.authentication != campaign.authentication:
        # the supervisor pushes params.authentication into the insider
        # set via configure(); honor the campaign's choice
        params = dataclasses.replace(
            params, authentication=campaign.authentication
        )
    result: Optional[SupervisedResult] = None
    continuous: Optional[ContinuousResult] = None
    # the amnesiac_blacklist ablation plants the forget-on-leave bug:
    # one-shot runs drop their carried convictions entirely, continuous
    # runs arm the forgetful registry (no_blacklist_escape's self-test)
    amnesiac = campaign.ablation == "amnesiac_blacklist"
    if campaign.mode == "continuous":
        traffic = campaign.traffic
        process = build_arrival_process(
            dict(traffic["process"]), network=base
        )
        driver = ContinuousBroadcast(
            fault_net,
            process,
            policy=ContinuousPolicy.from_json(dict(traffic["policy"])),
            # batches are capped at max_batch, so the driver's cheap
            # known-k collection sizing applies (see ContinuousBroadcast)
            params=params.with_overrides(
                collection_estimate_factor=0.25, mspg_enabled=False,
            ),
            seed=campaign.seed,
            quarantined=campaign.quarantined,
            forgetful_quarantine=amnesiac,
        )
        continuous = driver.run(int(traffic["rounds"]))
    else:
        result = SupervisedBroadcast(
            fault_net,
            params=params,
            policy=policy if policy is not None else make_policy(campaign),
            seed=campaign.seed,
            initial_blacklist=() if amnesiac else campaign.quarantined,
        ).run(packets)
    return TrialExecution(
        campaign=campaign,
        result=result,
        fault_net=fault_net,
        inner_transcript=inner.transcript,
        outer_transcript=fault_net.outer_transcript,
        base_network=base,
        packets=packets,
        continuous=continuous,
    )


def evaluate_campaign(
    campaign: ChaosCampaign,
    policy: Optional[SupervisionPolicy] = None,
    params: Optional[AlgorithmParameters] = None,
    preset: str = "default",
    round_bound_factor: float = DEFAULT_ROUND_BOUND_FACTOR,
    engine: Optional[str] = None,
) -> Tuple[TrialExecution, List[OracleVerdict]]:
    """Execute one campaign and run the full oracle catalog on it."""
    execution = execute_campaign(
        campaign, policy=policy, params=params, preset=preset,
        engine=engine,
    )
    return execution, run_oracles(
        execution, round_bound_factor=round_bound_factor
    )


@dataclass
class CampaignConfig:
    """Everything a worker process needs to fuzz one seed (picklable)."""

    profile: str = "medium"
    topology: Dict[str, object] = field(
        default_factory=lambda: {"kind": "grid", "rows": 4, "cols": 4}
    )
    workload: Dict[str, object] = field(
        default_factory=lambda: {"kind": "uniform", "k": 6}
    )
    preset: str = "default"
    ablation: str = "none"
    round_bound_factor: float = DEFAULT_ROUND_BOUND_FACTOR
    max_stage_retries: int = 4
    max_reelections: int = 3
    engine: str = "reference"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )

    def to_json(self) -> dict:
        return {
            "profile": self.profile,
            "topology": dict(self.topology),
            "workload": dict(self.workload),
            "preset": self.preset,
            "ablation": self.ablation,
            "round_bound_factor": self.round_bound_factor,
            "max_stage_retries": self.max_stage_retries,
            "max_reelections": self.max_reelections,
            "engine": self.engine,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CampaignConfig":
        return cls(
            profile=data.get("profile", "medium"),
            topology=dict(data["topology"]),
            workload=dict(data["workload"]),
            preset=data.get("preset", "default"),
            ablation=data.get("ablation", "none"),
            round_bound_factor=float(
                data.get("round_bound_factor", DEFAULT_ROUND_BOUND_FACTOR)
            ),
            max_stage_retries=int(data.get("max_stage_retries", 4)),
            max_reelections=int(data.get("max_reelections", 3)),
            engine=str(data.get("engine", "reference")),
        )


def run_fuzz_trial(config: CampaignConfig, seed: int) -> dict:
    """Fuzz one seed under ``config`` (the parallel-pool entry point).

    Samples a campaign, executes it, runs the oracles, and returns a
    JSON-able summary — the live network objects stay in the worker.
    """
    profile = PROFILES[config.profile]
    campaign = sample_campaign(
        profile,
        config.topology,
        {**config.workload, "seed": int(seed)},
        seed=int(seed),
        ablation=config.ablation,
    )
    execution, verdicts = evaluate_campaign(
        campaign,
        policy=make_policy(
            campaign,
            max_stage_retries=config.max_stage_retries,
            max_reelections=config.max_reelections,
        ),
        preset=config.preset,
        round_bound_factor=config.round_bound_factor,
        engine=config.engine,
    )
    bad = violated(verdicts)
    summary = {
        "seed": int(seed),
        "profile": config.profile,
        "mode": campaign.mode,
        "campaign": campaign.to_json(),
        "verdicts": [v.to_json() for v in verdicts],
        "violations": [v.to_json() for v in bad],
        "fault_atoms": campaign.fault_atom_count(),
    }
    if execution.continuous is not None:
        c = execution.continuous
        summary.update({
            "success": bool(c.accounting_exact),
            "total_rounds": int(c.rounds),
            "informed_fraction": 1.0,
            "continuous": c.summary(),
        })
    else:
        summary.update({
            "success": bool(execution.result.success),
            "total_rounds": int(execution.result.total_rounds),
            "informed_fraction": float(
                execution.result.informed_fraction
            ),
        })
    return summary


@dataclass
class CampaignReport:
    """Aggregate outcome of a fuzzing campaign.

    ``trials`` holds the completed trials in seed order;
    ``quarantined`` lists seeds the orchestrator gave up on (as
    :class:`repro.experiments.orchestrator.SeedFailure` JSON dicts) —
    graceful degradation means a poisoned seed is reported here rather
    than sinking the campaign.  ``orchestration`` carries the execution
    counters (retries, worker deaths, recovered trials) when the
    campaign ran under the supervised orchestrator.
    """

    config: CampaignConfig
    base_seed: int
    trials: List[dict]
    quarantined: List[dict] = field(default_factory=list)
    orchestration: Dict[str, int] = field(default_factory=dict)

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def violating(self) -> List[dict]:
        return [t for t in self.trials if t["violations"]]

    @property
    def safety_violating(self) -> List[dict]:
        return [
            t for t in self.trials
            if any(v["category"] == "safety" for v in t["violations"])
        ]

    @property
    def violation_rate(self) -> float:
        return (
            len(self.violating) / self.num_trials if self.trials else 0.0
        )

    def summary(self) -> dict:
        oracle_counts: Dict[str, int] = {}
        for t in self.violating:
            for v in t["violations"]:
                oracle_counts[v["name"]] = oracle_counts.get(v["name"], 0) + 1
        return {
            "trials": self.num_trials,
            "base_seed": self.base_seed,
            "profile": self.config.profile,
            "ablation": self.config.ablation,
            "violating_trials": len(self.violating),
            "safety_violating_trials": len(self.safety_violating),
            "violation_rate": self.violation_rate,
            "violations_by_oracle": oracle_counts,
            "quarantined_trials": len(self.quarantined),
            "quarantined_seeds": sorted(
                int(q["seed"]) for q in self.quarantined
            ),
            "mean_rounds": (
                sum(t["total_rounds"] for t in self.trials)
                / self.num_trials if self.trials else 0.0
            ),
            "success_rate": (
                sum(t["success"] for t in self.trials) / self.num_trials
                if self.trials else 0.0
            ),
        }


CAMPAIGN_SPEC_KIND = "chaos-fuzz"


def campaign_spec(config: CampaignConfig) -> dict:
    """The deterministic campaign identity stored in journal + manifest.

    Only trial-defining fields go in — execution knobs (worker count,
    timeouts, injected faults) are excluded so a recovery run and a
    reference run produce byte-identical manifests.
    """
    return {"kind": CAMPAIGN_SPEC_KIND, "config": config.to_json()}


def run_campaign(
    config: CampaignConfig,
    trials: int,
    base_seed: int = 0,
    max_workers: Optional[int] = None,
    checkpoint_dir: Optional[object] = None,
    orchestrator: Optional[object] = None,
    on_result=None,
) -> CampaignReport:
    """Fuzz ``trials`` consecutive seeds under the supervised orchestrator.

    Results are in seed order and independent of ``max_workers`` —
    byte-for-byte the same report sequentially or across a pool.

    ``checkpoint_dir`` makes the campaign durable: every completed
    trial is journaled (fsync'd JSONL) and an atomic result manifest is
    written at the end, so a ``kill -9`` loses nothing and calling
    :func:`resume_campaign` on the directory continues exactly where
    the run stopped.  ``orchestrator`` overrides the execution policy
    (:class:`repro.experiments.orchestrator.OrchestratorConfig` —
    retries, backoff, timeouts, fault injection); ``on_result`` streams
    each ``(seed, trial_dict)`` as it completes, which the CLI uses to
    write failure artifacts incrementally instead of holding them all
    in RAM until the campaign ends.
    """
    from repro.experiments.orchestrator import (
        OrchestratorConfig,
        run_supervised,
    )

    orch = orchestrator if orchestrator is not None else OrchestratorConfig()
    if max_workers is not None:
        orch = dataclasses.replace(orch, num_workers=max_workers)
    outcome = run_supervised(
        partial(run_fuzz_trial, config),
        num_trials=trials,
        base_seed=base_seed,
        config=orch,
        checkpoint_dir=checkpoint_dir,
        spec=campaign_spec(config),
        on_result=on_result,
    )
    return CampaignReport(
        config=config,
        base_seed=base_seed,
        trials=[outcome.results[s] for s in sorted(outcome.results)],
        quarantined=[f.to_json() for f in outcome.quarantined],
        orchestration=outcome.stats(),
    )


def resume_campaign(
    checkpoint_dir,
    max_workers: Optional[int] = None,
    orchestrator: Optional[object] = None,
    on_result=None,
) -> CampaignReport:
    """Continue an interrupted checkpointed campaign.

    Reads the campaign identity (config, seed range) from the journal
    header, recovers every completed trial, runs only the remainder,
    and rewrites the manifest — byte-identical to what an uninterrupted
    :func:`run_campaign` would have produced, because trials are
    seed-addressed and deterministic.
    """
    from repro.experiments.orchestrator import campaign_header

    header = campaign_header(checkpoint_dir)
    if header.spec.get("kind") != CAMPAIGN_SPEC_KIND:
        raise ValueError(
            f"{checkpoint_dir}: journal is a "
            f"{header.spec.get('kind')!r} campaign, not chaos-fuzz"
        )
    config = CampaignConfig.from_json(header.spec["config"])
    return run_campaign(
        config,
        trials=header.trials,
        base_seed=header.base_seed,
        max_workers=max_workers,
        checkpoint_dir=checkpoint_dir,
        orchestrator=orchestrator,
        on_result=on_result,
    )
