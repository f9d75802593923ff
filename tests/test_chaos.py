"""Tests for the chaos-fuzzing subsystem: fuzzer, oracles, runner,
shrinker, and failure artifacts."""

import json

import pytest

from repro.resilience.chaos import (
    PROFILES,
    CampaignConfig,
    ChaosCampaign,
    OracleVerdict,
    build_artifact,
    build_topology_spec,
    build_workload_spec,
    campaign_atoms,
    evaluate_campaign,
    execute_campaign,
    load_artifact,
    rebuild_campaign,
    replay_artifact,
    campaign_spec,
    resume_campaign,
    run_campaign,
    run_fuzz_trial,
    run_oracles,
    sample_campaign,
    shrink_campaign,
    violated,
    write_artifact,
)
from repro.resilience.chaos.oracles import (
    ORACLES,
    replay_schedule_from_events,
)
from repro.resilience.chaos.runner import make_policy

GRID = {"kind": "grid", "rows": 4, "cols": 4}
UNIFORM = {"kind": "uniform", "k": 6}


def _campaign(seed, profile="medium", ablation="none"):
    return sample_campaign(
        PROFILES[profile], GRID, {**UNIFORM, "seed": seed},
        seed=seed, ablation=ablation,
    )


class TestSpecs:
    def test_topology_specs(self):
        assert build_topology_spec(GRID).n == 16
        assert build_topology_spec({"kind": "rgg", "n": 12, "seed": 0}).n == 12
        assert build_topology_spec({"kind": "line", "n": 5}).n == 5
        with pytest.raises(ValueError):
            build_topology_spec({"kind": "moebius", "n": 5})

    def test_workload_specs(self):
        net = build_topology_spec(GRID)
        assert len(build_workload_spec(net, {**UNIFORM, "seed": 1})) == 6
        assert len(build_workload_spec(net, {"kind": "all"})) == net.n
        with pytest.raises(ValueError):
            build_workload_spec(net, {"kind": "flood"})


class TestFuzzer:
    def test_sampled_campaigns_are_valid(self):
        # sample_campaign validates before returning; none of these may
        # raise, across every profile
        for profile in PROFILES.values():
            for seed in range(15):
                campaign = sample_campaign(
                    profile, GRID, {**UNIFORM, "seed": seed}, seed=seed
                )
                assert campaign.profile == profile.name

    def test_determinism(self):
        a, b = _campaign(7), _campaign(7)
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        blobs = {json.dumps(_campaign(s).to_json(), sort_keys=True)
                 for s in range(8)}
        assert len(blobs) > 1

    def test_leader_never_byzantine(self):
        for seed in range(30):
            campaign = _campaign(seed)
            packets = build_workload_spec(
                build_topology_spec(GRID), campaign.workload
            )
            leader = max(p.origin for p in packets)
            assert leader not in campaign.byzantine_nodes

    def test_byzantine_disjoint_from_crashed(self):
        for seed in range(30):
            campaign = _campaign(seed, profile="heavy")
            assert not (
                set(campaign.byzantine_nodes)
                & set(campaign.schedule.crashed_ever)
            )

    def test_campaign_json_round_trip(self):
        campaign = _campaign(3)
        clone = ChaosCampaign.from_json(
            json.loads(json.dumps(campaign.to_json()))
        )
        assert clone.to_json() == campaign.to_json()

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ValueError, match="ablation"):
            _campaign(0, ablation="no_gravity")

    def test_byz_mode_required_with_nodes(self):
        with pytest.raises(ValueError):
            ChaosCampaign(
                topology=GRID, workload=UNIFORM, seed=0,
                byzantine_nodes=(1, 2), byzantine_mode=None,
            )


class TestOracles:
    def test_clean_trial_passes_everything(self):
        execution, verdicts = evaluate_campaign(_campaign(0))
        assert violated(verdicts) == []
        assert {v.name for v in verdicts} == set(ORACLES)
        assert execution.result.success

    def test_catalog_order_and_categories(self):
        _, verdicts = evaluate_campaign(_campaign(0))
        assert [v.name for v in verdicts] == list(ORACLES)
        for v in verdicts:
            assert v.category == ORACLES[v.name]

    def test_tampered_counter_trips_drop_accounting(self):
        execution = execute_campaign(_campaign(0))
        execution.fault_net.rx_suppressed_jam += 3  # cook the books
        bad = violated(run_oracles(execution))
        assert [v.name for v in bad] == ["drop_accounting"]

    def test_tampered_misdecode_trips_oracle(self):
        execution = execute_campaign(_campaign(0))
        execution.result.mis_decodes = 2
        assert "no_mis_decode" in {
            v.name for v in violated(run_oracles(execution))
        }

    def test_verdict_json_round_trip(self):
        _, verdicts = evaluate_campaign(_campaign(0))
        for v in verdicts:
            clone = OracleVerdict.from_json(json.loads(json.dumps(v.to_json())))
            assert (clone.name, clone.passed, clone.skipped) == (
                v.name, v.passed, v.skipped
            )

    def test_replay_schedule_dedups_noop_events(self):
        events = [
            (10, "crash", 3),
            (12, "crash", 3),       # no-op double crash
            (20, "recover", 3),
            (21, "recover", 3),     # no-op double recover
            (30, "link_down", (1, 2)),
            (31, "link_down", (2, 1)),  # same undirected link
            (40, "link_up", (1, 2)),
        ]
        schedule = replay_schedule_from_events(events)
        assert [e.kind for e in schedule.events] == [
            "crash", "recover", "link_down", "link_up"
        ]
        schedule.validate(8)

    def test_round_bound_skips_retried_runs(self):
        # seed 8's medium campaign needs a retry; the paper-bound
        # oracle must defer to budget_respected instead of firing
        _, verdicts = evaluate_campaign(_campaign(8))
        by_name = {v.name: v for v in verdicts}
        assert by_name["round_bound"].skipped
        assert by_name["budget_respected"].passed
        assert violated(verdicts) == []

    def test_delivery_skips_when_links_stay_down(self):
        # seed 16 leaves two links permanently severed — outside the
        # supervisor's repair envelope, so delivery must skip, not fail
        _, verdicts = evaluate_campaign(_campaign(16))
        by_name = {v.name: v for v in verdicts}
        assert by_name["delivery"].skipped
        assert violated(verdicts) == []


class TestRunner:
    def test_trial_summary_shape(self):
        trial = run_fuzz_trial(CampaignConfig(), 0)
        assert trial["seed"] == 0
        assert trial["violations"] == []
        assert trial["success"] is True
        clone = ChaosCampaign.from_json(trial["campaign"])
        assert clone.seed == 0

    def test_parallel_matches_serial(self):
        config = CampaignConfig()
        serial = run_campaign(config, trials=3, base_seed=0, max_workers=1)
        parallel = run_campaign(config, trials=3, base_seed=0, max_workers=2)
        assert serial.trials == parallel.trials

    def test_report_aggregation(self):
        report = run_campaign(
            CampaignConfig(ablation="no_repair"),
            trials=2, base_seed=19, max_workers=1,
        )
        summary = report.summary()
        assert summary["trials"] == 2
        assert summary["ablation"] == "no_repair"
        assert summary["violating_trials"] == len(report.violating)

    def test_ablation_flag_reaches_policy(self):
        campaign = _campaign(0, ablation="no_repair")
        assert make_policy(campaign).enable_tree_repair is False
        assert make_policy(_campaign(0)).enable_tree_repair is True

    def test_transcribing_network_records_clocks(self):
        execution = execute_campaign(_campaign(0))
        clocks = [e.clock for e in execution.outer_transcript]
        assert clocks == sorted(clocks)
        assert len(execution.outer_transcript) == len(
            execution.inner_transcript
        )


class TestCheckpointedCampaign:
    def test_spec_excludes_execution_knobs(self):
        spec = campaign_spec(CampaignConfig())
        assert spec["kind"] == "chaos-fuzz"
        assert "config" in spec
        # nothing about workers, timeouts, or retries may enter the
        # spec — it feeds the byte-identical manifest
        flat = json.dumps(spec)
        assert "workers" not in flat
        assert "timeout" not in flat

    def test_checkpointed_run_writes_manifest(self, tmp_path):
        config = CampaignConfig()
        report = run_campaign(
            config, trials=3, base_seed=0, max_workers=1,
            checkpoint_dir=tmp_path,
        )
        assert (tmp_path / "journal.jsonl").exists()
        assert (tmp_path / "manifest.json").exists()
        assert report.orchestration["completed"] == 3
        assert report.summary()["quarantined_trials"] == 0

    def test_resume_recovers_completed_trials(self, tmp_path):
        config = CampaignConfig()
        first = run_campaign(
            config, trials=3, base_seed=0, max_workers=1,
            checkpoint_dir=tmp_path,
        )
        before = (tmp_path / "manifest.json").read_bytes()
        again = resume_campaign(tmp_path, max_workers=1)
        assert again.orchestration["recovered"] == 3
        assert again.summary()["mean_rounds"] == (
            first.summary()["mean_rounds"]
        )
        assert (tmp_path / "manifest.json").read_bytes() == before

    def test_resume_accepts_journal_naming_the_retired_engine(
        self, tmp_path
    ):
        """A journal written while ``CampaignConfig`` still had an
        ``engine`` field (serialized as ``"engine": "reference"``)
        loads and resumes: the key is ignored, and the resume checks
        the journal against its own header."""
        config = CampaignConfig()
        full = run_campaign(config, trials=3, base_seed=0, max_workers=1)
        run_campaign(
            config, trials=3, base_seed=0, max_workers=1,
            checkpoint_dir=tmp_path,
        )
        journal = tmp_path / "journal.jsonl"
        header, first_trial = journal.read_text().splitlines()[:2]
        head = json.loads(header)
        head["spec"]["config"]["engine"] = "reference"
        # interrupted after one trial, before the manifest
        journal.write_text(json.dumps(head) + "\n" + first_trial + "\n")
        (tmp_path / "manifest.json").unlink()
        assert CampaignConfig.from_json(head["spec"]["config"]) == config
        resumed = resume_campaign(tmp_path, max_workers=1)
        assert resumed.orchestration["recovered"] == 1
        assert resumed.trials == full.trials
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["spec"] == head["spec"]

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        from repro.experiments.orchestrator import run_supervised

        run_supervised(
            _plain_trial, 1, checkpoint_dir=tmp_path,
            spec={"kind": "something-else"},
        )
        with pytest.raises(ValueError, match="chaos-fuzz"):
            resume_campaign(tmp_path)

    def test_checkpointed_matches_uncheckpointed(self, tmp_path):
        config = CampaignConfig()
        plain = run_campaign(config, trials=2, base_seed=5, max_workers=1)
        ckpt = run_campaign(
            config, trials=2, base_seed=5, max_workers=1,
            checkpoint_dir=tmp_path,
        )
        assert plain.summary()["mean_rounds"] == (
            ckpt.summary()["mean_rounds"]
        )


def _plain_trial(seed):
    return {"seed": seed}


class TestShrink:
    def test_atoms_enumeration(self):
        campaign = _campaign(8)  # byz node + jam budget + window + links
        atoms = campaign_atoms(campaign)
        assert len(atoms) == campaign.fault_atom_count() + len(
            campaign.byzantine_nodes
        ) + (1 if campaign.jam_budget else 0) + (
            1 if campaign.jam_prob > 0 else 0
        ) + (1 if campaign.corrupt_rate > 0 else 0)

    def test_rebuild_empty_is_fault_free(self):
        reduced = rebuild_campaign(_campaign(8), [])
        assert len(reduced.schedule) == 0
        assert reduced.byzantine_nodes == ()
        assert reduced.jam_prob == 0.0
        assert reduced.jam_budget is None

    def test_rebuild_rejects_inconsistent_subset(self):
        campaign = ChaosCampaign(
            topology=GRID, workload={**UNIFORM, "seed": 0}, seed=0,
        )
        campaign.schedule.crash(3, at_round=10)
        campaign.schedule.recover(3, at_round=20)
        campaign.schedule.crash(3, at_round=30)
        atoms = campaign_atoms(campaign)
        # keeping both crashes without the recovery between them is not
        # a valid timeline
        with pytest.raises(ValueError):
            rebuild_campaign(campaign, [atoms[0], atoms[2]])

    def test_planted_bug_shrinks_small(self):
        # The acceptance scenario: disabling tree repair must be caught
        # and minimized to a handful of fault atoms.
        campaign = _campaign(59, ablation="no_repair")
        _, verdicts = evaluate_campaign(
            campaign, policy=make_policy(campaign)
        )
        bad = [v.name for v in violated(verdicts)]
        assert "delivery" in bad
        result = shrink_campaign(campaign, bad)
        assert result.converged
        assert result.atoms_after <= 5
        assert result.atoms_after < result.atoms_before
        # the shrunk campaign still reproduces the violation
        _, shrunk_verdicts = evaluate_campaign(
            result.shrunk, policy=make_policy(result.shrunk)
        )
        assert "delivery" in {v.name for v in violated(shrunk_verdicts)}

    def test_shrink_requires_targets(self):
        with pytest.raises(ValueError):
            shrink_campaign(_campaign(0), [])

    def test_non_reproducing_input_returns_unconverged(self):
        result = shrink_campaign(_campaign(0), ["delivery"])
        assert not result.converged
        assert result.atoms_after == result.atoms_before


class TestArtifact:
    def _violating_bundle(self, tmp_path):
        config = CampaignConfig(ablation="no_repair")
        trial = run_fuzz_trial(config, 59)
        assert trial["violations"]
        campaign = ChaosCampaign.from_json(trial["campaign"])
        shrink = shrink_campaign(
            campaign, [v["name"] for v in trial["violations"]]
        )
        _, shrunk_verdicts = evaluate_campaign(
            shrink.shrunk, policy=make_policy(shrink.shrunk)
        )
        artifact = build_artifact(
            config, trial, shrink=shrink, shrunk_verdicts=shrunk_verdicts
        )
        return write_artifact(artifact, tmp_path / "bundle.json")

    def test_round_trip_and_replay(self, tmp_path):
        path = self._violating_bundle(tmp_path)
        artifact = load_artifact(path)
        for which in ("original", "shrunk"):
            replay = replay_artifact(artifact, which=which)
            assert replay.deterministic, which
            assert "delivery" in {v.name for v in replay.violations}

    def test_replay_twice_identical(self, tmp_path):
        path = self._violating_bundle(tmp_path)
        artifact = load_artifact(path)
        a = replay_artifact(artifact, which="shrunk")
        b = replay_artifact(artifact, which="shrunk")
        assert [v.to_json() for v in a.verdicts] == [
            v.to_json() for v in b.verdicts
        ]

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a chaos"):
            load_artifact(path)

    def test_missing_shrink_rejected(self, tmp_path):
        config = CampaignConfig()
        trial = run_fuzz_trial(config, 0)
        path = write_artifact(
            build_artifact(config, trial), tmp_path / "clean.json"
        )
        with pytest.raises(ValueError, match="no shrunk"):
            replay_artifact(load_artifact(path), which="shrunk")
