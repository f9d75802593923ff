"""Tests for the fault-tolerant campaign orchestrator.

Covers the journal/manifest codecs (hypothesis round-trips), the
supervision layer (worker death, timeout, injected faults), the
retry/fail-fast/quarantine policy, and the checkpoint-resume contract:
a campaign interrupted at any point resumes to a manifest byte-identical
to an uninterrupted run.
"""

import functools
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.orchestrator import (
    KIND_EXCEPTION,
    CampaignError,
    FaultInjection,
    Journal,
    OrchestratorConfig,
    SeedFailure,
    build_manifest,
    campaign_status,
    load_manifest,
    manifest_to_bytes,
    run_supervised,
    write_manifest,
)

# ---------------------------------------------------------------------------
# module-level trial functions (picklable for the worker pool)
# ---------------------------------------------------------------------------


def _square(seed):
    return {"seed": seed, "value": seed * seed}


def _sleepy_square(seed):
    time.sleep(0.25)
    return {"seed": seed, "value": seed * seed}


def _fail_on_3(seed):
    if seed == 3:
        raise ValueError("seed three is cursed")
    return {"seed": seed, "value": seed * seed}


def _flaky_trial(marker_dir, seed):
    """Fails once per seed with a distinct message, then succeeds."""
    marker = Path(marker_dir) / f"seen-{seed}"
    if not marker.exists():
        marker.write_text("x")
        raise RuntimeError(f"transient glitch on seed {seed}, attempt 0")
    return {"seed": seed, "value": seed * seed}


def _always_fail(seed):
    raise RuntimeError("deterministic bug")


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)

_events = st.dictionaries(
    st.text(min_size=1, max_size=10), _json_scalars, max_size=5
)

_failures = st.builds(
    SeedFailure,
    seed=st.integers(min_value=0, max_value=10**6),
    kind=st.sampled_from(
        ["exception", "worker-death", "timeout", "hang"]
    ),
    signature=st.text(max_size=40),
    error=st.text(max_size=80),
    attempt=st.integers(min_value=0, max_value=64),
)


class TestCodecRoundTrips:
    @given(_failures)
    @settings(max_examples=50, deadline=None)
    def test_seed_failure_roundtrip(self, failure):
        assert SeedFailure.from_json(failure.to_json()) == failure

    @given(
        st.builds(
            FaultInjection,
            seed=st.integers(min_value=0, max_value=2**31),
            kill_prob=st.floats(min_value=0, max_value=1),
            hang_prob=st.floats(min_value=0, max_value=1),
            poison_frac=st.floats(min_value=0, max_value=1),
            hang_seconds=st.floats(min_value=0, max_value=3600),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_fault_injection_roundtrip(self, inject):
        assert FaultInjection.from_json(inject.to_json()) == inject

    @given(
        st.builds(
            OrchestratorConfig,
            num_workers=st.one_of(
                st.none(), st.integers(min_value=1, max_value=64)
            ),
            max_attempts=st.integers(min_value=1, max_value=16),
            fail_fast_threshold=st.integers(min_value=1, max_value=8),
            backoff_base=st.floats(min_value=0, max_value=5),
            task_timeout=st.one_of(
                st.none(), st.floats(min_value=0.1, max_value=100)
            ),
            quarantine=st.booleans(),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_orchestrator_config_roundtrip(self, config):
        assert OrchestratorConfig.from_json(config.to_json()) == config

    @given(st.lists(_events, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_journal_roundtrip(self, events):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "journal.jsonl"
            journal = Journal(path)
            for event in events:
                journal.append(event)
            journal.close()
            assert Journal.read_events(path) == events

    @given(
        st.dictionaries(st.text(min_size=1, max_size=8), _json_scalars,
                        max_size=4),
        st.integers(min_value=0, max_value=1000),
        st.lists(_failures, max_size=4, unique_by=lambda f: f.seed),
    )
    @settings(max_examples=30, deadline=None)
    def test_manifest_roundtrip(self, spec, base_seed, quarantined):
        results = {base_seed + i: {"v": i} for i in range(3)}
        trials = 3 + len(quarantined)
        manifest = build_manifest(
            spec, base_seed, trials, results, quarantined
        )
        # canonical bytes decode back to the same document
        assert json.loads(manifest_to_bytes(manifest)) == manifest
        with tempfile.TemporaryDirectory() as tmp:
            path = write_manifest(Path(tmp) / "manifest.json", manifest)
            assert load_manifest(path) == manifest
            # atomic write leaves no tmp droppings
            assert os.listdir(tmp) == ["manifest.json"]


class TestJournalDurability:
    def test_torn_tail_line_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.append({"event": "a"})
        journal.append({"event": "b"})
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"event": "torn-by-kill-9')  # no newline, no close
        assert Journal.read_events(path) == [
            {"event": "a"}, {"event": "b"},
        ]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"event": "a"}\ngarbage\n{"event": "b"}\n')
        with pytest.raises(ValueError, match="corrupt"):
            Journal.read_events(path)

    def test_manifest_format_check(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a campaign manifest"):
            load_manifest(path)

    def test_manifest_version_check(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            '{"format": "repro-campaign-manifest", "version": 999}'
        )
        with pytest.raises(ValueError, match="newer"):
            load_manifest(path)


class TestFaultInjection:
    def test_kills_and_hangs_only_on_first_attempt(self):
        inject = FaultInjection(seed=1, kill_prob=1.0, hang_prob=1.0)
        for trial_seed in range(20):
            assert inject.should_kill(trial_seed, 0)
            assert inject.should_hang(trial_seed, 0)
            assert not inject.should_kill(trial_seed, 1)
            assert not inject.should_hang(trial_seed, 1)

    def test_draws_are_deterministic(self):
        a = FaultInjection(seed=7, kill_prob=0.5, poison_frac=0.5)
        b = FaultInjection(seed=7, kill_prob=0.5, poison_frac=0.5)
        for trial_seed in range(50):
            assert a.should_kill(trial_seed, 0) == b.should_kill(
                trial_seed, 0
            )
            assert a.is_poisoned(trial_seed) == b.is_poisoned(trial_seed)

    def test_poison_frac_extremes(self):
        none = FaultInjection(seed=0, poison_frac=0.0)
        everything = FaultInjection(seed=0, poison_frac=1.0)
        assert not any(none.is_poisoned(s) for s in range(20))
        assert all(everything.is_poisoned(s) for s in range(20))


class TestRunSupervised:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_supervised(_square, 0)

    def test_serial_matches_pool(self):
        serial = run_supervised(
            _square, 6, base_seed=3,
            config=OrchestratorConfig(num_workers=1),
        )
        pooled = run_supervised(
            _square, 6, base_seed=3,
            config=OrchestratorConfig(num_workers=2),
        )
        assert serial.results == pooled.results
        assert sorted(serial.results) == [3, 4, 5, 6, 7, 8]

    def test_on_result_streams_each_seed_once(self):
        seen = []
        run_supervised(
            _square, 5,
            config=OrchestratorConfig(num_workers=1),
            on_result=lambda seed, result: seen.append(seed),
        )
        assert sorted(seen) == [0, 1, 2, 3, 4]

    def test_transient_failures_retried(self, tmp_path):
        trial = functools.partial(_flaky_trial, str(tmp_path))
        outcome = run_supervised(
            trial, 4,
            config=OrchestratorConfig(
                num_workers=1, max_attempts=3, backoff_base=0.0
            ),
        )
        assert sorted(outcome.results) == [0, 1, 2, 3]
        assert outcome.retries == 4  # one glitch per seed
        assert not outcome.quarantined

    def test_identical_failures_fail_fast(self):
        outcome = run_supervised(
            _always_fail, 1,
            config=OrchestratorConfig(
                num_workers=1, max_attempts=10,
                fail_fast_threshold=2, backoff_base=0.0,
            ),
        )
        assert outcome.quarantined_seeds == [0]
        # deterministic bug detected at the threshold, well before
        # the attempt budget
        assert len(outcome.failures) == 2
        assert all(f.kind == KIND_EXCEPTION for f in outcome.failures)

    def test_quarantine_false_raises_campaign_error(self):
        with pytest.raises(CampaignError) as info:
            run_supervised(
                _fail_on_3, 6,
                config=OrchestratorConfig(
                    num_workers=1, max_attempts=1,
                    fail_fast_threshold=1, quarantine=False,
                ),
            )
        err = info.value
        assert err.failing_seeds == [3]
        assert sorted(err.results) == [0, 1, 2]  # everything before 3
        assert "preserved" in str(err)

    def test_poisoned_seeds_quarantined_not_fatal(self):
        inject = FaultInjection(seed=0, poison_frac=0.4)
        poisoned = [s for s in range(8) if inject.is_poisoned(s)]
        assert poisoned  # the draw must actually poison something
        outcome = run_supervised(
            _square, 8,
            config=OrchestratorConfig(
                num_workers=1, fail_fast_threshold=2,
                backoff_base=0.0, inject=inject,
            ),
        )
        assert outcome.quarantined_seeds == poisoned
        assert sorted(outcome.results) == [
            s for s in range(8) if s not in poisoned
        ]


class TestWorkerSupervision:
    def test_injected_kills_are_recovered(self):
        outcome = run_supervised(
            _square, 4,
            config=OrchestratorConfig(
                num_workers=2, backoff_base=0.0,
                inject=FaultInjection(seed=0, kill_prob=1.0),
            ),
        )
        assert sorted(outcome.results) == [0, 1, 2, 3]
        assert outcome.worker_deaths == 4
        assert outcome.retries == 4
        assert not outcome.quarantined

    def test_injected_hangs_hit_task_timeout(self):
        outcome = run_supervised(
            _square, 2,
            config=OrchestratorConfig(
                num_workers=2, backoff_base=0.0, task_timeout=0.5,
                inject=FaultInjection(
                    seed=0, hang_prob=1.0, hang_seconds=30.0
                ),
            ),
        )
        assert sorted(outcome.results) == [0, 1]
        assert outcome.timeouts == 2
        assert not outcome.quarantined

    def test_external_sigkill_of_worker_recovered(self):
        """Kill a live worker from outside; no trial may be lost."""
        import multiprocessing

        holder = {}

        def _run():
            holder["outcome"] = run_supervised(
                _sleepy_square, 6,
                config=OrchestratorConfig(
                    num_workers=2, backoff_base=0.0
                ),
            )

        thread = threading.Thread(target=_run)
        thread.start()
        victim = None
        deadline = time.monotonic() + 10
        while victim is None and time.monotonic() < deadline:
            children = [
                p for p in multiprocessing.active_children()
                if p.name.startswith("repro-campaign-worker")
            ]
            if children:
                victim = children[0]
            else:
                time.sleep(0.01)
        assert victim is not None, "no worker ever spawned"
        time.sleep(0.1)  # let it pick up a trial
        if victim.pid is not None:
            try:
                os.kill(victim.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        thread.join(timeout=60)
        assert not thread.is_alive()
        outcome = holder["outcome"]
        assert sorted(outcome.results) == [0, 1, 2, 3, 4, 5]
        assert outcome.worker_deaths >= 1


class TestCheckpointResume:
    def _config(self, workers=1):
        return OrchestratorConfig(num_workers=workers, backoff_base=0.0)

    def test_fresh_run_writes_journal_and_manifest(self, tmp_path):
        outcome = run_supervised(
            _square, 4, config=self._config(),
            checkpoint_dir=tmp_path, spec={"kind": "t"},
        )
        assert (tmp_path / "journal.jsonl").exists()
        assert outcome.manifest_path == tmp_path / "manifest.json"
        manifest = load_manifest(outcome.manifest_path)
        assert manifest["trials"] == 4
        assert [r["seed"] for r in manifest["results"]] == [0, 1, 2, 3]

    def test_rerun_recovers_everything(self, tmp_path):
        run_supervised(
            _square, 4, config=self._config(),
            checkpoint_dir=tmp_path, spec={"kind": "t"},
        )
        before = (tmp_path / "manifest.json").read_bytes()
        again = run_supervised(
            _square, 4, config=self._config(),
            checkpoint_dir=tmp_path, spec={"kind": "t"},
        )
        assert again.recovered == 4
        assert (tmp_path / "manifest.json").read_bytes() == before

    def test_truncated_journal_resumes_byte_identical(self, tmp_path):
        ref_dir = tmp_path / "ref"
        cut_dir = tmp_path / "cut"
        run_supervised(
            _square, 6, config=self._config(),
            checkpoint_dir=ref_dir, spec={"kind": "t"},
        )
        run_supervised(
            _square, 6, config=self._config(),
            checkpoint_dir=cut_dir, spec={"kind": "t"},
        )
        # simulate kill -9 after 2 completed trials: keep header + 2
        # trial events, tear the third mid-line, drop the manifest
        lines = (cut_dir / "journal.jsonl").read_text().splitlines()
        torn = "\n".join(lines[:3]) + "\n" + lines[3][:17]
        (cut_dir / "journal.jsonl").write_text(torn)
        (cut_dir / "manifest.json").unlink()

        outcome = run_supervised(
            _square, 6, config=self._config(workers=2),
            checkpoint_dir=cut_dir, spec={"kind": "t"},
        )
        assert outcome.recovered == 2
        assert (cut_dir / "manifest.json").read_bytes() == (
            ref_dir / "manifest.json"
        ).read_bytes()

    def test_manifest_independent_of_execution_knobs(self, tmp_path):
        """Workers, retries, and injected faults must not leak into it."""
        plain_dir = tmp_path / "plain"
        chaos_dir = tmp_path / "chaos"
        run_supervised(
            _square, 4, config=self._config(),
            checkpoint_dir=plain_dir, spec={"kind": "t"},
        )
        run_supervised(
            _square, 4,
            config=OrchestratorConfig(
                num_workers=2, backoff_base=0.0,
                inject=FaultInjection(seed=3, kill_prob=0.9),
            ),
            checkpoint_dir=chaos_dir, spec={"kind": "t"},
        )
        assert (plain_dir / "manifest.json").read_bytes() == (
            chaos_dir / "manifest.json"
        ).read_bytes()

    def test_spec_mismatch_rejected(self, tmp_path):
        run_supervised(
            _square, 2, config=self._config(),
            checkpoint_dir=tmp_path, spec={"kind": "a"},
        )
        with pytest.raises(ValueError, match="spec"):
            run_supervised(
                _square, 2, config=self._config(),
                checkpoint_dir=tmp_path, spec={"kind": "b"},
            )

    def test_seed_range_mismatch_rejected(self, tmp_path):
        run_supervised(
            _square, 2, config=self._config(),
            checkpoint_dir=tmp_path, spec={"kind": "t"},
        )
        with pytest.raises(ValueError, match="seeds"):
            run_supervised(
                _square, 5, config=self._config(),
                checkpoint_dir=tmp_path, spec={"kind": "t"},
            )

    def test_campaign_status_reports_progress(self, tmp_path):
        run_supervised(
            _square, 3, config=self._config(),
            checkpoint_dir=tmp_path, spec={"kind": "t"},
        )
        status = campaign_status(tmp_path)
        assert status["completed"] == 3
        assert status["pending"] == 0
        assert status["complete"] is True
        assert status["manifest"] is True

    def test_campaign_status_requires_journal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            campaign_status(tmp_path / "nowhere")


_DRIVER = """
import sys, time

from repro.experiments.orchestrator import OrchestratorConfig, run_supervised


def trial(seed):
    time.sleep(0.05)
    return {{"seed": seed, "value": seed * seed}}


run_supervised(
    trial, {trials},
    config=OrchestratorConfig(num_workers=2, backoff_base=0.0),
    checkpoint_dir={checkpoint_dir!r},
    spec={{"kind": "itest"}},
)
"""


def _itest_trial(seed):
    """Same computation as the subprocess driver's trial (sans sleep)."""
    return {"seed": seed, "value": seed * seed}


class TestKillOrchestratorIntegration:
    def test_sigkill_then_resume_is_byte_identical(
        self, tmp_path, child_watch
    ):
        """Kill -9 the whole orchestrator process mid-campaign, resume,
        and require a manifest byte-identical to an uninterrupted run.
        The killed orchestrator's workers must exit on their own."""
        trials = 30
        work = tmp_path / "work"
        ref = tmp_path / "ref"

        script = tmp_path / "driver.py"
        script.write_text(
            _DRIVER.format(trials=trials, checkpoint_dir=str(work))
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, str(script)], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        journal = work / "journal.jsonl"
        deadline = time.monotonic() + 60
        done = 0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail("campaign finished before it could be killed")
            if journal.exists():
                done = sum(
                    1 for line in journal.read_text().splitlines()
                    if '"event": "trial"' in line
                )
                if done >= 3:
                    break
            time.sleep(0.01)
        assert done >= 3, "campaign never made progress"
        watch = child_watch(proc.pid)
        assert watch.children, "no pool workers to watch"
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        assert watch.stragglers(within=5.0) == []
        assert not (work / "manifest.json").exists()

        # uninterrupted reference with the same spec and seeds
        run_supervised(
            _itest_trial, trials,
            config=OrchestratorConfig(num_workers=2, backoff_base=0.0),
            checkpoint_dir=ref, spec={"kind": "itest"},
        )
        # resume the murdered campaign in-process
        outcome = run_supervised(
            _itest_trial, trials,
            config=OrchestratorConfig(num_workers=2, backoff_base=0.0),
            checkpoint_dir=work, spec={"kind": "itest"},
        )
        assert outcome.recovered >= 3
        assert len(outcome.results) == trials
        assert (work / "manifest.json").read_bytes() == (
            ref / "manifest.json"
        ).read_bytes()
