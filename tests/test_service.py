"""Tests for the long-running simulation service (``repro serve``).

Covers the job codec (hypothesis round-trips), admission control on a
fake clock (token buckets, capacity estimation, the hysteretic
degradation ladder), the daemon's queue policies and retry/quarantine
behaviour, and the durability contract one layer above the campaign
orchestrator: torn journal tails, duplicate replay, in-process crash
recovery, and a real ``kill -9`` of a ``repro serve`` subprocess — all
required to converge to byte-identical manifests with the accounting
identity exact.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.orchestrator import FaultInjection
from repro.service import (
    COMPLETED,
    FAILED,
    QUARANTINED,
    QUEUED,
    SHED,
    CapacityEstimator,
    DegradationController,
    JobSpec,
    JobStore,
    ServiceConfig,
    ServiceDaemon,
    TokenBucket,
    derive_job_id,
    selftest_jobs,
    service_status,
    submit_to_spool,
)
from repro.service.jobs import (
    SHED_DEGRADED,
    SHED_DROP_OLDEST,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMIT,
)
from repro.service.selftest import run_selftest

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_ids = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"),
                           max_codepoint=0x7F),
    min_size=1, max_size=24,
)
_params = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=6),
    st.one_of(st.integers(-1000, 1000), st.booleans(),
              st.floats(allow_nan=False, allow_infinity=False,
                        width=32),
              st.text(max_size=12)),
    max_size=4,
)
_specs = st.builds(
    JobSpec,
    id=_ids,
    kind=st.sampled_from(("noop", "simulation", "chaos", "continuous")),
    tenant=st.text(alphabet="xyz", min_size=1, max_size=4),
    priority=st.integers(0, 9),
    seed=st.integers(0, 2**31),
    params=_params,
)


def _run_daemon(daemon, until, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        daemon.tick(timeout=0.02)
        if until(daemon):
            return
    raise TimeoutError("daemon condition never reached")


# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------


class TestJobCodec:
    @given(spec=_specs)
    @settings(max_examples=60, deadline=None)
    def test_spec_json_roundtrip(self, spec):
        clone = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert clone == spec
        assert clone.digest() == spec.digest()

    @given(spec=_specs)
    @settings(max_examples=30, deadline=None)
    def test_spool_roundtrip(self, spec, tmp_path_factory):
        root = tmp_path_factory.mktemp("spool")
        submit_to_spool(root, spec)
        [(path, parsed)] = JobStore(root).scan_spool()
        assert parsed == spec
        path.unlink()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(id="")
        with pytest.raises(ValueError):
            JobSpec(id="a/b")
        with pytest.raises(ValueError):
            JobSpec(id="x", kind="mystery")
        with pytest.raises(ValueError):
            JobSpec(id="x", priority=-1)

    def test_derived_id_deterministic(self):
        a = derive_job_id("noop", "t", 7, {"x": 1})
        assert a == derive_job_id("noop", "t", 7, {"x": 1})
        assert a != derive_job_id("noop", "t", 8, {"x": 1})
        assert a.startswith("noop-")


# ---------------------------------------------------------------------------
# admission control (fake clock)
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0)
        assert [bucket.allow(0.0) for _ in range(4)] == [
            True, True, True, False,
        ]
        assert bucket.allow(0.5)          # 1 token refilled
        assert not bucket.allow(0.5)
        assert bucket.allow(10.0)         # capped at burst, not 19 tokens
        assert bucket.allow(10.0)
        assert bucket.allow(10.0)
        assert not bucket.allow(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=2.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestCapacityEstimator:
    def test_window_rates(self):
        cap = CapacityEstimator(window=2.0)
        for t in (0.0, 0.5, 1.0, 1.5):
            cap.record_offered(t)
        cap.record_served(1.0)
        assert cap.offered_rate(1.5) == pytest.approx(2.0)
        assert cap.served_rate(1.5) == pytest.approx(0.5)
        # events age out of the window
        assert cap.offered_rate(4.0) == 0.0
        assert cap.served_rate(4.0) == 0.0


class TestDegradationLadder:
    def test_escalates_only_after_sustained_overload(self):
        ladder = DegradationController(
            escalate_after=0.5, recover_after=1.0
        )
        assert ladder.update(0.0, 0.9, 0.0, 0.0) == 0
        assert ladder.update(0.4, 0.9, 0.0, 0.0) == 0
        assert ladder.update(0.6, 0.9, 0.0, 0.0) == 1
        assert ladder.min_priority == 1

    def test_offered_over_capacity_is_overload(self):
        ladder = DegradationController(
            headroom=1.5, escalate_after=0.5
        )
        ladder.update(0.0, 0.0, offered=4.0, capacity=2.0)
        assert ladder.update(1.0, 0.0, offered=4.0, capacity=2.0) == 1

    def test_recovery_needs_sustained_calm(self):
        ladder = DegradationController(
            escalate_after=0.1, recover_after=1.0, level=2
        )
        assert ladder.update(0.0, 0.1, 0.0, 0.0) == 2
        assert ladder.update(0.5, 0.1, 0.0, 0.0) == 2
        assert ladder.update(1.1, 0.1, 0.0, 0.0) == 1
        # between the watermarks: hold, and reset the calm timer
        assert ladder.update(1.2, 0.5, 0.0, 0.0) == 1
        assert ladder.update(5.0, 0.1, 0.0, 0.0) == 1
        assert ladder.update(6.1, 0.1, 0.0, 0.0) == 0

    def test_capped_at_max_level(self):
        ladder = DegradationController(
            escalate_after=0.0, max_level=2
        )
        for t in range(6):
            ladder.update(float(t), 1.0, 0.0, 0.0)
        assert ladder.level == 2


# ---------------------------------------------------------------------------
# daemon admission policies (no pool activity needed: jobs just queue)
# ---------------------------------------------------------------------------


def _spec(i, priority=1, tenant="default", **params):
    return JobSpec(id=f"job-{i:03d}", kind="noop", tenant=tenant,
                   priority=priority, seed=i, params=params)


@pytest.fixture
def idle_daemon(tmp_path):
    """A started daemon whose pool is never ticked (jobs stay queued)."""
    daemon = ServiceDaemon(
        tmp_path / "svc",
        ServiceConfig(workers=1, max_queue=4, heartbeat_grace=30.0),
    )
    daemon.start()
    yield daemon
    daemon.close()


class TestAdmission:
    def test_duplicate_submission_is_idempotent(self, idle_daemon):
        assert idle_daemon.submit(_spec(0)) == "queued"
        assert idle_daemon.submit(_spec(0)) == "duplicate"
        assert idle_daemon.submitted == 1
        assert idle_daemon.duplicates == 1

    def test_queue_full_reject(self, idle_daemon):
        for i in range(4):
            assert idle_daemon.submit(_spec(i)) == "queued"
        assert idle_daemon.submit(_spec(4)) == SHED_QUEUE_FULL
        assert idle_daemon.jobs["job-004"].state == SHED
        assert idle_daemon.snapshot()["accounting_exact"]

    def test_drop_oldest_evicts_lowest_priority(self, tmp_path):
        daemon = ServiceDaemon(
            tmp_path / "svc",
            ServiceConfig(workers=1, max_queue=2,
                          queue_policy="drop_oldest"),
        )
        daemon.start()
        try:
            daemon.submit(_spec(0, priority=0))
            daemon.submit(_spec(1, priority=5))
            assert daemon.submit(_spec(2, priority=3)) == "queued"
            assert daemon.jobs["job-000"].state == SHED
            assert daemon.jobs["job-000"].reason == SHED_DROP_OLDEST
            # a submission lower-priority than everything queued is
            # itself the victim
            assert daemon.submit(_spec(3, priority=1)) == SHED_QUEUE_FULL
            assert daemon.snapshot()["accounting_exact"]
        finally:
            daemon.close()

    def test_tenant_rate_limit(self, tmp_path):
        fake = [0.0]
        daemon = ServiceDaemon(
            tmp_path / "svc",
            ServiceConfig(workers=1, max_queue=64,
                          tenant_rate=1.0, tenant_burst=2.0),
            clock=lambda: fake[0],
        )
        daemon.start()
        try:
            decisions = [
                daemon.submit(_spec(i, tenant="greedy")) for i in range(3)
            ]
            assert decisions == ["queued", "queued", SHED_RATE_LIMIT]
            # other tenants have their own bucket
            assert daemon.submit(_spec(9, tenant="polite")) == "queued"
            fake[0] = 1.0  # one token refilled
            assert daemon.submit(_spec(3, tenant="greedy")) == "queued"
        finally:
            daemon.close()

    def test_degraded_mode_sheds_low_priority(self, idle_daemon):
        idle_daemon.degradation.level = 2
        assert idle_daemon.submit(_spec(0, priority=1)) == SHED_DEGRADED
        assert idle_daemon.submit(_spec(1, priority=2)) == "queued"
        assert idle_daemon.jobs["job-000"].reason == SHED_DEGRADED

    def test_dispatch_order_priority_then_fifo(self, idle_daemon):
        for i, priority in enumerate((1, 3, 3, 2)):
            idle_daemon.submit(_spec(i, priority=priority))
        order = [idle_daemon._pick() for _ in range(4)]
        assert order == ["job-001", "job-002", "job-003", "job-000"]


# ---------------------------------------------------------------------------
# end-to-end daemon behaviour (real worker pool)
# ---------------------------------------------------------------------------


class TestDaemonExecution:
    def test_jobs_complete_with_streamed_artifacts(self, tmp_path):
        root = tmp_path / "svc"
        daemon = ServiceDaemon(root, ServiceConfig(workers=2))
        daemon.start()
        try:
            for i in range(4):
                daemon.submit(_spec(i))
            _run_daemon(daemon, lambda d: d.quiescent)
            counters = daemon.counters()
            assert counters["completed"] == 4
            assert daemon.snapshot()["accounting_exact"]
            for i in range(4):
                record = daemon.jobs[f"job-{i:03d}"]
                artifact = root / record.artifact
                assert artifact.exists()
                assert record.result_digest
                result = daemon.store.read_result(f"job-{i:03d}")
                assert result["seed"] == i
        finally:
            daemon.close()

    def test_deterministic_failure_quarantined(self, tmp_path):
        daemon = ServiceDaemon(
            tmp_path / "svc",
            ServiceConfig(workers=1, backoff_base=0.0,
                          fail_fast_threshold=2),
        )
        daemon.start()
        try:
            daemon.submit(_spec(0, fail=True))
            _run_daemon(daemon, lambda d: d.quiescent)
            record = daemon.jobs["job-000"]
            assert record.state == QUARANTINED
            assert record.attempts == 2  # fail-fast, not max_attempts
            assert record.signature
            assert daemon.snapshot()["accounting_exact"]
        finally:
            daemon.close()

    def test_injected_worker_kills_lose_nothing(self, tmp_path):
        daemon = ServiceDaemon(
            tmp_path / "svc",
            ServiceConfig(
                workers=2, backoff_base=0.0, heartbeat_grace=30.0,
                inject=FaultInjection(seed=3, kill_prob=0.5),
            ),
        )
        daemon.start()
        try:
            for spec in selftest_jobs(8, sleep_s=0.02):
                daemon.submit(spec)
            _run_daemon(daemon, lambda d: d.quiescent)
            assert daemon.counters()["completed"] == 8
            assert daemon.worker_deaths > 0
            assert daemon.snapshot()["accounting_exact"]
        finally:
            daemon.close()


# ---------------------------------------------------------------------------
# durability: crash, torn tail, restart, byte-identity
# ---------------------------------------------------------------------------


def _drive(root, specs, crash_after=None):
    daemon = ServiceDaemon(
        root, ServiceConfig(workers=2, heartbeat_grace=30.0)
    )
    daemon.start()
    for spec in specs:
        daemon.submit(spec)
    if crash_after is not None:
        _run_daemon(
            daemon,
            lambda d: d.counters()["completed"] >= crash_after,
        )
        daemon.crash()
        return daemon
    _run_daemon(daemon, lambda d: d.quiescent)
    daemon.store.write_manifest_file(daemon.jobs)
    daemon.close()
    return daemon


class TestDurability:
    def test_crash_recovery_byte_identical_manifest(self, tmp_path):
        specs = selftest_jobs(8, sleep_s=0.02)
        _drive(tmp_path / "ref", specs)
        reference = (tmp_path / "ref" / "manifest.json").read_bytes()

        _drive(tmp_path / "work", specs, crash_after=2)
        second = _drive(tmp_path / "work", specs)
        assert second.counters()["completed"] == len(specs)
        assert second.duplicates == len(specs)  # resubmits are no-ops
        assert second.snapshot()["accounting_exact"]
        assert (tmp_path / "work" / "manifest.json").read_bytes() \
            == reference

    def test_torn_tail_recovered(self, tmp_path):
        specs = selftest_jobs(6, sleep_s=0.02)
        _drive(tmp_path / "ref", specs)
        reference = (tmp_path / "ref" / "manifest.json").read_bytes()

        _drive(tmp_path / "work", specs, crash_after=1)
        journal = tmp_path / "work" / "journal.jsonl"
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"event": "complete", "id": "torn')  # no newline
        _drive(tmp_path / "work", specs)
        assert (tmp_path / "work" / "manifest.json").read_bytes() \
            == reference

    def test_recovery_requeues_in_flight_jobs(self, tmp_path):
        root = tmp_path / "svc"
        store = JobStore(root)
        jobs, seq = store.open()
        store.record_submit(_spec(0), 1)
        store.record_dispatch("job-000", 0)
        store.close()
        recovered, _ = JobStore.recover(root / "journal.jsonl")
        assert recovered["job-000"].state == QUEUED
        assert recovered["job-000"].attempts == 0  # budget intact

    def test_fail_fast_decision_is_crash_invariant(self, tmp_path):
        """One journaled ``fail`` before the crash + one identical
        failure after restart must still quarantine, not exhaust
        ``max_attempts`` into FAILED."""
        root = tmp_path / "svc"
        daemon = ServiceDaemon(
            root,
            ServiceConfig(workers=1, backoff_base=2.0, backoff_max=2.0,
                          fail_fast_threshold=2),
        )
        daemon.start()
        daemon.submit(_spec(0, fail=True))
        _run_daemon(
            daemon, lambda d: d.jobs["job-000"].attempts >= 1
        )
        daemon.crash()

        daemon = ServiceDaemon(
            root,
            ServiceConfig(workers=1, backoff_base=0.0,
                          fail_fast_threshold=2),
        )
        daemon.start()
        try:
            assert daemon._sig_history["job-000"]  # recovered history
            _run_daemon(daemon, lambda d: d.quiescent)
            assert daemon.jobs["job-000"].state == QUARANTINED
        finally:
            daemon.close()

    def test_service_status_offline(self, tmp_path):
        specs = selftest_jobs(4, sleep_s=0.01)
        _drive(tmp_path / "svc", specs)
        status = service_status(tmp_path / "svc")
        assert status["completed"] == 4
        assert status["accounting_exact"]
        assert status["complete"]
        assert status["manifest"]

    def test_selftest_in_process_battery(self, tmp_path):
        """The CLI self-test's in-process checks (kill -9 is exercised
        separately by TestKillServeIntegration)."""
        verdict = run_selftest(
            tmp_path / "battery", jobs=6, include_kill9=False
        )
        assert verdict["ok"], verdict["checks"]


# ---------------------------------------------------------------------------
# kill -9 the real daemon process
# ---------------------------------------------------------------------------


def _serve_argv(root, *extra):
    return [
        sys.executable, "-m", "repro", "serve", "--dir", str(root),
        "--workers", "2", *extra,
    ]


def _src_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestKillServeIntegration:
    def test_sigkill_then_restart_is_byte_identical(
        self, tmp_path, child_watch
    ):
        specs = selftest_jobs(10, sleep_s=0.05)
        _drive(tmp_path / "ref", specs)
        reference = (tmp_path / "ref" / "manifest.json").read_bytes()

        root = tmp_path / "work"
        root.mkdir()
        for spec in specs:
            submit_to_spool(root, spec)
        env = _src_env()
        proc = subprocess.Popen(
            _serve_argv(root, "--idle-exit"), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        journal = root / "journal.jsonl"
        deadline = time.monotonic() + 60
        done = 0
        try:
            while time.monotonic() < deadline:
                if journal.exists():
                    done = journal.read_text().count(
                        '"event": "complete"'
                    )
                    if done >= 2:
                        break
                if proc.poll() is not None:
                    pytest.fail("daemon exited before it was killed")
                time.sleep(0.02)
            assert done >= 2, "daemon never made progress"
            watch = child_watch(proc.pid)
            assert watch.children, "no pool workers to watch"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        # the killed daemon's workers exit on their own
        assert watch.stragglers(within=5.0) == []

        rerun = subprocess.run(
            _serve_argv(root, "--idle-exit", "--json"), env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert rerun.returncode == 0, rerun.stderr
        snapshot = json.loads(rerun.stdout)
        assert snapshot["accounting_exact"]
        assert (root / "manifest.json").read_bytes() == reference

    def test_sigterm_drains_and_exits_143(self, tmp_path):
        root = tmp_path / "svc"
        root.mkdir()
        for spec in selftest_jobs(8, sleep_s=0.2):
            submit_to_spool(root, spec)
        env = _src_env()
        proc = subprocess.Popen(
            _serve_argv(root, "--json"), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        journal = root / "journal.jsonl"
        deadline = time.monotonic() + 60
        try:
            while time.monotonic() < deadline:
                if journal.exists() and journal.read_text().count(
                    '"event": "complete"'
                ) >= 1:
                    break
                if proc.poll() is not None:
                    pytest.fail("daemon exited before SIGTERM")
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 143
        assert '"event": "drain"' in journal.read_text()
        snapshot = json.loads(out)
        assert snapshot["accounting_exact"]
        assert snapshot["in_flight"] == 0  # drained, not abandoned
        # the drained queue is durable: the offline view agrees
        status = service_status(root)
        assert status["drained"]
        assert status["accounting_exact"]
