"""Fault-tolerant campaign orchestration.

Every quantitative claim in this reproduction rests on large seeded
Monte-Carlo campaigns, and the plain ``ProcessPoolExecutor.map`` fan-out
loses *everything* when one worker dies: the first exception sinks the
whole pool and every completed trial with it.  This module replaces
that with a supervised, checkpointed runner built for campaigns that
are expected to be interrupted:

- **sharding** — trial seeds are dispatched one at a time to a pool of
  worker processes over dedicated pipes, so the supervisor always
  knows exactly which seed each worker holds;
- **supervision** — workers emit heartbeats from a side thread; the
  supervisor detects silent deaths (``is_alive``/pipe EOF), lost
  heartbeats, and per-trial timeouts, SIGKILLs the offender, and
  respawns a replacement;
- **retry with backoff** — transient failures (worker death, timeout,
  hang) are retried with exponential backoff; repeated *identical*
  exceptions are treated as a deterministic trial bug and fail fast;
- **graceful degradation** — a seed that keeps failing is quarantined
  into the manifest instead of sinking the campaign (or, with
  ``quarantine=False``, raises a structured :class:`CampaignError`
  carrying the partial results);
- **checkpointing** — every completed trial is appended to an
  fsync'd JSONL journal; the final manifest is written atomically
  (tmp + fsync + rename).  Because trials are seed-addressed and
  deterministic, resuming after a ``kill -9`` produces a manifest
  byte-identical to an uninterrupted run;
- **self-test fault injection** — :class:`FaultInjection` makes the
  orchestrator's own workers randomly die (real SIGKILL), hang, or
  raise deterministically, proving the supervision layer end to end.

The orchestrator is generic: ``trial_fn`` is any picklable
module-level callable of one seed argument returning a JSON-able dict.
:mod:`repro.resilience.chaos.runner` layers the chaos campaign
semantics (and ``repro campaign run/resume/status``) on top.
"""

from __future__ import annotations

import dataclasses
import heapq
import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

JOURNAL_FORMAT = "repro-campaign-journal"
MANIFEST_FORMAT = "repro-campaign-manifest"
FORMAT_VERSION = 1

JOURNAL_NAME = "journal.jsonl"
MANIFEST_NAME = "manifest.json"

#: failure kinds recorded in the journal / :class:`SeedFailure`
KIND_EXCEPTION = "exception"      #: the trial raised
KIND_WORKER_DEATH = "worker-death"  #: the worker process died silently
KIND_TIMEOUT = "timeout"          #: the trial exceeded ``task_timeout``
KIND_HANG = "hang"                #: heartbeats stopped mid-trial


def _uniform(tag: str) -> float:
    """Deterministic uniform draw in [0, 1) keyed by ``tag``."""
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:7], "big") / float(1 << 56)


class InjectedPoisonError(RuntimeError):
    """Deterministic trial failure planted by :class:`FaultInjection`."""


@dataclass(frozen=True)
class FaultInjection:
    """Self-test chaos for the orchestrator's own workers.

    Kills and hangs fire only on a seed's *first* attempt, so the retry
    path must recover them (a lost trial is a supervision bug, never
    bad luck).  Poison is a property of the seed itself — every attempt
    raises the same :class:`InjectedPoisonError` — so the fail-fast
    detector must quarantine it.  All draws are keyed off
    ``(injection seed, trial seed)``, never wall clock, keeping
    injected campaigns replayable.
    """

    seed: int = 0
    kill_prob: float = 0.0   #: P(worker SIGKILLs itself before the trial)
    hang_prob: float = 0.0   #: P(worker sleeps ``hang_seconds`` instead)
    poison_frac: float = 0.0  #: fraction of seeds that always raise
    hang_seconds: float = 3600.0

    def should_kill(self, trial_seed: int, attempt: int) -> bool:
        return attempt == 0 and (
            _uniform(f"kill:{self.seed}:{trial_seed}") < self.kill_prob
        )

    def should_hang(self, trial_seed: int, attempt: int) -> bool:
        return attempt == 0 and (
            _uniform(f"hang:{self.seed}:{trial_seed}") < self.hang_prob
        )

    def is_poisoned(self, trial_seed: int) -> bool:
        return _uniform(f"poison:{self.seed}:{trial_seed}") < self.poison_frac

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "kill_prob": self.kill_prob,
            "hang_prob": self.hang_prob,
            "poison_frac": self.poison_frac,
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultInjection":
        return cls(
            seed=int(data.get("seed", 0)),
            kill_prob=float(data.get("kill_prob", 0.0)),
            hang_prob=float(data.get("hang_prob", 0.0)),
            poison_frac=float(data.get("poison_frac", 0.0)),
            hang_seconds=float(data.get("hang_seconds", 3600.0)),
        )


@dataclass(frozen=True)
class SeedFailure:
    """One recorded failure of one attempt at one seed."""

    seed: int
    kind: str        #: one of the ``KIND_*`` constants
    signature: str   #: stable identity used for fail-fast matching
    error: str       #: human-readable detail
    attempt: int

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "kind": self.kind,
            "signature": self.signature,
            "error": self.error,
            "attempt": self.attempt,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SeedFailure":
        return cls(
            seed=int(data["seed"]),
            kind=str(data.get("kind", KIND_EXCEPTION)),
            signature=str(data.get("signature", "")),
            error=str(data.get("error", "")),
            attempt=int(data.get("attempt", 0)),
        )


class CampaignError(RuntimeError):
    """A campaign failed, but the completed trials are not lost.

    Raised when ``quarantine=False`` and a seed exhausts its attempts
    (or fails fast on a deterministic bug).  Carries the partial
    per-seed ``results`` and the full ``failures`` log so callers can
    salvage, report, or checkpoint what did complete.
    """

    def __init__(
        self,
        results: Dict[int, dict],
        failures: Sequence[SeedFailure],
    ) -> None:
        self.results = dict(results)
        self.failures = list(failures)
        seeds = sorted({f.seed for f in self.failures})
        first = self.failures[0].signature if self.failures else "?"
        super().__init__(
            f"campaign failed for seed(s) {seeds} ({first}); "
            f"{len(self.results)} completed trial(s) preserved"
        )

    @property
    def failing_seeds(self) -> List[int]:
        return sorted({f.seed for f in self.failures})


class CampaignInterrupted(RuntimeError):
    """SIGINT/SIGTERM stopped the campaign after a clean flush.

    ``outcome`` holds everything completed so far; when the campaign
    was checkpointed, the journal on disk already contains the same
    trials and ``resume`` continues exactly where this left off.
    ``signum`` records which signal caused the stop (SIGINT unless the
    interrupting ``KeyboardInterrupt`` carried a ``signum`` attribute),
    so front ends can exit ``128 + signum`` for both signals.
    """

    def __init__(self, outcome: "CampaignOutcome",
                 checkpoint_dir: Optional[Path],
                 signum: int = signal.SIGINT) -> None:
        self.outcome = outcome
        self.checkpoint_dir = checkpoint_dir
        self.signum = signum
        where = f" (checkpointed to {checkpoint_dir})" if checkpoint_dir else ""
        super().__init__(
            f"campaign interrupted after "
            f"{len(outcome.results)} trial(s){where}"
        )


@dataclass
class OrchestratorConfig:
    """Execution policy for :func:`run_supervised`.

    Everything here is an *execution* knob: none of it feeds the result
    manifest, so reference and recovery runs with different worker
    counts, timeouts, or injected faults still produce byte-identical
    manifests.
    """

    num_workers: Optional[int] = None  #: None = min(cpu_count, 16)
    max_attempts: int = 4
    #: identical exception signatures before declaring the bug
    #: deterministic and giving up on the seed
    fail_fast_threshold: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    task_timeout: Optional[float] = None   #: per-trial wall clock limit
    heartbeat_interval: float = 0.25
    heartbeat_grace: Optional[float] = 10.0  #: busy + silent this long = hung
    poll_interval: float = 0.05
    quarantine: bool = True  #: False = raise CampaignError instead
    inject: Optional[FaultInjection] = None

    def resolved_workers(self, n_tasks: int) -> int:
        n = self.num_workers
        if n is None:
            n = max(1, min(os.cpu_count() or 1, 16))
        return max(0, min(n, n_tasks))

    def backoff(self, attempt: int) -> float:
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** attempt,
        )

    def to_json(self) -> dict:
        data = {
            "num_workers": self.num_workers,
            "max_attempts": self.max_attempts,
            "fail_fast_threshold": self.fail_fast_threshold,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
            "task_timeout": self.task_timeout,
            "heartbeat_interval": self.heartbeat_interval,
            "heartbeat_grace": self.heartbeat_grace,
            "poll_interval": self.poll_interval,
            "quarantine": self.quarantine,
        }
        if self.inject is not None:
            data["inject"] = self.inject.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "OrchestratorConfig":
        inject = data.get("inject")
        kwargs = {
            key: data[key]
            for key in (
                "num_workers", "max_attempts", "fail_fast_threshold",
                "backoff_base", "backoff_factor", "backoff_max",
                "task_timeout", "heartbeat_interval", "heartbeat_grace",
                "poll_interval", "quarantine",
            )
            if key in data
        }
        return cls(
            inject=FaultInjection.from_json(inject) if inject else None,
            **kwargs,
        )


@dataclass
class CampaignOutcome:
    """Everything a supervised run produced (and survived)."""

    results: Dict[int, dict] = field(default_factory=dict)
    quarantined: List[SeedFailure] = field(default_factory=list)
    failures: List[SeedFailure] = field(default_factory=list)
    retries: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    hangs: int = 0
    recovered: int = 0  #: trials recovered from a prior journal on resume
    manifest_path: Optional[Path] = None

    @property
    def quarantined_seeds(self) -> List[int]:
        return sorted(f.seed for f in self.quarantined)

    def stats(self) -> dict:
        return {
            "completed": len(self.results),
            "quarantined": len(self.quarantined),
            "failures": len(self.failures),
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "timeouts": self.timeouts,
            "hangs": self.hangs,
            "recovered": self.recovered,
        }


# ---------------------------------------------------------------------------
# journal + manifest codecs
# ---------------------------------------------------------------------------


class Journal:
    """Append-only JSONL checkpoint journal, fsync'd per event.

    The fsync is what makes ``kill -9`` safe: every event returned by
    :meth:`append` is durable before the next trial is dispatched, so
    a torn final line (the only possible damage) is detected and
    dropped by :meth:`read_events`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._truncate_torn_tail()
        self._fh = open(self.path, "a", encoding="utf-8")

    def _truncate_torn_tail(self) -> None:
        """Remove a torn (kill -9 mid-write) final line before appending.

        ``read_events`` merely ignores a torn tail; without this, the
        next ``append`` would glue onto the partial line and turn the
        recoverable tear into permanent mid-file corruption.
        """
        try:
            if os.path.getsize(self.path) == 0:
                return
        except OSError:
            return
        with open(self.path, "rb+") as fh:
            data = fh.read()
            if data.endswith(b"\n"):
                return
            fh.seek(data.rfind(b"\n") + 1)
            fh.truncate()
            fh.flush()
            os.fsync(fh.fileno())

    def append(self, event: dict) -> None:
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @staticmethod
    def read_events(path: Union[str, Path]) -> List[dict]:
        """Parse a journal, tolerating a torn (kill -9) final line."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        while lines and lines[-1] == "":
            lines.pop()
        events = []
        for i, line in enumerate(lines):
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break  # torn tail write — the event never happened
                raise ValueError(
                    f"{path}: corrupt journal line {i + 1}"
                ) from None
        return events


def manifest_to_bytes(manifest: dict) -> bytes:
    """Canonical manifest encoding (the byte-identity contract)."""
    return (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(
        "utf-8"
    )


def write_manifest(path: Union[str, Path], manifest: dict) -> Path:
    """Atomically write ``manifest``: tmp file + fsync + rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(manifest_to_bytes(manifest))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(str(path.parent), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def load_manifest(path: Union[str, Path]) -> dict:
    """Read and sanity-check a campaign manifest."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{path}: not a campaign manifest "
            f"(format={data.get('format')!r})"
        )
    if int(data.get("version", -1)) > FORMAT_VERSION:
        raise ValueError(
            f"{path}: manifest version {data.get('version')} is newer "
            f"than this library understands ({FORMAT_VERSION})"
        )
    return data


def build_manifest(
    spec: dict,
    base_seed: int,
    trials: int,
    results: Dict[int, dict],
    quarantined: Sequence[SeedFailure],
) -> dict:
    """The deterministic result manifest.

    Only seed-addressed facts go in: the trial spec, the seed range,
    per-seed results, and quarantined seeds with their (deterministic)
    failure signature.  Attempt counts, retries, and timing live in the
    journal — they differ between an interrupted-and-resumed run and an
    uninterrupted one, and the manifest must not.
    """
    return {
        "format": MANIFEST_FORMAT,
        "version": FORMAT_VERSION,
        "spec": spec,
        "base_seed": base_seed,
        "trials": trials,
        "results": [
            {"seed": seed, "result": results[seed]}
            for seed in sorted(results)
        ],
        "quarantined": [
            {"seed": f.seed, "signature": f.signature, "error": f.error}
            for f in sorted(quarantined, key=lambda f: f.seed)
        ],
        "summary": {
            "completed": len(results),
            "quarantined": len(quarantined),
        },
    }


@dataclass(frozen=True)
class CampaignHeader:
    """The first journal event: what the campaign *is*."""

    spec: dict
    base_seed: int
    trials: int
    config: dict


def _read_journal_state(
    path: Union[str, Path],
) -> Tuple[CampaignHeader, Dict[int, dict], List[SeedFailure],
           List[SeedFailure], bool]:
    events = Journal.read_events(path)
    if not events or events[0].get("event") != "campaign":
        raise ValueError(f"{path}: not a campaign journal")
    head = events[0]
    if head.get("format") != JOURNAL_FORMAT:
        raise ValueError(
            f"{path}: unknown journal format {head.get('format')!r}"
        )
    header = CampaignHeader(
        spec=head.get("spec", {}),
        base_seed=int(head["base_seed"]),
        trials=int(head["trials"]),
        config=head.get("config", {}),
    )
    results: Dict[int, dict] = {}
    quarantined: List[SeedFailure] = []
    failures: List[SeedFailure] = []
    complete = False
    for event in events[1:]:
        kind = event.get("event")
        if kind == "trial":
            results[int(event["seed"])] = event["result"]
        elif kind == "failure":
            failures.append(SeedFailure.from_json(event))
        elif kind == "quarantine":
            quarantined.append(SeedFailure.from_json(event))
        elif kind == "complete":
            complete = True
    return header, results, quarantined, failures, complete


def campaign_header(checkpoint_dir: Union[str, Path]) -> CampaignHeader:
    """Read just the campaign identity from a checkpoint directory."""
    header, _, _, _, _ = _read_journal_state(
        Path(checkpoint_dir) / JOURNAL_NAME
    )
    return header


def campaign_status(checkpoint_dir: Union[str, Path]) -> dict:
    """Inspect a checkpoint directory without running anything."""
    checkpoint_dir = Path(checkpoint_dir)
    journal_path = checkpoint_dir / JOURNAL_NAME
    if not journal_path.exists():
        raise FileNotFoundError(f"{checkpoint_dir}: no {JOURNAL_NAME}")
    header, results, quarantined, failures, complete = _read_journal_state(
        journal_path
    )
    retries: Dict[int, int] = {}
    for failure in failures:
        retries[failure.seed] = retries.get(failure.seed, 0) + 1
    return {
        "checkpoint_dir": str(checkpoint_dir),
        "spec": header.spec,
        "base_seed": header.base_seed,
        "trials": header.trials,
        "completed": len(results),
        "quarantined": len(quarantined),
        "quarantined_seeds": sorted(f.seed for f in quarantined),
        "quarantine_details": [
            {
                "id": str(f.seed),
                "signature": f.signature,
                "kind": f.kind,
                "attempts": f.attempt + 1,
            }
            for f in sorted(quarantined, key=lambda f: f.seed)
        ],
        "failures": len(failures),
        "retries": {str(seed): n for seed, n in sorted(retries.items())},
        "pending": header.trials - len(results) - len(quarantined),
        "complete": complete,
        "manifest": (checkpoint_dir / MANIFEST_NAME).exists(),
    }


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _worker_main(
    worker_id: int,
    task_fn: Callable[[object], dict],
    task_r,
    result_w,
    heartbeat_interval: float,
    inject_json: Optional[dict],
) -> None:
    """Worker loop: one task at a time, results + heartbeats on a pipe.

    Tasks arrive as ``("run", key, attempt, payload)``; the worker runs
    ``task_fn(payload)`` and answers with the key, so the supervisor's
    bookkeeping never depends on what the payload is (a trial seed for
    campaigns, a job spec for the service daemon).

    SIGINT is ignored so Ctrl-C only stops the supervisor, which then
    shuts workers down in order.  SIGTERM gets its default action back,
    since a worker forked by the CLI inherits the supervisor's drain
    handler.  A worker whose supervisor died exits on its next
    heartbeat, when it sees it was reparented: EOF on the task pipe is
    not enough, because workers forked later hold copies of the
    supervisor's pipe ends.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    supervisor = os.getppid()
    inject = FaultInjection.from_json(inject_json) if inject_json else None
    send_lock = threading.Lock()

    def _send(message) -> None:
        with send_lock:
            try:
                result_w.send(message)
            except (BrokenPipeError, OSError):
                os._exit(0)

    def _beat() -> None:
        while True:
            time.sleep(heartbeat_interval)
            if os.getppid() != supervisor:
                os._exit(0)
            _send(("hb", worker_id))

    threading.Thread(target=_beat, daemon=True).start()

    while True:
        try:
            message = task_r.recv()
        except (EOFError, OSError):
            break
        if message[0] == "stop":
            break
        _, key, attempt, payload = message
        _send(("start", worker_id, key, attempt))
        if inject is not None:
            if inject.should_kill(key, attempt):
                os.kill(os.getpid(), signal.SIGKILL)
            if inject.should_hang(key, attempt):
                time.sleep(inject.hang_seconds)
            if inject.is_poisoned(key):
                _send((
                    "err", worker_id, key,
                    f"InjectedPoisonError: seed {key} is poisoned",
                    f"injected deterministic failure for seed {key}",
                ))
                continue
        try:
            result = task_fn(payload)
        except KeyboardInterrupt:
            break
        except BaseException as exc:
            _send((
                "err", worker_id, key,
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(limit=20),
            ))
        else:
            _send(("ok", worker_id, key, result))


class _Worker:
    __slots__ = ("wid", "proc", "task_w", "result_r", "current", "last_beat")

    def __init__(self, wid, proc, task_w, result_r):
        self.wid = wid
        self.proc = proc
        self.task_w = task_w
        self.result_r = result_r
        #: (key, attempt, started, timeout) while a task is in flight
        self.current: Optional[Tuple[object, int, float, Optional[float]]] = (
            None
        )
        self.last_beat = time.monotonic()


# ---------------------------------------------------------------------------
# supervisor side
# ---------------------------------------------------------------------------


class _Tracker:
    """Seed bookkeeping shared by the serial and pooled paths."""

    def __init__(
        self,
        pending: Sequence[int],
        config: OrchestratorConfig,
        journal: Optional[Journal],
        on_result: Optional[Callable[[int, dict], None]],
        outcome: CampaignOutcome,
    ) -> None:
        self.config = config
        self.journal = journal
        self.on_result = on_result
        self.outcome = outcome
        self.ready = deque(pending)
        self.retry_heap: List[Tuple[float, int]] = []
        self.attempts: Dict[int, int] = {}
        self.history: Dict[int, List[SeedFailure]] = {}
        self.inflight = 0
        # a resumed campaign inherits its failure history so fail-fast
        # and attempt budgets span the interruption
        for failure in outcome.failures:
            self.history.setdefault(failure.seed, []).append(failure)
            self.attempts[failure.seed] = max(
                self.attempts.get(failure.seed, 0), failure.attempt + 1
            )

    def done(self) -> bool:
        return not self.ready and not self.retry_heap and self.inflight == 0

    def promote_due_retries(self, now: float) -> None:
        while self.retry_heap and self.retry_heap[0][0] <= now:
            _, seed = heapq.heappop(self.retry_heap)
            self.ready.append(seed)

    def next_wait(self, now: float) -> float:
        """How long the dispatcher may sleep without missing a retry."""
        wait = self.config.poll_interval
        if self.retry_heap:
            wait = min(wait, max(0.0, self.retry_heap[0][0] - now))
        return wait

    def checkout(self, seed: int) -> int:
        attempt = self.attempts.get(seed, 0)
        self.attempts[seed] = attempt + 1
        self.inflight += 1
        return attempt

    def requeue(self, seed: int) -> None:
        """Undo a dispatch that never reached a live worker."""
        self.attempts[seed] -= 1
        self.inflight -= 1
        self.ready.appendleft(seed)

    def record_ok(self, seed: int, result: dict) -> None:
        self.inflight -= 1
        if seed in self.outcome.results:
            return  # late duplicate from a worker we already gave up on
        if self.journal is not None:
            self.journal.append(
                {"event": "trial", "seed": seed, "result": result}
            )
        self.outcome.results[seed] = result
        if self.on_result is not None:
            self.on_result(seed, result)

    def record_failure(
        self, seed: int, attempt: int, kind: str, signature: str, error: str
    ) -> None:
        self.inflight -= 1
        if seed in self.outcome.results:
            return
        failure = SeedFailure(
            seed=seed, kind=kind, signature=signature,
            error=error, attempt=attempt,
        )
        self.outcome.failures.append(failure)
        self.history.setdefault(seed, []).append(failure)
        if kind == KIND_WORKER_DEATH:
            self.outcome.worker_deaths += 1
        elif kind == KIND_TIMEOUT:
            self.outcome.timeouts += 1
        elif kind == KIND_HANG:
            self.outcome.hangs += 1
        if self.journal is not None:
            event = failure.to_json()
            event["event"] = "failure"
            self.journal.append(event)
        identical = sum(
            1 for f in self.history[seed]
            if f.kind == KIND_EXCEPTION and f.signature == signature
        )
        deterministic = (
            kind == KIND_EXCEPTION
            and identical >= self.config.fail_fast_threshold
        )
        if deterministic or attempt + 1 >= self.config.max_attempts:
            self._quarantine(failure, deterministic)
        else:
            self.outcome.retries += 1
            when = time.monotonic() + self.config.backoff(attempt)
            heapq.heappush(self.retry_heap, (when, seed))

    def _quarantine(self, failure: SeedFailure, deterministic: bool) -> None:
        if not self.config.quarantine:
            raise CampaignError(self.outcome.results, self.outcome.failures)
        if self.journal is not None:
            event = failure.to_json()
            event["event"] = "quarantine"
            event["deterministic"] = deterministic
            self.journal.append(event)
        self.outcome.quarantined.append(failure)


def _run_serial(
    trial_fn: Callable[[int], dict],
    tracker: _Tracker,
    config: OrchestratorConfig,
) -> None:
    """In-process execution with the same retry/quarantine semantics.

    Used for ``num_workers <= 1``; injected kills and hangs are
    meaningless without a worker to lose and are skipped, but poison
    still applies so the quarantine path is testable serially.
    """
    inject = config.inject
    while not tracker.done():
        now = time.monotonic()
        tracker.promote_due_retries(now)
        if not tracker.ready:
            time.sleep(tracker.next_wait(now))
            continue
        seed = tracker.ready.popleft()
        attempt = tracker.checkout(seed)
        if inject is not None and inject.is_poisoned(seed):
            tracker.record_failure(
                seed, attempt, KIND_EXCEPTION,
                f"InjectedPoisonError: seed {seed} is poisoned",
                f"injected deterministic failure for seed {seed}",
            )
            continue
        try:
            result = trial_fn(seed)
        except KeyboardInterrupt:
            tracker.inflight -= 1
            raise
        except BaseException as exc:
            tracker.record_failure(
                seed, attempt, KIND_EXCEPTION,
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(limit=20),
            )
        else:
            tracker.record_ok(seed, result)


@dataclass
class PoolEvent:
    """One supervision outcome surfaced by :meth:`WorkerPool.poll`.

    ``kind`` is ``"ok"`` (task finished, ``result`` set), ``"failure"``
    (task failed; ``failure_kind`` holds the ``KIND_*`` constant and
    ``signature``/``error`` the identity and detail), or
    ``"idle-death"`` (a worker died between tasks — no task was lost,
    but callers may want to count it).
    """

    kind: str
    key: object = None
    attempt: int = 0
    failure_kind: str = ""
    signature: str = ""
    error: str = ""
    result: Optional[dict] = None


class WorkerPool:
    """Persistent supervised worker pool.

    The reusable core of the campaign supervisor, also driven directly
    by the long-running service daemon (:mod:`repro.service`): a fixed
    number of worker processes that stay up across arbitrarily many
    tasks, with heartbeat supervision, silent-death detection +
    respawn, and per-task wall-clock timeouts.

    The pool is policy-free: it never retries, quarantines, or journals
    anything.  It only turns raw worker behavior (results, exceptions,
    deaths, hangs, timeouts) into a stream of :class:`PoolEvent`\\ s;
    the caller owns what happens next.

    ``task_fn`` must be a picklable module-level callable of one
    payload argument returning a JSON-able dict.
    """

    def __init__(
        self,
        task_fn: Callable[[object], dict],
        config: OrchestratorConfig,
        n_workers: int,
    ) -> None:
        self.task_fn = task_fn
        self.config = config
        self.n_workers = max(1, n_workers)
        self.ctx = multiprocessing.get_context()
        self.workers: Dict[int, _Worker] = {}
        self.next_wid = 0
        self._pending: List[PoolEvent] = []
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for _ in range(self.n_workers):
            self._spawn()

    def shutdown(self) -> None:
        for worker in list(self.workers.values()):
            try:
                worker.task_w.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in list(self.workers.values()):
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            self._retire(worker, kill=True)
        self._started = False

    def _spawn(self) -> None:
        wid = self.next_wid
        self.next_wid += 1
        task_r, task_w = self.ctx.Pipe(duplex=False)
        result_r, result_w = self.ctx.Pipe(duplex=False)
        inject = self.config.inject
        proc = self.ctx.Process(
            target=_worker_main,
            args=(
                wid, self.task_fn, task_r, result_w,
                self.config.heartbeat_interval,
                inject.to_json() if inject is not None else None,
            ),
            daemon=True,
            name=f"repro-campaign-worker-{wid}",
        )
        proc.start()
        task_r.close()
        result_w.close()
        self.workers[wid] = _Worker(wid, proc, task_w, result_r)

    def _retire(self, worker: _Worker, kill: bool) -> None:
        self.workers.pop(worker.wid, None)
        if kill and worker.proc.is_alive():
            worker.proc.kill()
        try:
            worker.task_w.close()
        except OSError:
            pass
        try:
            worker.result_r.close()
        except OSError:
            pass
        worker.proc.join(timeout=5)

    # -- dispatch ----------------------------------------------------------

    @property
    def idle(self) -> int:
        """Workers currently without a task."""
        return sum(
            1 for w in self.workers.values() if w.current is None
        )

    @property
    def busy(self) -> int:
        """Workers currently running a task."""
        return sum(
            1 for w in self.workers.values() if w.current is not None
        )

    def dispatch(
        self,
        key: object,
        payload: object,
        attempt: int = 0,
        timeout: Optional[float] = None,
    ) -> bool:
        """Hand one task to an idle worker.

        Returns False when no idle worker could take it (all busy, or
        the only idle workers died between tasks — those deaths surface
        as ``idle-death`` events on the next :meth:`poll` and fresh
        workers are respawned).  ``timeout`` overrides the pool-wide
        ``task_timeout`` for this task only.
        """
        for worker in list(self.workers.values()):
            if worker.current is not None:
                continue
            try:
                worker.task_w.send(("run", key, attempt, payload))
            except (BrokenPipeError, OSError):
                # worker died between tasks: not the task's fault
                self._pending.append(PoolEvent(kind="idle-death"))
                self._retire(worker, kill=True)
                self._spawn()
                continue
            now = time.monotonic()
            worker.current = (key, attempt, now, timeout)
            worker.last_beat = now
            return True
        return False

    # -- event collection --------------------------------------------------

    def poll(self, timeout: float = 0.0) -> List[PoolEvent]:
        """Wait up to ``timeout`` for worker traffic and return events.

        Also runs supervision: dead workers are detected and replaced,
        hung or overtime tasks are failed (``KIND_HANG``/
        ``KIND_TIMEOUT``) and their workers SIGKILLed and respawned.
        """
        self._collect(timeout)
        self._supervise()
        events, self._pending = self._pending, []
        return events

    def _collect(self, timeout: float) -> None:
        conns = {w.result_r: w for w in self.workers.values()}
        if not conns:
            if timeout > 0:
                time.sleep(timeout)
            return
        ready = mp_connection.wait(list(conns), timeout=timeout)
        for conn in ready:
            worker = conns[conn]
            if worker.wid not in self.workers:
                continue  # already retired this pass
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    self._on_worker_death(worker)
                    break
                self._on_message(worker, message)

    def _on_message(self, worker: _Worker, message) -> None:
        kind = message[0]
        now = time.monotonic()
        worker.last_beat = now
        if kind == "hb":
            return
        if kind == "start":
            _, _, key, attempt = message
            if worker.current is not None and worker.current[0] == key:
                # restart the per-task clock at actual pickup time
                worker.current = (
                    key, worker.current[1], now, worker.current[3],
                )
            return
        if kind == "ok":
            _, _, key, result = message
            attempt = 0
            if worker.current is not None and worker.current[0] == key:
                attempt = worker.current[1]
            worker.current = None
            self._pending.append(PoolEvent(
                kind="ok", key=key, attempt=attempt, result=result,
            ))
            return
        if kind == "err":
            _, _, key, signature, error = message
            attempt = 0
            if worker.current is not None and worker.current[0] == key:
                attempt = worker.current[1]
            worker.current = None
            self._pending.append(PoolEvent(
                kind="failure", key=key, attempt=attempt,
                failure_kind=KIND_EXCEPTION,
                signature=signature, error=error,
            ))

    def _fail_inflight(self, worker: _Worker, kind: str,
                       signature: str, error: str) -> None:
        key, attempt, _, _ = worker.current
        worker.current = None
        self._pending.append(PoolEvent(
            kind="failure", key=key, attempt=attempt,
            failure_kind=kind, signature=signature, error=error,
        ))

    def _on_worker_death(self, worker: _Worker) -> None:
        if worker.current is not None:
            exitcode = worker.proc.exitcode
            self._fail_inflight(
                worker, KIND_WORKER_DEATH, "worker-death",
                f"worker {worker.wid} died mid-trial "
                f"(exitcode {exitcode})",
            )
        else:
            self._pending.append(PoolEvent(kind="idle-death"))
        self._retire(worker, kill=True)
        self._spawn()

    def _supervise(self) -> None:
        now = time.monotonic()
        for worker in list(self.workers.values()):
            if not worker.proc.is_alive():
                self._on_worker_death(worker)
                continue
            if worker.current is None:
                continue
            key, attempt, started, task_timeout = worker.current
            timeout = (
                task_timeout if task_timeout is not None
                else self.config.task_timeout
            )
            grace = self.config.heartbeat_grace
            if timeout is not None and now - started > timeout:
                self._fail_inflight(
                    worker, KIND_TIMEOUT, "task-timeout",
                    f"seed {key} exceeded task_timeout={timeout}s",
                )
                self._retire(worker, kill=True)
                self._spawn()
            elif grace is not None and now - worker.last_beat > grace:
                self._fail_inflight(
                    worker, KIND_HANG, "heartbeat-lost",
                    f"worker {worker.wid} stopped heartbeating on "
                    f"seed {key}",
                )
                self._retire(worker, kill=True)
                self._spawn()


class _Supervisor:
    """Campaign retry/quarantine policy driving a :class:`WorkerPool`."""

    def __init__(
        self,
        trial_fn: Callable[[int], dict],
        tracker: _Tracker,
        config: OrchestratorConfig,
        n_workers: int,
    ) -> None:
        self.tracker = tracker
        self.pool = WorkerPool(trial_fn, config, n_workers)

    def run(self) -> None:
        tracker = self.tracker
        self.pool.start()
        try:
            while not tracker.done():
                now = time.monotonic()
                tracker.promote_due_retries(now)
                while tracker.ready and self.pool.idle:
                    seed = tracker.ready.popleft()
                    attempt = tracker.checkout(seed)
                    if not self.pool.dispatch(seed, seed, attempt):
                        tracker.requeue(seed)
                        break
                events = self.pool.poll(
                    tracker.next_wait(time.monotonic())
                )
                for event in events:
                    if event.kind == "ok":
                        tracker.record_ok(event.key, event.result)
                    elif event.kind == "failure":
                        tracker.record_failure(
                            event.key, event.attempt, event.failure_kind,
                            event.signature, event.error,
                        )
                    else:  # idle-death: no task lost, still count it
                        tracker.outcome.worker_deaths += 1
        finally:
            self.pool.shutdown()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_supervised(
    trial_fn: Callable[[int], dict],
    num_trials: int,
    base_seed: int = 0,
    config: Optional[OrchestratorConfig] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    spec: Optional[dict] = None,
    on_result: Optional[Callable[[int, dict], None]] = None,
) -> CampaignOutcome:
    """Run ``trial_fn(seed)`` for consecutive seeds under supervision.

    Parameters
    ----------
    trial_fn:
        Picklable module-level callable of one seed, returning a
        JSON-able dict.  Must be deterministic in its seed for resume
        to be exact (every trial function in this repo is).
    num_trials, base_seed:
        The seed range ``base_seed .. base_seed + num_trials - 1``.
    config:
        Execution policy (:class:`OrchestratorConfig`); never affects
        the result manifest.
    checkpoint_dir:
        When given, progress is journaled there and a manifest is
        written on completion.  Calling again with the same arguments
        resumes: completed seeds are recovered from the journal and
        only the remainder runs.
    spec:
        JSON-able description of what the campaign computes, stored in
        the journal header and the manifest.  A resume call must pass
        the same spec (mismatch raises ``ValueError``).
    on_result:
        Streaming callback ``(seed, result)`` invoked as each trial
        completes (not for journal-recovered trials).

    Returns
    -------
    CampaignOutcome
        Per-seed results, quarantined seeds, failure log, counters.

    Raises
    ------
    CampaignError
        With ``quarantine=False``, when any seed exhausts its attempts.
    CampaignInterrupted
        On SIGINT, after flushing the journal.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be positive")
    config = config if config is not None else OrchestratorConfig()
    spec = spec if spec is not None else {}
    seeds = [base_seed + i for i in range(num_trials)]

    outcome = CampaignOutcome()
    journal: Optional[Journal] = None
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        journal_path = checkpoint_dir / JOURNAL_NAME
        if journal_path.exists():
            header, results, quarantined, failures, _ = _read_journal_state(
                journal_path
            )
            if header.spec != spec:
                raise ValueError(
                    f"{checkpoint_dir}: checkpoint spec does not match "
                    f"this campaign — refusing to mix results"
                )
            if header.base_seed != base_seed or header.trials != num_trials:
                raise ValueError(
                    f"{checkpoint_dir}: checkpoint covers seeds "
                    f"{header.base_seed}..+{header.trials}, not "
                    f"{base_seed}..+{num_trials}"
                )
            outcome.results.update(results)
            outcome.quarantined.extend(quarantined)
            outcome.failures.extend(failures)
            outcome.recovered = len(results)
            journal = Journal(journal_path)
        else:
            journal = Journal(journal_path)
            journal.append({
                "event": "campaign",
                "format": JOURNAL_FORMAT,
                "version": FORMAT_VERSION,
                "spec": spec,
                "base_seed": base_seed,
                "trials": num_trials,
                "config": config.to_json(),
            })

    settled = set(outcome.results) | {f.seed for f in outcome.quarantined}
    pending = [s for s in seeds if s not in settled]
    tracker = _Tracker(pending, config, journal, on_result, outcome)

    try:
        if pending:
            n_workers = config.resolved_workers(len(pending))
            if n_workers <= 1:
                _run_serial(trial_fn, tracker, config)
            else:
                _Supervisor(trial_fn, tracker, config, n_workers).run()
        if journal is not None:
            journal.append({"event": "complete"})
    except KeyboardInterrupt as exc:
        if journal is not None:
            journal.append({"event": "interrupt"})
        raise CampaignInterrupted(
            outcome,
            Path(checkpoint_dir) if checkpoint_dir is not None else None,
            signum=getattr(exc, "signum", signal.SIGINT),
        ) from None
    finally:
        if journal is not None:
            journal.close()

    if checkpoint_dir is not None:
        outcome.manifest_path = write_manifest(
            Path(checkpoint_dir) / MANIFEST_NAME,
            build_manifest(
                spec, base_seed, num_trials,
                outcome.results, outcome.quarantined,
            ),
        )
    return outcome
