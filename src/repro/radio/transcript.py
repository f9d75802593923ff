"""Full execution transcripts: record, verify, and analyze.

:class:`RecordingNetwork` wraps any network object and records every
``resolve_round`` call — the complete who-transmitted-what/who-received
history of an execution.  Uses:

- **model verification** — :func:`verify_transcript` replays the
  transcript through the per-transmitter scan
  (:meth:`RadioNetwork.resolve_round_scan`) and checks every round obeys
  the reception rule (the simulator auditing itself; used by tests and
  available to users building new engines);
- **per-node accounting** — :func:`per_node_transmissions` gives the
  energy/fairness picture (who did the talking), complementing the
  aggregate :class:`repro.radio.trace.RoundTrace` counters.

Transcripts of long executions are large (one entry per busy round);
recording is strictly opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.radio.network import RadioNetwork


@dataclass
class TranscriptEntry:
    """One recorded round.

    ``clock`` is the wrapped network's own round clock at resolution
    time, when it keeps one (:class:`repro.resilience.network.
    DynamicFaultNetwork` does; plain networks do not).  Engines that
    charge silent rounds between resolutions make ``clock`` run ahead of
    ``index``; recording it lets a replayer advance a fresh fault
    network to the exact same round before re-resolving, so
    schedule-driven faults land identically.
    """

    index: int
    transmissions: Dict[int, object]
    received: Dict[int, object]
    clock: Optional[int] = None


class RecordingNetwork:
    """A transparent proxy that records every resolved round.

    Wraps any object with the :class:`RadioNetwork` interface (including
    :class:`SinrRadioNetwork` and :class:`FaultyRadioNetwork`); all other
    attribute access is delegated to the base, so protocol engines run
    unchanged.
    """

    def __init__(self, base: RadioNetwork):
        self._base = base
        self.transcript: List[TranscriptEntry] = []

    def resolve_round(self, transmissions: Mapping[int, object]) -> Dict[int, object]:
        clock = getattr(self._base, "clock", None)
        received = self._base.resolve_round(transmissions)
        self.transcript.append(
            TranscriptEntry(
                index=len(self.transcript),
                transmissions=dict(transmissions),
                received=dict(received),
                clock=clock,
            )
        )
        return received

    def __getattr__(self, name: str):
        return getattr(self._base, name)

    def clear(self) -> None:
        self.transcript.clear()


def verify_transcript(
    network: RadioNetwork, transcript: List[TranscriptEntry]
) -> List[str]:
    """Audit a transcript against the model (empty list = valid).

    Checks, per round: receivers are disjoint from transmitters, every
    receiver got the message of one of its transmitting neighbors, and —
    for plain graph-model networks — the received dict matches an
    independent re-resolution by :meth:`RadioNetwork.resolve_round_scan`
    exactly, receiver order included (fault layers draw randomness in
    that order, so it is part of the contract).

    For stochastic channels (erasures) or SINR physics the exact-match
    check is skipped (re-resolution is not reproducible / rule differs);
    the structural checks still apply.
    """
    violations: List[str] = []
    exact = type(network) is RadioNetwork

    for entry in transcript:
        tx = entry.transmissions
        for receiver, message in entry.received.items():
            if receiver in tx:
                violations.append(
                    f"round {entry.index}: transmitter {receiver} also received"
                )
            senders = [
                u for u in tx
                if network.has_edge(u, receiver) and tx[u] is message
            ]
            if not any(network.has_edge(u, receiver) for u in tx):
                violations.append(
                    f"round {entry.index}: node {receiver} received with no "
                    f"transmitting neighbor"
                )
            elif not senders and message not in [
                tx[u] for u in tx if network.has_edge(u, receiver)
            ]:
                violations.append(
                    f"round {entry.index}: node {receiver} received a message "
                    f"no transmitting neighbor sent"
                )
        if exact:
            expected = network.resolve_round_scan(tx)
            if list(expected.items()) != list(entry.received.items()):
                violations.append(
                    f"round {entry.index}: received dict does not match "
                    f"the model (expected {list(expected)}, "
                    f"got {list(entry.received)})"
                )
    return violations


def per_node_transmissions(
    transcript: List[TranscriptEntry], n: int
) -> List[int]:
    """Number of transmissions per node across the transcript."""
    counts = [0] * n
    for entry in transcript:
        for node in entry.transmissions:
            counts[node] += 1
    return counts


def per_node_receptions(
    transcript: List[TranscriptEntry], n: int
) -> List[int]:
    """Number of successful receptions per node across the transcript."""
    counts = [0] * n
    for entry in transcript:
        for node in entry.received:
            counts[node] += 1
    return counts


def transcript_to_text(
    transcript: List[TranscriptEntry],
    max_rounds: int = 50,
) -> str:
    """Human-readable rendering of a transcript (debugging aid).

    One line per recorded round: transmitters with a short message
    summary, then successful receivers.  Truncated to ``max_rounds``
    lines (full transcripts of real runs are huge).
    """

    def summarize(message: object) -> str:
        text = repr(message)
        return text if len(text) <= 24 else text[:21] + "..."

    lines: List[str] = []
    for entry in transcript[:max_rounds]:
        tx = ", ".join(
            f"{v}->{summarize(m)}" for v, m in sorted(entry.transmissions.items())
        )
        rx = ", ".join(str(v) for v in sorted(entry.received))
        lines.append(
            f"round {entry.index:>6}: tx [{tx}]  rx [{rx or '-'}]"
        )
    if len(transcript) > max_rounds:
        lines.append(f"... ({len(transcript) - max_rounds} more rounds)")
    return "\n".join(lines)
