"""A schedule-driven fault layer over any radio network.

:class:`DynamicFaultNetwork` is a transparent proxy (like
:class:`repro.radio.transcript.RecordingNetwork`): it delegates the
collision rule to the wrapped network's own ``resolve_round`` — so graph,
SINR, and erasure semantics are all preserved — and applies the
:class:`repro.resilience.schedule.FaultSchedule` on top:

- a **crashed** node neither transmits nor receives until it recovers;
- a **down link** never delivers, but the transmission still propagates
  and contributes interference (the signal is in the air; the link is
  merely too degraded to decode);
- receptions at nodes inside an active **jam window** are dropped with
  the window's probability (seeded);
- an optional **active adversary** (:mod:`repro.resilience.adversary`)
  then senses the surviving round and jams or corrupts receptions —
  reactive/budgeted jamming removes them, the corruption channel
  delivers them with flipped bits for the integrity layer to catch.

Time is the clock: every ``resolve_round`` call advances it by one round,
a labelled :meth:`~DynamicFaultNetwork.resolve_round_vector` batch by
its ``num_rounds``, and engines/supervisors that charge rounds without
simulating them (silent epochs, backoff waits) advance it explicitly
with :meth:`advance` / :meth:`advance_to`.  Within a stage whose engine
skips silent rounds the clock therefore lags the protocol's own
accounting by the skipped rounds; a supervisor re-aligns it at every
stage boundary.  Event timing is exact at those boundaries and
deterministic everywhere.

Crashes, link faults and probability-1 jams draw no randomness, so a
layer with nothing else (no adversary, Byzantine set, trace, or jam
window of lower probability still ahead) over a bare
:class:`~repro.radio.network.RadioNetwork` applies them as masks on the
network's CSR kernel, and the stage drivers keep their direct paths
(:meth:`DynamicFaultNetwork.admits_vector_path`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.radio.network import RadioNetwork
from repro.radio.rng import SeedLike, make_rng
from repro.radio.trace import RoundTrace
from repro.resilience.schedule import FaultEvent, FaultSchedule, JamWindow


def _sorted_ids(nodes) -> np.ndarray:
    """A set of node ids as an ascending int64 array."""
    return np.sort(np.fromiter(nodes, dtype=np.int64, count=len(nodes)))


def _keys(parts: List[np.ndarray]) -> np.ndarray:
    """Per-segment ascending keys joined into one ascending array."""
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts)


def _member(keys: np.ndarray, query) -> np.ndarray:
    """``query`` entries found in the ascending array ``keys``."""
    query = np.asarray(query)
    if keys.size == 0:
        return np.zeros(query.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return keys[pos] == query


class DynamicFaultNetwork:
    """Apply a round-indexed fault schedule through ``resolve_round``.

    Parameters
    ----------
    base:
        Any object with the :class:`repro.radio.network.RadioNetwork`
        interface.  Its ``resolve_round`` supplies the collision
        semantics; faults are layered strictly on top.
    schedule:
        The fault timeline.  Validated against ``base.n`` up front.
    seed:
        Seed for the probabilistic jamming drops.
    trace:
        Optional :class:`RoundTrace`; suppressed transmissions and
        receptions are reported to it via ``observe_faults``.
    adversary:
        Optional :class:`repro.resilience.adversary.Adversary` applied
        after the schedule's own drops.  It carries its own seeded RNG,
        so attaching one never perturbs the protocol's random stream.
    byzantine:
        Optional :class:`repro.resilience.byzantine.ByzantineSet` of
        insider nodes.  Their transmission-side deviations are applied
        *before* the base collision rule (lies are on the air and
        collide like any transmission); their reception-side swallowing
        is applied after the adversary (an insider that pretends not to
        hear still heard — the swallow is a protocol deviation, not a
        channel event).  Fully deterministic: attaching an (empty or
        inert) set never perturbs the protocol's random stream.

    Notes
    -----
    The clock counts reception calls: each :meth:`resolve_round` call is
    one round, and a labelled :meth:`resolve_round_vector` batch is
    ``num_rounds`` of them, each applying and stamping the events due at
    its clock as that many :meth:`resolve_round` calls would.  A stage
    driver makes the calls its dict loop would make: Stage 4 one per
    slot with a transmitter, BFS and BGI one per slot of every epoch
    they simulate (none for an empty BFS phase or a saturated BGI
    epoch).  :meth:`advance` and :meth:`advance_to` move it over the
    rounds a supervisor charges without simulating them.
    """

    def __init__(
        self,
        base,
        schedule: Optional[FaultSchedule] = None,
        seed: SeedLike = None,
        trace: Optional[RoundTrace] = None,
        adversary=None,
        byzantine=None,
    ):
        self._base = base
        self.schedule = schedule or FaultSchedule()
        self.schedule.validate(
            base.n, byzantine=byzantine.nodes if byzantine else ()
        )
        self.trace = trace
        self.adversary = adversary
        self.byzantine = byzantine
        self._jam_rng = make_rng(seed)

        self.clock = 0
        self.dead: Set[int] = set()
        self.down_links: Set[FrozenSet[int]] = set()
        self._pending: List[FaultEvent] = self.schedule.concrete_events()
        self._symbolic: List[FaultEvent] = self.schedule.symbolic_events()

        # fault-exposure counters
        self.tx_suppressed = 0
        self.rx_suppressed_dead = 0
        self.rx_suppressed_link = 0
        self.rx_suppressed_jam = 0
        self.rx_jammed_adversary = 0
        self.rx_corrupted = 0
        self.rx_swallowed_byzantine = 0
        self.crash_count = 0
        self.recover_count = 0
        self.events_applied: List[Tuple[int, str, object]] = []

    # ------------------------------------------------------------------
    # Clock and event machinery
    # ------------------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        if event.kind == "crash":
            if event.node not in self.dead:
                self.dead.add(event.node)
                self.crash_count += 1
        elif event.kind == "recover":
            if event.node in self.dead:
                self.dead.discard(event.node)
                self.recover_count += 1
        elif event.kind == "link_down":
            self.down_links.add(frozenset(event.edge))
        elif event.kind == "link_up":
            self.down_links.discard(frozenset(event.edge))
        self.events_applied.append(
            (self.clock, event.kind,
             event.node if event.edge is None else event.edge)
        )

    def _catch_up(self, limit: int) -> None:
        """Apply every pending concrete event with ``round <= limit``."""
        if not self._pending:
            return
        remaining: List[FaultEvent] = []
        for event in self._pending:
            if event.round <= limit:
                self._apply(event)
            else:
                remaining.append(event)
        self._pending = remaining

    def advance(self, rounds: int) -> None:
        """Let ``rounds`` silent/idle rounds elapse."""
        if rounds < 0:
            raise ValueError("cannot advance by a negative round count")
        self.advance_to(self.clock + rounds)

    def advance_to(self, round_index: int) -> None:
        """Jump the clock forward to ``round_index`` (no-op if behind).

        Propagated to the wrapped network when it keeps a clock of its
        own (a :class:`~repro.dynamic.churn.ChurnNetwork` underneath
        must see silent rounds elapse, or its topology timeline would
        lag the fault timeline by every skipped round).
        """
        if round_index <= self.clock:
            return
        self.clock = round_index
        self._catch_up(round_index - 1)
        base_advance_to = getattr(self._base, "advance_to", None)
        if base_advance_to is not None:
            base_advance_to(round_index)

    def materialize_stage(self, stage: str) -> List[FaultEvent]:
        """Pin this stage's symbolic events to the current round.

        Called by the supervisor when ``stage`` completes; the events
        are applied immediately (so liveness queries between stages see
        them) and are stamped with the current round.  Each symbolic
        event fires at most once — the *first* completion of its stage
        (a re-run after re-election does not re-fire it).  Returns the
        events that were materialized.
        """
        from dataclasses import replace

        fired = [
            replace(e, round=self.clock, after_stage=None)
            for e in self._symbolic
            if e.after_stage == stage
        ]
        if fired:
            for event in fired:
                self._apply(event)
            self._symbolic = [
                e for e in self._symbolic if e.after_stage != stage
            ]
        return fired

    # ------------------------------------------------------------------
    # Liveness queries
    # ------------------------------------------------------------------

    def is_alive(self, node: int) -> bool:
        """Alive = not crashed *and* present (when the wrapped network
        tracks membership, a departed node is as unusable as a dead
        one — the supervisor repairs around both the same way)."""
        if node in self.dead:
            return False
        base_present = getattr(self._base, "is_present", None)
        if base_present is not None and not base_present(node):
            return False
        return True

    def alive_nodes(self) -> List[int]:
        return [
            v for v in range(self._base.n) if self.is_alive(v)
        ]

    @property
    def crashed_nodes(self) -> FrozenSet[int]:
        return frozenset(self.dead)

    def fault_stats(self) -> Dict[str, int]:
        """Exposure counters for degradation reports."""
        stats = {
            "tx_suppressed": self.tx_suppressed,
            "rx_suppressed_dead": self.rx_suppressed_dead,
            "rx_suppressed_link": self.rx_suppressed_link,
            "rx_suppressed_jam": self.rx_suppressed_jam,
            "rx_jammed_adversary": self.rx_jammed_adversary,
            "rx_corrupted": self.rx_corrupted,
            "rx_swallowed_byzantine": self.rx_swallowed_byzantine,
            "crashes": self.crash_count,
            "recoveries": self.recover_count,
            "currently_dead": len(self.dead),
        }
        if self.adversary is not None:
            stats.update(self.adversary.stats())
        if self.byzantine is not None:
            stats.update(self.byzantine.stats())
        return stats

    # ------------------------------------------------------------------
    # The faulted reception rule
    # ------------------------------------------------------------------

    def _jams_at(self, round_index: int) -> List[JamWindow]:
        """The jam windows active in round ``round_index``."""
        return [w for w in self.schedule.jam_windows if w.active(round_index)]

    def resolve_round(self, transmissions: Mapping[int, object]) -> Dict[int, object]:
        self._catch_up(self.clock)
        round_index = self.clock
        self.clock += 1

        # Crashed transmitters fall silent.
        if self.dead:
            filtered = {
                tx: msg for tx, msg in transmissions.items()
                if tx not in self.dead
            }
            self.tx_suppressed += len(transmissions) - len(filtered)
        else:
            filtered = dict(transmissions)

        # Insider lies go on the air before the collision rule runs.
        if self.byzantine is not None:
            filtered = self.byzantine.transform_transmissions(
                round_index, filtered, self.dead.__contains__
            )

        received = self._base.resolve_round(filtered)

        surviving: Dict[int, object] = {}
        jams = self._jams_at(round_index)
        rx_dead = rx_link = rx_jam = 0
        for receiver, message in received.items():
            if receiver in self.dead:
                rx_dead += 1
                continue
            if self.down_links and self._link_blocked(receiver, filtered):
                rx_link += 1
                continue
            jammed = False
            for window in jams:
                if receiver in window.nodes:
                    if (window.prob >= 1.0
                            or self._jam_rng.random() < window.prob):
                        jammed = True
                        break
            if jammed:
                rx_jam += 1
                continue
            surviving[receiver] = message

        # The active adversary sees the post-crash transmissions (that is
        # what is on the air) and acts on the receptions that survived
        # the scheduled faults.  It runs even on reception-free rounds so
        # its budget/activity state tracks the real channel.
        rx_adv_jam = rx_corrupt = 0
        if self.adversary is not None:
            surviving, rx_adv_jam, rx_corrupt = self.adversary.attack(
                round_index, filtered, surviving
            )

        # Insiders pretending not to hear: a protocol deviation, counted
        # apart from every channel-level suppression bucket.
        rx_swallowed = 0
        if self.byzantine is not None:
            surviving, rx_swallowed = self.byzantine.consume_receptions(
                round_index, surviving, self.dead.__contains__
            )
        self.rx_swallowed_byzantine += rx_swallowed

        self.rx_suppressed_dead += rx_dead
        self.rx_suppressed_link += rx_link
        self.rx_suppressed_jam += rx_jam
        self.rx_jammed_adversary += rx_adv_jam
        self.rx_corrupted += rx_corrupt
        if self.trace is not None:
            self.trace.observe_faults(
                tx_suppressed=len(transmissions) - len(filtered),
                rx_suppressed=rx_dead + rx_link + rx_jam + rx_adv_jam,
                rx_corrupted=rx_corrupt,
            )
        return surviving

    def _link_blocked(self, receiver: int, transmissions: Mapping[int, object]) -> bool:
        """True when every transmitting neighbor of ``receiver`` sits on
        a downed link to it (so the decoded message cannot have arrived).

        The wrapped model delivers at most one message per receiver per
        round; under the graph rule the sender is the unique transmitting
        neighbor, so "all candidate senders blocked" is exact.  Under
        SINR it is conservative in the rare multi-neighbor case.
        """
        candidates = [
            tx for tx in transmissions
            if self._base.has_edge(tx, receiver)
        ]
        if not candidates:
            return False
        return all(
            frozenset((tx, receiver)) in self.down_links
            for tx in candidates
        )

    # ------------------------------------------------------------------
    # The same rule as masks on the base network's kernel
    # ------------------------------------------------------------------

    def admits_vector_path(self) -> bool:
        """May the stage drivers resolve this layer's rounds through
        :meth:`resolve_round_vector`?  Asked by
        :meth:`RadioNetwork.vector_capable`, once per stage call.

        Yes when every fault the layer can apply is a mask that draws no
        randomness: the base is a :class:`RadioNetwork` on its own
        kernel, ``resolve_round`` is this class's (a subclass that
        intercepts it, such as the chaos transcriber, must see every
        round), and there is no adversary, Byzantine set, trace, or jam
        window of probability below 1 that can still be active (its
        drops draw from the jam generator, receiver by receiver).
        """
        base = self._base
        return (
            type(self).resolve_round is DynamicFaultNetwork.resolve_round
            and isinstance(base, RadioNetwork)
            and RadioNetwork.vector_capable(base)
            and self.adversary is None
            and self.byzantine is None
            and self.trace is None
            and all(
                w.prob >= 1.0 or w.stop <= self.clock
                for w in self.schedule.jam_windows
            )
        )

    def resolve_round_vector(
        self,
        tx_ids: np.ndarray,
        rounds: np.ndarray,
        num_rounds: int,
        listeners: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The faulted reception rule for a batch of rounds, as masks on
        the base network's kernel.

        The labelled form of :meth:`RadioNetwork.resolve_round_vector`.
        Label ``i`` is the round at clock ``clock + i``: the batch
        stands for ``num_rounds`` :meth:`resolve_round` calls and
        applies and stamps events, advances the clock and moves every
        counter exactly as they would.  Dead transmitters are dropped
        before the kernel runs; receptions at dead nodes, across down
        links and inside jam windows are dropped after it, blamed in
        :meth:`resolve_round`'s order.  Under the base's graph rule a
        receiver has exactly one transmitting neighbour, its sender, so
        :meth:`_link_blocked` reduces to the sender's link.

        ``listeners`` keeps only the receptions at those nodes.  While
        no fault is active it goes to the base kernel; otherwise every
        reception is resolved and blamed first, so the counters move as
        without it.

        Valid only while :meth:`admits_vector_path` holds.
        """
        if not self.admits_vector_path():
            raise ValueError(
                "this fault layer resolves its rounds one dict at a time"
            )
        tx_ids = np.asarray(tx_ids, dtype=np.int64)
        rounds = np.asarray(rounds, dtype=np.int64)
        if rounds.size and int(rounds.max()) >= num_rounds:
            raise ValueError("round labels must lie in [0, num_rounds)")
        start = self.clock
        stop = start + num_rounds
        # The fault state is constant between cuts: rounds at which a
        # pending event falls due or a jam window opens or closes.
        cuts = sorted(
            {e.round for e in self._pending if start < e.round < stop}
            | {
                r for w in self.schedule.jam_windows
                for r in (w.start, w.stop) if start < r < stop
            }
        )
        n = self._base.n
        dead: List[np.ndarray] = []
        links: List[np.ndarray] = []
        jammed: List[np.ndarray] = []
        # Per segment, keys ``segment·n + node`` (and, for links,
        # ``(segment·n + receiver)·n + sender``), ascending.
        for segment, at in enumerate([start] + cuts if num_rounds else []):
            self.clock = at
            self._catch_up(at)
            if self.dead:
                dead.append(segment * n + _sorted_ids(self.dead))
            if self.down_links:
                u, v = np.array(
                    [tuple(edge) for edge in self.down_links], dtype=np.int64
                ).T
                keys = np.concatenate((u * n + v, v * n + u))
                links.append(segment * n * n + np.sort(keys))
            nodes = set().union(*(w.nodes for w in self._jams_at(at)))
            if nodes:
                jammed.append(segment * n + _sorted_ids(nodes))
        self.clock = stop
        if not (dead or links or jammed):
            return self._base.resolve_round_vector(
                tx_ids, rounds, num_rounds, listeners=listeners
            )

        offsets = np.array([0] + [c - start for c in cuts], dtype=np.int64)

        def segment_of(labels: np.ndarray):
            if not cuts:
                return 0
            return np.searchsorted(offsets, labels, side="right") - 1

        dead_keys = _keys(dead)
        live = np.flatnonzero(
            ~_member(dead_keys, segment_of(rounds) * n + tx_ids)
        )
        self.tx_suppressed += tx_ids.size - live.size
        receivers, entries, labels = self._base.resolve_round_vector(
            tx_ids[live], rounds[live], num_rounds
        )
        entries = live[entries]
        at = segment_of(labels) * n + receivers
        rx_dead = _member(dead_keys, at)
        rx_link = ~rx_dead & _member(_keys(links), at * n + tx_ids[entries])
        rx_jam = ~(rx_dead | rx_link) & _member(_keys(jammed), at)
        self.rx_suppressed_dead += int(np.count_nonzero(rx_dead))
        self.rx_suppressed_link += int(np.count_nonzero(rx_link))
        self.rx_suppressed_jam += int(np.count_nonzero(rx_jam))
        heard = ~(rx_dead | rx_link | rx_jam)
        if listeners is not None:
            heard &= listeners[receivers]
        return receivers[heard], entries[heard], labels[heard]

    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        if name == "_base":  # guard against recursion during unpickling
            raise AttributeError(name)
        return getattr(self._base, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicFaultNetwork({self._base!r}, events="
            f"{len(self.schedule.events)}, clock={self.clock}, "
            f"dead={sorted(self.dead)})"
        )
