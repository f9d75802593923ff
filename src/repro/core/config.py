"""Algorithm parameters: every constant the paper hides in O(·), made explicit.

The paper's analysis uses a "sufficiently large constant c" and unstated
constants inside epoch budgets.  This module centralizes them so that

- experiments can sweep them (the constants-vs-reliability trade-off),
- tests can shrink them for speed, and
- the conservative "paper" preset reproduces the w.h.p. guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from repro.radio.network import RadioNetwork


def log2n(n: int) -> float:
    """``log2 n`` clamped below at 1 so budget formulas never degenerate."""
    return max(1.0, math.log2(max(n, 2)))


@dataclass(frozen=True)
class AlgorithmParameters:
    """Tunable constants of the multi-broadcast algorithm.

    Attributes
    ----------
    c_log:
        The paper's constant ``c``: the GRAB cascade stops at
        ``c·log n`` and the final MSPG uses ``c·log n`` copies per packet
        over a ``c²·log²n`` window.
    bgi_epochs_factor:
        Decay epochs per BGI broadcast = ``factor · (D + log2 n)``; used by
        leader-election probes and the ALARM epoch.
    bfs_epochs_factor:
        Decay epochs per BFS phase = ``factor · log2 n``.
    forward_surplus:
        Extra coded receptions targeted beyond the group size; the rank
        failure probability decays as ``2^-surplus`` (Lemma 3 regime).
    forward_epochs_factor:
        FORWARD epochs = ``factor · (group_size + forward_surplus)``;
        ``factor`` compensates the per-epoch reception probability
        (≥ 1/(2e) analytically, ≈ 0.3-0.5 in practice).
    group_spacing:
        Phases between consecutive group launches in the dissemination
        pipeline.  The paper proves 3 suffices to avoid inter-group
        interference; smaller values are exposed for the A2 ablation.
    opportunistic_decoding:
        When true, nodes absorb *any* overheard coded message, not only
        those of their scheduled receiving phase (A-series ablation;
        default False = strict paper behaviour).
    coding_enabled:
        When false, FORWARD transmits a uniformly random *plain* packet of
        the group instead of a coded combination (the A1 ablation /
        uncoded baseline).
    collection_estimate_factor:
        Initial Stage-3 estimate = ``factor · (D + log2 n) · log2 n``
        (the paper's starting value has factor 1).
    mspg_enabled:
        When false, GRAB omits its final MSPG cleanup (A3 ablation).
    max_collection_phases:
        Safety valve on Stage 3's doubling loop.
    k_bound_exponent:
        The paper assumes ``k`` is polynomially bounded in ``n`` and that
        nodes know the polynomial; the known bound is ``n^exponent``.
        When the doubling estimate exceeds it and alarms persist, Stage 3
        gives up honestly (the assumption is violated — e.g. the channel
        is losing every acknowledgment) instead of doubling forever.
    root_plain_repetitions:
        How many times the root cycles through a group's plain packets
        during the group's first dissemination phase.  The paper sends
        each packet once (the model has no losses); repetitions reuse
        otherwise-idle slots of the same fixed-length phase — zero round
        cost — and make the root link robust to erasures (experiment
        E15).  Default 1 = paper-faithful.
    ospg_window_factor:
        OSPG draws launch rounds from ``[1, factor·y]``; the paper's 6
        gives unique-launch probability ``(1 - 1/(6y))^(y-1) ≥ 3/4``.
        Smaller factors shrink the ``(4·factor)·y``-round procedure but
        raise the collision rate (unique-launch ≥ ``e^{-1/factor}``) —
        the collection-constant trade-off of ablation A7.
    integrity_checks:
        When true (default), Stage-4 wire messages carry the keyed
        checksum of :mod:`repro.coding.integrity` and FORWARD verifies
        every row *before* Gaussian elimination, quarantining corrupted
        ones.  Checksums are deterministic — toggling this never changes
        the RNG stream — so the fault-free execution is bit-identical
        either way; disabling it is the trusting-channel ablation that
        shows mis-decodes under a corruption adversary.
    integrity_key:
        The shared 64-bit key of the checksum scheme (a protocol
        parameter known to every node, unknown to the adversary).
    authentication:
        When true, protocol traffic additionally carries per-node MACs
        (origin tags on packets, root tags on ACKs and plain rows, hop
        tags on every transmission) so receivers can *attribute* bad
        traffic to the node that signed it — the insider defense layered
        above the shared checksum, which a Byzantine node knows.  Tags
        are deterministic, so toggling this never changes the RNG stream
        and the fault-free execution stays bit-identical.  Default off =
        paper-faithful trusting-nodes model.
    auth_master_key:
        Master key the per-node signing keys are derived from (a dealer
        secret; each node learns only its own derived key).
    engine:
        ``None`` (the default) or ``"columnar"``; either selects
        nothing.  Each stage takes its direct (array) path on a bare
        network with no trace and its dict loop everywhere else, chosen
        by the network's own type
        (:meth:`repro.radio.network.RadioNetwork.vector_capable`), and
        both paths give the identical run.  The field is kept only so
        that existing ``engine="columnar"`` call sites still construct;
        any other value raises :class:`ValueError`.
    """

    c_log: float = 1.5
    bgi_epochs_factor: float = 3.0
    bfs_epochs_factor: float = 3.0
    forward_surplus: float = 10.0
    forward_epochs_factor: float = 3.0
    group_spacing: int = 3
    opportunistic_decoding: bool = False
    coding_enabled: bool = True
    collection_estimate_factor: float = 1.0
    mspg_enabled: bool = True
    max_collection_phases: int = 40
    k_bound_exponent: float = 3.0
    root_plain_repetitions: int = 1
    ospg_window_factor: int = 6
    integrity_checks: bool = True
    integrity_key: int = 0x9E3779B97F4A7C15
    authentication: bool = False
    auth_master_key: int = 0xD1B54A32D192ED03
    engine: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine not in (None, "columnar"):
            raise ValueError(
                f"unknown engine {self.engine!r}: the only accepted value "
                f"is 'columnar', which selects nothing"
            )

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------

    @classmethod
    def fast(cls) -> "AlgorithmParameters":
        """Small budgets for quick unit tests (weaker success probability)."""
        return cls(
            c_log=1.0,
            bgi_epochs_factor=2.0,
            bfs_epochs_factor=2.0,
            forward_surplus=8.0,
            forward_epochs_factor=2.5,
        )

    @classmethod
    def paper(cls) -> "AlgorithmParameters":
        """Conservative budgets tracking the paper's w.h.p. analysis."""
        return cls(
            c_log=2.0,
            bgi_epochs_factor=4.0,
            bfs_epochs_factor=4.0,
            forward_surplus=16.0,
            forward_epochs_factor=6.0,
        )

    def with_overrides(self, **kwargs) -> "AlgorithmParameters":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Derived budgets
    # ------------------------------------------------------------------

    def c_log_n(self, n: int) -> int:
        """The paper's ``c·log n`` (at least 1)."""
        return max(1, math.ceil(self.c_log * log2n(n)))

    def bgi_epochs(self, network: RadioNetwork) -> int:
        """Epoch budget for one BGI broadcast / one election probe / ALARM."""
        return max(
            1,
            math.ceil(
                self.bgi_epochs_factor * (network.diameter + log2n(network.n))
            ),
        )

    def bfs_epochs(self, network: RadioNetwork) -> int:
        """Decay epochs per BFS construction phase."""
        return max(1, math.ceil(self.bfs_epochs_factor * log2n(network.n)))

    def forward_epochs(self, group_size: int) -> int:
        """Decay epochs per FORWARD phase for a given group size."""
        return max(
            1,
            math.ceil(
                self.forward_epochs_factor * (group_size + self.forward_surplus)
            ),
        )

    def group_width(self, n: int) -> int:
        """Packets per dissemination group: the paper's ``⌈log n⌉``."""
        return max(1, math.ceil(log2n(n)))

    def initial_collection_estimate(
        self, network: RadioNetwork, depth_bound: Optional[int] = None
    ) -> int:
        """Stage 3's starting estimate of k: ``(D + log n)·log n``."""
        d = network.diameter if depth_bound is None else depth_bound
        ln = log2n(network.n)
        return max(1, math.ceil(self.collection_estimate_factor * (d + ln) * ln))

    def max_k_estimate(self, n: int) -> int:
        """The known polynomial bound on ``k``: ``n^k_bound_exponent``.

        Stage 3 stops doubling past this value (see ``k_bound_exponent``).
        """
        return max(16, math.ceil(max(n, 2) ** self.k_bound_exponent))
