"""Fault injection: erasure and jamming on top of any radio network.

:class:`FaultyRadioNetwork` wraps a base network's topology and applies
additional loss *after* the model's collision rule:

- **erasures** — every successful reception is independently dropped with
  probability ``erasure_prob`` (fading, checksum failures);
- **jamming** — receptions at the ``jammed_nodes`` are dropped with
  probability ``jam_prob`` (a localized interferer).

The protocols in this library are built from acknowledged retries
(Stage 3), fixed redundancy budgets (Decay/BGI epochs) and rateless
coding (Stage 4), so they degrade gracefully under erasures — experiment
E15 measures exactly how much budget headroom each loss rate consumes.

Faults are applied through the same :meth:`resolve_round` interface, so
every engine runs unchanged, and the fault process is seeded (same seed ⇒
same loss pattern).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.radio.network import RadioNetwork
from repro.radio.rng import SeedLike, make_rng


class FaultyRadioNetwork(RadioNetwork):
    """A radio network with post-collision reception faults.

    Parameters
    ----------
    base:
        The fault-free network whose topology (and hence n, D, Δ) is
        inherited.  Its own ``resolve_round`` supplies the collision
        semantics — wrapping a SINR or erasure network preserves that
        model's reception rule, with this layer's faults applied on top.
    erasure_prob:
        Probability each successful reception is independently dropped.
    jammed_nodes:
        Nodes subject to jamming.
    jam_prob:
        Drop probability at jammed nodes (applied after erasures).
    seed:
        Seed for the fault process.
    """

    def __init__(
        self,
        base: RadioNetwork,
        erasure_prob: float = 0.0,
        jammed_nodes: Iterable[int] = (),
        jam_prob: float = 1.0,
        seed: SeedLike = None,
    ):
        if not 0.0 <= erasure_prob < 1.0:
            raise ValueError("erasure_prob must be in [0, 1)")
        if not 0.0 <= jam_prob <= 1.0:
            raise ValueError("jam_prob must be in [0, 1]")
        # Same topology: share the base's CSR arrays instead of
        # rebuilding them, and ask the base for its diameter.
        indptr, indices = base.csr_adjacency()
        self._adopt_csr(
            indptr,
            indices,
            name=f"faulty({base.name},e={erasure_prob})",
            diameter=None,
        )
        self._base = base
        self.erasure_prob = float(erasure_prob)
        self.jammed = frozenset(int(v) for v in jammed_nodes)
        if any(not 0 <= v < base.n for v in self.jammed):
            raise ValueError("jammed node id out of range")
        self.jam_prob = float(jam_prob)
        self._fault_rng = make_rng(seed)
        self.receptions_erased = 0
        self.receptions_jammed = 0

    @property
    def diameter(self) -> int:
        """The base's diameter (hinted, cached or computed there once):
        erasures and jamming leave the topology unchanged."""
        if self._diameter is None:
            self._diameter = self._base.diameter
        return self._diameter

    # -- churn passthroughs -------------------------------------------
    # FaultyRadioNetwork is a RadioNetwork subclass, not a __getattr__
    # proxy, so the dynamic-topology interface of a wrapped
    # ChurnNetwork must be forwarded explicitly for erasures/jamming to
    # compose with join/leave/mobility.

    def advance(self, rounds: int) -> None:
        base_advance = getattr(self._base, "advance", None)
        if base_advance is not None:
            base_advance(rounds)

    def advance_to(self, round_index: int) -> None:
        base_advance_to = getattr(self._base, "advance_to", None)
        if base_advance_to is not None:
            base_advance_to(round_index)

    def is_present(self, node: int) -> bool:
        base_present = getattr(self._base, "is_present", None)
        return True if base_present is None else base_present(node)

    def present_nodes(self):
        base_present = getattr(self._base, "present_nodes", None)
        if base_present is None:
            return list(range(self.n))
        return base_present()

    def edge_active(self, u: int, v: int) -> bool:
        base_active = getattr(self._base, "edge_active", None)
        return self.has_edge(u, v) if base_active is None else base_active(u, v)

    def resolve_round(self, transmissions: Mapping[int, object]) -> Dict[int, object]:
        received = self._base.resolve_round(transmissions)
        if not received:
            return received
        surviving: Dict[int, object] = {}
        for receiver, message in received.items():
            if (
                self.erasure_prob > 0.0
                and self._fault_rng.random() < self.erasure_prob
            ):
                self.receptions_erased += 1
                continue
            if (
                receiver in self.jammed
                and self._fault_rng.random() < self.jam_prob
            ):
                self.receptions_jammed += 1
                continue
            surviving[receiver] = message
        return surviving
