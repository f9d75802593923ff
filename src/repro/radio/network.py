"""The radio network: an undirected graph plus the collision-reception rule.

A :class:`RadioNetwork` is immutable once constructed.  It implements the
model's reception semantics once, as a CSR kernel:

    a node receives a message in a round iff exactly one of its neighbors
    transmits in that round, and the node itself is not transmitting.

:meth:`RadioNetwork.resolve_round` (a ``transmitter -> message`` dict in,
``receiver -> message`` out) is a thin adapter over that kernel, and
:meth:`RadioNetwork.resolve_round_vector` exposes it array-in/array-out
for the batched stage drivers.  :meth:`RadioNetwork.resolve_round_scan`
states the same rule as a plain per-transmitter neighbor scan; it is the
oracle tests and gates compare the kernel against, not a code path any
engine takes.

Everything else (diameter, BFS layers, degree statistics) is supporting
machinery used by protocols and by the experiment harness.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.radio.errors import TopologyError

#: The protocol engines.  Both resolve every round through the one
#: reception kernel; they differ only in how the protocol *stages* drive
#: it.  ``"reference"`` runs every stage slot by slot through
#: :meth:`RadioNetwork.resolve_round`, drawing its randomness in the
#: canonical order that the pinned transcript digests record.
#: ``"columnar"`` switches the stages (election, BFS, collection,
#: dissemination floods) to whole-network vectorized drivers that batch
#: RNG draws; those legitimately reorder the random stream, so it is
#: gated by semantic-equivalence oracles (:mod:`repro.testing.semantic`)
#: instead of transcript digests.
ENGINES = ("reference", "columnar")

_default_engine = "reference"


def set_default_engine(name: str) -> None:
    """Set the engine newly constructed networks use (see :data:`ENGINES`)."""
    global _default_engine
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}")
    _default_engine = name


def get_default_engine() -> str:
    """The engine newly constructed networks resolve rounds with."""
    return _default_engine


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def popcount_u64(words: np.ndarray) -> np.ndarray:
        """Per-element population count of a uint64 array."""
        return np.bitwise_count(words)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _POP8 = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint8
    )

    def popcount_u64(words: np.ndarray) -> np.ndarray:
        """Per-element population count of a uint64 array (uint8 LUT)."""
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        counts = _POP8[as_bytes].reshape(*words.shape, 8)
        return counts.sum(axis=-1, dtype=np.uint64)


class RadioNetwork:
    """An undirected multi-hop radio network on nodes ``0 .. n-1``.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs.  Each edge is undirected; duplicates
        are tolerated and collapsed.  Self-loops are rejected.
    n:
        Number of nodes.  If omitted, inferred as ``max node id + 1``.
    require_connected:
        When true (the default) the constructor raises
        :class:`TopologyError` for a disconnected graph.  The paper's model
        assumes connectivity (otherwise broadcast is impossible).
    name:
        Optional human-readable label used in reports.
    engine:
        Protocol engine: one of :data:`ENGINES` (``"reference"``,
        ``"columnar"``).  Defaults to the module default
        (:func:`get_default_engine`).  Both resolve rounds through the
        same kernel; ``columnar`` additionally enables the vectorized
        stage drivers.
    diameter_hint:
        Optional exact diameter, when the caller knows it in closed form
        (topology generators do for lines, rings, grids, tori,
        hypercubes, …).  Seeds the :attr:`diameter` cache so that
        columnar-scale networks skip the O(n·m) all-pairs eccentricity
        sweep.  Must be exact — round budgets derive from it.
    """

    def __init__(
        self,
        edges: Iterable[Tuple[int, int]],
        n: Optional[int] = None,
        require_connected: bool = True,
        name: str = "",
        engine: Optional[str] = None,
        diameter_hint: Optional[int] = None,
    ):
        adjacency: Dict[int, set] = {}
        max_id = -1
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise TopologyError(f"self-loop at node {u}")
            if u < 0 or v < 0:
                raise TopologyError(f"negative node id in edge ({u}, {v})")
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
            max_id = max(max_id, u, v)

        if n is None:
            n = max_id + 1
        if n <= 0:
            raise TopologyError("network must have at least one node")
        if max_id >= n:
            raise TopologyError(f"edge references node {max_id} but n={n}")

        self._n = n
        self._name = name or f"network(n={n})"
        self._neighbors: List[np.ndarray] = [
            np.array(sorted(adjacency.get(v, ())), dtype=np.int64) for v in range(n)
        ]
        self._degrees = np.array([len(a) for a in self._neighbors], dtype=np.int64)
        self._num_edges = int(self._degrees.sum()) // 2
        self._diameter: Optional[int] = None
        if diameter_hint is not None:
            if diameter_hint < 1:
                raise TopologyError(
                    f"diameter_hint must be >= 1, got {diameter_hint}"
                )
            self._diameter = int(diameter_hint)
        self._engine = engine if engine is not None else _default_engine
        if self._engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self._engine!r}; expected one of {ENGINES}"
            )
        # CSR adjacency (indptr, indices) for the reception kernel;
        # memory is O(n + m) so it scales to n=10^5-10^6.  Built lazily
        # on first use.
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None

        if require_connected and n > 1 and not self.is_connected():
            raise TopologyError(f"{self._name} is disconnected")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def engine(self) -> str:
        """Which protocol engine (stage drivers) this network uses."""
        return self._engine

    def set_engine(self, name: str) -> None:
        """Switch to another engine from :data:`ENGINES`.

        Switching mid-run is well-defined: rounds resolve the same way
        under either engine, but the switch changes which stage drivers
        (and hence which RNG draw order) subsequent stages use.
        """
        if name not in ENGINES:
            raise ValueError(
                f"unknown engine {name!r}; expected one of {ENGINES}"
            )
        self._engine = name

    def set_diameter_hint(self, diameter: int) -> None:
        """Seed the :attr:`diameter` cache with a known-exact value."""
        if diameter < 1:
            raise TopologyError(f"diameter_hint must be >= 1, got {diameter}")
        self._diameter = int(diameter)

    @property
    def name(self) -> str:
        return self._name

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def max_degree(self) -> int:
        """The paper's Δ. By convention at least 1 (so log Δ terms are sane)."""
        return max(1, int(self._degrees.max()))

    def degree(self, v: int) -> int:
        return int(self._degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted array of neighbors of ``v`` (do not mutate)."""
        return self._neighbors[v]

    def has_edge(self, u: int, v: int) -> bool:
        arr = self._neighbors[u]
        i = int(np.searchsorted(arr, v))
        return i < len(arr) and arr[i] == v

    def edge_list(self) -> List[Tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return [
            (u, int(v))
            for u in range(self._n)
            for v in self._neighbors[u]
            if u < v
        ]

    def nodes(self) -> range:
        return range(self._n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RadioNetwork({self._name!r}, n={self._n}, m={self._num_edges}, "
            f"Δ={self.max_degree})"
        )

    # ------------------------------------------------------------------
    # Graph structure queries
    # ------------------------------------------------------------------

    def bfs_distances(self, source: int) -> np.ndarray:
        """Hop distances from ``source``; unreachable nodes get -1.

        Runs a CSR frontier expansion (one vectorized gather per BFS
        level) rather than a per-node queue; hop distances are unique,
        so the result is identical to a scalar BFS.  This is what keeps
        exact-diameter computation affordable on generated topologies
        with no closed-form hint (e.g. random geometric graphs), where
        ``diameter`` runs n of these.
        """
        dist = np.full(self._n, -1, dtype=np.int64)
        dist[source] = 0
        indptr, indices = self.csr_adjacency()
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            counts = indptr[frontier + 1] - indptr[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            cum = np.cumsum(counts)
            pos = np.arange(total, dtype=np.int64) + np.repeat(
                indptr[frontier] - (cum - counts), counts
            )
            nbrs = indices[pos]
            fresh = nbrs[dist[nbrs] < 0]
            if fresh.size == 0:
                break
            frontier = np.unique(fresh)
            level += 1
            dist[frontier] = level
        return dist

    def bfs_layers(self, source: int) -> List[List[int]]:
        """Nodes grouped by hop distance from ``source`` (layer 0 = source)."""
        dist = self.bfs_distances(source)
        depth = int(dist.max())
        layers: List[List[int]] = [[] for _ in range(depth + 1)]
        for v in range(self._n):
            if dist[v] >= 0:
                layers[int(dist[v])].append(v)
        return layers

    def bfs_tree(self, source: int) -> List[int]:
        """A canonical BFS tree: ``parent[v]`` for each node, -1 at the root.

        Used as ground truth when validating the *distributed* BFS protocol;
        the distributed tree need not equal this one, but distances must.
        """
        parent = np.full(self._n, -1, dtype=np.int64)
        seen = np.zeros(self._n, dtype=bool)
        seen[source] = True
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    queue.append(int(v))
        return [int(p) for p in parent]

    def is_connected(self) -> bool:
        if self._n == 1:
            return True
        return bool((self.bfs_distances(0) >= 0).all())

    def eccentricity(self, v: int) -> int:
        return int(self.bfs_distances(v).max())

    @property
    def diameter(self) -> int:
        """Exact diameter (max eccentricity); computed once and cached.

        By the paper's convention D ≥ 1 even for a single node, so that
        phase counts and logarithms stay well defined.
        """
        if self._diameter is None:
            ecc = 0
            for v in range(self._n):
                ecc = max(ecc, self.eccentricity(v))
            self._diameter = max(1, ecc)
        return self._diameter

    # ------------------------------------------------------------------
    # The reception rule
    # ------------------------------------------------------------------

    def resolve_round(self, transmissions: Mapping[int, object]) -> Dict[int, object]:
        """Apply one synchronous round of the radio model.

        Parameters
        ----------
        transmissions:
            Mapping ``transmitter -> message`` for every node transmitting
            this round.  Messages are opaque to the model.

        Returns
        -------
        dict
            ``receiver -> message`` for every node that successfully
            receives: exactly one of its neighbors transmitted, and it did
            not itself transmit (radios are half-duplex).

        Notes
        -----
        Every protocol engine routes its dict rounds through this method,
        a thin adapter over the CSR kernel behind
        :meth:`resolve_round_vector`.  Downstream layers rely on its
        contract:

        **Receivers are returned in ascending node order.**  The fault
        layers (:class:`repro.radio.faults.FaultyRadioNetwork`,
        :class:`repro.resilience.network.DynamicFaultNetwork`) draw one
        random number per delivered reception while iterating this dict,
        so the iteration order is part of the seeded-reproducibility
        contract — any resolver that returned the same *set* in a
        different *order* would silently perturb every downstream RNG
        stream.  ``tests/test_rng_stream_order.py`` pins this with a
        digest regression test, and checks it against
        :meth:`resolve_round_scan`.
        """
        if not transmissions:
            return {}

        if len(transmissions) == 1:
            # Lone transmitter: its (sorted) neighborhood receives.
            ((tx, message),) = transmissions.items()
            return dict.fromkeys(self._neighbors[tx].tolist(), message)

        tx_ids = np.fromiter(
            transmissions, dtype=np.int64, count=len(transmissions)
        )
        receivers, senders = self._resolve_one_round(tx_ids)
        get = transmissions.__getitem__
        return dict(zip(receivers.tolist(), map(get, senders.tolist())))

    def resolve_round_scan(
        self, transmissions: Mapping[int, object]
    ) -> Dict[int, object]:
        """The reception rule as a per-transmitter neighbor scan.

        Same contract as :meth:`resolve_round`, computed independently of
        the CSR kernel.  No engine runs it: it is the oracle the kernel
        is checked against (``tests/test_rng_stream_order.py``, the
        differential gate of :mod:`repro.testing.differential`, and
        :func:`repro.radio.transcript.verify_transcript`).
        """
        if not transmissions:
            return {}

        if len(transmissions) == 1:
            # Fast path for the overwhelmingly common case (Decay rounds
            # mostly have 0-2 transmitters): a lone transmitter reaches
            # exactly its neighborhood (sorted, hence ascending order).
            ((tx, message),) = transmissions.items()
            return {int(v): message for v in self._neighbors[tx]}

        # reach_count[v] = number of transmitting neighbors of v
        reach_count = np.zeros(self._n, dtype=np.int64)
        sender_of = np.full(self._n, -1, dtype=np.int64)
        for tx in transmissions:
            nbrs = self._neighbors[tx]
            reach_count[nbrs] += 1
            sender_of[nbrs] = tx

        received: Dict[int, object] = {}
        hearers = np.nonzero(reach_count == 1)[0]  # ascending
        for v in hearers:
            v = int(v)
            if v in transmissions:
                continue  # half-duplex: a transmitter cannot receive
            received[v] = transmissions[int(sender_of[v])]
        return received

    # ------------------------------------------------------------------
    # The reception kernel (array-in / array-out)
    # ------------------------------------------------------------------

    def csr_adjacency(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR adjacency ``(indptr, indices)`` (built once, then cached).

        ``indices[indptr[v]:indptr[v+1]]`` is the sorted neighbor list of
        ``v``.  Memory is O(n + m), so this representation is safe at
        columnar scale (n=10^5-10^6).  Do not mutate.
        """
        if self._csr is None:
            indptr = np.zeros(self._n + 1, dtype=np.int64)
            np.cumsum(self._degrees, out=indptr[1:])
            if self._num_edges:
                indices = np.concatenate(self._neighbors)
            else:
                indices = np.zeros(0, dtype=np.int64)
            self._csr = (indptr, indices)
        return self._csr

    def gather_neighbors(self, ids: np.ndarray) -> np.ndarray:
        """The neighbor lists of ``ids``, concatenated in order, as one
        int64 array (one vector pass over the CSR adjacency)."""
        indptr, indices = self.csr_adjacency()
        counts = self._degrees[ids]
        # positions indptr[t] .. indptr[t]+deg(t) for each t, flattened
        cum = np.cumsum(counts)
        pos = np.arange(int(counts.sum()), dtype=np.int64)
        pos += np.repeat(indptr[ids] - (cum - counts), counts)
        return indices[pos]

    @staticmethod
    def vector_capable(network: object) -> bool:
        """May a stage driver resolve ``network``'s rounds through
        :meth:`resolve_round_vector` instead of :meth:`resolve_round`?

        Only when ``network`` is a :class:`RadioNetwork` whose dict
        reception rule is this class's own: a subclass overriding
        ``resolve_round`` (faults, SINR) or a proxy interposing on it
        (recording, churn, dynamic faults) must see every round as a
        dict.  A static method because proxies forward unknown
        attributes to the network they wrap, so an instance method would
        answer for the wrapped network.  ``RadioNetwork.resolve_round``
        is looked up at call time, so replacing the class attribute
        (tracing wrappers do) keeps the vector path.
        """
        return (
            isinstance(network, RadioNetwork)
            and type(network).resolve_round is RadioNetwork.resolve_round
        )

    def resolve_round_vector(
        self, tx_ids: np.ndarray, rounds: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, ...]:
        """Array-native reception: who hears whom, with no dict round-trip.

        Parameters
        ----------
        tx_ids:
            int64 array of transmitting node ids (any order).  Without
            ``rounds`` it is one round's transmitter set, with no
            duplicates.
        rounds:
            Optional non-negative int64 round label per entry of
            ``tx_ids``.  Entries sharing a label form one round, and
            every round is resolved independently in the same pass; a
            node may transmit in several rounds, at most once per round.

        Returns
        -------
        (receivers, senders):
            Without ``rounds``: ``receivers`` is the ascending int64 array
            of nodes that successfully receive this round (exactly one
            transmitting neighbor, not themselves transmitting);
            ``senders[i]`` is the unique transmitting neighbor heard by
            ``receivers[i]``.
        (receivers, entries, labels):
            With ``rounds``: one element per reception, sorted by
            ``(label, receiver)``; ``entries[i]`` is the index into
            ``tx_ids`` of the transmission heard, so a node transmitting
            in several rounds is told apart per round.

        This is the kernel :meth:`resolve_round` adapts to dicts, so the
        receiver order and per-receiver sender of each round are exactly
        what that method delivers on the same transmitter set; the
        stage drivers call it directly to batch rounds without
        materializing per-node message dicts.  It is an O(n + work) CSR
        scatter pass, memory-safe at any n.  A single round counts
        hearers with one ``bincount``; labelled rounds sort one key per
        (round, neighbor) incidence instead, so their cost does not
        grow with ``rounds × n``.
        """
        tx_ids = np.asarray(tx_ids, dtype=np.int64)
        if rounds is None:
            return self._resolve_one_round(tx_ids)
        rounds = np.asarray(rounds, dtype=np.int64)
        if rounds.shape != tx_ids.shape:
            raise ValueError("rounds must label every transmitter")
        all_nbrs = self.gather_neighbors(tx_ids)
        if all_nbrs.size == 0:
            return (all_nbrs,) * 3
        return self._resolve_labelled(
            tx_ids, rounds, self._degrees[tx_ids], all_nbrs
        )

    def _resolve_one_round(
        self, tx_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The single-round half of :meth:`resolve_round_vector`, shared
        with :meth:`resolve_round` (which must not call the public method:
        tracing wraps both by name and would book every dict round
        twice)."""
        all_nbrs = self.gather_neighbors(tx_ids)
        if all_nbrs.size == 0:
            return all_nbrs, all_nbrs
        n = self._n
        reach = np.bincount(all_nbrs, minlength=n)
        reach[tx_ids] = 0  # half-duplex: transmitters never receive
        sender_of = np.zeros(n, dtype=np.int64)
        sender_of[all_nbrs] = np.repeat(tx_ids, self._degrees[tx_ids])
        receivers = np.flatnonzero(reach == 1)
        return receivers, sender_of[receivers]

    def _resolve_labelled(
        self,
        tx_ids: np.ndarray,
        rounds: np.ndarray,
        counts: np.ndarray,
        all_nbrs: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The labelled half of :meth:`resolve_round_vector`.

        Every incidence becomes the key ``(round·n + node)·(T+1) +
        entry`` and every transmitter adds its own ``(round·n + self)``
        key with the sentinel entry ``T``; after one sort, a
        ``(round, node)`` run of length one that is not a sentinel is a
        reception.  Two transmitting neighbors collide, and the sentinel
        joins any run of a transmitting node, so half-duplex needs no
        separate mask.
        """
        n = self._n
        n_tx = tx_ids.size
        if rounds.min() < 0:
            raise ValueError("round labels must be non-negative")
        span = n_tx + 1
        if (int(rounds.max()) + 1) * n * span >= 2**63:
            raise ValueError("too many labelled transmissions for int64 keys")
        keys = np.empty(all_nbrs.size + n_tx, dtype=np.int64)
        head = keys[:all_nbrs.size]
        np.multiply(all_nbrs, span, out=head)
        head += np.repeat(
            rounds * (n * span) + np.arange(n_tx, dtype=np.int64), counts
        )
        tail = keys[all_nbrs.size:]
        np.multiply(rounds * n + tx_ids, span, out=tail)
        tail += n_tx
        keys.sort()
        node_key = keys // span
        same = node_key[1:] == node_key[:-1]
        lone = np.ones(keys.size, dtype=bool)
        lone[1:] = ~same
        lone[:-1] &= ~same
        node_key = node_key[lone]
        entry = keys[lone] - node_key * span
        heard = entry != n_tx
        labels, receivers = np.divmod(node_key[heard], n)
        return receivers, entry[heard], labels

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Sequence[Sequence[int]],
        require_connected: bool = True,
        name: str = "",
    ) -> "RadioNetwork":
        """Build from an adjacency-list representation."""
        edges = [
            (u, v)
            for u, nbrs in enumerate(adjacency)
            for v in nbrs
            if u < v
        ]
        return cls(edges, n=len(adjacency), require_connected=require_connected, name=name)
