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
stage driver takes.

Everything else (diameter, BFS layers, degree statistics) is supporting
machinery used by protocols and by the experiment harness.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.radio.errors import TopologyError

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


def _sorted_unique(values: np.ndarray, return_index: bool = False):
    """The distinct entries of ``values``, ascending, as
    ``np.unique(values, return_index=...)`` gives them: with
    ``return_index``, also the index of each one's first occurrence
    (a stable argsort keeps occurrences in order).

    Sort and neighbour mask, not ``np.unique``: it is about 10x slower
    on numpy 2.4.
    """
    if return_index:
        order = np.argsort(values, kind="stable")
        ordered = values[order]
    else:
        ordered = np.sort(values)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if return_index:
        return ordered[first], order[first]
    return ordered[first]


def _csr_from_edges(
    edges: Iterable[Tuple[int, int]], n: Optional[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate an edge collection and build its CSR ``(indptr, indices)``.

    Both directions of every pair are packed as ``u·n + v``; sorting the
    keys and dropping repeats leaves each row's neighbors sorted and each
    duplicate edge collapsed.  (Sort and mask, not ``np.unique``: it is
    about 10x slower on numpy 2.4.)
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    u, v = pairs[:, 0], pairs[:, 1]
    bad = (u == v) | (u < 0) | (v < 0)
    if bad.any():
        # the first offending edge, checked as a per-edge loop would
        a, b = pairs[int(np.argmax(bad))].tolist()
        if a == b:
            raise TopologyError(f"self-loop at node {a}")
        raise TopologyError(f"negative node id in edge ({a}, {b})")
    max_id = int(pairs.max()) if pairs.size else -1
    if n is None:
        n = max_id + 1
    if n <= 0:
        raise TopologyError("network must have at least one node")
    if max_id >= n:
        raise TopologyError(f"edge references node {max_id} but n={n}")
    n = int(n)
    keys = np.concatenate((u * n + v, v * n + u))
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(keys, n, out=keys)
    return indptr.astype(np.int64, copy=False), keys


#: Labelled calls with at most this many (transmitter, neighbor)
#: incidences resolve on fresh int64 arrays (``_resolve_compact``),
#: larger ones in the reused workspace (``_scratch``).  A small call's
#: cost is mostly fixed per-call overhead, of which the fresh-array form
#: has less; a large one's is its data, which int32 keys in reused pages
#: move faster.
_COMPACT_INCIDENCES = 4096


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
    diameter_hint:
        Optional exact diameter, when the caller knows it in closed form
        (topology generators do for lines, rings, grids, tori,
        hypercubes, …).  Seeds the :attr:`diameter` cache.  Not needed
        for speed (:attr:`diameter` costs a handful of BFS sweeps), but
        it must be exact — round budgets derive from it.
    """

    def __init__(
        self,
        edges: Iterable[Tuple[int, int]],
        n: Optional[int] = None,
        require_connected: bool = True,
        name: str = "",
        diameter_hint: Optional[int] = None,
    ):
        indptr, indices = _csr_from_edges(edges, n)
        self._adopt_csr(indptr, indices, name, diameter_hint)
        if require_connected and self._n > 1 and not self.is_connected():
            raise TopologyError(f"{self._name} is disconnected")

    def _adopt_csr(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        name: str,
        diameter: Optional[int],
    ) -> None:
        """Take ``(indptr, indices)`` as this network's adjacency (shared,
        never copied: it is immutable) and set every derived field."""
        n = indptr.size - 1
        self._n = n
        self._name = name or f"network(n={n})"
        self._csr = (indptr, indices)
        self._degrees = np.diff(indptr)
        self._num_edges = indices.size // 2
        # Per-node views into ``indices``: the dict adapter and the scan
        # index a list, which is cheaper than slicing the CSR per call.
        bounds = indptr.tolist()
        self._neighbors: List[np.ndarray] = [
            indices[a:b] for a, b in zip(bounds[:-1], bounds[1:])
        ]
        self._diameter: Optional[int] = None
        if diameter is not None:
            self.set_diameter_hint(diameter)
        # The labelled kernel's byte workspace (see _scratch) and, when
        # its keys fit int32, an int32 copy of ``indices``.
        self._workspace: Optional[np.ndarray] = None
        self._indices32: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

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
        indptr, indices = self._csr
        rows = np.repeat(np.arange(self._n, dtype=np.int64), self._degrees)
        upper = indices > rows
        return list(zip(rows[upper].tolist(), indices[upper].tolist()))

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

        Runs a CSR frontier expansion (one :meth:`gather_neighbors` per
        BFS level) rather than a per-node queue; hop distances are
        unique, so the result is identical to a scalar BFS.  Each call
        is one sweep of :attr:`diameter`.
        """
        dist = np.full(self._n, -1, dtype=np.int64)
        dist[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        while frontier.size:
            nbrs = self.gather_neighbors(frontier)
            frontier = _sorted_unique(nbrs[dist[nbrs] < 0])
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

        Runs iFUB (Crescenzi, Grossi, Habib, Lanzi, Marino, TCS 2013) on
        each connected component: a few :meth:`bfs_distances` sweeps
        instead of one per node.  A disconnected network reports the
        largest eccentricity within any component.  By the paper's
        convention D ≥ 1 even for a single node, so that phase counts
        and logarithms stay well defined.
        """
        if self._diameter is None:
            best = 0
            seen = self._degrees == 0  # isolated nodes: eccentricity 0
            while not seen.all():
                dist = self.bfs_distances(int(np.argmin(seen)))
                component = dist >= 0
                seen |= component
                # a component of s nodes has eccentricities <= s - 1
                if int(np.count_nonzero(component)) - 1 > best:
                    best = max(best, self._ifub(dist))
            self._diameter = max(1, best)
        return self._diameter

    def diameter_scan(self) -> int:
        """:attr:`diameter` by the all-sources sweep, one BFS per node.

        O(n·m).  No code path runs it: it is the oracle that iFUB and
        the generators' closed-form hints are checked against, as
        :meth:`resolve_round_scan` is for the reception kernel.
        """
        return max(1, max(self.eccentricity(v) for v in range(self._n)))

    def _ifub(self, dist: np.ndarray) -> int:
        """The largest eccentricity in the component that ``dist`` (a
        sweep from any of its nodes) reaches.

        The 4-sweep start: twice, sweep from the farthest node ``a`` of
        the last sweep, then from the middle of that longest path.  The
        eccentricities seen are a lower bound ``lb``; ``u`` is the middle
        of smaller eccentricity ``e``.  Every pair of nodes within
        ``i - 1`` hops of ``u`` is at most ``2(i - 1)`` apart, so after
        sweeping from every node of the fringes ``e, e-1, …, i`` of
        ``u`` the answer is ``lb`` as soon as ``lb >= 2(i - 1)``.
        """
        lb = int(dist.max())
        middles = []
        for _ in range(2):
            from_a = self.bfs_distances(int(np.argmax(dist)))
            far = int(np.argmax(from_a))
            dist = self.bfs_distances(self._midpoint(from_a, far))
            lb = max(lb, int(from_a[far]), int(dist.max()))
            middles.append(dist)
        dist = min(middles, key=lambda d: int(d.max()))
        level = int(dist.max())
        while lb < 2 * level:
            for x in np.flatnonzero(dist == level):
                lb = max(lb, self.eccentricity(int(x)))
            level -= 1
        return lb

    def _midpoint(self, dist: np.ndarray, end: int) -> int:
        """The node halfway along a shortest path from the source of the
        sweep ``dist`` to ``end`` (walked back from ``end``)."""
        v = end
        for _ in range(int(dist[end]) - int(dist[end]) // 2):
            nbrs = self._neighbors[v]
            v = int(nbrs[np.argmax(dist[nbrs] == dist[v] - 1)])
        return v

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
        Every stage driver routes its dict rounds through this method,
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
        the CSR kernel.  No driver runs it: it is the oracle the kernel
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
        """CSR adjacency ``(indptr, indices)``, built by the constructor.

        ``indices[indptr[v]:indptr[v+1]]`` is the sorted neighbor list of
        ``v``.  Memory is O(n + m), so this representation is safe at
        columnar scale (n=10^5-10^6).  Do not mutate.
        """
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

        This is the one place that chooses between a driver's direct
        path and its dict loop.  A :class:`RadioNetwork` qualifies when
        its dict reception rule is this class's own: a subclass
        overriding ``resolve_round`` (faults, SINR) must see every round
        as a dict.  Any other object qualifies only when its class
        defines ``admits_vector_path`` and that says yes for it: a
        :class:`~repro.resilience.network.DynamicFaultNetwork` whose
        crashes, link faults and certain jams are masks on the kernel
        (see its docstring).  Every other proxy (recording, churn)
        sees every round as a dict.  Both paths draw the same
        randomness, so the choice changes the speed of a run, never the
        run.  A static method, and the hook looked up on the class,
        because proxies forward unknown attributes to the network they
        wrap, so an instance lookup would answer for the wrapped
        network.  ``resolve_round`` is looked up at call time, so
        replacing the class attribute (tracing wrappers do) keeps the
        vector path.
        """
        if isinstance(network, RadioNetwork):
            return type(network).resolve_round is RadioNetwork.resolve_round
        admits = getattr(type(network), "admits_vector_path", None)
        return admits is not None and admits(network)

    def resolve_round_vector(
        self,
        tx_ids: np.ndarray,
        rounds: Optional[np.ndarray] = None,
        num_rounds: Optional[int] = None,
        listeners: Optional[np.ndarray] = None,
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
        num_rounds:
            How many consecutive rounds the labels stand for (labels lie
            in ``[0, num_rounds)``; a round nobody transmits in still
            elapses).  A network has no clock, so only layers that keep
            one read it (a fault layer advances its clock by it).
        listeners:
            Optional bool array, one entry per node, with ``rounds``
            only: the nodes whose receptions the caller will use.  The
            call then returns exactly the receptions at listening nodes,
            in the same order; incidences at other nodes are dropped
            before any key is built, and only a listening transmitter
            gets a half-duplex sentinel.  A flood passes its uninformed
            nodes, BFS its unreached ones.

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
            if listeners is not None:
                raise ValueError("listeners need round labels")
            return self._resolve_one_round(tx_ids)
        rounds = np.asarray(rounds, dtype=np.int64)
        if rounds.shape != tx_ids.shape:
            raise ValueError("rounds must label every transmitter")
        if listeners is not None:
            listeners = np.asarray(listeners, dtype=bool)
            if listeners.shape != (self._n,):
                raise ValueError("listeners must flag every node")
        return self._resolve_labelled(tx_ids, rounds, listeners)

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
        listeners: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The labelled half of :meth:`resolve_round_vector`.

        Every incidence becomes the key ``(round·n + node)·(T+1) +
        entry`` and every transmitter adds its own ``(round·n + self)``
        key with the sentinel entry ``T``; after one sort, a
        ``(round, node)`` run of length one that is not a sentinel is a
        reception.  Two transmitting neighbors collide, and the sentinel
        joins any run of a transmitting node, so half-duplex needs no
        separate mask.  A reception depends only on the keys of its own
        ``(round, node)``, so dropping the keys of non-listening nodes
        changes no reception at a listener.

        A call of at most :data:`_COMPACT_INCIDENCES` incidences takes
        :meth:`_resolve_compact`.  Larger ones build, sort and decode
        their keys in the network's workspace (:meth:`_scratch`), as
        int32 whenever every key fits (an int32 sort takes half the
        time); per call, only each incidence's entry, an arange of their
        count and the outputs are allocated, plus the kept incidences
        when ``listeners`` is given.
        """
        n = self._n
        n_tx = tx_ids.size
        counts = self._degrees[tx_ids]
        size = int(counts.sum())
        if size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        if rounds.min() < 0:
            raise ValueError("round labels must be non-negative")
        span = n_tx + 1
        bound = (int(rounds.max()) + 1) * n * span
        if bound >= 2**63:
            raise ValueError("too many labelled transmissions for int64 keys")
        if size <= _COMPACT_INCIDENCES:
            return self._resolve_compact(tx_ids, rounds, counts, listeners)
        indptr, indices = self._csr
        if max(bound, indices.size) < 2**31:
            kt = np.int32
            if self._indices32 is None:
                self._indices32 = indices.astype(np.int32)
            indices = self._indices32
        else:
            kt = np.int64
        # ``first`` holds positions, then keys, then entries; ``second``
        # neighbors, then entry bases, then node keys
        first, second, edge, heard = self._scratch(size + n_tx, kt)
        # owner[j]: the entry whose neighbor list incidence j comes from;
        # its position in ``indices`` is j + offset[owner[j]]
        owner = np.repeat(np.arange(n_tx, dtype=kt), counts)
        offset = (indptr[tx_ids] - (np.cumsum(counts) - counts)).astype(kt)
        pos, neighbor = first[:size], second[:size]
        # mode="clip": under the default "raise", take buffers ``out``
        np.take(offset, owner, out=pos, mode="clip")
        pos += np.arange(size, dtype=kt)
        np.take(indices, pos, out=neighbor, mode="clip")
        own = rounds * n + tx_ids
        if listeners is not None:
            keep = listeners[neighbor]
            neighbor, owner = neighbor[keep], owner[keep]
            size = neighbor.size
            own = own[listeners[tx_ids]]
        total = size + own.size
        keys = first[:total]
        np.multiply(neighbor, span, out=keys[:size])
        base = (rounds * (n * span) + np.arange(n_tx)).astype(kt)
        spare = second[:size]
        np.take(base, owner, out=spare, mode="clip")
        keys[:size] += spare
        np.multiply(own, span, out=keys[size:])
        keys[size:] += n_tx
        keys.sort()
        node_key = second[:total]
        np.floor_divide(keys, span, out=node_key)
        # edge[i]: a (round, node) run starts at key i (and edge[-1]: one
        # ends after the last key); a key is alone in its run iff runs
        # start both at it and right after it
        edge, heard = edge[:total + 1], heard[:total]
        edge[0] = edge[-1] = True
        np.not_equal(node_key[1:], node_key[:-1], out=edge[1:-1])
        np.logical_and(edge[:-1], edge[1:], out=heard)
        node_key *= span  # now (round·n + node)·span
        keys -= node_key  # now the entries
        np.not_equal(keys, n_tx, out=edge[:-1])
        heard &= edge[:-1]
        at = np.flatnonzero(heard)
        entries = keys.take(at).astype(np.int64, copy=False)
        labels = rounds.take(entries)
        receivers = node_key.take(at) // span - labels * n
        return receivers, entries, labels

    def _resolve_compact(
        self,
        tx_ids: np.ndarray,
        rounds: np.ndarray,
        counts: np.ndarray,
        listeners: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_resolve_labelled`'s keys on fresh int64 arrays, for a
        call of few incidences (a flood epoch's frontier is tens of
        transmitters): no workspace to carve and no int32 casts."""
        n, n_tx = self._n, tx_ids.size
        span = n_tx + 1
        indptr, indices = self._csr
        owner = np.repeat(np.arange(n_tx), counts)
        start = indptr[tx_ids] - np.cumsum(counts) + counts
        neighbor = indices[start[owner] + np.arange(owner.size)]
        own = rounds * n + tx_ids
        if listeners is not None:
            keep = listeners[neighbor]
            neighbor, owner = neighbor[keep], owner[keep]
            own = own[listeners[tx_ids]]
        node = rounds[owner] * n + neighbor
        keys = np.concatenate((node * span + owner, own * span + n_tx))
        keys.sort()
        node, entry = np.divmod(keys, span)
        # alone[i]: a (round, node) run starts at key i, as ``edge`` above
        alone = np.ones(keys.size + 1, dtype=bool)
        np.not_equal(node[1:], node[:-1], out=alone[1:-1])
        at = np.flatnonzero(alone[:-1] & alone[1:] & (entry != n_tx))
        entries = entry[at]
        labels = rounds[entries]
        return node[at] - labels * n, entries, labels

    def _scratch(self, size: int, dtype: type) -> Tuple[np.ndarray, ...]:
        """Buffers for :meth:`_resolve_labelled`: two ``dtype`` arrays of
        ``size`` and two bool arrays (of ``size + 1`` and ``size``), all
        carved from one byte workspace.

        The workspace is reused across calls.  Fresh per-call
        temporaries of this size would sit above glibc's mmap threshold
        (128 KiB) unless an earlier large free had raised it, so every
        call would map, page-fault and unmap them again.  When a call
        needs more, the workspace at least doubles: growing to each new
        largest call instead took 21 steps per ``rgg-n1k-k64`` execution
        and cost more page faults than the per-call temporaries it
        replaces.  Capacity that no call uses is never written, so it
        is never resident.
        """
        width = 2 * size * np.dtype(dtype).itemsize
        nbytes = width + 2 * size + 1
        if self._workspace is None or self._workspace.size < nbytes:
            grown = 0 if self._workspace is None else 2 * self._workspace.size
            self._workspace = np.empty(max(nbytes, grown), dtype=np.uint8)
        ints = self._workspace[:width].view(dtype)
        flags = self._workspace[width:nbytes].view(bool)
        return ints[:size], ints[size:], flags[:size + 1], flags[size + 1:]

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
