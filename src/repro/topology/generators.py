"""Graph generators.

Each generator returns a connected :class:`RadioNetwork`.  Random generators
take either a seed or a ``numpy.random.Generator`` and are reproducible.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.radio.errors import TopologyError
from repro.radio.network import RadioNetwork
from repro.radio.rng import SeedLike, make_rng


def line(n: int) -> RadioNetwork:
    """Path on ``n`` nodes: the extreme large-``D`` topology (D = n-1)."""
    if n < 1:
        raise TopologyError("line requires n >= 1")
    edges = [(i, i + 1) for i in range(n - 1)]
    return RadioNetwork(
        edges, n=n, name=f"line(n={n})", diameter_hint=max(1, n - 1)
    )


def ring(n: int) -> RadioNetwork:
    """Cycle on ``n`` nodes (n >= 3)."""
    if n < 3:
        raise TopologyError("ring requires n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return RadioNetwork(
        edges, n=n, name=f"ring(n={n})", diameter_hint=n // 2
    )


def star(n: int) -> RadioNetwork:
    """Star with hub 0: the extreme large-``Δ`` topology (Δ = n-1, D <= 2)."""
    if n < 2:
        raise TopologyError("star requires n >= 2")
    edges = [(0, i) for i in range(1, n)]
    return RadioNetwork(
        edges, n=n, name=f"star(n={n})",
        diameter_hint=1 if n == 2 else 2,
    )


def clique(n: int) -> RadioNetwork:
    """Complete graph: single-hop radio channel (D = 1, Δ = n-1)."""
    if n < 2:
        raise TopologyError("clique requires n >= 2")
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return RadioNetwork(
        edges, n=n, name=f"clique(n={n})", diameter_hint=1
    )


def grid(rows: int, cols: int) -> RadioNetwork:
    """4-neighbor mesh: Δ = 4, D = rows + cols - 2."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid requires positive dimensions")
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return RadioNetwork(
        edges, n=rows * cols, name=f"grid({rows}x{cols})",
        diameter_hint=max(1, rows + cols - 2),
    )


def balanced_tree(branching: int, depth: int) -> RadioNetwork:
    """Complete ``branching``-ary tree of the given depth (root = node 0)."""
    if branching < 1 or depth < 0:
        raise TopologyError("balanced_tree requires branching >= 1, depth >= 0")
    edges: List[Tuple[int, int]] = []
    next_id = 1
    frontier = [0]
    for _ in range(depth):
        new_frontier = []
        for parent in frontier:
            for _ in range(branching):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return RadioNetwork(
        edges, n=next_id, name=f"tree(b={branching},d={depth})"
    )


def caterpillar(spine: int, legs: int) -> RadioNetwork:
    """A path of ``spine`` nodes, each with ``legs`` pendant leaves.

    Combines large D (the spine) with nontrivial Δ (legs + 2): useful for
    exercising the collection stage's unicast contention.
    """
    if spine < 1 or legs < 0:
        raise TopologyError("caterpillar requires spine >= 1, legs >= 0")
    edges: List[Tuple[int, int]] = [(i, i + 1) for i in range(spine - 1)]
    next_id = spine
    for s in range(spine):
        for _ in range(legs):
            edges.append((s, next_id))
            next_id += 1
    return RadioNetwork(
        edges, n=next_id, name=f"caterpillar(spine={spine},legs={legs})"
    )


def barbell(clique_size: int, path_length: int) -> RadioNetwork:
    """Two cliques joined by a path: simultaneously large Δ and large D."""
    if clique_size < 2 or path_length < 0:
        raise TopologyError("barbell requires clique_size >= 2, path_length >= 0")
    edges: List[Tuple[int, int]] = []
    # left clique on [0, clique_size)
    for i in range(clique_size):
        for j in range(i + 1, clique_size):
            edges.append((i, j))
    # path
    prev = 0
    next_id = clique_size
    for _ in range(path_length):
        edges.append((prev, next_id))
        prev = next_id
        next_id += 1
    # right clique on [next_id, next_id + clique_size)
    right = list(range(next_id, next_id + clique_size))
    for i in range(len(right)):
        for j in range(i + 1, len(right)):
            edges.append((right[i], right[j]))
    edges.append((prev, right[0]))
    return RadioNetwork(
        edges,
        n=next_id + clique_size,
        name=f"barbell(c={clique_size},p={path_length})",
    )


def random_geometric(
    n: int,
    radius: Optional[float] = None,
    seed: SeedLike = None,
    max_attempts: int = 50,
) -> RadioNetwork:
    """Random geometric graph (unit-disk) on the unit square.

    ``n`` points are placed uniformly at random; nodes within ``radius``
    are connected.  The default radius is slightly above the connectivity
    threshold ``sqrt(ln n / (pi n))``; disconnected draws are retried.
    This is the standard model of an ad-hoc wireless deployment.
    """
    if n < 1:
        raise TopologyError("random_geometric requires n >= 1")
    rng = make_rng(seed)
    if radius is None:
        radius = 1.3 * math.sqrt(math.log(max(n, 2)) / (math.pi * n))

    for _ in range(max_attempts):
        points = rng.random((n, 2))
        try:
            return RadioNetwork(
                _disk_edges(points, radius),
                n=n,
                name=f"rgg(n={n},r={radius:.3f})",
            )
        except TopologyError:
            continue
    raise TopologyError(
        f"could not draw a connected RGG(n={n}, r={radius:.3f}) "
        f"in {max_attempts} attempts; increase the radius"
    )


#: Cell side over radius in :func:`_disk_edges`.  Above 1, so that the
#: rounding of cell coordinates cannot split a pair within ``radius``
#: across non-adjacent cells.
_CELL_MARGIN = 1.0 + 1e-6

#: At most about this many cells per axis (wider cells beyond), so that
#: packed cell ids fit in int64 and coordinates stay exact enough for
#: the margin above.
_MAX_CELLS = 1 << 20


def _disk_edges(points: np.ndarray, radius: float) -> np.ndarray:
    """Unit-disk edges of a point cloud: an ``(m, 2)`` int64 array of
    pairs ``u < v`` in ascending order, joining the points whose squared
    distance ``dx*dx + dy*dy`` is at most ``radius * radius``.

    Points are binned into cells of side at least ``radius``, so only
    pairs in the same or adjacent cells are candidates: O(n·Δ) time and
    memory instead of the n×n distance matrix.  The distance test is the
    float expression that matrix evaluated, so the edge set is identical.
    """
    n = points.shape[0]
    if n == 0:
        return np.zeros((0, 2), dtype=np.int64)
    lo = points.min(axis=0)
    side = np.maximum(
        (points.max(axis=0) - lo) / _MAX_CELLS, abs(radius) * _CELL_MARGIN
    )
    side[side == 0] = 1.0  # radius 0 and all points level on this axis
    coord = ((points - lo) / side).astype(np.int64)
    cells = coord.max(axis=0) + 1
    cell = coord[:, 0] * cells[1] + coord[:, 1]
    order = np.argsort(cell, kind="stable")
    cell, coord, sorted_points = cell[order], coord[order], points[order]
    here = np.arange(n, dtype=np.int64)
    end = np.searchsorted(cell, cell, side="right")
    # candidates (i, j), positions in the sorted order: j after i in its
    # own cell, or j anywhere in one of the four cells ahead of i's
    firsts = [here + 1]
    lasts = [end]
    for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1)):
        cx, cy = coord[:, 0] + dx, coord[:, 1] + dy
        inside = (cx < cells[0]) & (cy >= 0) & (cy < cells[1])
        target = cx * cells[1] + cy
        firsts.append(np.searchsorted(cell, target, side="left"))
        lasts.append(
            np.where(inside, np.searchsorted(cell, target, side="right"), 0)
        )
    first = np.concatenate(firsts)
    counts = np.maximum(np.concatenate(lasts) - first, 0)
    total = int(counts.sum())
    i = np.repeat(np.tile(here, len(firsts)), counts)
    j = np.arange(total, dtype=np.int64) + np.repeat(
        first - (np.cumsum(counts) - counts), counts
    )
    delta = sorted_points[i] - sorted_points[j]
    close = (
        delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1]
        <= radius * radius
    )
    u, v = order[i[close]], order[j[close]]
    pairs = np.stack((np.minimum(u, v), np.maximum(u, v)), axis=1)
    return pairs[np.argsort(pairs[:, 0] * n + pairs[:, 1])]


def _edge_tuples(pairs: np.ndarray) -> List[Tuple[int, int]]:
    """An ``(m, 2)`` pair array as a list of int tuples."""
    return list(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))


def mobile_rgg(
    n: int,
    epochs: int,
    radius: Optional[float] = None,
    step: float = 0.05,
    seed: SeedLike = None,
    max_attempts: int = 50,
) -> Tuple[RadioNetwork, List[List[Tuple[int, int]]]]:
    """A mobility trace: per-epoch unit-disk edge sets under random walk.

    Epoch 0 is a connected RGG exactly as :func:`random_geometric` draws
    it; in each later epoch every node takes a Gaussian step of scale
    ``step`` (clipped to the unit square) and the disk graph is
    recomputed.  Returns the **footprint** network (the union of every
    epoch's edges — connected because epoch 0 is) plus the per-epoch
    edge sets; lower the pair to a churn schedule with
    :func:`repro.dynamic.churn.churn_from_mobility`.

    Later epochs may individually be disconnected — that is the point:
    mobility partitions are real scenarios the repair and oracle layers
    must survive.
    """
    if n < 1:
        raise TopologyError("mobile_rgg requires n >= 1")
    if epochs < 1:
        raise TopologyError("mobile_rgg requires epochs >= 1")
    if step < 0:
        raise TopologyError("mobile_rgg requires step >= 0")
    rng = make_rng(seed)
    if radius is None:
        radius = 1.3 * math.sqrt(math.log(max(n, 2)) / (math.pi * n))

    points: Optional[np.ndarray] = None
    edges0: List[Tuple[int, int]] = []
    for _ in range(max_attempts):
        candidate = rng.random((n, 2))
        candidate_edges = _disk_edges(candidate, radius)
        try:
            RadioNetwork(candidate_edges, n=n, name="probe")
        except TopologyError:
            continue
        points = candidate
        edges0 = _edge_tuples(candidate_edges)
        break
    if points is None:
        raise TopologyError(
            f"could not draw a connected RGG(n={n}, r={radius:.3f}) "
            f"in {max_attempts} attempts; increase the radius"
        )

    edge_sets: List[List[Tuple[int, int]]] = [edges0]
    for _ in range(1, epochs):
        points = np.clip(points + rng.normal(0.0, step, size=(n, 2)), 0.0, 1.0)
        edge_sets.append(_edge_tuples(_disk_edges(points, radius)))

    footprint = sorted(set().union(*[set(es) for es in edge_sets]))
    network = RadioNetwork(
        footprint, n=n,
        name=f"mobile_rgg(n={n},r={radius:.3f},epochs={epochs})",
    )
    return network, edge_sets


def random_connected_gnp(
    n: int,
    p: Optional[float] = None,
    seed: SeedLike = None,
    max_attempts: int = 50,
) -> RadioNetwork:
    """Erdős–Rényi G(n, p), retried until connected.

    Default ``p`` is twice the connectivity threshold ``ln n / n``.
    """
    if n < 1:
        raise TopologyError("random_connected_gnp requires n >= 1")
    rng = make_rng(seed)
    if p is None:
        p = min(1.0, 2.0 * math.log(max(n, 2)) / n)

    for _ in range(max_attempts):
        iu = np.triu_indices(n, k=1)
        mask = rng.random(len(iu[0])) < p
        edges = list(zip(iu[0][mask].tolist(), iu[1][mask].tolist()))
        try:
            return RadioNetwork(edges, n=n, name=f"gnp(n={n},p={p:.3f})")
        except TopologyError:
            continue
    raise TopologyError(
        f"could not draw a connected G(n={n}, p={p:.3f}) "
        f"in {max_attempts} attempts; increase p"
    )


def hypercube(dimension: int) -> RadioNetwork:
    """Boolean hypercube on ``2^dimension`` nodes: Δ = D = dimension.

    The regime where logΔ and log n coincide (Δ = log2 n) — useful for
    separating the bounds' logΔ and log n factors.
    """
    if dimension < 1:
        raise TopologyError("hypercube requires dimension >= 1")
    n = 1 << dimension
    edges = [
        (v, v ^ (1 << b))
        for v in range(n)
        for b in range(dimension)
        if v < v ^ (1 << b)
    ]
    return RadioNetwork(
        edges, n=n, name=f"hypercube(d={dimension})",
        diameter_hint=dimension,
    )


def torus(rows: int, cols: int) -> RadioNetwork:
    """2-D torus (wrap-around grid): Δ = 4, D = ⌊rows/2⌋ + ⌊cols/2⌋.

    Like :func:`grid` but vertex-transitive — no boundary effects, so
    every node sees identical contention statistics.
    """
    if rows < 3 or cols < 3:
        raise TopologyError("torus requires rows, cols >= 3")
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    return RadioNetwork(
        edges, n=rows * cols, name=f"torus({rows}x{cols})",
        diameter_hint=rows // 2 + cols // 2,
    )
