"""Shared wall-clock measurement helpers for the P-series benchmarks.

Used by three consumers that must agree on methodology:

- ``bench_perf_simulator.py --json`` (baseline capture),
- ``bench_p2_perf_guard.py`` (the regression guard),
- ``bench_p3_columnar_scaling.py`` (the columnar scaling study).

Methodology notes baked in here so every consumer inherits them:

- best-of-N timing (min over repetitions) — robust to scheduler noise;
- the integrity-layer ``lru_cache``s are cleared before every timed
  end-to-end run: the caches are global, so whichever leg ran first
  would otherwise warm them for the second and bias the comparison;
- comparisons always run both sides on the *same* prebuilt inputs (same
  CSR adjacency, same transmission patterns, same packet workload) so
  only the resolver/kernel or the stage drivers' path differs.  The
  dict-loop leg of an end-to-end comparison runs on a
  :class:`DictLoopNetwork` over the direct leg's CSR.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from repro import MultipleMessageBroadcast, RadioNetwork
from repro.coding import integrity
from repro.coding.gf2 import (
    gf2_rank,
    gf2_rank_packed,
    gf2_solve,
    gf2_solve_packed,
    pack_int_u64,
    pack_rows,
    pack_rows_u64,
    random_binary_matrix,
    words_for,
)
from repro.experiments.workloads import uniform_random_placement
from repro.topology import grid, random_geometric

#: Bumped whenever the measured quantities change shape.
#: Schema 2 adds the columnar grid end-to-end sample and the
#: ``topology`` field on end-to-end measurements.  Schema 3 renames the
#: ``reference`` legs to ``dict_loop`` and each measurement's ``engine``
#: field to ``path`` (``"direct"`` or ``"dict_loop"``).
BASELINE_SCHEMA = 3


class DictLoopNetwork(RadioNetwork):
    """``base``'s CSR (shared, not copied) behind a ``resolve_round``
    override, so every stage driver takes its dict loop
    (:meth:`RadioNetwork.vector_capable` is false for a subclass that
    overrides ``resolve_round``).  Unlike ``RecordingNetwork`` it keeps
    no transcript, so the dict-loop leg times only the dict loop."""

    def __init__(self, base: RadioNetwork):
        indptr, indices = base.csr_adjacency()
        self._adopt_csr(
            indptr, indices, name=f"dict_loop({base.name})",
            diameter=base.diameter,
        )

    def resolve_round(self, transmissions):
        return RadioNetwork.resolve_round(self, transmissions)


def best_of(fn: Callable[[], object], reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def interleaved_ratio(
    slow: Callable[[], object], fast: Callable[[], object], reps: int
) -> Dict[str, float]:
    """Time two callables strictly interleaved, ``reps`` times each.

    Returns min times plus the **median of the per-repetition ratios**
    as the speedup.  Each ratio pairs two adjacent timings, so host
    throughput drift (turbo states, co-tenants) cancels within the
    pair; the median then rejects the odd corrupted repetition.  On the
    1-core CI-ish hosts this suite runs on, min-over-all-reps ratios
    swing by 30%+ run to run — median-of-paired-ratios is what makes a
    20% regression gate usable at all.
    """
    ratios: List[float] = []
    best_slow = best_fast = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        slow()
        t_slow = time.perf_counter() - t0
        t0 = time.perf_counter()
        fast()
        t_fast = time.perf_counter() - t0
        best_slow = min(best_slow, t_slow)
        best_fast = min(best_fast, t_fast)
        ratios.append(t_slow / t_fast)
    ratios.sort()
    mid = len(ratios) // 2
    median = (
        ratios[mid]
        if len(ratios) % 2
        else (ratios[mid - 1] + ratios[mid]) / 2
    )
    return {"slow": best_slow, "fast": best_fast, "speedup": median}


def clear_integrity_caches() -> None:
    """Reset the global memoization caches (see module docstring)."""
    integrity.packet_checksum.cache_clear()
    integrity._auth_tag_cached.cache_clear()
    integrity.node_auth_key.cache_clear()


def contention_patterns(net, t: int, rounds: int, seed: int = 0) -> List[dict]:
    rng = np.random.default_rng(seed)
    return [
        {int(v): "m" for v in rng.choice(net.n, size=t, replace=False)}
        for _ in range(rounds)
    ]


def measure_resolver(
    n: int, t: int, rounds: int = 100, seed: int = 21, reps: int = 3
) -> Dict[str, float]:
    """Heavy-contention resolver replay: the per-transmitter scan
    (``resolve_round_scan``) against the CSR kernel's dict adapter
    (``resolve_round``), same patterns.

    Interleaved per repetition, median per-pair ratio — see
    :func:`interleaved_ratio`.
    """
    net = random_geometric(n, seed=seed)
    patterns = contention_patterns(net, t, rounds)

    def replay(resolve):
        for tx in patterns:
            resolve(tx)

    stats = interleaved_ratio(
        lambda: replay(net.resolve_round_scan),
        lambda: replay(net.resolve_round),
        reps,
    )
    return {
        "n": n, "t": t, "rounds": rounds,
        "scan": stats["slow"], "kernel": stats["fast"],
        "speedup": stats["speedup"],
    }


def measure_rank(size: int, seed: int = 1, reps: int = 5) -> Dict[str, float]:
    """Square GF(2) rank: pure-python bigint rows vs packed uint64."""
    matrix = random_binary_matrix(size, size, seed=seed)
    ints = pack_rows(matrix)
    packed = pack_rows_u64(matrix)
    assert gf2_rank(ints) == gf2_rank_packed(packed, size)
    stats = interleaved_ratio(
        lambda: gf2_rank(ints),
        lambda: gf2_rank_packed(packed, size),
        reps,
    )
    return {
        "size": size, "pure": stats["slow"], "packed": stats["fast"],
        "speedup": stats["speedup"],
    }


def measure_solve(
    width: int, extra_rows: int = 48, payload_bits: int = 512,
    seed: int = 2, reps: int = 5,
) -> Dict[str, float]:
    """Full GF(2) payload recovery for ``width`` unknowns (the k=...
    decode problem): pure-python vs packed, verified equal."""
    rng = np.random.default_rng(seed)
    truth = [
        int.from_bytes(rng.bytes(payload_bits // 8), "little")
        for _ in range(width)
    ]
    matrix = random_binary_matrix(width + extra_rows, width, seed=seed + 1)
    rows = pack_rows(matrix)
    payloads = []
    for r in rows:
        acc = 0
        j = 0
        while r:
            if r & 1:
                acc ^= truth[j]
            r >>= 1
            j += 1
        payloads.append(acc)
    packed_rows = pack_rows_u64(matrix)
    pay_words = words_for(payload_bits)
    packed_pays = np.stack([pack_int_u64(p, pay_words) for p in payloads])
    sol = gf2_solve_packed(packed_rows, packed_pays, width)
    assert sol is not None and gf2_solve(rows, payloads, width) is not None
    stats = interleaved_ratio(
        lambda: gf2_solve(rows, payloads, width),
        lambda: gf2_solve_packed(packed_rows, packed_pays, width),
        reps,
    )
    return {
        "width": width, "pure": stats["slow"], "packed": stats["fast"],
        "speedup": stats["speedup"],
    }


def build_network(topology: str, n: int, seed: int = 21):
    """Build a benchmark topology with its analytics pre-warmed.

    ``grid`` picks the most-square ``rows x cols`` factorization of n
    (10^4 -> 100x100, 10^5 -> 250x400).  The exact diameter is computed
    here — outside any timed region — so end-to-end timings measure the
    protocol, not graph analytics (the generators hint grid diameters
    in closed form; an RGG's takes a few dozen BFS sweeps).
    """
    if topology == "grid":
        rows = int(np.sqrt(n))
        while n % rows:
            rows -= 1
        net = grid(rows, n // rows)
    elif topology == "rgg":
        net = random_geometric(n, seed=seed)
    else:
        raise ValueError(f"unknown benchmark topology {topology!r}")
    net.diameter
    return net


def measure_end_to_end(
    n: int, k: int, dict_loop: bool = False,
    topo_seed: int = 21, workload_seed: int = 7, algo_seed: int = 123,
    topology: str = "rgg", net=None,
) -> Dict[str, float]:
    """One full four-stage multibroadcast, cold integrity caches.

    ``dict_loop`` runs it on a :class:`DictLoopNetwork` over the same
    CSR, so every stage takes its dict loop; otherwise the bare network
    lets every stage take its direct path.  Both give the identical run.
    Pass a prebuilt ``net`` (from :func:`build_network`) to compare the
    two on the identical adjacency without paying the build cost per
    measurement.
    """
    if net is None:
        net = build_network(topology, n, seed=topo_seed)
    if dict_loop:
        net = DictLoopNetwork(net)
    packets = uniform_random_placement(net, k=k, seed=workload_seed)
    clear_integrity_caches()
    t0 = time.perf_counter()
    result = MultipleMessageBroadcast(net, seed=algo_seed).run(packets)
    elapsed = time.perf_counter() - t0
    assert result.success
    return {
        "n": n,
        "k": k,
        "path": "dict_loop" if dict_loop else "direct",
        "topology": topology,
        "seconds": elapsed,
        "rounds": result.total_rounds,
    }


def collect_baseline() -> dict:
    """The pinned measurement set the regression guard checks against.

    Kept deliberately small (a few seconds) so re-capturing a baseline
    is cheap.  Speedup ratios are the hardware-robust quantities; the
    absolute times are recorded for human reference only.  The resolver
    measurement — the one with real run-to-run ratio variance — is
    pinned as the median-speedup sample of three.
    """
    samples = sorted(
        (measure_resolver(500, 350, rounds=150, reps=5) for _ in range(3)),
        key=lambda s: s["speedup"],
    )
    resolver = samples[1]
    rank = measure_rank(1024)
    solve = measure_solve(512)
    measure_end_to_end(100, 32, dict_loop=True)  # discarded warmup:
    # the first multibroadcast in a process pays one-time import/cache
    # costs that would otherwise be booked against whichever leg runs
    # first
    e2e_dict = measure_end_to_end(100, 32, dict_loop=True)
    grid_net = build_network("grid", 900)
    e2e_grid_col = measure_end_to_end(
        900, 24, topology="grid", net=grid_net
    )
    e2e_grid_dict = measure_end_to_end(
        900, 24, dict_loop=True, topology="grid", net=grid_net
    )
    return {
        "schema": BASELINE_SCHEMA,
        "resolver_n500_t350": resolver,
        "rank_1024": rank,
        "solve_512": solve,
        "end_to_end_n100_k32": {"dict_loop": e2e_dict},
        "end_to_end_grid_n900_k24": {
            "dict_loop": e2e_grid_dict,
            "columnar": e2e_grid_col,
            "speedup": e2e_grid_dict["seconds"] / e2e_grid_col["seconds"],
        },
    }
