"""Simulator performance microbenchmarks (wall time, not rounds).

Unlike the E/A experiments — which measure *rounds*, the model's cost
unit — these time the simulator itself, so performance regressions in the
hot paths (the collision resolver, Decay epochs, the RLNC decoder, a full
small multi-broadcast) are caught by the benchmark history.

The comparisons at the bottom pin the reception kernel's lead over the
per-transmitter scan under heavy contention, the packed GF(2) solver's
lead on wide systems, and the full n=500, k=128 multibroadcast on the
stage drivers' dict loops (floored by the protocol loop itself — see
DESIGN.md).

Run directly with ``--json PATH`` to capture the regression-guard
baseline checked by ``bench_p2_perf_guard.py``::

    PYTHONPATH=src python benchmarks/bench_perf_simulator.py \
        --json benchmarks/results/perf_baseline.json
"""

import numpy as np

from repro import MultipleMessageBroadcast
from repro.coding.packets import make_packets
from repro.coding.rlnc import GroupDecoder, SubsetXorEncoder
from repro.experiments.workloads import uniform_random_placement
from repro.primitives.bgi_broadcast import bgi_broadcast
from repro.primitives.decay import run_decay_epoch
from repro.topology import grid, random_geometric

import _perf


def test_perf_resolve_round_single_transmitter(benchmark):
    net = grid(12, 12)

    def run():
        total = 0
        for v in range(net.n):
            total += len(net.resolve_round({v: "m"}))
        return total

    assert benchmark(run) == 2 * net.num_edges


def test_perf_resolve_round_heavy_contention(benchmark):
    net = random_geometric(150, seed=1)
    rng = np.random.default_rng(0)
    tx_sets = [
        {int(v): "m" for v in rng.choice(net.n, size=40, replace=False)}
        for _ in range(50)
    ]

    def run():
        return sum(len(net.resolve_round(tx)) for tx in tx_sets)

    benchmark(run)


def test_perf_decay_epoch(benchmark):
    net = random_geometric(100, seed=2)
    participants = list(range(0, net.n, 2))
    rng = np.random.default_rng(3)

    def run():
        return run_decay_epoch(net, participants, lambda v, s: v, rng)

    benchmark(run)


def test_perf_bgi_broadcast(benchmark):
    net = grid(8, 8)

    def run():
        return bgi_broadcast(
            net, [0], np.random.default_rng(4), epochs=40, stop_early=True
        )

    result = benchmark(run)
    assert result.complete


def test_perf_rlnc_decoder(benchmark):
    packets = make_packets([0] * 10, size_bits=64, seed=5)
    enc = SubsetXorEncoder(0, packets)
    rng = np.random.default_rng(6)
    stream = [enc.encode(rng) for _ in range(400)]

    def run():
        dec = GroupDecoder(0, 10)
        for msg in stream:
            dec.absorb(msg)
        return dec

    dec = benchmark(run)
    assert dec.is_complete


def test_perf_full_multibroadcast_small(benchmark):
    net = grid(4, 4)
    packets = uniform_random_placement(net, k=8, seed=7)

    def run():
        return MultipleMessageBroadcast(net, seed=8).run(packets)

    result = benchmark(run)
    assert result.success


# ----------------------------------------------------------------------
# Kernel and packed-solver comparisons
# ----------------------------------------------------------------------


def test_perf_resolver_engines_heavy_contention(benchmark):
    """n=500, most of the network transmitting: the CSR kernel against
    the per-transmitter scan.  Asserts the >=5x headline speedup
    (interleaved per repetition — see _perf.measure_resolver)."""
    stats = _perf.measure_resolver(500, 350, rounds=150, reps=5)
    benchmark.extra_info.update(stats)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert stats["speedup"] >= 5.0, (
        f"resolver speedup {stats['speedup']:.1f}x < 5x: {stats}"
    )


def test_perf_gf2_solve_wide(benchmark):
    """k=512 payload recovery: packed uint64 solve, cross-checked and
    compared against the pure-python bigint solver."""
    stats = benchmark.pedantic(
        lambda: _perf.measure_solve(512), rounds=1, iterations=1
    )
    benchmark.extra_info.update(stats)
    assert stats["speedup"] >= 1.5, stats


def test_perf_multibroadcast_n500_k128_dict_loop(benchmark):
    """The n=500, k=128 workload on the dict loops.  Runs exactly once
    (benchmark.pedantic): the workload is seconds-scale."""
    def run():
        return _perf.measure_end_to_end(500, 128, dict_loop=True)

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(stats)
    assert stats["rounds"] == 48978  # pinned RNG stream


if __name__ == "__main__":
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="Capture the perf-guard baseline JSON."
    )
    parser.add_argument("--json", metavar="PATH", required=True)
    cli = parser.parse_args()
    baseline = _perf.collect_baseline()
    with open(cli.json, "w") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(baseline, indent=2, sort_keys=True))
