"""P3 — columnar engine scaling study (tier-2).

The columnar drivers run whole protocol stages as array programs
(batched Decay schedules, CSR reception gathers, batched GF(2) rank
updates), so the per-round Python interpreter cost that floors the
reference engine's end-to-end time (see DESIGN.md) is amortized away.
Four measurements:

1. two-engine grid sweep at small/medium n — the honest baseline
   comparison, both engines on the same prebuilt network;
2. a cross-topology RGG check (irregular degrees exercise the CSR
   gather's ragged rows) — both engines, equal round counts;
3. the flagship: columnar vs reference on the honest grid at n=10^4,
   where the columnar engine must clear 10x end-to-end;
4. a scale demonstration: n=10^5 (grid 250x400), columnar only — the
   regime the reference engine's dict loop cannot reach in benchmark
   time at all;
5. an honest RGG at n=10^4, columnar only, with its set-up (cell-binned
   edges plus the exact iFUB diameter) timed next to the run.

Round counts are asserted equal across engines wherever two engines run
the same workload: both engines draw their randomness in one canonical
order, so they give the identical run (``tests/test_engine_equivalence.py``
holds them to equal digests); the reference engine just keeps every
stage on its dict loop.

Each sweep emits a results table; combined measurements land in
``benchmarks/results/p3_columnar_scaling.json`` (the CI perf artifact).
Set ``P3_SMOKE=1`` to skip the large legs (CI runs the smoke form;
the committed JSON is from a full local run).
"""

import json
import os
import time

import pytest

import _perf
from _common import RESULTS_DIR, emit_table

GRID_SWEEP = [(900, 24), (2500, 24)]
RGG_CHECK = (1000, 24)
FLAGSHIP = (10_000, 24)  # grid 100x100, columnar vs reference
SCALE_DEMO = (100_000, 24)  # grid 250x400, columnar only
RGG_10K = (10_000, 24)  # honest RGG, columnar only

#: The flagship acceptance: columnar must beat reference end-to-end by
#: at least this factor on the honest grid at n=10^4.
MIN_FLAGSHIP_SPEEDUP = 10.0

JSON_PATH = os.path.join(RESULTS_DIR, "p3_columnar_scaling.json")

SMOKE = os.environ.get("P3_SMOKE") == "1"


def _dump_artifact(section: str, payload) -> None:
    """Merge one sweep's measurements into the JSON artifact."""
    data = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH) as fh:
            data = json.load(fh)
    data[section] = payload
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _both_engines(topology, n, k):
    net = _perf.build_network(topology, n)
    out = {}
    for engine in ("columnar", "reference"):
        out[engine] = _perf.measure_end_to_end(
            n, k, engine, topology=topology, net=net
        )
    rounds = {s["rounds"] for s in out.values()}
    assert len(rounds) == 1, out  # same outcome, engine-independent
    return out


def test_p3_two_engine_grid_sweep(benchmark):
    rows = []
    stats = []
    for n, k in GRID_SWEEP:
        s = _both_engines("grid", n, k)
        stats.append(s)
        rows.append(
            [n, k, s["columnar"]["rounds"],
             f"{s['reference']['seconds']:.2f}",
             f"{s['columnar']['seconds']:.2f}",
             f"{s['reference']['seconds'] / s['columnar']['seconds']:.1f}x"]
        )
    emit_table(
        "p3_grid_sweep",
        ["n", "k", "rounds", "reference (s)", "columnar (s)",
         "col vs ref"],
        rows,
        "P3a: full multibroadcast on grids, both engines",
        notes="Same network object per row; cold integrity caches.",
    )
    _dump_artifact("grid_sweep", stats)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # the columnar advantage must already be real at medium n
    top = stats[-1]
    assert top["reference"]["seconds"] / top["columnar"]["seconds"] >= 3.0, top


def test_p3_rgg_cross_topology(benchmark):
    n, k = RGG_CHECK
    s = _both_engines("rgg", n, k)
    emit_table(
        "p3_rgg_cross_topology",
        ["n", "k", "rounds", "reference (s)", "columnar (s)"],
        [[n, k, s["columnar"]["rounds"],
          f"{s['reference']['seconds']:.2f}",
          f"{s['columnar']['seconds']:.2f}"]],
        "P3b: RGG cross-check (irregular degrees, ragged CSR rows)",
    )
    _dump_artifact("rgg_cross_topology", s)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert s["reference"]["seconds"] / s["columnar"]["seconds"] >= 1.2, s


@pytest.mark.skipif(SMOKE, reason="P3_SMOKE=1 skips the large legs")
def test_p3_flagship_grid_10k(benchmark):
    n, k = FLAGSHIP
    net = _perf.build_network("grid", n)
    col = _perf.measure_end_to_end(n, k, "columnar", topology="grid", net=net)
    ref = _perf.measure_end_to_end(n, k, "reference", topology="grid", net=net)
    assert col["rounds"] == ref["rounds"]
    speedup = ref["seconds"] / col["seconds"]
    emit_table(
        "p3_flagship_10k",
        ["n", "k", "rounds", "reference (s)", "columnar (s)", "speedup"],
        [[n, k, col["rounds"], f"{ref['seconds']:.1f}",
          f"{col['seconds']:.1f}", f"{speedup:.1f}x"]],
        "P3c: flagship — honest grid at n=10^4, columnar vs reference",
    )
    _dump_artifact(
        "flagship_10k",
        {"columnar": col, "reference": ref, "speedup": speedup},
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert speedup >= MIN_FLAGSHIP_SPEEDUP, (speedup, col, ref)


@pytest.mark.skipif(SMOKE, reason="P3_SMOKE=1 skips the large legs")
def test_p3_scale_demo_100k(benchmark):
    """n=10^5: completes in minutes under the columnar engine.  The
    reference engine is not run — extrapolating the flagship ratio puts
    reference at multiple hours for this workload."""
    n, k = SCALE_DEMO
    col = _perf.measure_end_to_end(n, k, "columnar", topology="grid")
    emit_table(
        "p3_scale_demo_100k",
        ["n", "k", "rounds", "columnar (s)"],
        [[n, k, col["rounds"], f"{col['seconds']:.1f}"]],
        "P3d: scale demonstration — grid 250x400, columnar only",
    )
    _dump_artifact("scale_demo_100k", col)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert col["rounds"] > 0


@pytest.mark.skipif(SMOKE, reason="P3_SMOKE=1 skips the large legs")
def test_p3_rgg_10k(benchmark):
    """An honest RGG at n=10^4, columnar only.  Its set-up (binned unit-
    disk edges, array CSR, exact iFUB diameter) is timed and recorded
    next to the run: an RGG this size was out of reach while set-up
    needed the n×n distance array and one BFS per node."""
    n, k = RGG_10K
    t0 = time.perf_counter()
    net = _perf.build_network("rgg", n)
    setup_s = time.perf_counter() - t0
    col = _perf.measure_end_to_end(n, k, "columnar", topology="rgg", net=net)
    col.update(setup_seconds=setup_s, diameter=net.diameter)
    emit_table(
        "p3_rgg_10k",
        ["n", "k", "D", "rounds", "build + diameter (s)", "columnar (s)"],
        [[n, k, net.diameter, col["rounds"], f"{setup_s:.2f}",
          f"{col['seconds']:.1f}"]],
        "P3e: honest RGG at n=10^4, columnar only",
    )
    _dump_artifact("rgg_10k", col)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert col["rounds"] > 0
