"""Fault schedules on the direct path: exact against the dict loop.

A :class:`DynamicFaultNetwork` over a bare network applies crashes, link
faults and probability-1 jams as masks on the CSR kernel, so the stage
drivers keep their direct paths under :class:`SupervisedBroadcast`.
Each case runs a schedule twice: over the bare network (direct paths)
and over the same network behind a :class:`RecordingNetwork` (every
dict loop).  The two must agree in every :class:`SupervisedResult`
field, the fault counters, the clock, the stamped events and the final
generator state; counting ``resolve_round_vector`` calls shows which
path each run took.

Concrete rounds are read from the clock at the stage boundaries of the
same run without faults: nothing differs before the first fault, so a
fault scheduled a few rounds past a boundary lands inside that stage.
Each case checks that its events were applied at the round they name,
which only a reception call of that stage can do.

Layers that draw randomness or watch every round (a jam of probability
below 1, an adversary, insiders, a trace, a transcribing subclass) keep
the dict loop: their cases make no vector call at all.
"""

import dataclasses
import json
from typing import Callable, Dict, NamedTuple

import numpy as np
import pytest

from repro import SupervisedBroadcast, grid, uniform_random_placement
from repro.core.config import AlgorithmParameters
from repro.radio.network import RadioNetwork
from repro.radio.transcript import RecordingNetwork
from repro.resilience import make_adversary, random_byzantine_set
from repro.resilience.chaos.runner import TranscribingFaultNetwork
from repro.resilience.network import DynamicFaultNetwork
from repro.resilience.schedule import FaultSchedule, random_crash_schedule
from repro.topology import random_geometric


@pytest.fixture
def vector_calls(monkeypatch):
    """Counts ``RadioNetwork.resolve_round_vector`` calls (the fault
    layer's batches reach the kernel through it)."""
    calls = []
    original = RadioNetwork.resolve_round_vector

    def counted(self, *args, **kwargs):
        calls.append(None)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(RadioNetwork, "resolve_round_vector", counted)
    return calls


class Instance(NamedTuple):
    make: Callable[[], RadioNetwork]
    k: int
    seed: int


INSTANCES = {
    "grid8x8": Instance(lambda: grid(8, 8), 20, 1),
    "grid12x12": Instance(lambda: grid(12, 12), 30, 2),
    "rgg120": Instance(lambda: random_geometric(120, seed=3), 40, 3),
}


class Context(NamedTuple):
    """What a schedule is built from: the fault-free run's leader,
    stage start clocks and group width, and the packet origins."""

    net: RadioNetwork
    leader: int
    start: Dict[str, int]
    width: int
    origins: frozenset


def _context(inst: Instance) -> Context:
    net = inst.make()
    packets = uniform_random_placement(net, k=inst.k, seed=inst.seed)
    result = SupervisedBroadcast(
        net, FaultSchedule(), seed=np.random.default_rng(inst.seed)
    ).run(packets)
    assert result.success and not result.retries
    start, clock = {}, 0
    for stage in ("election", "bfs", "collection", "dissemination"):
        start[stage] = clock
        clock += result.timing[stage]
    return Context(
        net, result.leader, start,
        AlgorithmParameters().group_width(net.n),
        frozenset(p.origin for p in packets),
    )


def _bystander(ctx: Context) -> int:
    """A neighbour of the leader that holds no packet."""
    return next(
        int(v) for v in ctx.net.neighbors(ctx.leader)
        if int(v) not in ctx.origins
    )


def _crash_after_bfs(ctx):
    return random_crash_schedule(
        ctx.net.n, 0.1, seed=5, after_stage="bfs", exclude=ctx.origins
    )


def _crash_in_dissemination(ctx):
    return FaultSchedule().crash(
        _bystander(ctx), at_round=ctx.start["dissemination"] + 40
    )


def _crash_recover_in_election(ctx):
    v = _bystander(ctx)
    return FaultSchedule().crash(v, at_round=20).recover(v, at_round=300)


def _link_flap_in_bfs(ctx):
    edge = (ctx.leader, _bystander(ctx))
    bfs = ctx.start["bfs"]
    return (FaultSchedule()
            .link_down(edge, at_round=bfs + 2)
            .link_up(edge, at_round=bfs + 60))


def _jam_across_phase_boundary(ctx):
    # Stage 4's first phase makes one call per packet of group 0 (the
    # root's plain packets); the window covers its last two and the
    # start of the second phase.
    first = ctx.start["dissemination"] + ctx.width - 2
    nodes = [int(v) for v in ctx.net.neighbors(ctx.leader)[:2]]
    return FaultSchedule().jam(nodes, start=first, stop=first + 30)


def _leader_crash(ctx):
    return FaultSchedule().crash(
        ctx.leader, at_round=ctx.start["collection"] + 10
    )


#: ``name -> (schedule builder, counter the case must move)``
DIRECT_CASES = {
    "crash-after-bfs": (_crash_after_bfs, "rx_suppressed_dead"),
    "crash-in-dissemination": (_crash_in_dissemination, "tx_suppressed"),
    "crash-recover-in-election": (_crash_recover_in_election, "recoveries"),
    "link-flap-in-bfs": (_link_flap_in_bfs, "rx_suppressed_link"),
    "jam-across-phase-boundary": (
        _jam_across_phase_boundary, "rx_suppressed_jam"
    ),
    "leader-crash": (_leader_crash, "crashes"),
}


def _record(sb: SupervisedBroadcast, packets, rng) -> dict:
    """Everything a supervised run decides, and the final generator."""
    result = sb.run(packets)
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result) if f.name != "trace"
    }
    fields["attempts"] = [dataclasses.astuple(a) for a in result.attempts]
    fields["repairs"] = [dataclasses.astuple(r) for r in result.repairs]
    record = {
        "result": fields,
        "trace": vars(result.trace) if result.trace is not None else None,
        "clock": sb.net.clock,
        "events": sb.net.events_applied,
        "rng": rng.bit_generator.state,
    }
    return json.loads(json.dumps(record, default=_plain))


def _plain(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return int(value)


def _both(inst: Instance, build, vector_calls):
    """``(bare record, bare vector calls, wrapped record, wrapped
    vector calls)``; ``build(network, rng)`` makes the runner."""
    out = []
    for wrap in (lambda net: net, RecordingNetwork):
        vector_calls.clear()
        net = wrap(inst.make())
        packets = uniform_random_placement(net, k=inst.k, seed=inst.seed)
        rng = np.random.default_rng(inst.seed)
        out += [_record(build(net, rng), packets, rng), len(vector_calls)]
    return out


@pytest.mark.parametrize("case", list(DIRECT_CASES))
@pytest.mark.parametrize("name", list(INSTANCES))
def test_schedule_on_direct_path_equals_dict_loop(name, case, vector_calls):
    inst = INSTANCES[name]
    make_schedule, moved = DIRECT_CASES[case]
    ctx = _context(inst)
    bare, bare_calls, wrapped, wrapped_calls = _both(
        inst,
        lambda net, rng: SupervisedBroadcast(
            net, make_schedule(ctx), seed=rng
        ),
        vector_calls,
    )
    assert bare_calls > 0
    assert wrapped_calls == 0
    assert bare == wrapped
    assert bare["result"]["fault_stats"][moved] > 0
    stamps = [(clock, kind) for clock, kind, _ in bare["events"]]
    for event in make_schedule(ctx).concrete_events():
        assert (event.round, event.kind) in stamps
    if case == "leader-crash":
        assert bare["result"]["reelections"] >= 1


def _transcribing(net, rng):
    return SupervisedBroadcast(
        TranscribingFaultNetwork(net, FaultSchedule().crash(5, at_round=900),
                                 seed=rng),
        seed=rng,
    )


#: Runners whose layer must keep the dict loop in every stage.
DICT_CASES = {
    "jam-0.8": lambda net, rng: SupervisedBroadcast(
        net, FaultSchedule().jam([9], start=0, stop=10**8, prob=0.8),
        seed=rng,
    ),
    "adversary": lambda net, rng: SupervisedBroadcast(
        net, FaultSchedule(), seed=rng,
        adversary=make_adversary(jam_prob=0.1, seed=2),
    ),
    "byzantine": lambda net, rng: SupervisedBroadcast(
        net, FaultSchedule(), seed=rng,
        params=AlgorithmParameters(authentication=True),
        byzantine=random_byzantine_set(net.n, 0.1, "ack_forge", seed=4),
    ),
    "keep-trace": lambda net, rng: SupervisedBroadcast(
        net, FaultSchedule().crash(5, after_stage="bfs"), seed=rng,
        keep_trace=True,
    ),
    "transcribing": _transcribing,
}


@pytest.mark.parametrize("case", list(DICT_CASES))
def test_layers_that_draw_or_watch_keep_the_dict_loop(case, vector_calls):
    bare, bare_calls, wrapped, wrapped_calls = _both(
        INSTANCES["grid8x8"], DICT_CASES[case], vector_calls
    )
    assert bare_calls == wrapped_calls == 0
    assert bare == wrapped


def test_admission_is_decided_per_layer(monkeypatch):
    net = grid(3, 3)
    assert RadioNetwork.vector_capable(DynamicFaultNetwork(net))
    assert not RadioNetwork.vector_capable(
        DynamicFaultNetwork(RecordingNetwork(net))
    )
    assert not RadioNetwork.vector_capable(
        DynamicFaultNetwork(DynamicFaultNetwork(net))
    )
    assert not RadioNetwork.vector_capable(
        TranscribingFaultNetwork(net, FaultSchedule())
    )
    # A jam window below probability 1 keeps the dict loop only while it
    # can still be active.
    layer = DynamicFaultNetwork(
        net, FaultSchedule().jam([4], start=0, stop=10, prob=0.5)
    )
    assert not RadioNetwork.vector_capable(layer)
    layer.advance_to(10)
    assert RadioNetwork.vector_capable(layer)
    # Tracing replaces the class attribute; the layer keeps the kernel.
    original = DynamicFaultNetwork.resolve_round
    monkeypatch.setattr(
        DynamicFaultNetwork, "resolve_round",
        lambda self, tx: original(self, tx),
    )
    assert RadioNetwork.vector_capable(DynamicFaultNetwork(net))
    with pytest.raises(ValueError, match="one dict at a time"):
        TranscribingFaultNetwork(net).resolve_round_vector(
            np.array([0]), np.array([0]), 1
        )


def test_batch_equals_resolve_round_calls():
    """One labelled batch against the same rounds as dict calls, with
    events falling due inside the batch and a jam window opening in it;
    the trailing rounds nobody transmits in still elapse."""
    net = grid(4, 4)

    def layer():
        return DynamicFaultNetwork(
            net,
            FaultSchedule()
            .crash(5, at_round=1)
            .link_down((1, 2), at_round=2)
            .recover(5, at_round=3)
            .crash(9, at_round=5)
            .jam([6, 10], start=2, stop=4),
        )

    rounds = [[0, 5, 15], [1, 5, 6], [1, 14], [5, 9, 13], [9, 3]]
    tx = np.array([v for r in rounds for v in r])
    labels = np.repeat(np.arange(len(rounds)), [len(r) for r in rounds])
    vec = layer()
    receivers, entries, got_labels = vec.resolve_round_vector(tx, labels, 7)
    ref = layer()
    expected = []
    for label, members in enumerate(rounds + [[], []]):
        heard = ref.resolve_round(dict.fromkeys(members, None))
        expected += [(label, r) for r in heard]
    assert list(zip(got_labels.tolist(), receivers.tolist())) == expected
    assert vec.clock == ref.clock == 7
    assert vec.events_applied == ref.events_applied
    assert vec.fault_stats() == ref.fault_stats()
    assert vec.fault_stats()["rx_suppressed_link"] > 0
    assert vec.fault_stats()["rx_suppressed_jam"] > 0
    assert vec.fault_stats()["tx_suppressed"] > 0
    senders = tx[entries]
    assert all(net.has_edge(s, r) for s, r in zip(senders, receivers))


def test_masked_batch_moves_counters_as_the_unmasked_one(monkeypatch):
    """A listener mask changes only what a batch returns.  On an active
    schedule every reception is still resolved and blamed, so the
    counters, the clock and the stamped events move as without the mask,
    and the receptions kept are the unmasked batch's at listeners.  On a
    quiet schedule the mask goes on to the base kernel."""
    net = grid(4, 4)
    schedule = (FaultSchedule()
                .crash(5, at_round=1)
                .link_down((1, 2), at_round=2)
                .recover(5, at_round=3)
                .jam([6, 10], start=2, stop=4))
    rounds = [[0, 5, 15], [1, 5, 6], [1, 14], [5, 9, 13], [9, 3]]
    tx = np.array([v for r in rounds for v in r])
    labels = np.repeat(np.arange(len(rounds)), [len(r) for r in rounds])
    listeners = np.zeros(net.n, dtype=bool)
    listeners[[1, 2, 4, 6, 10, 14]] = True
    plain = DynamicFaultNetwork(net, schedule)
    masked = DynamicFaultNetwork(net, schedule)
    full = plain.resolve_round_vector(tx, labels, 6)
    got = masked.resolve_round_vector(tx, labels, 6, listeners=listeners)
    keep = listeners[full[0]]
    assert 0 < keep.sum() < keep.size
    for a, b in zip(got, full):
        assert a.tolist() == b[keep].tolist()
    assert masked.fault_stats() == plain.fault_stats()
    assert masked.clock == plain.clock == 6
    assert masked.events_applied == plain.events_applied

    seen = []
    kernel = RadioNetwork.resolve_round_vector

    def spy(self, *args, **kwargs):
        seen.append(kwargs.get("listeners"))
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(RadioNetwork, "resolve_round_vector", spy)
    got = DynamicFaultNetwork(net).resolve_round_vector(
        tx, labels, 6, listeners=listeners
    )
    assert len(seen) == 1 and seen[0] is listeners
    expected = kernel(net, tx, labels, listeners=listeners)
    for a, b in zip(got, expected):
        assert a.tolist() == b.tolist()
