"""The Decay procedure (Bar-Yehuda, Goldreich, Itai 1992).

One *epoch* of Decay consists of ``⌈log2 Δ⌉ + 1`` slots; in slot
``s = 1, 2, ...`` every participating node transmits independently with
probability ``2^{-s}`` (this is the variant the paper's ``FORWARD``
sub-routine specifies).  The classic guarantee: a node with at least one
and at most Δ participating neighbors receives a message during the epoch
with probability bounded below by a positive constant (≈ 1/(2e)).

The classic 1992 formulation (`variant="classic"`) has each node transmit
in a prefix of slots of geometric length; both variants enjoy the constant
success probability and both are exposed for the E12 experiment.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.radio.network import RadioNetwork
from repro.radio.trace import RoundTrace

#: A message factory: called as ``f(node_id, slot_index)`` each time the node
#: actually transmits, so coded schemes can generate a fresh message per
#: transmission (as FORWARD requires).
MessageFn = Callable[[int, int], object]


def decay_slots(max_degree: int) -> int:
    """Number of slots per Decay epoch for a given Δ: ``⌈log2 Δ⌉ + 1``.

    The ``+1`` slot (probability 1/2 down to ``2^{-(⌈log Δ⌉+1)}``) covers the
    boundary case of exactly Δ competing neighbors; it only changes constants.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    return max(1, math.ceil(math.log2(max_degree))) + 1


def transmission_probabilities(num_slots: int) -> List[float]:
    """The per-slot transmission probabilities 1/2, 1/4, ..., 2^-num_slots."""
    return [2.0 ** -(s + 1) for s in range(num_slots)]


@functools.lru_cache(maxsize=64)
def _probability_column(num_slots: int) -> np.ndarray:
    """:func:`transmission_probabilities` as a read-only ``(num_slots,
    1)`` column, built once per slot count."""
    column = np.array(
        transmission_probabilities(num_slots), dtype=np.float64
    )[:, None]
    column.flags.writeable = False
    return column


def decay_block_layout(
    sizes: Sequence[int], num_slots: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Where the block form of :func:`decay_transmit_matrix` draws.

    A block-form call over ``sizes`` draws ``num_slots * sum(sizes)``
    doubles in one ``rng.random`` call: block ``i`` takes the next
    ``num_slots * sizes[i]`` of them, slot by slot.  Returns
    ``(thresholds, slot_major)``: ``draws < thresholds`` are the call's
    coins in that draw order, and ``slot_major`` lists the draws in the
    matrix's row-major (slot, column) order, so ``(draws <
    thresholds)[slot_major]`` reshaped to ``(num_slots, sum(sizes))`` is
    the matrix.  With one block ``slot_major`` is the identity.  A
    caller that keeps many epochs' coins flat reorders them all at once.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    total = int(sizes.sum())
    block = np.repeat(np.arange(sizes.size), sizes)  # column -> block
    start = np.cumsum(sizes)[block] - sizes[block]
    # Column c of block i sits at draw num_slots·start + s·size + (c -
    # start) in slot s.
    slot_major = (
        (num_slots - 1) * start + np.arange(total)
        + np.arange(num_slots)[:, None] * sizes[block]
    )
    thresholds = np.empty(num_slots * total)
    thresholds[slot_major] = _probability_column(num_slots)
    return thresholds, slot_major.ravel()


def decay_transmit_matrix(
    num_participants: Union[int, Sequence[int]],
    rng: np.random.Generator,
    num_slots: int,
    variant: str = "independent",
) -> np.ndarray:
    """Whole-epoch transmit decisions as a ``(num_slots, m)`` bool matrix.

    ``matrix[s, i]`` says whether participant ``i`` transmits in slot
    ``s``.  The draws consume the *identical* RNG stream that
    :func:`run_decay_epoch` consumes for the same participant count:
    ``rng.random((num_slots, m))`` fills rows sequentially (C order), so
    row ``s`` holds exactly the ``m`` doubles the per-slot
    ``rng.random(m)`` call would have drawn, and the classic variant's
    geometric stops are drawn once up front in both.  BFS and the dict
    loops of BGI and Stage 4 draw every Decay epoch as this matrix;
    :func:`run_decay_epoch` is the per-slot form that tree repair and
    aggregation use.

    ``num_participants`` may also be a sequence of block sizes
    ``[m1, m2, ...]``.  One call then stands for consecutive calls, one
    per block, and returns their matrices side by side: columns
    ``[m1, m1 + m2)`` are the second block's.  One ``rng`` call of the
    total size fills the blocks' draws back to back, so the stream and
    every decision are those of the per-block calls.  Stage 4's dict
    loop draws an epoch's groups this way, and BFS the epochs of a
    phase.  The direct paths of BGI and Stage 4 make no call here: they
    draw the same stream with ``rng.random(out=...)`` into a reused
    buffer per epoch, which BGI compares column by column with the slot
    probabilities and Stage 4 with :func:`decay_block_layout`'s
    thresholds.
    """
    if np.ndim(num_participants) == 0:
        sizes = [int(num_participants)]
    else:
        sizes = [int(m) for m in num_participants]
    total = sum(sizes)
    if variant not in ("independent", "classic"):
        raise ValueError(f"unknown Decay variant {variant!r}")
    if total == 0:
        return np.zeros((num_slots, 0), dtype=bool)
    if variant == "classic":
        stops = rng.geometric(0.5, size=total)
        return np.arange(num_slots)[:, None] < stops[None, :]
    draws = rng.random(num_slots * total)
    if len(sizes) == 1:
        draws = draws.reshape(num_slots, total)
    else:
        blocks = []
        start = 0
        for m in sizes:
            stop = start + num_slots * m
            blocks.append(draws[start:stop].reshape(num_slots, m))
            start = stop
        draws = np.concatenate(blocks, axis=1)
    return draws < _probability_column(num_slots)


def run_decay_epoch(
    network: RadioNetwork,
    participants: Sequence[int],
    message_fn: MessageFn,
    rng: np.random.Generator,
    num_slots: Optional[int] = None,
    variant: str = "independent",
    trace: Optional[RoundTrace] = None,
    round_offset: int = 0,
) -> List[Dict[int, object]]:
    """Run one Decay epoch.

    Parameters
    ----------
    participants:
        Nodes that hold the message(s) and contend for the channel.
    message_fn:
        Called per actual transmission to obtain the message to send.
    num_slots:
        Slots in the epoch; defaults to :func:`decay_slots` of the network's Δ.
    variant:
        ``"independent"`` — transmit in slot ``s`` independently with
        probability ``2^{-s}`` (the paper's FORWARD formulation);
        ``"classic"`` — transmit in slots ``1..X`` where ``X`` is geometric
        (the original 1992 "decay" shape).

    Returns
    -------
    list of dict
        One ``receiver -> message`` map per slot.
    """
    if num_slots is None:
        num_slots = decay_slots(network.max_degree)
    participants = list(participants)
    receptions: List[Dict[int, object]] = []

    if variant == "classic":
        # Each node transmits in slots 0..stop-1 where stop is geometric,
        # capped at num_slots.
        stops = rng.geometric(0.5, size=len(participants)) if participants else []

    for slot in range(num_slots):
        transmissions: Dict[int, object] = {}
        if variant == "independent":
            p = 2.0 ** -(slot + 1)
            if participants:
                coins = rng.random(len(participants)) < p
                for i, node in enumerate(participants):
                    if coins[i]:
                        transmissions[node] = message_fn(node, slot)
        elif variant == "classic":
            for i, node in enumerate(participants):
                if slot < stops[i]:
                    transmissions[node] = message_fn(node, slot)
        else:
            raise ValueError(f"unknown Decay variant {variant!r}")

        received = network.resolve_round(transmissions)
        if trace is not None:
            trace.observe(round_offset + slot, transmissions, received)
        receptions.append(received)

    return receptions


def epoch_success_probability_lower_bound() -> float:
    """The constant from the BGI analysis: per-epoch reception probability
    for a node with 1..Δ participating neighbors is at least ~1/(2e).

    Exposed so experiments can compare measurements against the analytical
    constant.
    """
    return 1.0 / (2.0 * math.e)
