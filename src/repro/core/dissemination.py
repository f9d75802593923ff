"""Stage 4: pipelined dissemination with network coding (FORWARD, Lemma 6/7).

The root partitions the ``k`` collected packets into ``g = ⌈k/⌈log n⌉⌉``
groups of up to ``⌈log n⌉`` packets.  Group ``j`` starts ``group_spacing``
phases after group ``j-1``; within its schedule, the group advances one BFS
layer per phase:

- layer-1 delivery: the root transmits the group's packets *plainly*, one
  per round (it is the only transmitter its neighbors hear — with the
  paper's spacing of 3, concurrent groups transmit at layers ≥ 3);
- layer ``d ≥ 2`` delivery: sub-routine ``FORWARD`` — the layer-``(d-1)``
  nodes that know the whole group run Decay epochs; whenever one transmits,
  it draws a fresh uniformly random subset of the group, XORs the selected
  payloads, and sends the sum with the subset bitmap as header.  A
  layer-``d`` node decodes once its received coefficient matrix has full
  rank (Lemma 3); it then joins the transmitter set for the next phase.

Every transmission of every concurrent group is resolved in the same round
through :meth:`RadioNetwork.resolve_round`, so inter-group interference is
real: with the paper's spacing of 3 the BFS layering keeps groups out of
each other's way, and the A2 ablation (spacing 1 or 2) shows the collisions
that appear when the spacing is too small.

The phase length is fixed (``max(group width, epochs·slots)`` rounds) and
the stage length is deterministic:
``(spacing·(g-1) + ecc) · phase_length`` — the Lemma 7 count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.coding.integrity import (
    HardenedGroupDecoder,
    coded_hop_tag,
    packet_checksum,
    plain_hop_tag,
    plain_root_tag,
)
from repro.coding.gf2 import gf2_absorb_batch
from repro.coding.packets import CodedMessage, Packet
from repro.core.config import AlgorithmParameters
from repro.primitives.decay import (
    decay_block_layout,
    decay_slots,
    decay_transmit_matrix,
)
from repro.radio.errors import ProtocolError
from repro.radio.network import RadioNetwork
from repro.radio.trace import RoundTrace

#: Widest group for which the 2^width subset-XOR table is materialized.
#: ``width = ⌈log n⌉`` in every real configuration, so the table is ~n
#: entries; the cap only guards hand-built parameter sets.
_XOR_TABLE_MAX_WIDTH = 20

#: Widest group the direct path draws: a float32 carries 24 random bits
#: of the 32-bit word a subset mask is cut from (``width <= 24`` means
#: n <= 2^24).
_CARRIER_MAX_WIDTH = 24


@dataclass
class DisseminationResult:
    """Outcome of Stage 4.

    Attributes
    ----------
    rounds:
        Total rounds (deterministic given the parameters).
    num_groups / group_width:
        The paper's ``g`` and ``⌈log n⌉``.
    phases:
        Total pipeline phases executed.
    phase_length:
        Rounds per phase.
    has_group:
        Boolean matrix ``[node][group]``: who decoded what.
    complete:
        Every node decoded every group *correctly* (no mis-decodes).
    failed_receivers:
        ``(node, group)`` pairs that ended without the group.
    coded_transmissions / innovative_receptions:
        Air-time accounting for the coding-efficiency experiments.
    corrupted_discarded:
        Receptions rejected by the integrity layer before Gaussian
        elimination (checksum mismatch or malformed header).
    quarantined_rows:
        Rows the hardened decoders quarantined (subset of the above plus
        keyless inconsistency detections).
    mis_decodes / mis_decoded_receivers:
        ``(node, group)`` pairs that completed with *wrong* payloads —
        possible with ``integrity_checks`` disabled under a corruption
        adversary, or with an insider poisoning checksum-valid rows when
        authentication is off; always 0 with the authenticated path.
    byzantine_rx_discarded:
        Receptions dropped at the authentication gate (blacklisted
        sender or failed hop tag) or attributed as poison.
    poisoned_rows_attributed:
        Rows whose hop tag verified but whose content failed the root
        tag (plain) or the group-span check (coded) — provable insider
        poison, attributed to the signer in ``flagged_senders``.
    """

    rounds: int
    num_groups: int
    group_width: int
    phases: int
    phase_length: int
    has_group: np.ndarray
    complete: bool
    failed_receivers: List[Tuple[int, int]]
    coded_transmissions: int = 0
    innovative_receptions: int = 0
    plain_transmissions: int = 0
    corrupted_discarded: int = 0
    quarantined_rows: int = 0
    mis_decodes: int = 0
    mis_decoded_receivers: List[Tuple[int, int]] = field(default_factory=list)
    byzantine_rx_discarded: int = 0
    poisoned_rows_attributed: int = 0
    flagged_senders: Set[int] = field(default_factory=set)

    @property
    def success(self) -> bool:
        return self.complete


def run_dissemination_stage(
    network: RadioNetwork,
    distance: Sequence[int],
    root: int,
    packets: Sequence[Packet],
    params: AlgorithmParameters,
    rng: np.random.Generator,
    trace: Optional[RoundTrace] = None,
    round_offset: int = 0,
    blacklist: frozenset = frozenset(),
) -> DisseminationResult:
    """Broadcast all ``packets`` (held by the root) to every node.

    ``distance`` is the per-node BFS layer from Stage 2 (``distance[root]``
    must be 0 and all nodes must be labeled).

    When ``params.authentication`` is on, plain packets carry the root's
    tag and every transmission its sender's hop tag; receivers verify
    both — plus the group-span check on coded rows, standing in for a
    homomorphic network-coding MAC — before anything reaches a decoder.
    Tags are deterministic, so the RNG stream is untouched either way.
    ``blacklist`` names senders whose traffic honest nodes ignore.
    """
    n = network.n
    if distance[root] != 0:
        raise ProtocolError("distance[root] must be 0")
    dist = np.asarray(distance, dtype=np.int64)
    if (dist < 0).any():
        raise ProtocolError(
            "all nodes need a BFS distance before dissemination"
        )

    k = len(packets)
    width = params.group_width(n)
    groups: List[List[Packet]] = [
        list(packets[j : j + width]) for j in range(0, k, width)
    ]
    g = len(groups)
    group_payloads: List[List[int]] = [[p.payload for p in grp] for grp in groups]

    ecc = int(dist.max())
    spacing = params.group_spacing
    if spacing < 1:
        raise ProtocolError("group_spacing must be >= 1")

    epochs = params.forward_epochs(width)
    slots = decay_slots(network.max_degree)
    phase_length = max(width, epochs * slots)

    has_group = np.zeros((n, max(g, 1)), dtype=bool)
    has_group[root, :] = True

    if k == 0 or n == 1 or ecc == 0:
        return DisseminationResult(
            rounds=0,
            num_groups=g,
            group_width=width,
            phases=0,
            phase_length=phase_length,
            has_group=has_group,
            complete=True,
            failed_receivers=[],
        )

    # Pre-bucket nodes by BFS layer, ascending ids within a layer.
    by_layer = np.argsort(dist, kind="stable")
    layers: List[np.ndarray] = np.split(
        by_layer, np.searchsorted(dist[by_layer], np.arange(1, ecc + 1))
    )

    # Precomputed subset-XOR tables: entry ``mask`` of table ``j`` is the
    # XOR of the group-``j`` payloads selected by ``mask``.  Groups are
    # ``⌈log n⌉`` wide, so each table has ~n entries, built in one DP
    # sweep; encoding a coded row and checking the span of a received one
    # become O(1) lookups instead of per-bit loops.  Guarded for
    # pathological widths where 2^width would not be worth materializing.
    if width <= _XOR_TABLE_MAX_WIDTH:
        xor_tables: Optional[List[List[int]]] = []
        for payloads_j in group_payloads:
            table = [0] * (1 << len(payloads_j))
            for b, pv in enumerate(payloads_j):
                base = 1 << b
                for lo in range(base):
                    table[base + lo] = table[lo] ^ pv
            xor_tables.append(table)
    else:
        xor_tables = None

    def subset_xor(j: int, mask: int) -> int:
        """XOR of the group-``j`` payloads selected by ``mask``."""
        if xor_tables is not None:
            return xor_tables[j][mask]
        payloads = group_payloads[j]
        xor = 0
        m = mask
        while m:
            b = (m & -m).bit_length() - 1
            xor ^= payloads[b]
            m &= m - 1
        return xor

    integrity = params.integrity_checks
    key = params.integrity_key
    auth = params.authentication
    akey = params.auth_master_key
    decoders: Dict[Tuple[int, int], HardenedGroupDecoder] = {}
    # (receiver, group) -> {packet index -> payload as received}
    plain_seen: Dict[Tuple[int, int], Dict[int, int]] = {}
    mis_decoded: Set[Tuple[int, int]] = set()
    total_phases = spacing * (g - 1) + ecc
    coded_tx = 0
    plain_tx = 0
    innovative_rx = 0
    corrupt_discarded = 0
    byz_discarded = 0
    poisoned_attributed = 0
    flagged: Set[int] = set()
    rounds = 0

    def seal_plain(sender: int, j: int, idx: int, payload: int, gs: int):
        """Wire tuple for a plain packet: a unit coefficient vector, so
        the same keyed checksum covers both wire formats.  Honest
        forwarders transmit the true payload, so the root tag they carry
        is the one the root minted for it."""
        chk = packet_checksum(j, 1 << idx, payload, gs, key) \
            if integrity else None
        if not auth:
            if chk is None:
                return ("plain", j, idx, payload, gs)
            return ("plain", j, idx, payload, gs, chk)
        rtag = plain_root_tag(root, j, idx, payload, akey)
        htag = plain_hop_tag(sender, j, idx, payload, gs,
                             -1 if chk is None else chk, rtag, akey)
        return ("plain", j, idx, payload, gs, chk, rtag, sender, htag)

    def seal_coded(sender: int, j: int, mask: int, xor: int, gs: int):
        chk = packet_checksum(j, mask, xor, gs, key) if integrity else None
        if not auth:
            if chk is None:
                return ("coded", j, mask, xor, gs)
            return ("coded", j, mask, xor, gs, chk)
        htag = coded_hop_tag(sender, j, mask, xor, gs,
                             -1 if chk is None else chk, akey)
        return ("coded", j, mask, xor, gs, chk, sender, htag)

    def in_group_span(j: int, mask: int, xor: int) -> bool:
        """The homomorphic-MAC stand-in: is ``xor`` exactly the XOR of
        the group-``j`` payloads selected by ``mask``?  An insider can
        recompute the shared checksum over poisoned data but cannot
        forge membership of the true span."""
        gs = len(groups[j])
        if not 0 <= mask < (1 << gs):
            return False
        return xor == subset_xor(j, mask)

    def group_layer(j: int, phase: int) -> int:
        """Layer group j is being delivered to during this 1-based phase,
        or 0 if the group is inactive."""
        d = phase - spacing * j
        return d if 1 <= d <= ecc else 0

    def flag_mis_decode(receiver: int, j: int) -> None:
        """Honest accounting of a completion with wrong payloads.

        Only reachable with ``integrity_checks`` off under a corruption
        adversary: the node *believes* it holds the group, but the data
        is wrong.  It is recorded (and excluded from the forwarder sets,
        so the simulation never launders truth through it) instead of
        silently delivering wrong plaintexts.
        """
        mis_decoded.add((receiver, j))
        has_group[receiver, j] = True

    def try_complete(receiver: int, j: int) -> None:
        """Promote a receiver to group holder if it can now decode."""
        if has_group[receiver, j]:
            return
        gs = len(groups[j])
        seen = plain_seen.get((receiver, j))
        if seen is not None and len(seen) == gs:
            if [seen[i] for i in range(gs)] == group_payloads[j]:
                has_group[receiver, j] = True
            else:
                flag_mis_decode(receiver, j)
            return
        dec = decoders.get((receiver, j))
        if dec is not None and dec.is_complete:
            decoded = dec.decode()
            if decoded != group_payloads[j]:
                # Reachable with integrity on: an insider knows the
                # shared checksum key, so checksum-valid poison passes
                # the gate when authentication (span checking) is off.
                # Honest accounting, never a silent wrong delivery.
                flag_mis_decode(receiver, j)
                return
            has_group[receiver, j] = True

    def process_received(
        received: Dict[int, object], phase: int, touched: Set[Tuple[int, int]]
    ) -> None:
        """Verify and absorb one resolved round's receptions.

        This is the single implementation of the Stage-4 receiver
        pipeline (layer acceptance → authentication → integrity →
        decoder).  The dict loop runs it on every round; the direct
        path needs none of it (see :func:`absorb_phase`).
        """
        nonlocal corrupt_discarded, byz_discarded, poisoned_attributed
        nonlocal innovative_rx
        round_discarded = 0
        round_byz = 0
        round_poisoned = 0
        for receiver, msg in received.items():
            if not (isinstance(msg, tuple) and len(msg) >= 5):
                continue  # not dissemination traffic
            kind = msg[0]
            if kind not in ("plain", "coded"):
                continue  # stray control traffic (e.g. forged ACKs)
            chk = msg[5] if len(msg) > 5 else None
            sender: Optional[int] = None
            if kind == "plain":
                _, j, idx, payload, gs = msg[:5]
                if has_group[receiver, j]:
                    continue
                d = group_layer(j, phase)
                accept = (
                    params.opportunistic_decoding
                    or (d and int(dist[receiver]) == d)
                )
                if not accept:
                    continue
                if auth:
                    if len(msg) != 9:
                        round_byz += 1
                        continue
                    rtag, sender, htag = msg[6], msg[7], msg[8]
                    if sender in blacklist:
                        round_byz += 1
                        continue
                    if htag != plain_hop_tag(
                        sender, j, idx, payload, gs,
                        -1 if chk is None else chk, rtag, akey,
                    ):
                        # unsigned/mis-signed hop: drop, no conviction
                        round_byz += 1
                        continue
                    if rtag != plain_root_tag(root, j, idx, payload,
                                              akey):
                        # the signer vouched for a payload the root
                        # never minted: provable poison
                        round_byz += 1
                        round_poisoned += 1
                        flagged.add(sender)
                        continue
                # verify before accepting: a malformed index is
                # detectable without the key; a flipped bit anywhere
                # breaks the keyed checksum
                if not 0 <= idx < gs:
                    corrupt_discarded += 1
                    round_discarded += 1
                    continue
                if integrity and chk is not None and chk != (
                    packet_checksum(j, 1 << idx, payload, gs, key)
                ):
                    corrupt_discarded += 1
                    round_discarded += 1
                    continue
                plain_seen.setdefault((receiver, j), {})[idx] = payload
                touched.add((receiver, j))
            else:
                _, j, mask, payload, gs = msg[:5]
                if has_group[receiver, j]:
                    continue
                d = group_layer(j, phase)
                accept = (
                    params.opportunistic_decoding
                    or (d and int(dist[receiver]) == d)
                )
                if not accept:
                    continue
                if auth:
                    if len(msg) != 8:
                        round_byz += 1
                        continue
                    sender, htag = msg[6], msg[7]
                    if sender in blacklist:
                        round_byz += 1
                        continue
                    if htag != coded_hop_tag(
                        sender, j, mask, payload, gs,
                        -1 if chk is None else chk, akey,
                    ):
                        round_byz += 1
                        continue
                    if not in_group_span(j, mask, payload):
                        # checksum-valid but outside the true span:
                        # only the signer could have produced it
                        round_byz += 1
                        round_poisoned += 1
                        flagged.add(sender)
                        continue
                pair = (receiver, j)
                dec = decoders.get(pair)
                if dec is None:
                    dec = HardenedGroupDecoder(
                        group_id=j, group_size=gs, key=key
                    )
                    decoders[pair] = dec
                elif dec.is_complete:
                    # A full-rank RREF basis cannot change: further
                    # rows are redundant (or quarantine fodder) and
                    # the decode result is already fixed, so skip
                    # the elimination.  Promotion still happens at
                    # phase end via ``touched``.
                    touched.add(pair)
                    continue
                coded = CodedMessage(
                    group_id=j,
                    subset_mask=mask,
                    payload=payload,
                    group_size=gs,
                    checksum=chk,
                )
                # FORWARD verifies before Gaussian elimination: the
                # hardened decoder checksums / width-checks the row
                # and quarantines instead of inserting
                rejected_before = len(dec.quarantined)
                if dec.absorb(coded, sender=sender):
                    innovative_rx += 1
                newly_rejected = len(dec.quarantined) - rejected_before
                corrupt_discarded += newly_rejected
                round_discarded += newly_rejected
                touched.add(pair)
        byz_discarded += round_byz
        poisoned_attributed += round_poisoned
        if trace is not None:
            if round_discarded:
                trace.observe_integrity(
                    rx_corrupt_discarded=round_discarded
                )
            if round_byz or round_poisoned:
                trace.observe_byzantine(
                    rx_discarded=round_byz,
                    poisoned_rows=round_poisoned,
                )

    # Direct-mode decoding state is one (n, width) block per group in
    # flight: group j owns block j % in_flight and zeroes it after its
    # last phase, before group j + in_flight starts.  Concurrent groups
    # are at most ``(ecc - 1) // spacing`` apart, so they never share a
    # block.
    in_flight = min(g, (ecc - 1) // spacing + 1)
    group_size = np.array([len(grp) for grp in groups], dtype=np.int64)
    full_mask = np.array(
        [(1 << len(grp)) - 1 for grp in groups], dtype=np.uint64
    )

    reps = max(1, params.root_plain_repetitions)

    def draw_phase_direct(
        root_group: int, fsets: List[Tuple[int, int, np.ndarray, int]]
    ) -> Optional[List[np.ndarray]]:
        """Draw one direct-mode phase on the dict loop's stream.

        The loop runs once per Decay epoch, because an epoch's masks lie
        between its coins and the next epoch's.  Per epoch it draws the
        coins of every group into one reused row, as the dict loop's
        block-form :func:`decay_transmit_matrix` call does (a block per
        group), and keeps them flat as bools, compared with
        :func:`decay_block_layout`'s thresholds.  It then draws one
        value per transmission in (slot, group, sender) order.  Coded,
        that is a float32 *carrier*: numpy draws both a float32 and an
        ``rng.integers(0, 1 << gs)`` mask from one 32-bit word (Lemire's
        method never rejects on a power-of-two range, and keeps the
        word's top ``gs`` bits; the float keeps its top 24), so for
        ``gs <= 24`` the mask is ``floor(carrier · 2^gs)``.  Uncoded
        packet picks may reject, so they come from one ``rng.integers``
        call over per-element highs.  Once per phase, one reorder puts
        the coins in (epoch, slot, group, sender) order and one
        ``flatnonzero`` finds the transmissions.

        Returns the slot, group, sender and value of every transmission
        of the phase, the root's plain packets included, or None when
        the phase is silent.
        """
        nonlocal coded_tx, plain_tx
        labels: List[np.ndarray] = []
        tx_group: List[np.ndarray] = []
        tx_ids: List[np.ndarray] = []
        tx_vals: List[np.ndarray] = []
        if fsets:
            sizes = [senders.size for _, _, senders, _ in fsets]
            total = sum(sizes)
            col_sender = np.concatenate([s for _, _, s, _ in fsets])
            col_group = np.repeat([j for j, _, _, _ in fsets], sizes)
            coding = params.coding_enabled
            col_high = np.repeat(
                [1 << gs if coding else gs for _, _, _, gs in fsets], sizes
            )
            thresholds, slot_major = decay_block_layout(sizes, slots)
            row = np.empty(slots * total)
            coins = np.empty((epochs, slots * total), dtype=bool)
            if coding:
                carriers = np.empty(coins.size, dtype=np.float32)
            else:
                picks: List[np.ndarray] = []
            drawn = 0
            for epoch in range(epochs):
                rng.random(out=row)
                np.less(row, thresholds, out=coins[epoch])
                count = int(np.count_nonzero(coins[epoch]))
                if not count:
                    continue
                if coding:
                    rng.random(
                        out=carriers[drawn:drawn + count], dtype=np.float32
                    )
                else:
                    col = np.flatnonzero(coins[epoch][slot_major]) % total
                    picks.append(rng.integers(0, col_high[col]))
                drawn += count
            if drawn:
                if len(fsets) > 1:
                    coins = coins[:, slot_major]
                label, col = np.divmod(np.flatnonzero(coins), total)
                labels.append(label)
                tx_group.append(col_group[col])
                tx_ids.append(col_sender[col])
                if coding:
                    high = col_high[col].astype(np.float32)
                    tx_vals.append((carriers[:drawn] * high).astype(np.int64))
                    coded_tx += drawn
                else:
                    tx_vals.append(np.concatenate(picks))
                    plain_tx += drawn
        if root_group >= 0:
            gs_root = len(groups[root_group])
            root_slots = np.arange(min(gs_root * reps, phase_length))
            labels.append(root_slots)
            tx_group.append(np.full(root_slots.size, root_group))
            tx_ids.append(np.full(root_slots.size, root))
            tx_vals.append(root_slots % gs_root)
            plain_tx += root_slots.size
        if not labels:
            return None
        return [np.concatenate(a) for a in (labels, tx_group, tx_ids, tx_vals)]

    def near_deficient(phase: int, late_groups: np.ndarray) -> np.ndarray:
        """The closed neighbourhood of the *deficient* nodes: those that
        may accept a row of a group in ``late_groups`` this phase and do
        not have that group yet."""
        deficient = np.zeros(n, dtype=bool)
        for j in late_groups.tolist():
            if params.opportunistic_decoding:
                deficient |= ~has_group[:, j]
            else:
                lay = layers[phase - spacing * j]
                deficient[lay[~has_group[lay, j]]] = True
        near = deficient.copy()
        near[network.gather_neighbors(np.flatnonzero(deficient))] = True
        return near

    def absorb_phase(
        phase: int,
        root_group: int,
        labels: np.ndarray,
        tx_group: np.ndarray,
        tx_ids: np.ndarray,
        tx_vals: np.ndarray,
        pivots: np.ndarray,
        plain_bits: np.ndarray,
    ) -> None:
        """Resolve and absorb one direct-mode phase, then promote.

        ``labels``, ``tx_group``, ``tx_ids`` and ``tx_vals`` hold the
        slot, group, sender and mask (or packet index) of every
        transmission of the phase.  A labelled
        :meth:`RadioNetwork.resolve_round_vector` call resolves a window
        of the phase's rounds; receptions are attributed to groups
        through the transmitting entry.  Plain packets set bits in
        ``plain_bits``; coded rows go through one
        :func:`gf2_absorb_batch` elimination into the payload-free RREF
        ``pivots`` (honest rows are always span-consistent, so rank
        alone decides completion, and the rank gain is the innovative
        count in any absorption order).  All integrity and
        authentication counters are provably zero here.

        A fault layer gets the whole phase in one window, because it
        counts the receptions it drops.  A bare network gets two: the
        first ``first_window`` slots, after which every pair at full
        rank (or with every plain bit) joins ``has_group``, then the
        rest, restricted to transmissions whose sender is a deficient
        node or its neighbour (:func:`near_deficient`).  A deficient
        node thus keeps every transmission of its closed neighbourhood
        and hears, or loses to a collision, exactly what it would in
        the whole phase; every reception dropped was one the layer
        filter drops or a row of zero rank gain.
        """
        nonlocal innovative_rx
        if prune:
            late = labels >= first_window
            windows = [np.flatnonzero(~late), np.flatnonzero(late)]
        else:
            windows = [np.arange(labels.size)]
        for second, idx in enumerate(windows):
            if second:
                late_groups = np.flatnonzero(np.bincount(tx_group[idx]))
                idx = idx[near_deficient(phase, late_groups)[tx_ids[idx]]]
            if idx.size == 0:
                continue
            # The dict loop resolves a slot only when someone transmits
            # in it: relabel the slots used, in order, as consecutive
            # rounds, so a network with a clock counts the same rounds.
            slot = labels[idx]
            used = np.zeros(phase_length, dtype=bool)
            used[slot] = True
            call = np.cumsum(used) - 1
            receivers, entries, _ = network.resolve_round_vector(
                tx_ids[idx], call[slot], int(call[-1]) + 1
            )
            entries = idx[entries]
            rx_group = tx_group[entries]
            keep = ~has_group[receivers, rx_group]
            if not params.opportunistic_decoding:
                keep &= dist[receivers] == phase - spacing * rx_group
            receivers = receivers[keep]
            rx_group = rx_group[keep]
            vals = tx_vals[entries[keep]].astype(np.uint64)
            block = (rx_group % in_flight) * n + receivers
            if params.coding_enabled:
                coded = rx_group != root_group
                innovative_rx += int(
                    gf2_absorb_batch(pivots, block[coded], vals[coded]).sum()
                )
            else:
                coded = np.zeros(receivers.size, dtype=bool)
            plain = ~coded
            np.bitwise_or.at(
                plain_bits, block[plain], np.uint64(1) << vals[plain]
            )
            done = np.where(
                coded,
                np.count_nonzero(pivots[block], axis=1)
                == group_size[rx_group],
                plain_bits[block] == full_mask[rx_group],
            )
            has_group[receivers[done], rx_group[done]] = True

    # On a vector-capable network (a bare one, or a fault layer whose
    # faults are masks; no trace, no blacklist) the FORWARD phase is the
    # unit of resolution and of finding transmissions; the Decay epoch
    # is the unit of drawing, one coin row and one mask draw each: see
    # draw_phase_direct and absorb_phase.  A node joins a transmitter
    # set only in the phase after it decodes (Lemma 3) and the phase
    # schedule is fixed (Lemma 7), so no transmit decision of a phase
    # depends on that phase's receptions.  Every other network gets
    # sealed wire tuples resolved slot by slot through
    # ``network.resolve_round`` and verified by process_received; there
    # the masks keep one draw per slot and group, because a fault layer
    # that drops receptions at random may share the generator.  Both
    # paths draw each epoch's coins first, a block per group on one
    # stream, then its masks in slot order; the direct path's float32
    # carriers hold 24 bits, so a wider group takes the dict loop.
    direct = (
        RadioNetwork.vector_capable(network)
        and trace is None
        and not blacklist
        and width <= _CARRIER_MAX_WIDTH
    )
    # A fault layer counts the receptions it drops, so only a bare
    # network's phases are split and pruned (see absorb_phase).  The
    # first window is the phase at forward_epochs_factor 1.
    prune = direct and isinstance(network, RadioNetwork)
    first_window = slots * min(
        epochs, max(1, math.ceil(width + params.forward_surplus))
    )
    n_decay = epochs * slots
    if direct:
        pivots = np.zeros((in_flight * n, width), dtype=np.uint64)
        plain_bits = np.zeros(in_flight * n, dtype=np.uint64)

    for phase in range(1, total_phases + 1):
        root_group = -1
        fsets: List[Tuple[int, int, np.ndarray, int]] = []
        for j in range(g):
            d = group_layer(j, phase)
            if not d:
                continue
            if d == 1:
                root_group = j
                continue
            lay = layers[d - 1]
            sel = has_group[lay, j]
            if mis_decoded:
                sel = sel & np.array(
                    [(int(v), j) not in mis_decoded for v in lay]
                )
            senders = lay[sel]
            if senders.size:
                fsets.append((j, d, senders, len(groups[j])))

        if direct:
            sent = draw_phase_direct(root_group, fsets)
            if sent is not None:
                absorb_phase(phase, root_group, *sent, pivots, plain_bits)
            last, rest = divmod(phase - ecc, spacing)
            if not rest and last >= 0:
                block = slice((last % in_flight) * n,
                              (last % in_flight + 1) * n)
                pivots[block] = 0
                plain_bits[block] = 0
            rounds += phase_length
            continue

        gs_root = len(groups[root_group]) if root_group >= 0 else 0
        touched: Set[Tuple[int, int]] = set()
        sizes = [senders.size for _, _, senders, _ in fsets]
        ends = list(itertools.accumulate(sizes))
        columns = list(zip([0] + ends, ends))  # group fsets[i]'s coins
        for slot in range(phase_length):
            in_decay = slot < n_decay
            epoch_slot = slot % slots
            if in_decay and epoch_slot == 0 and fsets:
                coins = decay_transmit_matrix(sizes, rng, slots)

            root_tx = root_group >= 0 and slot < gs_root * reps
            tx_entries: List[Tuple[int, int, np.ndarray, np.ndarray, int]] = []
            if in_decay:
                for (j, d, senders, gs), (lo, hi) in zip(fsets, columns):
                    hot = senders[coins[epoch_slot, lo:hi]]
                    if hot.size == 0:
                        continue
                    if params.coding_enabled:
                        vals = rng.integers(0, 1 << gs, size=hot.size)
                        coded_tx += hot.size
                    else:
                        # A1 ablation: uncoded store-and-forward — send
                        # one uniformly random plain packet of the group.
                        vals = rng.integers(0, gs, size=hot.size)
                        plain_tx += hot.size
                    tx_entries.append((j, d, hot, vals, gs))
            if root_tx:
                plain_tx += 1

            if not root_tx and not tx_entries:
                continue

            transmissions: Dict[int, object] = {}
            if root_tx:
                idx = slot % gs_root
                pkt = groups[root_group][idx]
                transmissions[root] = seal_plain(
                    root, root_group, idx, pkt.payload, gs_root
                )
            for j, d, hot, vals, gs in tx_entries:
                payloads = group_payloads[j]
                if params.coding_enabled:
                    for s_, m_ in zip(hot.tolist(), vals.tolist()):
                        transmissions[s_] = seal_coded(
                            s_, j, m_, subset_xor(j, m_), gs
                        )
                else:
                    for s_, pick in zip(hot.tolist(), vals.tolist()):
                        transmissions[s_] = seal_plain(
                            s_, j, pick, payloads[pick], gs
                        )
            received = network.resolve_round(transmissions)
            if trace is not None:
                trace.observe(
                    round_offset + rounds + slot,
                    transmissions,
                    received,
                )
            process_received(received, phase, touched)

        rounds += phase_length
        for v, j in touched:
            try_complete(v, j)

    failed = list(map(tuple, np.argwhere(~has_group[:, :g]).tolist()))
    quarantined = sum(len(d.quarantined) for d in decoders.values())
    return DisseminationResult(
        rounds=rounds,
        num_groups=g,
        group_width=width,
        phases=total_phases,
        phase_length=phase_length,
        has_group=has_group,
        complete=not failed and not mis_decoded,
        failed_receivers=failed,
        coded_transmissions=coded_tx,
        innovative_receptions=innovative_rx,
        plain_transmissions=plain_tx,
        corrupted_discarded=corrupt_discarded,
        quarantined_rows=quarantined,
        mis_decodes=len(mis_decoded),
        mis_decoded_receivers=sorted(mis_decoded),
        byzantine_rx_discarded=byz_discarded,
        poisoned_rows_attributed=poisoned_attributed,
        flagged_senders=flagged,
    )
