"""Linear algebra over GF(2) with bit-packed rows.

Two bit-packed representations coexist:

- **Python-int rows** (bit ``j`` = column ``j``): the original, simple
  formulation.  Kept verbatim as the *reference* implementation that the
  differential/property tests compare against.
- **numpy uint64 words** (``pack_rows_u64`` / ``gf2_rank_packed`` /
  ``gf2_solve_packed`` and the incremental :class:`PackedGF2Basis`):
  word-wise XOR Gaussian elimination vectorized across rows, the fast
  kernel behind :class:`repro.coding.rlnc.GroupDecoder` and the wide
  Monte-Carlo rank experiments (Lemma 3).

A dense ``numpy`` 0/1 interface is provided for interoperability.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.radio.network import popcount_u64
from repro.radio.rng import SeedLike, make_rng


def _lowest_set_bit(x: int) -> int:
    """Index of the least-significant set bit of a positive integer."""
    return (x & -x).bit_length() - 1


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) of a matrix given as bit-packed integer rows."""
    basis: List[int] = []  # reduced rows, each with a unique pivot bit
    rank = 0
    for row in rows:
        row = _reduce_against(row, basis)
        if row:
            basis.append(row)
            rank += 1
    return rank


def _reduce_against(row: int, basis: Sequence[int]) -> int:
    """XOR away any basis pivots present in ``row``."""
    for b in basis:
        pivot = b & -b
        if row & pivot:
            row ^= b
    return row


def gf2_rref(rows: Sequence[int], width: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_columns)`` where ``reduced_rows[i]`` has
    its unique pivot at column ``pivot_columns[i]`` (ascending).  Zero rows
    are dropped.
    """
    basis: List[int] = []
    for row in rows:
        row = _reduce_against(row, basis)
        if not row:
            continue
        pivot = row & -row
        # back-substitute into existing rows so each pivot is unique
        basis = [b ^ row if b & pivot else b for b in basis]
        basis.append(row)
    basis.sort(key=lambda r: r & -r)
    pivots = [_lowest_set_bit(r) for r in basis]
    if pivots and pivots[-1] >= width:
        raise ValueError(f"row has bit {pivots[-1]} >= declared width {width}")
    return basis, pivots


def gf2_solve(
    rows: Sequence[int],
    payloads: Sequence[int],
    width: int,
) -> Optional[List[int]]:
    """Solve ``A x = payloads`` over GF(2) for bit-packed coefficient rows.

    Each equation says: XOR of the unknown payloads selected by ``rows[i]``
    equals ``payloads[i]`` (payloads are opaque bit strings stored as ints,
    XORed together).  Returns the ``width`` unknown payloads in column
    order, or None when the system does not determine all unknowns
    (coefficient rank < width).

    Inconsistent systems raise ``ValueError`` — in this library that means
    corrupted input, since coded messages are generated from true payloads.
    """
    if len(rows) != len(payloads):
        raise ValueError("rows and payloads must have equal length")

    # Gauss-Jordan on (coefficients, payload) pairs.
    basis: List[Tuple[int, int]] = []  # (coeff_row, payload), unique pivots
    for row, payload in zip(rows, payloads):
        for b_row, b_payload in basis:
            pivot = b_row & -b_row
            if row & pivot:
                row ^= b_row
                payload ^= b_payload
        if row == 0:
            if payload != 0:
                raise ValueError("inconsistent GF(2) system")
            continue
        pivot = row & -row
        basis = [
            (b_row ^ row, b_payload ^ payload) if b_row & pivot else (b_row, b_payload)
            for b_row, b_payload in basis
        ]
        basis.append((row, payload))

    if len(basis) < width:
        return None

    solution = [0] * width
    for b_row, b_payload in basis:
        col = _lowest_set_bit(b_row)
        if col >= width:
            raise ValueError(f"row has bit {col} >= declared width {width}")
        solution[col] = b_payload
    return solution


# ----------------------------------------------------------------------
# Dense numpy interface (used for Monte-Carlo rank experiments, Lemma 3)
# ----------------------------------------------------------------------


def random_binary_matrix(
    rows: int, cols: int, seed: SeedLike = None
) -> np.ndarray:
    """An ``l x w`` matrix of iid fair binary entries, as in Lemma 3."""
    rng = make_rng(seed)
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def pack_rows(matrix: np.ndarray) -> List[int]:
    """Convert a dense 0/1 matrix to bit-packed integer rows (bit j = col j)."""
    out: List[int] = []
    for row in np.asarray(matrix, dtype=np.uint8):
        value = 0
        for j, bit in enumerate(row):
            if bit:
                value |= 1 << j
        out.append(value)
    return out


# ----------------------------------------------------------------------
# Bit-packed uint64 kernel (word-wise XOR elimination, vectorized rows)
# ----------------------------------------------------------------------


def words_for(width: int) -> int:
    """uint64 words needed for ``width`` bits (at least 1)."""
    return max(1, (int(width) + 63) >> 6)


def pack_rows_u64(matrix: np.ndarray) -> np.ndarray:
    """Pack a dense 0/1 matrix into uint64 words, little-endian bits.

    Bit ``j`` of a row lands in word ``j // 64``, bit position ``j % 64``
    — the same convention as the Python-int rows (bit ``j`` = column
    ``j``), so ``pack_rows_u64(m)[i]`` and ``pack_rows(m)[i]`` describe
    the same row.
    """
    m = np.atleast_2d(np.asarray(matrix, dtype=np.uint8) & 1)
    rows, cols = m.shape
    n_words = words_for(cols)
    padded = np.zeros((rows, n_words * 64), dtype=np.uint8)
    padded[:, :cols] = m
    packed_bytes = np.packbits(padded, axis=1, bitorder="little")
    return packed_bytes.view("<u8").reshape(rows, n_words)


def unpack_rows_u64(packed: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`pack_rows_u64`: back to a dense 0/1 matrix."""
    packed = np.atleast_2d(np.asarray(packed, dtype="<u8"))
    rows = packed.shape[0]
    if rows == 0:
        return np.zeros((0, width), dtype=np.uint8)
    bits = np.unpackbits(
        packed.view(np.uint8).reshape(rows, -1), axis=1, bitorder="little"
    )
    if width > bits.shape[1]:
        raise ValueError(
            f"width {width} exceeds packed capacity {bits.shape[1]}"
        )
    return bits[:, :width].copy()


def pack_int_u64(value: int, n_words: int) -> np.ndarray:
    """One Python-int bit mask as ``n_words`` little-endian uint64 words."""
    return np.frombuffer(
        int(value).to_bytes(n_words * 8, "little"), dtype="<u8"
    ).copy()


def unpack_int_u64(words: np.ndarray) -> int:
    """Inverse of :func:`pack_int_u64`."""
    return int.from_bytes(
        np.ascontiguousarray(words, dtype="<u8").tobytes(), "little"
    )


def gf2_rank_packed(packed: np.ndarray, width: Optional[int] = None) -> int:
    """Rank over GF(2) of a uint64-packed matrix (word-wise elimination).

    For each pivot column the pivot row is XORed into *all* rows still
    holding that bit in one vectorized operation; cost is
    ``O(width · rows · words)`` word XORs with numpy doing the inner two
    loops.
    """
    m = np.array(np.atleast_2d(packed), dtype=np.uint64)  # working copy
    n_rows, n_words = m.shape
    if width is None:
        width = n_words * 64
    rank = 0
    for col in range(width):
        if rank >= n_rows:
            break
        w, b = col >> 6, np.uint64(col & 63)
        has_bit = (m[rank:, w] >> b) & np.uint64(1)
        candidates = np.nonzero(has_bit)[0]
        if len(candidates) == 0:
            continue
        pivot = rank + int(candidates[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        below = np.nonzero(
            (m[rank + 1:, w] >> b) & np.uint64(1)
        )[0] + rank + 1
        if len(below):
            m[below] ^= m[rank]
        rank += 1
    return rank


def gf2_solve_packed(
    rows: np.ndarray,
    payloads: np.ndarray,
    width: int,
) -> Optional[np.ndarray]:
    """Solve ``A x = payloads`` for uint64-packed rows and payloads.

    The packed counterpart of :func:`gf2_solve`: ``rows`` is
    ``(m, words_for(width))`` coefficients, ``payloads`` is ``(m, P)``
    packed payload words.  Returns the ``(width, P)`` packed solution in
    column order, ``None`` when rank < ``width``, and raises
    ``ValueError`` on an inconsistent system — identical semantics to
    the Python-int reference.
    """
    m = np.array(np.atleast_2d(rows), dtype=np.uint64)  # working copies
    p = np.array(np.atleast_2d(payloads), dtype=np.uint64)
    if m.shape[0] != p.shape[0]:
        raise ValueError("rows and payloads must have equal length")
    if m.shape[1] < words_for(width):
        raise ValueError("rows narrower than declared width")
    if unpack_rows_u64(m, m.shape[1] * 64)[:, width:].any():
        raise ValueError(f"row has bit >= declared width {width}")

    n_rows = m.shape[0]
    rank = 0
    pivots: List[int] = []
    one = np.uint64(1)
    for col in range(width):
        if rank >= n_rows:
            break
        w, b = col >> 6, np.uint64(col & 63)
        candidates = np.nonzero((m[rank:, w] >> b) & one)[0]
        if len(candidates) == 0:
            continue
        pivot = rank + int(candidates[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
            p[[rank, pivot]] = p[[pivot, rank]]
        # Gauss-Jordan: clear the bit everywhere else at once.
        others = np.nonzero((m[:, w] >> b) & one)[0]
        others = others[others != rank]
        if len(others):
            m[others] ^= m[rank]
            p[others] ^= p[rank]
        pivots.append(col)
        rank += 1

    # Any fully-reduced row with surviving payload words is inconsistent
    # (zero coefficients cannot XOR to a non-zero payload).
    residue = ~np.any(m, axis=1) & np.any(p, axis=1)
    if residue.any():
        raise ValueError("inconsistent GF(2) system")
    if rank < width:
        return None
    solution = np.zeros((width, p.shape[1]), dtype=np.uint64)
    solution[np.array(pivots, dtype=np.int64)] = p[:rank]
    return solution


def gf2_absorb_batch(
    pivots: np.ndarray, basis_ids: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Absorb coefficient rows into many GF(2) bases in one elimination.

    ``pivots`` is a ``(B, width)`` uint64 array of ``B`` independent,
    payload-free bases in reduced row-echelon form: ``pivots[i, b]`` is
    basis ``i``'s row whose lowest set bit is ``b``, or 0 when ``b`` is
    not a pivot column — the layout of :class:`PackedGF2Basis`'s
    coefficient rows.  ``rows[t]`` (bits below ``width`` only) joins
    basis ``basis_ids[t]``; a basis may receive any number of rows.
    ``pivots`` is updated in place and the ``(B,)`` int64 rank gains are
    returned.  The final RREF is unique and the rank gain is the
    innovative-row count, so neither depends on the order of the rows.

    Each touched basis's stored pivots and new rows are laid out as one
    zero-padded lane; then, for each bit ``b``, every lane's first
    not-yet-pivot row holding ``b`` becomes the pivot and is XORed into
    the lane's other rows holding ``b`` (Gauss–Jordan).  That is
    ``width`` vectorized passes however many bases and rows there are.
    """
    n_bases, width = pivots.shape
    gain = np.zeros(n_bases, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.uint64)
    if rows.size == 0:
        return gain
    basis_ids = np.asarray(basis_ids, dtype=np.int64)
    order = np.argsort(basis_ids)
    ids = basis_ids[order]
    starts = np.flatnonzero(np.diff(ids, prepend=-1))
    counts = np.diff(starts, append=ids.size)
    touched = ids[starts]
    lanes = np.arange(touched.size)
    m = np.zeros((touched.size, width + int(counts.max())), dtype=np.uint64)
    m[:, :width] = pivots[touched]
    m[np.repeat(lanes, counts),
      width + np.arange(ids.size) - np.repeat(starts, counts)] = rows[order]

    one = np.uint64(1)
    free = np.ones(m.shape, dtype=np.uint64)  # 1: not yet a pivot
    # pivot_at[i, b]: lane i's pivot row for bit b; held[i, b]: it has one
    pivot_at = np.empty((touched.size, width), dtype=np.int64)
    held = np.empty((touched.size, width), dtype=np.uint64)
    for b in range(width):
        bit = (m >> np.uint64(b)) & one
        cand = bit & free
        first = cand.argmax(axis=1)
        found = cand[lanes, first]
        # zero where a lane has no candidate, so its XOR below is a no-op
        piv = m[lanes, first] * found
        bit[lanes, first] = 0
        m ^= bit * piv[:, None]
        free[lanes, first] ^= found
        pivot_at[:, b] = first
        held[:, b] = found

    before = np.count_nonzero(pivots[touched], axis=1)
    pivots[touched] = m[lanes[:, None], pivot_at] * held
    gain[touched] = np.count_nonzero(held, axis=1) - before
    return gain


class PackedGF2Basis:
    """Incremental word-wise XOR Gauss–Jordan elimination over GF(2).

    The workhorse behind :class:`repro.coding.rlnc.GroupDecoder` and
    :class:`repro.coding.integrity.HardenedGroupDecoder`.  Coefficient
    vectors are single 64-bit masks (``width <= 64`` — group widths are
    ``⌈log n⌉``); payloads are packed into little-endian uint64 words.
    The basis is kept in *reduced* row-echelon form keyed by pivot, so
    absorbing a row is one one-shot XOR-reduction (RREF guarantees the
    selected basis rows clear exactly the row's pivot bits) plus one
    vectorized back-substitution into the rows that held the new pivot.

    Payloads that fit one word run on plain machine ints (the degenerate
    single-word case of the same algorithm — no array overhead); wider
    payloads use vectorized numpy XOR across their words.
    """

    #: absorb_packed status codes
    INNOVATIVE = 1
    REDUNDANT = 0
    INCONSISTENT = -1

    def __init__(self, width: int, payload_words: int = 1):
        if not 1 <= width <= 64:
            raise ValueError("width must be in [1, 64]")
        if payload_words < 1:
            raise ValueError("payload_words must be >= 1")
        self.width = width
        self.payload_words = payload_words
        self.rank = 0
        self._pivot_mask = 0  # occupied pivot columns, as a bit mask
        self._coeff = [0] * width  # coefficient row stored at its pivot
        if payload_words == 1:
            self._pay_int: Optional[List[int]] = [0] * width
            self._pay: Optional[np.ndarray] = None
        else:
            self._pay_int = None
            self._pay = np.zeros((width, payload_words), dtype=np.uint64)

    @property
    def is_complete(self) -> bool:
        return self.rank == self.width

    def _grow_payload(self, n_words: int) -> None:
        """Widen payload storage (switches the single-word fast path to
        the vectorized multi-word representation)."""
        if self._pay_int is not None:
            self._pay = np.zeros((self.width, n_words), dtype=np.uint64)
            for j, value in enumerate(self._pay_int):
                self._pay[j] = pack_int_u64(value, n_words)
            self._pay_int = None
        else:
            pad = n_words - self._pay.shape[1]
            self._pay = np.pad(self._pay, ((0, 0), (0, pad)))
        self.payload_words = n_words

    # -- int-facing API (used by the decoders) -------------------------

    def absorb(self, coeff: int, payload: int) -> int:
        """Reduce and insert one ``(coefficient mask, payload int)`` row.

        Returns ``INNOVATIVE`` (rank grew), ``REDUNDANT`` (row was in the
        span, payload consistent) or ``INCONSISTENT`` (row reduced to
        zero coefficients with a non-zero payload — some row in the
        stream is corrupt).  The row is *not* inserted in the latter two
        cases.
        """
        needed = max(1, (int(payload).bit_length() + 63) >> 6)
        if needed > self.payload_words:
            self._grow_payload(needed)
        if self._pay_int is not None:
            return self._absorb_int(coeff, payload)
        return self.absorb_packed(
            coeff, pack_int_u64(payload, self.payload_words)
        )

    def _absorb_int(self, row: int, pay: int) -> int:
        """Single-payload-word fast path (machine-int XOR)."""
        reduce_mask = row & self._pivot_mask
        coeff = self._coeff
        pay_int = self._pay_int
        while reduce_mask:
            p = (reduce_mask & -reduce_mask).bit_length() - 1
            row ^= coeff[p]
            pay ^= pay_int[p]
            reduce_mask &= reduce_mask - 1
        if row == 0:
            return self.INCONSISTENT if pay else self.REDUNDANT
        p = (row & -row).bit_length() - 1
        hit = self._pivot_mask
        while hit:
            q = (hit & -hit).bit_length() - 1
            if coeff[q] >> p & 1:
                coeff[q] ^= row
                pay_int[q] ^= pay
            hit &= hit - 1
        self._coeff[p] = row
        pay_int[p] = pay
        self._pivot_mask |= 1 << p
        self.rank += 1
        return self.INNOVATIVE

    def absorb_block(
        self, rows: Sequence[int], payloads: Sequence[int]
    ) -> List[int]:
        """Absorb a block of ``(coefficient, payload)`` rows at once.

        Returns the per-row status list — exactly what ``[absorb(r, p)
        for ...]`` would return, with the basis left in exactly the same
        state.  The speedup comes from pre-reducing the whole block
        against the pivots that existed *before* the block in vectorized
        numpy passes (one XOR broadcast per existing pivot instead of a
        Python bit-loop per row); reducing by a subset of the span never
        changes a row's coset, and the per-row insertion then only has
        to handle the pivots the block itself introduces.  Falls back to
        the sequential path when payloads are in multi-word storage or
        exceed 64 bits.
        """
        rows = [int(r) for r in rows]
        payloads = [int(p) for p in payloads]
        if len(rows) != len(payloads):
            raise ValueError("rows and payloads must have equal length")
        if not rows:
            return []
        if (
            self._pay_int is None
            or len(rows) < 2
            or any(p >> 64 for p in payloads)
        ):
            return [self.absorb(r, p) for r, p in zip(rows, payloads)]

        r = np.array(rows, dtype=np.uint64)
        p = np.array(payloads, dtype=np.uint64)
        coeff = self._coeff
        pay_int = self._pay_int
        hit = self._pivot_mask
        while hit:
            piv = (hit & -hit).bit_length() - 1
            sel = (r >> np.uint64(piv)) & np.uint64(1) != 0
            if sel.any():
                r[sel] ^= np.uint64(coeff[piv])
                p[sel] ^= np.uint64(pay_int[piv])
            hit &= hit - 1
        return [
            self._absorb_int(int(r[i]), int(p[i])) for i in range(len(rows))
        ]

    def absorb_packed(self, row: int, pay: np.ndarray) -> int:
        """Multi-word path: payload as little-endian uint64 words."""
        if self._pay_int is not None:
            self._grow_payload(self.payload_words)  # force array storage
        if pay.shape[0] != self.payload_words:
            padded = np.zeros(self.payload_words, dtype=np.uint64)
            padded[: pay.shape[0]] = pay
            pay = padded
        else:
            pay = pay.astype(np.uint64, copy=True)
        reduce_mask = row & self._pivot_mask
        m = reduce_mask
        while m:
            p = (m & -m).bit_length() - 1
            row ^= self._coeff[p]
            pay ^= self._pay[p]
            m &= m - 1
        if row == 0:
            return self.INCONSISTENT if pay.any() else self.REDUNDANT
        p = (row & -row).bit_length() - 1
        hit = self._pivot_mask
        while hit:
            q = (hit & -hit).bit_length() - 1
            if self._coeff[q] >> p & 1:
                self._coeff[q] ^= row
                self._pay[q] ^= pay
            hit &= hit - 1
        self._coeff[p] = row
        self._pay[p] = pay
        self._pivot_mask |= 1 << p
        self.rank += 1
        return self.INNOVATIVE

    def payload_at(self, column: int) -> int:
        """The solved payload of ``column`` (valid once complete — in
        RREF with full rank every basis row is a unit vector)."""
        if self._pay_int is not None:
            return self._pay_int[column]
        return unpack_int_u64(self._pay[column])

    def solve_ints(self) -> Optional[List[int]]:
        """All payloads in column order, or None while rank < width."""
        if not self.is_complete:
            return None
        return [self.payload_at(j) for j in range(self.width)]

    def solution(self) -> Optional[np.ndarray]:
        """Packed ``(width, payload_words)`` solution, or None."""
        if not self.is_complete:
            return None
        if self._pay_int is not None:
            out = np.zeros((self.width, 1), dtype=np.uint64)
            for j, value in enumerate(self._pay_int):
                out[j, 0] = np.uint64(value & ((1 << 64) - 1))
            return out
        return self._pay.copy()


def gf2_rank_dense(matrix: np.ndarray) -> int:
    """Rank over GF(2) of a dense 0/1 numpy matrix.

    Vectorized elimination: for each pivot, XOR the pivot row into all rows
    holding a 1 in the pivot column at once.
    """
    m = np.array(matrix, dtype=np.uint8) & 1
    n_rows, n_cols = m.shape
    rank = 0
    for col in range(n_cols):
        if rank >= n_rows:
            break
        pivot_candidates = np.nonzero(m[rank:, col])[0]
        if len(pivot_candidates) == 0:
            continue
        pivot = rank + int(pivot_candidates[0])
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        below = np.nonzero(m[rank + 1 :, col])[0] + rank + 1
        if len(below):
            m[below] ^= m[rank]
        rank += 1
    return rank
