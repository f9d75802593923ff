"""Property tests for the bit-packed GF(2) kernel.

The packed uint64 implementations (:func:`pack_rows_u64`,
:func:`gf2_rank_packed`, :func:`gf2_solve_packed`,
:class:`PackedGF2Basis`, :func:`gf2_absorb_batch`) must agree exactly
with the pure-python references (:func:`gf2_rank`, :func:`gf2_rref`,
:func:`gf2_solve`) or with sequential absorption on every input:
pack/unpack round-trips, rank, spans, solvability, solution values, and
inconsistency detection.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.gf2 import (
    PackedGF2Basis,
    gf2_absorb_batch,
    gf2_rank,
    gf2_rank_dense,
    gf2_rank_packed,
    gf2_rref,
    gf2_solve,
    gf2_solve_packed,
    pack_int_u64,
    pack_rows,
    pack_rows_u64,
    unpack_int_u64,
    unpack_rows_u64,
    words_for,
)

COMMON = settings(max_examples=60, deadline=None)


def _dense(rows, width):
    """Int masks -> uint8 matrix, bit j of row i at [i, j]."""
    out = np.zeros((len(rows), width), dtype=np.uint8)
    for i, r in enumerate(rows):
        for j in range(width):
            out[i, j] = (r >> j) & 1
    return out


@st.composite
def int_matrix(draw, max_rows=10, max_width=150, min_width=1):
    width = draw(st.integers(min_width, max_width))
    n = draw(st.integers(0, max_rows))
    rows = draw(
        st.lists(
            st.integers(0, (1 << width) - 1), min_size=n, max_size=n
        )
    )
    return width, rows


# ----------------------------------------------------------------------
# Packing round-trips
# ----------------------------------------------------------------------


@COMMON
@given(int_matrix())
def test_pack_unpack_round_trip(matrix):
    width, rows = matrix
    dense = _dense(rows, width)
    packed = pack_rows_u64(dense)
    assert packed.shape == (len(rows), words_for(width))
    assert packed.dtype == np.uint64
    np.testing.assert_array_equal(unpack_rows_u64(packed, width), dense)
    # and the int view agrees with the word view
    assert pack_rows(dense) == rows


@COMMON
@given(st.integers(0, (1 << 256) - 1), st.integers(4, 6))
def test_pack_int_round_trip(value, n_words):
    words = pack_int_u64(value, n_words)
    assert words.shape == (n_words,)
    assert unpack_int_u64(words) == value


def test_words_for():
    assert [words_for(w) for w in (1, 63, 64, 65, 128, 129)] == [
        1, 1, 1, 2, 2, 3,
    ]


# ----------------------------------------------------------------------
# Rank
# ----------------------------------------------------------------------


@COMMON
@given(int_matrix())
def test_rank_packed_matches_references(matrix):
    width, rows = matrix
    dense = _dense(rows, width)
    expected = gf2_rank(rows)
    assert gf2_rank_packed(pack_rows_u64(dense), width) == expected
    assert gf2_rank_dense(dense) == expected


# ----------------------------------------------------------------------
# Solve
# ----------------------------------------------------------------------


@st.composite
def linear_system(draw, max_width=80, payload_bits=200):
    """A consistent system: payloads are true XOR combinations."""
    width = draw(st.integers(1, max_width))
    n = draw(st.integers(0, width + 3))
    rows = draw(
        st.lists(
            st.integers(0, (1 << width) - 1), min_size=n, max_size=n
        )
    )
    truth = draw(
        st.lists(
            st.integers(0, (1 << payload_bits) - 1),
            min_size=width,
            max_size=width,
        )
    )
    payloads = []
    for r in rows:
        acc = 0
        for j in range(width):
            if (r >> j) & 1:
                acc ^= truth[j]
        payloads.append(acc)
    return width, rows, payloads, truth


def _packed_system(width, rows, payloads):
    dense = _dense(rows, width)
    pay_words = max(1, words_for(max(payloads).bit_length() if payloads else 1))
    packed_pay = (
        np.stack([pack_int_u64(p, pay_words) for p in payloads])
        if payloads
        else np.zeros((0, pay_words), dtype=np.uint64)
    )
    return pack_rows_u64(dense), packed_pay


@COMMON
@given(linear_system())
def test_solve_packed_matches_reference(system):
    width, rows, payloads, truth = system
    expected = gf2_solve(rows, payloads, width)
    packed_rows, packed_pay = _packed_system(width, rows, payloads)
    got = gf2_solve_packed(packed_rows, packed_pay, width)
    if expected is None:
        assert got is None
    else:
        assert expected == truth  # consistent full-rank system
        assert got is not None
        decoded = [unpack_int_u64(got[j]) for j in range(width)]
        assert decoded == expected


@COMMON
@given(linear_system())
def test_solve_packed_detects_inconsistency(system):
    width, rows, payloads, _ = system
    if not rows or all(r == 0 for r in rows):
        return
    # Re-add the first non-zero equation with its payload flipped: the
    # system now contains "same combination, different value".
    i = next(i for i, r in enumerate(rows) if r != 0)
    bad_rows = rows + [rows[i]]
    bad_payloads = payloads + [payloads[i] ^ 1]
    with pytest.raises(ValueError, match="inconsistent"):
        gf2_solve(bad_rows, bad_payloads, width)
    packed_rows, packed_pay = _packed_system(width, bad_rows, bad_payloads)
    with pytest.raises(ValueError, match="inconsistent"):
        gf2_solve_packed(packed_rows, packed_pay, width)


def test_solve_packed_rejects_overwide_rows():
    rows = np.array([[np.uint64(1 << 5)]], dtype=np.uint64)
    pay = np.zeros((1, 1), dtype=np.uint64)
    with pytest.raises(ValueError, match="width"):
        gf2_solve_packed(rows, pay, 3)


# ----------------------------------------------------------------------
# PackedGF2Basis vs an incremental pure-python oracle
# ----------------------------------------------------------------------


def _oracle_absorb(basis, row, payload):
    """Reference incremental RREF step (mirrors gf2_solve's loop)."""
    for b_row, b_pay in basis:
        pivot = b_row & -b_row
        if row & pivot:
            row ^= b_row
            payload ^= b_pay
    if row == 0:
        return (-1 if payload else 0), basis
    pivot = row & -row
    basis = [
        (br ^ row, bp ^ payload) if br & pivot else (br, bp)
        for br, bp in basis
    ]
    basis.append((row, payload))
    return 1, basis


@st.composite
def absorb_stream(draw, payload_bits):
    width = draw(st.integers(1, 64))
    n = draw(st.integers(0, 2 * width))
    stream = draw(
        st.lists(
            st.tuples(
                st.integers(0, (1 << width) - 1),
                st.integers(0, (1 << payload_bits) - 1),
            ),
            min_size=n,
            max_size=n,
        )
    )
    return width, stream


def _check_basis_against_oracle(width, stream):
    basis = PackedGF2Basis(width)
    oracle = []
    for coeff, payload in stream:
        status, oracle = _oracle_absorb(oracle, coeff, payload)
        assert basis.absorb(coeff, payload) == status
        assert basis.rank == len(oracle)
        assert basis.is_complete == (len(oracle) == width)
    solution = basis.solve_ints()
    if len(oracle) < width:
        assert solution is None
    else:
        expected = [0] * width
        for b_row, b_pay in oracle:
            col = (b_row & -b_row).bit_length() - 1
            expected[col] = b_pay
        assert solution == expected


@COMMON
@given(absorb_stream(payload_bits=60))
def test_basis_matches_oracle_single_word_payloads(case):
    _check_basis_against_oracle(*case)


@COMMON
@given(absorb_stream(payload_bits=300))
def test_basis_matches_oracle_multi_word_payloads(case):
    # >64-bit payloads force the vectorized numpy path (_grow_payload)
    _check_basis_against_oracle(*case)


def test_basis_rejects_bad_width():
    with pytest.raises(ValueError):
        PackedGF2Basis(0)
    with pytest.raises(ValueError):
        PackedGF2Basis(65)


# ----------------------------------------------------------------------
# PackedGF2Basis.absorb_block vs sequential absorb
# ----------------------------------------------------------------------


@st.composite
def block_stream(draw):
    """Rows cut into blocks (empty and one-row blocks included), with
    payloads up to 100 bits and rows that repeat an earlier coefficient
    under a different payload (``INCONSISTENT`` once that row is in)."""
    width = draw(st.integers(1, 64))
    payload = st.one_of(
        st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 100) - 1)
    )
    stream = []
    for _ in range(draw(st.integers(0, 2 * width + 2))):
        if stream and draw(st.booleans()):
            coeff, pay = stream[draw(st.integers(0, len(stream) - 1))]
            stream.append((coeff, pay ^ draw(st.integers(1, 255))))
        else:
            stream.append((draw(st.integers(0, (1 << width) - 1)),
                           draw(payload)))
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=6)))
    bounds = [0] + cuts + [len(stream)]
    return width, [stream[a:b] for a, b in zip(bounds, bounds[1:])]


@COMMON
@given(block_stream())
def test_absorb_block_matches_sequential_absorb(case):
    width, blocks = case
    sequential = PackedGF2Basis(width)
    blocked = PackedGF2Basis(width)
    for block in blocks:
        rows = [c for c, _ in block]
        pays = [p for _, p in block]
        expected = [sequential.absorb(c, p) for c, p in block]
        assert blocked.absorb_block(rows, pays) == expected
        assert blocked.rank == sequential.rank
        assert blocked.solve_ints() == sequential.solve_ints()


def test_absorb_block_edge_cases():
    basis = PackedGF2Basis(3)
    assert basis.absorb_block([], []) == []
    assert basis.rank == 0
    assert basis.absorb_block([0b011], [5]) == [PackedGF2Basis.INNOVATIVE]
    assert basis.absorb_block(
        [0b011, 0b011, 0b100, 0b001], [5, 6, 1, 7]
    ) == [
        PackedGF2Basis.REDUNDANT,
        PackedGF2Basis.INCONSISTENT,
        PackedGF2Basis.INNOVATIVE,
        PackedGF2Basis.INNOVATIVE,
    ]
    assert basis.solve_ints() == [7, 5 ^ 7, 1]
    with pytest.raises(ValueError):
        basis.absorb_block([1, 2], [0])


# ----------------------------------------------------------------------
# gf2_absorb_batch vs per-basis PackedGF2Basis and the RREF reference
# ----------------------------------------------------------------------


@st.composite
def batch_stream(draw):
    """Random rows for several bases, cut into blocks; zero rows are
    common and narrow widths make bases complete early and then keep
    receiving rows."""
    width = draw(st.one_of(st.sampled_from([1, 2, 64]), st.integers(1, 64)))
    n_bases = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(0, 3 * width + 3), max_size=4))
    blocks = []
    for size in sizes:
        rows = rng.integers(0, 1 << 63, size=size, dtype=np.uint64) << 1
        rows |= rng.integers(0, 2, size=size, dtype=np.uint64)
        if width < 64:
            rows &= np.uint64((1 << width) - 1)
        rows[rng.random(size) < 0.2] = 0
        blocks.append((rng.integers(0, n_bases, size=size), rows))
    return width, n_bases, blocks


@COMMON
@given(batch_stream())
def test_absorb_batch_matches_packed_basis(case):
    width, n_bases, blocks = case
    pivots = np.zeros((n_bases, width), dtype=np.uint64)
    oracles = [PackedGF2Basis(width) for _ in range(n_bases)]
    streams = [[] for _ in range(n_bases)]
    for ids, rows in blocks:
        gains = gf2_absorb_batch(pivots, ids, rows)
        assert gains.shape == (n_bases,)
        for i in range(n_bases):
            mine = [int(r) for r in rows[ids == i]]
            before = oracles[i].rank
            for r in mine:
                oracles[i].absorb(r, 0)
            streams[i] += mine
            assert gains[i] == oracles[i].rank - before
            held = [int(r) for r in pivots[i] if r]
            # Same span: the RREF of a span is unique.
            assert held == gf2_rref(streams[i], width)[0]
            assert len(held) == oracles[i].rank
            for b, r in enumerate(pivots[i].tolist()):
                assert r == 0 or (r & -r) == 1 << b


def test_absorb_batch_complete_basis_and_empty_input():
    pivots = np.zeros((2, 2), dtype=np.uint64)
    empty = np.zeros(0, dtype=np.uint64)
    assert not gf2_absorb_batch(pivots, empty, empty).any()
    gains = gf2_absorb_batch(
        pivots, np.array([1, 1, 1, 1]), np.array([3, 0, 3, 1], np.uint64)
    )
    assert gains.tolist() == [0, 2]
    assert pivots.tolist() == [[0, 0], [1, 2]]
    gains = gf2_absorb_batch(
        pivots, np.array([1, 0]), np.array([2, 2], np.uint64)
    )
    assert gains.tolist() == [1, 0]
    assert pivots.tolist() == [[0, 2], [1, 2]]
    # one pass, three lanes: no candidate for bit 0, fills, already full
    pivots = np.array([[0, 0], [0, 0], [1, 2]], dtype=np.uint64)
    gains = gf2_absorb_batch(
        pivots, np.array([2, 1, 0, 1]), np.array([3, 3, 2, 1], np.uint64)
    )
    assert gains.tolist() == [1, 2, 0]
    assert pivots.tolist() == [[0, 2], [1, 2], [1, 2]]
