import itertools
import random
from collections import Counter

import pytest

from conftest import ACCEPTANCE_SETS, deficient_pairs, evaluate
from eoflex import decoder
from eoflex.codearray import CodeArray, ErasurePattern, xor_lanes
from eoflex.codec import compute_common_bits, encode
from eoflex.decoder import (
    decode,
    decode_info_via_row_parity,
    decode_info_with_diag_parity,
    pair_syndromes,
    recover_pair,
    sum_common_bits,
    undecodable_pairs,
)
from eoflex.errors import ChainStall, TooManyErasures
from eoflex.params import validate_params
from eoflex.program import Builder

PRM = validate_params(2, 5, 3)


def encoded_random(triple, rng, width=1):
    prm = validate_params(*triple)
    return encode(CodeArray.random(prm, width, rng))


class CountedLane(bytes):
    """A lane that counts its conversions to an int: `int.from_bytes` reads
    a bytes subclass through `__bytes__`."""

    def __bytes__(self):
        self.conversions[self.cell] += 1
        return self[:]


def counted(arr, columns):
    """Make the cells of `columns` count their conversions; returns the
    Counter keyed by (row, column)."""
    conversions = Counter()
    n = arr.params.k + 2
    for i in range(arr.params.rows):
        for j in columns:
            lane = arr.cells[i * n + j] = CountedLane(arr.get(i, j))
            lane.conversions, lane.cell = conversions, (i, j)
    return conversions


class TestDispatch:
    def test_both_parity_columns(self, rng):
        arr = encoded_random((2, 5, 3), rng)
        ref = arr.copy()
        decode(arr, ErasurePattern.of(3, 4))
        assert arr == ref

    @pytest.mark.parametrize("pattern", [(0, 2), (1, 3), (0, 4), (2,), (3,)])
    def test_selected_patterns_roundtrip(self, pattern, rng):
        arr = encoded_random((2, 5, 3), rng)
        ref = arr.copy()
        decode(arr, ErasurePattern.of(*pattern))
        assert arr == ref

    @pytest.mark.parametrize("triple", [(2, 5, 3), (1, 11, 7), (3, 9, 3)])
    def test_info_and_parity_loss_converts_no_cell_twice(self, triple, rng):
        # One program restores both columns, so no surviving cell is
        # converted from bytes a second time.
        prm = validate_params(*triple)
        for f in range(prm.k):
            for parity in (prm.k, prm.k + 1):
                arr = encoded_random(triple, rng, 4)
                ref = arr.copy()
                arr.set_column(f, [bytes(4)] * prm.rows)
                arr.set_column(parity, [bytes(4)] * prm.rows)
                survivors = set(range(prm.k + 2)) - {f, parity}
                conversions = counted(arr, survivors)
                decode(arr, ErasurePattern.of(f, parity))
                assert arr == ref
                assert conversions and max(conversions.values()) == 1, (f, parity)

    @pytest.mark.parametrize("triple", [(2, 5, 3), (1, 11, 7), (3, 9, 3)])
    def test_one_program_per_pattern(self, triple, rng, monkeypatch):
        # A loss of an information column runs its one decoding program,
        # which restores a lost parity column too, and calls no encode; a
        # loss of both parity columns is exactly one encode.
        prm = validate_params(*triple)
        k = prm.k
        calls = []

        def counted_encode(*args, **kwargs):
            calls.append(kwargs.get("columns"))
            return encode(*args, **kwargs)

        monkeypatch.setattr(decoder, "encode", counted_encode)
        for f in range(k):
            for cols in [(f,), (f, k), (f, k + 1)]:
                arr = encoded_random(triple, rng, 4)
                ref = arr.copy()
                decode(arr, ErasurePattern.of(*cols))
                assert arr == ref, cols
                assert calls == [], cols
        arr = encoded_random(triple, rng, 4)
        ref = arr.copy()
        decode(arr, ErasurePattern.of(k, k + 1))
        assert arr == ref
        assert calls == [[k, k + 1]]

    def test_too_many_erasures(self, rng):
        arr = encoded_random((2, 5, 3), rng)
        with pytest.raises(TooManyErasures):
            decode(arr, ErasurePattern.of(0, 1, 2))

    @pytest.mark.parametrize("triple", ACCEPTANCE_SETS + [(1, 3, 2), (2, 3, 2)])
    def test_all_pairs_roundtrip(self, triple):
        prm = validate_params(*triple)
        rng = random.Random(hash(triple) & 0xFFFFF)
        bad = set(deficient_pairs(triple))
        for cols in itertools.combinations(range(prm.k + 2), 2):
            for _ in range(5):
                arr = encode(CodeArray.random(prm, 1, rng))
                ref = arr.copy()
                if cols in bad:
                    with pytest.raises(ChainStall):
                        decode(arr, ErasurePattern.of(*cols))
                else:
                    decode(arr, ErasurePattern.of(*cols))
                    assert arr == ref, (triple, cols)


class TestUndecodablePairs:
    @pytest.mark.parametrize("triple", ACCEPTANCE_SETS)
    def test_acceptance_sets(self, triple):
        assert undecodable_pairs(validate_params(*triple)) == tuple(deficient_pairs(triple))

    def test_full_rank_stall_is_undecodable(self):
        # Every pair of (2,5,5) is full rank, but the chain rules stall on 2+4.
        assert undecodable_pairs(validate_params(2, 5, 5)) == ((2, 4),)
        with pytest.raises(ChainStall):
            decode(encoded_random((2, 5, 5), random.Random(5)), ErasurePattern.of(2, 4))


class TestRowParityPath:
    def test_zero_array(self):
        arr = encode(CodeArray.zeros(PRM, 1))
        col = evaluate(arr, lambda b: decode_info_via_row_parity(b, 1), (1,))
        assert col == [bytes(1)] * PRM.rows

    @pytest.mark.parametrize("triple,f", [((2, 5, 3), 1), ((1, 5, 3), 0)])
    def test_roundtrip(self, triple, f, rng):
        arr = encoded_random(triple, rng)
        expected = arr.column(f)
        assert evaluate(arr, lambda b: decode_info_via_row_parity(b, f), (f,)) == expected

    def test_guard(self):
        # Builder.get refuses a read of the erased row-parity column.
        with pytest.raises(ValueError, match=r"cell \(0,3\) is erased"):
            decode_info_via_row_parity(Builder(PRM, {0, 3}), 0)


class TestDiagParityPath:
    @pytest.mark.parametrize("f", [0, 1, 2])
    def test_zero_array(self, f):
        arr = encode(CodeArray.zeros(PRM, 1))
        col = evaluate(arr, lambda b: decode_info_with_diag_parity(b, f), (f, 3))
        assert col == [bytes(1)] * PRM.rows

    @pytest.mark.parametrize("triple", ACCEPTANCE_SETS)
    def test_roundtrip_every_f(self, triple):
        # f = 0 inverts directly; f >= 1 exercises the participant chain.
        rng = random.Random(triple[1] * 1000 + triple[2])
        prm = validate_params(*triple)
        for f in range(prm.k):
            arr = encoded_random(triple, rng)
            expected = arr.column(f)
            got = evaluate(arr, lambda b: decode_info_with_diag_parity(b, f), (f, prm.k))
            assert got == expected, (triple, f)

    def test_guard(self):
        # Builder.get refuses a read of the erased diagonal-parity column.
        with pytest.raises(ValueError, match=r"cell \(0,4\) is erased"):
            decode_info_with_diag_parity(Builder(PRM, {0, 4}), 0)


def total(b):
    return [sum_common_bits(b)]


class TestSumCommonBits:
    def test_zero(self):
        assert evaluate(encode(CodeArray.zeros(PRM, 1)), total) == [b"\x00"]

    def test_single_bit_example(self):
        arr = CodeArray.zeros(PRM, 1)
        arr.set(7, 1, b"\x01")
        encode(arr)
        assert evaluate(arr, total) == [b"\x01"]  # S0=1, S1=0

    @pytest.mark.parametrize("triple", ACCEPTANCE_SETS)
    def test_equals_xor_of_common_bits(self, triple):
        rng = random.Random(triple[0])
        arr = encoded_random(triple, rng, width=2)
        acc = bytes(2)
        for lane in evaluate(arr, compute_common_bits):
            acc = xor_lanes(acc, lane)
        assert evaluate(arr, total) == [acc]

    def test_needs_both_parity_columns(self):
        # Builder.get refuses a read of the erased diagonal-parity column.
        with pytest.raises(ValueError, match=r"cell \(0,4\) is erased"):
            sum_common_bits(Builder(PRM, {0, 4}))


def syndromes(arr, f, g):
    """(row syndromes, diagonal syndromes, common-bit sum) as lanes."""
    rows = arr.params.rows

    def rule(b):
        syn = pair_syndromes(b, f, g)
        return syn.row_syn + syn.diag_syn + [syn.sum_s]

    lanes = evaluate(arr, rule, (f, g))
    return lanes[:rows], lanes[rows:-1], lanes[-1]


class TestSyndromes:
    def test_zero_array(self):
        arr = encode(CodeArray.zeros(PRM, 1))
        row_syn, diag_syn, sum_s = syndromes(arr, 0, 2)
        assert all(lane == b"\x00" for lane in row_syn + diag_syn)
        assert sum_s == b"\x00"

    def test_single_surviving_bit(self):
        # Raw array (zero parity) with only b[3,1] set: subtracting the
        # surviving column-1 contributions leaves a row trace at row 3 and
        # a diagonal trace at row 4.
        arr = CodeArray.zeros(PRM, 1)
        arr.set(3, 1, b"\x01")
        row_syn, diag_syn, sum_s = syndromes(arr, 0, 2)
        assert [i for i, v in enumerate(row_syn) if v != b"\x00"] == [3]
        assert [i for i, v in enumerate(diag_syn) if v != b"\x00"] == [4]
        assert sum_s == b"\x00"

    @pytest.mark.parametrize("triple", [(2, 5, 3), (2, 7, 4), (1, 11, 7)])
    def test_row_syndrome_soundness(self, triple):
        rng = random.Random(99)
        arr = encoded_random(triple, rng)
        prm = arr.params
        for f, g in itertools.combinations(range(prm.k), 2):
            row_syn = syndromes(arr, f, g)[0]
            for i in range(prm.rows):
                expected = xor_lanes(arr.get(i, f), arr.get(i, g))
                assert row_syn[i] == expected


class TestTwoInfo:
    @pytest.mark.parametrize(
        "triple,f,g",
        [
            ((2, 5, 3), 0, 2),   # stride = k-1, divisible
            ((2, 5, 3), 0, 1),   # stride 1
            ((2, 7, 4), 0, 2),   # stride = tau: splits into interleaved chains
            ((2, 7, 4), 1, 3),
            ((1, 7, 5), 0, 2),   # stride > tau
            ((1, 11, 7), 0, 3),  # stride not dividing the row count
        ],
    )
    def test_roundtrip(self, triple, f, g, rng):
        arr = encoded_random(triple, rng, width=3)
        got = evaluate(arr, lambda b: sum(recover_pair(b, f, g), []), (f, g))
        assert got == arr.column(f) + arr.column(g)

    def test_interleaved_chains_match_oracle(self):
        # stride == tau splits the ring into tau independent chains; the
        # recovered columns must agree with Gaussian elimination bit for bit.
        from eoflex.oracle import gaussian_decode

        for triple, f, g in [((2, 7, 4), 0, 2), ((3, 5, 3), 0, 3 - 1), ((1, 5, 3), 0, 1)]:
            prm = validate_params(*triple)
            rng = random.Random(4)
            arr = encode(CodeArray.random(prm, 1, rng))
            bits = [
                arr.get(i, c)[0] & 1
                for c in range(prm.k + 2)
                for i in range(prm.rows)
            ]
            want = gaussian_decode(prm, bits, (f, g))
            ref = arr.copy()
            decode(arr, ErasurePattern.of(f, g))
            assert arr == ref
            got = [
                arr.get(i, j)[0] & 1 for j in range(prm.k) for i in range(prm.rows)
            ]
            assert got == want


class TestKnownConstructionGap:
    """(2,7,4) columns (0,3) cannot be recovered: an explicit nonzero
    information pattern encodes to all-zero parity with columns 1 and 2
    zero, so erasing columns 0 and 3 is ambiguous.  The decoder must
    refuse (ChainStall) rather than return either candidate."""

    def kernel_array(self):
        prm = validate_params(2, 7, 4)
        arr = CodeArray.zeros(prm, 1)
        rows = {0, 1, 2, 6, 7, 9, 10}
        for i in rows:
            arr.set(i, 0, b"\x01")
            arr.set(i, 3, b"\x01")
        return arr

    def test_rank_deficient_pair_has_kernel(self):
        arr = encode(self.kernel_array())
        prm = arr.params
        for i in range(prm.rows):
            assert arr.get(i, 1) == b"\x00"
            assert arr.get(i, 2) == b"\x00"
            assert arr.get(i, prm.k) == b"\x00"
            assert arr.get(i, prm.k + 1) == b"\x00"

    def test_decoder_stalls_instead_of_guessing(self, rng):
        arr = encoded_random((2, 7, 4), rng)
        with pytest.raises(ChainStall):
            decode(arr, ErasurePattern.of(0, 3))
