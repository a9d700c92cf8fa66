import hashlib
import random

import pytest

from conftest import ACCEPTANCE_SETS, evaluate
from eoflex.codearray import CodeArray, xor_lanes
from eoflex.codec import (
    common_bit_participants,
    compute_common_bits,
    encode,
    encoding_program,
    update_cell,
    update_positions,
)
from eoflex.errors import ParityColumnNotUpdatable
from eoflex.metrics import evenodd_params
from eoflex.params import validate_params

PRM = validate_params(2, 5, 3)
ONE = b"\x01"
ZERO = b"\x00"

# SHA-256 of the update positions of every information cell of
# ACCEPTANCE_SETS and classic EVENODD (5,3), (7,4), (7,5) and (11,7), as
# `TestUpdatePositions` hashes them; recorded from the rule-by-rule inverse
# of the parity equations that `update_positions` replaced.
UPDATE_POSITIONS_SHA256 = "48a21768c4dcee60a31f40db15bc71216c48bb13c27b510d27aa2fcd0888d3d2"


def unit_array(prm, i, j, width=1):
    arr = CodeArray.zeros(prm, width)
    lane = bytes([1]) + bytes(width - 1)
    arr.set(i, j, lane)
    return arr


def nonzero_parity(arr):
    prm = arr.params
    return {
        (i, c)
        for i in range(prm.rows)
        for c in (prm.k, prm.k + 1)
        if any(arr.get(i, c))
    }


class TestCommonBits:
    def test_zero_array(self):
        assert evaluate(CodeArray.zeros(PRM, 1), compute_common_bits) == [ZERO, ZERO]

    def test_row7_col1_feeds_s0(self):
        assert evaluate(unit_array(PRM, 7, 1), compute_common_bits) == [ONE, ZERO]

    def test_row7_col2_feeds_s1(self):
        assert evaluate(unit_array(PRM, 7, 2), compute_common_bits) == [ZERO, ONE]

    def test_participants_are_real_rows(self):
        for triple in ACCEPTANCE_SETS:
            prm = validate_params(*triple)
            for mu in range(prm.t):
                for i, j in common_bit_participants(prm, mu):
                    assert 0 <= i < prm.rows
                    assert mu < j < prm.k


class TestEncode:
    def test_zero_information(self):
        arr = encode(CodeArray.zeros(PRM, 1))
        assert nonzero_parity(arr) == set()

    def test_unit_b00(self):
        arr = encode(unit_array(PRM, 0, 0))
        assert nonzero_parity(arr) == {(0, 3), (0, 4)}

    def test_unit_b71(self):
        # Diagonal term lands on virtual row 8; reaches column 4 only
        # through the first common bit (rows 0 and 2).
        arr = encode(unit_array(PRM, 7, 1))
        assert nonzero_parity(arr) == {(7, 3), (0, 4), (2, 4)}

    def test_reencode_idempotent(self, rng):
        for triple in [(2, 5, 3), (1, 7, 4), (3, 9, 3)]:
            prm = validate_params(*triple)
            arr = encode(CodeArray.random(prm, 2, rng))
            again = encode(arr.copy())
            assert again == arr

    def test_one_parity_column(self, rng):
        # Filling one parity column alone writes only that column, with the
        # same cells and the share of the XORs a full encode spends on it.
        for triple in [(2, 5, 3), (1, 11, 7), (3, 9, 3)]:
            prm = validate_params(*triple)
            want = encode(CodeArray.random(prm, 2, rng))
            counts = []
            for c in (prm.k, prm.k + 1):
                arr = want.copy()
                other = 2 * prm.k + 1 - c
                arr.set_column(c, [bytes(2)] * prm.rows)
                arr.set_column(other, [b"\xff\xff"] * prm.rows)
                encode(arr, columns={c})
                assert arr.column(c) == want.column(c)
                assert arr.column(other) == [b"\xff\xff"] * prm.rows
                counts.append(encoding_program(prm, (c,)).xor_count)
            full = encoding_program(prm, (prm.k, prm.k + 1)).xor_count
            assert counts[0] == prm.rows * (prm.k - 1)
            assert sum(counts) == full

    def test_linearity(self, rng):
        for triple in [(2, 5, 3), (1, 7, 5), (2, 7, 4)]:
            prm = validate_params(*triple)
            a = encode(CodeArray.random(prm, 2, rng))
            b = encode(CodeArray.random(prm, 2, rng))
            summed = CodeArray(prm, 2, [xor_lanes(x, y) for x, y in zip(a.cells, b.cells)])
            assert encode(summed.copy()) == summed

    def test_rows_at_or_above_threshold_carry_no_common_bit(self):
        # Encode arrays whose only nonzero cells are common-bit
        # participants: their diagonal terms land on virtual rows, so
        # column k+1 is fed only through common bits, which never reach
        # rows >= n_c.
        for triple in ACCEPTANCE_SETS:
            prm = validate_params(*triple)
            arr = CodeArray.zeros(prm, 1)
            for mu in range(prm.t):
                for i, j in common_bit_participants(prm, mu):
                    arr.set(i, j, ONE)
            encode(arr)
            for i in range(prm.n_c, prm.rows):
                assert arr.get(i, prm.k + 1) == ZERO, (triple, i)


class TestUpdatePositions:
    def test_golden_digest(self):
        sets = [validate_params(*t) for t in ACCEPTANCE_SETS]
        sets += [evenodd_params(p, k) for p, k in [(5, 3), (7, 4), (7, 5), (11, 7)]]
        h = hashlib.sha256()
        for prm in sets:
            positions = update_positions(prm)
            for i in range(prm.rows):
                for j in range(prm.k):
                    h.update(repr((prm.tau, prm.p, prm.k, prm.n_c, i, j, positions[(i, j)])).encode())
        assert h.hexdigest() == UPDATE_POSITIONS_SHA256


class TestUpdateCell:
    def test_flip_b00(self):
        arr = encode(CodeArray.zeros(PRM, 1))
        changed = update_cell(arr, 0, 0, ONE)
        assert set(changed) == {(0, 3), (0, 4)}

    def test_flip_b71(self):
        arr = encode(CodeArray.zeros(PRM, 1))
        changed = update_cell(arr, 7, 1, ONE)
        assert set(changed) == {(7, 3), (0, 4), (2, 4)}

    def test_rewrite_same_value_no_change(self, rng):
        arr = encode(CodeArray.random(PRM, 4, rng))
        before = arr.copy()
        positions = update_cell(arr, 3, 2, arr.get(3, 2))
        assert arr == before
        assert positions  # positions are reported even for a no-op write

    @pytest.mark.parametrize("lane", [b"", b"\x01\x02"])
    def test_wrong_lane_width_rejected(self, lane):
        arr = encode(CodeArray.zeros(PRM, 1))
        before = arr.copy()
        with pytest.raises(ValueError, match="lane width mismatch"):
            update_cell(arr, 0, 0, lane)
        assert arr == before

    def test_parity_column_rejected(self):
        arr = encode(CodeArray.zeros(PRM, 1))
        with pytest.raises(ParityColumnNotUpdatable):
            update_cell(arr, 0, 3, ONE)

    @pytest.mark.parametrize("row", [-1, PRM.rows])
    def test_row_out_of_range_rejected(self, row):
        arr = encode(CodeArray.zeros(PRM, 1))
        before = arr.copy()
        with pytest.raises(IndexError, match=f"row {row} out of range"):
            update_cell(arr, row, 0, ONE)
        assert arr == before

    @pytest.mark.parametrize("triple", ACCEPTANCE_SETS)
    def test_patch_equals_fresh_encode(self, triple):
        prm = validate_params(*triple)
        rng = random.Random(hash(triple) & 0xFFFF)
        arr = encode(CodeArray.random(prm, 2, rng))
        trials = 1000 if triple == (2, 5, 3) else 200
        for _ in range(trials):
            i = rng.randrange(prm.rows)
            j = rng.randrange(prm.k)
            update_cell(arr, i, j, rng.randbytes(2))
            assert encode(arr.copy()) == arr
