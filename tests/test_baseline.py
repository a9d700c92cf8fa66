from fractions import Fraction

import pytest

from eoflex.codearray import CodeArray
from eoflex.codec import encode, encoding_program
from eoflex.errors import PNotOdd, PNotPrime, PTooSmall
from eoflex.metrics import evenodd_params, evenodd_update_formula, measure_update_complexity
from eoflex.oracle import tau1_equivalence_check


def evenodd_encode(grid, p, k):
    """Encode a (p-1) x k grid of 1-byte cells as classic EVENODD; return
    the (p-1) x (k+2) grid of lanes."""
    cells = [bytearray([v]) for row in grid for v in (*row, 0, 0)]
    arr = encode(CodeArray(evenodd_params(p, k), 1, cells))
    return [[arr.get(i, j) for j in range(k + 2)] for i in range(p - 1)]


class TestClassicEncoder:
    def test_params(self):
        prm = evenodd_params(7, 4)
        assert (prm.tau, prm.t, prm.n_c, prm.rows, prm.ring) == (1, 1, 6, 6, 7)

    def test_zero(self):
        out = evenodd_encode([[0] * 3] * 4, 5, 3)
        assert all(cell == b"\x00" for row in out for cell in row)

    def test_common_bit_feeds_every_row(self):
        # b[3,1] = 1 is the only set bit; it is a common-bit participant
        # (diagonal row 3+1 = 4 is virtual), so all four rows of the
        # diagonal-parity column light up.
        grid = [[0] * 3 for _ in range(4)]
        grid[3][1] = 1
        out = evenodd_encode(grid, 5, 3)
        assert [row[3] for row in out] == [b"\x00"] * 3 + [b"\x01"]
        assert [row[4] for row in out] == [b"\x01"] * 4

    def test_plain_diagonal_bit(self):
        grid = [[0] * 3 for _ in range(4)]
        grid[0][0] = 1
        out = evenodd_encode(grid, 5, 3)
        assert [row[4] for row in out] == [b"\x01", b"\x00", b"\x00", b"\x00"]

    @pytest.mark.parametrize("p,k,xors", [(5, 3, 19), (7, 4, 41), (7, 5, 53), (11, 7, 129)])
    def test_encode_xors(self, p, k, xors):
        prm = evenodd_params(p, k)
        assert encoding_program(prm, (k, k + 1)).xor_count == xors

    def test_bad_parameters(self):
        with pytest.raises(PNotPrime):
            evenodd_params(9, 3)
        with pytest.raises(PTooSmall):
            evenodd_params(3, 5)
        # 2 is prime, but no validated code has p = 2.
        with pytest.raises(PNotOdd):
            evenodd_params(2, 2)


def classic_update(p, k):
    return measure_update_complexity(evenodd_params(p, k)).empirical


class TestClassicUpdateComplexity:
    def test_example_value(self):
        assert classic_update(5, 3) == Fraction(5, 2)

    @pytest.mark.parametrize("p,k", [(5, 3), (7, 4), (7, 5), (11, 7), (13, 4)])
    def test_matches_formula_exactly(self, p, k):
        assert classic_update(p, k) == evenodd_update_formula(p, k)


class TestTau1Reduction:
    @pytest.mark.parametrize("p,k,threshold", [(5, 3, 2), (7, 5, 4), (9, 3, 2)])
    def test_structure(self, p, k, threshold):
        from eoflex.params import validate_params

        assert tau1_equivalence_check(p, k)
        assert validate_params(1, p, k).n_c == threshold
