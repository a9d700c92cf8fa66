import itertools

import pytest

from conftest import ACCEPTANCE_SETS, deficient_pairs
from eoflex.codearray import CodeArray
from eoflex.codec import encode
from eoflex.errors import Underdetermined
from eoflex.metrics import evenodd_params
from eoflex.oracle import (
    encode_bits,
    erasure_solver,
    gaussian_decode,
    generator_matrix,
    rank_check,
)
from eoflex.params import CodeParams, validate_params

PRM = validate_params(2, 5, 3)


def array_bits(arr):
    prm = arr.params
    return [
        arr.get(i, c)[0] & 1
        for c in range(prm.k + 2)
        for i in range(prm.rows)
    ]


class TestGenerator:
    def test_systematic_identity(self):
        for triple in [(2, 5, 3), (1, 7, 4), (1, 11, 7)]:
            prm = validate_params(*triple)
            g = generator_matrix(prm)
            n = prm.k * prm.rows
            for r in range(n):
                assert g.bits[r] == 1 << r

    def test_zero_maps_to_zero(self):
        g = generator_matrix(PRM)
        assert g.mul_vec(0) == [0] * g.rows

    def test_unit_b71_parity_support(self):
        # Info bit (row 7, column 1) feeds parity bits (7,3), (0,4), (2,4).
        g = generator_matrix(PRM)
        idx = 1 * PRM.rows + 7
        support = {
            (r % PRM.rows, r // PRM.rows)
            for r in range(g.rows)
            if g.get(r, idx)
        }
        assert support == {(7, 1), (7, 3), (0, 4), (2, 4)}

    @pytest.mark.parametrize("triple", [(2, 5, 3), (2, 7, 4), (1, 11, 7)])
    def test_matches_lane_encoder_on_units(self, triple):
        prm = validate_params(*triple)
        n = prm.k * prm.rows
        for j in range(prm.k):
            for i in range(prm.rows):
                arr = CodeArray.zeros(prm, 1)
                arr.set(i, j, b"\x01")
                encode(arr)
                info = [0] * n
                info[j * prm.rows + i] = 1
                assert encode_bits(prm, info) == array_bits(arr), (triple, i, j)

    def test_full_rank_for_acceptance_sets(self):
        for triple in ACCEPTANCE_SETS:
            prm = validate_params(*triple)
            solver = erasure_solver(prm, frozenset())
            assert solver.rank == prm.k * prm.rows


class TestGaussianDecode:
    def test_zero_word(self):
        n = PRM.k * PRM.rows
        assert gaussian_decode(PRM, [0] * (PRM.k + 2) * PRM.rows, (0, 2)) == [0] * n

    @pytest.mark.parametrize("pair", list(itertools.combinations(range(5), 2)))
    def test_roundtrip_all_pairs(self, pair, rng):
        n = PRM.k * PRM.rows
        info = [rng.randrange(2) for _ in range(n)]
        word = encode_bits(PRM, info)
        assert gaussian_decode(PRM, word, pair) == info

    def test_underdetermined_raises(self, rng):
        prm = validate_params(2, 7, 4)
        word = encode_bits(prm, [0] * (prm.k * prm.rows))
        with pytest.raises(Underdetermined):
            gaussian_decode(prm, word, (0, 3))


class TestMdsSweep:
    def test_known_rank_gap(self):
        # Outside the acceptance sets: (2,7,5) shares (2,7,4)'s gap.
        assert rank_check(validate_params(2, 7, 5)) == [(0, 3)]

    def test_forced_invalid_parameters_recorded_not_asserted(self):
        # Bypassing validation (divisor 3 of 9 is <= k-1) may or may not
        # break pairs; the rank check returns them as data.
        forced = CodeParams(
            tau=1, p=9, k=4, t=1, n_c=4,
            regime=validate_params(1, 11, 4).regime, rows=8, ring=9,
        )
        bad = rank_check(forced)
        assert set(bad) <= set(itertools.combinations(range(6), 2))


class TestRankCheck:
    @pytest.mark.parametrize("triple", ACCEPTANCE_SETS)
    def test_matches_known_gaps(self, triple):
        assert rank_check(validate_params(*triple)) == deficient_pairs(triple)


class TestCommonBitRule:
    """`CodeParams.common_bit` and `common_source`, the rule the encoder
    and decoders read, against the generator's own transcription: each
    diagonal-parity row, less its bare diagonal, is the common bit the row
    carries, as the mask of that bit's real sources."""

    PARAMS = {str(validate_params(*triple)): validate_params(*triple)
              for triple in ACCEPTANCE_SETS}
    PARAMS |= {f"evenodd{(p, k)}": evenodd_params(p, k) for p, k in [(5, 3), (7, 4)]}

    @pytest.mark.parametrize("name", PARAMS)
    def test_matches_the_generator(self, name):
        prm = self.PARAMS[name]
        g = generator_matrix(prm)
        rows, k = prm.rows, prm.k
        for i in range(rows):
            diagonal = sum(1 << (j * rows + r) for j in range(k)
                           if (r := (i - j) % prm.ring) < rows)
            mu = prm.common_bit(i)
            common = 0 if mu is None else sum(
                1 << (j * rows + r) for j in range(k)
                if (r := prm.common_source(mu, j)) < rows)
            assert g.bits[(k + 1) * rows + i] ^ diagonal == common, (i, mu)
