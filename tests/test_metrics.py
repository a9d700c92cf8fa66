import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from conftest import ACCEPTANCE_SETS, deficient_pairs
from eoflex.codearray import CodeArray, ErasurePattern
from eoflex.codec import encode, encoding_program
from eoflex.decoder import decode, decoding_program
from eoflex.metrics import (
    DecodeTally,
    complexity_report,
    count_decode_xors,
    count_encode_xors,
    decode_xor_formula,
    encode_xor_formula,
    evenodd_plus_reference,
    measure_update_complexity,
    update_exact,
    update_formula,
)
from eoflex.params import validate_params

PRM = validate_params(2, 5, 3)

# SHA-256 of the repr of (triple, columns, sum_common, reduce, chase) for
# every pattern `test_decode_tallies_are_golden` decodes, in order; recorded
# while a lost parity column was still rebuilt by a second program.
DECODE_TALLIES_SHA256 = "8acaaeaac8fb7646cef8a06a84d11a781381b5b403f414647bf676e73a9e5812"


class TestEncodeXors:
    def test_example_is_34(self):
        assert count_encode_xors(PRM) == 34
        assert encode_xor_formula(PRM) == 34

    def test_tau1_example(self):
        prm = validate_params(1, 5, 3)
        assert encode_xor_formula(prm) == 17
        assert count_encode_xors(prm) == 17

    def test_minimal_parameters(self):
        prm = validate_params(1, 3, 2)
        assert encode_xor_formula(prm) == 5
        assert count_encode_xors(prm) == 5

    @pytest.mark.parametrize("triple", ACCEPTANCE_SETS)
    def test_measured_equals_formula(self, triple):
        prm = validate_params(*triple)
        assert count_encode_xors(prm) == encode_xor_formula(prm)


class TestDecodeXors:
    def test_reference_case_exact(self):
        # stride k-1 dividing the rows: (2*8-1) + 2*(1+8) = 33
        tally = count_decode_xors(PRM, 0, 2)
        assert decode_xor_formula(PRM, 0, 2) == 33
        assert tally.comparable == 33
        assert tally.sum_common == 2 * PRM.rows - 1
        assert Fraction(33, PRM.k * PRM.rows) == Fraction(11, 8)  # 1.375

    def test_stride_one_formula(self):
        assert decode_xor_formula(PRM, 0, 1) == 15 + 18

    # Per-stripe totals of the information+row-parity losses the benchmark's
    # bulk workload reads.
    INFO_ROW_TOTALS = {(2, 5, 3): ((1, 3), 35), (1, 11, 7): ((1, 7), 126), (3, 9, 3): ((1, 3), 99)}

    @pytest.mark.parametrize("triple", sorted(INFO_ROW_TOTALS))
    def test_decode_tally_reads_the_programs(self, triple):
        # A decode adds to its tally what the program it runs counts: the
        # decoding program's phases when an information column is lost,
        # else the parity re-encode under chase.  Random arrays all give
        # those counts, and are restored.
        prm = validate_params(*triple)
        rng = random.Random(sum(triple))
        patterns = [(c,) for c in range(prm.k + 2)]
        patterns += itertools.combinations(range(prm.k + 2), 2)
        for cols in patterns:
            want = DecodeTally()
            if cols[0] < prm.k:
                want.add(decoding_program(prm, frozenset(cols)).xors)
            else:
                want.chase += encoding_program(prm, cols).xor_count
            for _ in range(2):
                arr = encode(CodeArray.random(prm, 3, rng))
                got = arr.copy()
                tally = DecodeTally()
                decode(got, ErasurePattern.of(*cols), tally)
                assert got == arr, cols
                assert tally == want, cols
            if cols == self.INFO_ROW_TOTALS[triple][0]:
                assert tally.total == self.INFO_ROW_TOTALS[triple][1]

    def test_decode_tallies_are_golden(self):
        # The XORs per phase `decode` tallies for every one- and two-column
        # loss the decoder recovers on the ACCEPTANCE_SETS, frozen across
        # refactors of how a pattern is recovered.
        digest = hashlib.sha256()
        for triple in ACCEPTANCE_SETS:
            prm = validate_params(*triple)
            patterns = [(c,) for c in range(prm.k + 2)]
            patterns += itertools.combinations(range(prm.k + 2), 2)
            for cols in patterns:
                if cols in deficient_pairs(triple):
                    continue
                tally = DecodeTally()
                decode(CodeArray.zeros(prm, 1), ErasurePattern.of(*cols), tally)
                entry = (triple, cols, tally.sum_common, tally.reduce, tally.chase)
                digest.update(repr(entry).encode())
        assert digest.hexdigest() == DECODE_TALLIES_SHA256

    @pytest.mark.parametrize("triple", ACCEPTANCE_SETS)
    def test_phases_reported(self, triple):
        prm = validate_params(*triple)
        bad = set(deficient_pairs(triple))
        f, g = next(
            (a, b)
            for a in range(prm.k)
            for b in range(a + 1, prm.k)
            if (a, b) not in bad
        )
        tally = count_decode_xors(prm, f, g)
        assert tally.sum_common == 2 * prm.rows - 1
        assert tally.chase > 0
        assert tally.total == tally.comparable + tally.reduce


class TestUpdateComplexity:
    def test_exact_average_example(self):
        m = measure_update_complexity(PRM)
        assert m.empirical == Fraction(51, 24)
        assert m.combinatorial == Fraction(51, 24)

    def test_closed_form_example(self):
        assert update_formula(PRM) == 2 + Fraction(2, 24)
        assert abs(float(update_formula(PRM)) - 2.0833) < 1e-4

    def test_formula_near_exact_at_example(self):
        m = measure_update_complexity(PRM)
        assert abs(m.empirical - m.closed_form) <= Fraction(5, 100)

    @pytest.mark.parametrize("triple", ACCEPTANCE_SETS)
    def test_empirical_equals_combinatorial(self, triple):
        m = measure_update_complexity(validate_params(*triple))
        assert m.empirical == m.combinatorial == update_exact(validate_params(*triple))

    @pytest.mark.parametrize("triple", ACCEPTANCE_SETS)
    def test_above_lower_bound(self, triple):
        m = measure_update_complexity(validate_params(*triple))
        assert m.empirical >= m.lower_bound


class TestReport:
    def test_empty(self):
        report = complexity_report([])
        assert report.rows == []
        assert report.to_csv().strip().splitlines()[1:] == []

    def test_example_row_normalized_encode(self):
        report = complexity_report([PRM])
        row = report.rows[0]
        assert row.encode_measured == 34
        assert round(row.encode_measured / row.info_bits, 4) == 1.4167
        assert "1.4167" in report.to_text()

    def test_tau1_reference_matches_own_measurement(self):
        # At tau = 1 the construction *is* the single-common-bit code, so
        # its measured values must reproduce the reference column.
        prm = validate_params(1, 5, 3)
        report = complexity_report([prm])
        row = report.rows[0]
        ref = evenodd_plus_reference(5, 3)
        n = row.info_bits
        assert Fraction(row.encode_measured, n) == ref["encode"]
        assert row.update.empirical == ref["update"]

    def test_classic_baseline_included_when_p_prime(self):
        report = complexity_report([PRM])
        assert report.rows[0].classic_update == Fraction(5, 2)
        report9 = complexity_report([validate_params(1, 9, 3)])
        assert report9.rows[0].classic_update is None

    def test_skipped_pairs_listed(self):
        # (2,7,4) 0+3 is rank deficient, (2,5,5) 2+4 a full-rank pair the
        # chain rules stall on; neither gets a decode row.
        report = complexity_report([validate_params(2, 7, 4), validate_params(2, 5, 5)])
        assert [row.skipped for row in report.rows] == [[(0, 3)], [(2, 4)]]
        assert all(pair not in [d.pair for d in row.decode]
                   for row in report.rows for pair in row.skipped)
        text = report.to_text()
        assert "(2,7,4) columns (0, 3)" in text
        assert "(2,5,5) columns (2, 4)" in text
        assert "eoflex verify" in text

    def test_deviations_listed(self):
        prm = validate_params(1, 7, 5)
        text = complexity_report([prm]).to_text()
        assert "schedule deviations" in text
