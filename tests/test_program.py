import dataclasses
import hashlib
import itertools
import random

import pytest

from conftest import ACCEPTANCE_SETS, deficient_pairs

from eoflex.codearray import CodeArray, ErasurePattern
from eoflex.codec import encode, encoding_program
from eoflex.decoder import decode, decoding_program, recovery_program
from eoflex.errors import ChainStall
from eoflex.oracle import check_program, erasure_solver
from eoflex.params import validate_params
from eoflex.program import Builder

PRM = validate_params(2, 5, 3)

# SHA-256 of the repr of every program `every_program` yields for the
# ACCEPTANCE_SETS, in order.
PROGRAMS_SHA256 = "ab267009f6f5101bad906c2d373f7c1c38cb17bad46ba705b329079b422168d8"


def lanes_of(*values):
    """A 1-byte-lane array whose cells (0, j) hold the given lanes."""
    arr = CodeArray.zeros(PRM, 1)
    for j, lane in enumerate(values):
        arr.set(0, j, lane)
    return arr


class TestBuilder:
    def test_one_instruction_per_counted_xor(self):
        b = Builder(PRM)
        b.phase = "reduce"
        x = b.xor(b.get(0, 0), b.get(0, 1))
        b.phase = "chase"
        y = b.xor_cells([(0, 2), (1, 0)], x)
        program = b.finish([((0, 3), x), ((1, 3), y)], "t")
        assert program.xors == (("chase", 2), ("reduce", 1))
        assert len(program.code) == 3 * 3

    def test_one_register_per_value(self):
        b = Builder(PRM)
        acc = b.get(0, 0)
        for j in (1, 2):
            acc = b.xor(acc, b.get(0, j))
        program = b.finish([((0, 3), acc)], "t")
        assert program.inputs == (1, 0, 0, 2, 0, 1, 4, 0, 2)
        assert program.code == (3, 1, 2, 5, 3, 4)
        assert program.outputs == (5, 0, 3)
        assert program.columns == {0, 1, 2}
        arr = lanes_of(b"\x01", b"\x02", b"\x04")
        regs = program.load(arr)
        program.execute(regs)
        program.store(regs, arr)
        assert arr.get(0, 3) == b"\x07"

    def test_failing_check_raises_at_compile_time(self):
        b = Builder(PRM, {3})
        x, y = b.get(0, 0), b.get(0, 1)
        with pytest.raises(ChainStall, match=r"columns \[3\] erased"):
            b.check([x, y], b.xor(x, b.get(0, 2)))

    def test_check_of_equal_combinations_is_settled_at_compile_time(self):
        b = Builder(PRM)
        x, y, z = b.get(0, 0), b.get(0, 1), b.get(0, 2)
        b.check([x, y, z], b.xor(x, b.xor(z, y)))
        program = b.finish((), "t")
        assert len(program.code) == 2 * 3  # the right-hand side only

    @pytest.mark.parametrize("triple", ACCEPTANCE_SETS)
    def test_pair_decode_common_bit_checks_are_settled(self, triple):
        # The chain chaser's recovered common bits combine the same cells
        # as their definitions, so every check is settled and compiling
        # raises nothing.
        prm = validate_params(*triple)
        for pair in itertools.combinations(range(prm.k), 2):
            if pair not in deficient_pairs(triple):
                decoding_program(prm, frozenset(pair))

    @pytest.mark.parametrize("triple", ACCEPTANCE_SETS)
    def test_xor_count_is_the_instruction_count(self, triple):
        # Every XOR a program counts is one it runs, and it runs no other.
        prm = validate_params(*triple)
        k = prm.k
        programs = [encoding_program(prm, cols) for cols in ((k,), (k + 1,), (k, k + 1))]
        patterns = [(c,) for c in range(k)] + list(itertools.combinations(range(k + 2), 2))
        for cols in patterns:
            if cols[0] < k and cols not in deficient_pairs(triple):
                programs.append(decoding_program(prm, frozenset(cols)))
        for program in programs:
            assert program.xor_count == len(program.code) // 3, program.name

    def test_stages_split_the_code(self):
        program = decoding_program(PRM, frozenset({0, 2}))
        assert 0 < program.stages[0] < program.stages[1] == len(program.code)
        assert len(program.stages) == 2
        arr = encode(CodeArray.random(PRM, 4, random.Random(1)))
        got = arr.copy()
        for c in (0, 2):
            got.set_column(c, [bytes(4)] * PRM.rows)
        regs = program.load(got)
        program.execute(regs, 0)
        program.execute(regs, 1)
        program.store(regs, got)
        assert got == arr

    def test_erased_cell_must_be_recovered_first(self):
        b = Builder(PRM, {1})
        with pytest.raises(ValueError):
            b.get(0, 1)
        b.set(0, 1, b.get(0, 0))
        assert b.get(0, 1) == b.get(0, 0)


def every_program(prm, triple):
    """The recovery program of every one- and two-column loss of `prm`."""
    k = prm.k
    patterns = [(c,) for c in range(k + 2)] + list(itertools.combinations(range(k + 2), 2))
    for cols in patterns:
        if cols not in deficient_pairs(triple):
            yield recovery_program(prm, cols)


class TestProof:
    @pytest.mark.parametrize("triple", ACCEPTANCE_SETS)
    def test_every_program_is_exact(self, triple):
        # Each program, run once on the generator's rows, is exact on
        # every codeword.
        prm = validate_params(*triple)
        for program in every_program(prm, triple):
            assert check_program(prm, program) == [], program.name

    def test_every_program_is_golden(self):
        # Every compiled program, frozen byte for byte against refactors of
        # the rules and the program builder.
        digest = hashlib.sha256()
        for triple in ACCEPTANCE_SETS:
            for program in every_program(validate_params(*triple), triple):
                digest.update(repr(program).encode())
        assert digest.hexdigest() == PROGRAMS_SHA256

    def test_changed_operand_is_flagged(self):
        program = decoding_program(PRM, frozenset({0, 2}))
        code = list(program.code)
        code[-1] = code[-2]  # the last XOR reads one operand twice
        mutant = dataclasses.replace(program, code=tuple(code))
        faults = check_program(PRM, mutant)
        assert faults and all(f.startswith("cell (") for f in faults)

    def test_output_stored_in_the_wrong_column_is_flagged(self):
        program = encoding_program(PRM, (PRM.k, PRM.k + 1))
        outputs = list(program.outputs)
        outputs[2::3] = [2 * PRM.k + 1 - c for c in outputs[2::3]]  # k and k+1 swapped
        mutant = dataclasses.replace(program, outputs=tuple(outputs))
        assert check_program(PRM, program) == []
        assert len(check_program(PRM, mutant)) == 2 * PRM.rows


def test_outputs_land_in_the_arrays_own_cells():
    # `store` overwrites the cells an array holds, so an array laid over a
    # caller's buffer fills that buffer: after the encode and after every
    # decode, each cell is still the object it was.
    rng = random.Random(7)
    arr = CodeArray.random(PRM, 4, rng)
    want = encode(arr.copy())
    cells = arr.cells[:]

    def same_cells():
        return all(a is b for a, b in zip(arr.cells, cells))

    encode(arr)
    assert same_cells() and arr == want
    k = PRM.k
    for cols in [(c,) for c in range(k + 2)] + list(itertools.combinations(range(k + 2), 2)):
        for c in cols:  # erased cells are never read
            for lane in arr.column(c):
                lane[:] = rng.randbytes(4)
        decode(arr, ErasurePattern.of(*cols))
        assert same_cells(), cols
        assert arr == want, cols


@pytest.mark.parametrize("triple", [(2, 5, 3), (1, 11, 7), (3, 9, 3), (1, 7, 5), (1, 5, 3)])
def test_wide_decode_matches_per_stripe_and_oracle(triple):
    """One run over lanes that concatenate several stripes recovers each
    stripe exactly as decoding it alone with 1-byte lanes does, and both
    agree with Gaussian elimination, for every one- and two-column loss."""
    prm = validate_params(*triple)
    rows, k = prm.rows, prm.k
    rng = random.Random(sum(triple))
    stripes = [encode(CodeArray.random(prm, 1, rng)) for _ in range(3)]
    wide = CodeArray(prm, len(stripes),
                     [b"".join(lanes) for lanes in zip(*(st.cells for st in stripes))])
    patterns = [(c,) for c in range(k + 2)] + list(itertools.combinations(range(k + 2), 2))
    for cols in patterns:
        got = wide.copy()
        for c in cols:  # erased cells are never read
            got.set_column(c, [rng.randbytes(len(stripes)) for _ in range(rows)])
        decode(got, ErasurePattern.of(*cols))
        assert got == wide, (triple, cols)
        solver = erasure_solver(prm, cols)
        for s, stripe in enumerate(stripes):
            alone = stripe.copy()
            decode(alone, ErasurePattern.of(*cols))
            assert alone.cells == [lane[s : s + 1] for lane in got.cells]
            for plane in range(8):
                packed = 0
                for idx, pos in enumerate(solver.surviving):
                    packed |= ((stripe.get(pos % rows, pos // rows)[0] >> plane) & 1) << idx
                want = [(alone.get(i, j)[0] >> plane) & 1 for j in range(k) for i in range(rows)]
                assert solver.solve_packed(packed) == want, (triple, cols, plane)
