"""Independent GF(2) ground truth: generator matrix, Gaussian-elimination
erasure decoding, and exact proofs of the compiled programs.

The generator is a literal transcription of the parity definitions into a
dense bit matrix (rows packed into Python ints, one bit per information
position), so it shares no code with the lane encoder; the test suite
cross-checks the two.  It writes out the common-bit rule itself, on
purpose, rather than read `CodeParams.common_bit`: it is the reference
that rule and the compiled programs are proven against.  Bit order:
position index = column*rows + row for array cell (row, column),
information cells first -- the top k*rows rows of the generator are the
identity.

`rank_check` names the column pairs no decoder can recover.  For the
others, `check_program` proves a compiled encode or decode program exact
on every codeword at once, with no random data: the program runs once on
the generator's rows.  `tau1_equivalence_check` proves, on the generator,
that the tau = 1 instance is EVENODD+ (the single-common-bit code); the
classic-EVENODD baseline it is compared with is `metrics.evenodd_params`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import Underdetermined
from .params import CodeParams, validate_params
from .program import CACHE_SIZE, Program


@dataclass
class BinaryMatrix:
    """Dense GF(2) matrix; bits[r] is row r packed little-endian into an int."""

    rows: int
    cols: int
    bits: list[int]

    def get(self, r: int, c: int) -> int:
        return (self.bits[r] >> c) & 1

    def mul_vec(self, v: int) -> list[int]:
        """Multiply by a column vector packed into an int; returns bit list."""
        return [(self.bits[r] & v).bit_count() & 1 for r in range(self.rows)]


def generator_matrix(params: CodeParams) -> BinaryMatrix:
    """G with codeword = G . info over GF(2); systematic (identity on top)."""
    p = params
    n_info = p.k * p.rows
    bits: list[int] = []
    # Information rows: identity.
    for idx in range(n_info):
        bits.append(1 << idx)
    # Row parity.
    for i in range(p.rows):
        row = 0
        for j in range(p.k):
            row |= 1 << (j * p.rows + i)
        bits.append(row)
    # Diagonal parity plus common bits.
    for i in range(p.rows):
        row = 0
        for j in range(p.k):
            r = (i - j) % p.ring
            if r < p.rows:
                row ^= 1 << (j * p.rows + r)
        if i < p.n_c:
            mu = i % p.t
            for j in range(mu + 1, p.k):
                r = (p.rows + mu - j) % p.ring
                row ^= 1 << (j * p.rows + r)
        bits.append(row)
    return BinaryMatrix((p.k + 2) * p.rows, n_info, bits)


class ErasureSolver:
    """Precomputed solver for one erasure pattern of a given code.

    Reduces the surviving rows of the generator once; solving a received
    word is then one AND+popcount per information bit.
    """

    def __init__(self, params: CodeParams, erased_columns: frozenset[int]):
        self.params = params
        self.erased = erased_columns
        g = generator_matrix(params)
        n = params.k * params.rows
        surviving = [
            c * params.rows + i
            for c in range(params.k + 2)
            if c not in erased_columns
            for i in range(params.rows)
        ]
        self.surviving = surviving
        # Gaussian elimination on the surviving rows, mirroring row ops on
        # an identity so each pivot ends with a combination mask over the
        # received bits.
        rows = [(g.bits[pos], 1 << idx) for idx, pos in enumerate(surviving)]
        combo = [0] * n
        pivot_found = [False] * n
        pivot_col: list[int] = []
        r = 0
        for c in range(n):
            pivot = None
            for rr in range(r, len(rows)):
                if (rows[rr][0] >> c) & 1:
                    pivot = rr
                    break
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            prow, pcombo = rows[r]
            for rr in range(len(rows)):
                if rr != r and (rows[rr][0] >> c) & 1:
                    rows[rr] = (rows[rr][0] ^ prow, rows[rr][1] ^ pcombo)
            pivot_col.append(c)
            pivot_found[c] = True
            r += 1
        # After full Jordan reduction, pivot row r is the unit vector of its
        # pivot column, so its mirror mask maps received bits to that info bit.
        for r_idx, c in enumerate(pivot_col):
            combo[c] = rows[r_idx][1]
        self.rank = r
        self.full_rank = all(pivot_found)
        self._combo = combo

    def solve_packed(self, received: int) -> list[int]:
        """Solve for all info bits from surviving bits packed into an int
        (bit order = self.surviving order)."""
        if not self.full_rank:
            raise Underdetermined(
                f"erasure of columns {sorted(self.erased)} is rank deficient "
                f"for params {self.params}"
            )
        return [(m & received).bit_count() & 1 for m in self._combo]


_cached_solver = functools.lru_cache(maxsize=CACHE_SIZE)(ErasureSolver)


def erasure_solver(params: CodeParams, erased_columns) -> ErasureSolver:
    """The solver of one erasure pattern, built once per (params, erased
    columns) and kept in a bounded cache."""
    return _cached_solver(params, frozenset(erased_columns))


def gaussian_decode(
    params: CodeParams, codeword_bits: list[int], erased_columns
) -> list[int]:
    """Recover the k*rows information bits from a codeword with <= 2 erased
    columns.  codeword_bits is indexed column*rows + row; entries under
    erased columns are ignored.  Raises Underdetermined on rank deficiency.
    """
    solver = erasure_solver(params, erased_columns)
    packed = 0
    for idx, pos in enumerate(solver.surviving):
        if codeword_bits[pos]:
            packed |= 1 << idx
    return solver.solve_packed(packed)


def encode_bits(params: CodeParams, info_bits: list[int]) -> list[int]:
    """Encode an information bit vector through the generator matrix."""
    g = generator_matrix(params)
    packed = 0
    for idx, b in enumerate(info_bits):
        if b:
            packed |= 1 << idx
    return g.mul_vec(packed)


def check_program(params: CodeParams, program: Program) -> list[str]:
    """Prove a compiled program against the generator matrix.

    A program is GF(2)-linear, so running it once with each input register
    holding the generator row of its cell (a mask over the information
    bits) gives each output as the mask of the information bits it
    combines.  Each output must equal the generator row of its cell.
    Returns one line per fault; an empty list means the program is exact
    on every codeword.
    """
    g = generator_matrix(params)
    rows = params.rows
    regs = [0] * program.registers
    it = iter(program.inputs)
    for r, i, j in zip(it, it, it):
        regs[r] = g.bits[j * rows + i]
    program.execute(regs)
    return [
        f"cell ({i},{c})"
        for (i, c), mask in program.cell_values(regs).items()
        if mask != g.bits[c * rows + i]
    ]


def rank_check(params: CodeParams) -> list[tuple[int, int]]:
    """Column pairs whose erasure system is rank deficient (data free)."""
    return [
        pair
        for pair in itertools.combinations(range(params.k + 2), 2)
        if not erasure_solver(params, pair).full_rank
    ]


def tau1_equivalence_check(p: int, k: int) -> bool:
    """Check, exactly and on the generator matrix, that the tau = 1
    instance is the single-common-bit code: one common bit, fed by the
    diagonal ending at the virtual row, added to exactly the first
    2*floor(k/2) diagonal-parity rows.  Each diagonal-parity row minus the
    bare diagonal must equal the common bit's set below that threshold
    and be empty above it."""
    params = validate_params(1, p, k)
    if params.t != 1 or params.n_c != 2 * (k // 2):
        return False
    g = generator_matrix(params)
    rows = params.rows
    common = sum(1 << (j * rows + rows - j) for j in range(1, k))
    for i in range(rows):
        diag = sum(1 << (j * rows + r) for j in range(k) if (r := (i - j) % params.ring) < rows)
        if g.bits[(k + 1) * rows + i] ^ diag != (common if i < params.n_c else 0):
            return False
    return True
