"""Independent GF(2) ground truth: generator matrix, Gaussian-elimination
erasure decoding, and exhaustive MDS sweeps.

The generator is a literal transcription of the parity definitions into a
dense bit matrix (rows packed into Python ints, one bit per information
position), so it shares no code with the lane encoder; the test suite
cross-checks the two.  Bit order: position index = column*rows + row for
array cell (row, column), information cells first -- the top k*rows rows
of the generator are the identity.
"""

from __future__ import annotations

import functools
import io
import random
from dataclasses import dataclass, field

from .errors import Underdetermined
from .params import CodeParams
from .program import CACHE_SIZE


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


@dataclass
class PairResult:
    columns: tuple[int, ...]
    ok: bool
    detail: str = ""


@dataclass
class MdsReport:
    params: CodeParams
    trials: int
    seed: int
    pairs: list[PairResult] = field(default_factory=list)

    @property
    def failures(self) -> list[PairResult]:
        return [r for r in self.pairs if not r.ok]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("tau,p,k,columns,status,detail\n")
        pm = self.params
        for r in self.pairs:
            cols = "+".join(str(c) for c in r.columns)
            status = "pass" if r.ok else "fail"
            buf.write(f"{pm.tau},{pm.p},{pm.k},{cols},{status},{r.detail}\n")
        return buf.getvalue()


def mds_exhaustive_check(
    params: CodeParams, trials: int = 100, seed: int = 0
) -> MdsReport:
    """For every column pair, decode `trials` random arrays by Gaussian
    elimination and compare with the original.  Failures are recorded in
    the report, not raised.
    """
    rng = random.Random(seed)
    report = MdsReport(params, trials, seed)
    n_info = params.k * params.rows
    trial_infos = [
        [rng.randrange(2) for _ in range(n_info)] for _ in range(trials)
    ]
    trial_words = [encode_bits(params, info) for info in trial_infos]
    cols = params.k + 2
    for c1 in range(cols):
        for c2 in range(c1 + 1, cols):
            pair = (c1, c2)
            try:
                solver = erasure_solver(params, pair)
                if not solver.full_rank:
                    raise Underdetermined(
                        f"rank {solver.rank} < {n_info}"
                    )
                bad = None
                for info, word in zip(trial_infos, trial_words):
                    got = gaussian_decode(params, word, pair)
                    if got != info:
                        bad = "decode mismatch"
                        break
                report.pairs.append(PairResult(pair, bad is None, bad or ""))
            except Underdetermined as exc:
                report.pairs.append(PairResult(pair, False, str(exc)))
    return report


def rank_check(params: CodeParams) -> list[tuple[int, int]]:
    """Column pairs whose erasure system is rank deficient (data free)."""
    bad = []
    cols = params.k + 2
    g = generator_matrix(params)
    for c1 in range(cols):
        for c2 in range(c1 + 1, cols):
            if not _pair_full_rank(params, g, c1, c2):
                bad.append((c1, c2))
    return bad


def _pair_full_rank(params: CodeParams, g: BinaryMatrix, c1: int, c2: int) -> bool:
    """Rank-only elimination over the rows surviving erasure of (c1, c2)."""
    n = params.k * params.rows
    rows = [
        g.bits[c * params.rows + i]
        for c in range(params.k + 2)
        if c not in (c1, c2)
        for i in range(params.rows)
    ]
    rank = 0
    for c in range(n):
        pivot = None
        for rr in range(rank, len(rows)):
            if (rows[rr] >> c) & 1:
                pivot = rr
                break
        if pivot is None:
            return False
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for rr in range(rank + 1, len(rows)):
            if (rows[rr] >> c) & 1:
                rows[rr] ^= prow
        rank += 1
    return True

