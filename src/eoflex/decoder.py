"""Erasure recovery for any one or two erased columns.

Single-column and column+parity erasures reduce to straightforward parity
inversion.  Two erased information columns f < g are recovered by a chain
chaser over the subscript ring Z_{tau*p}: after subtracting the surviving
columns from both parity columns, each row-parity row links the two erased
cells of one row, each diagonal-parity row links cells g-f apart (plus a
reduced common bit on the first n_c rows), and walks of stride g-f thread
those links together.  Three facts drive the walk:

  * virtual positions (>= tau*(p-1)) are known zero and anchor chains;
  * the XOR of all 2*tau*(p-1) parity lanes equals the XOR of the common
    bits, giving one extra equation;
  * each reduced common bit is itself the XOR of at most two erased cells,
    so it becomes known the moment those cells are.

When plain propagation stalls, a telescoping seed (the XOR of a run of
diagonal syndromes, the row syndromes between them, and optionally the
common-bit sum) isolates a single unknown.  Solved cells are tracked by an
explicit known mask; if the engine exhausts every rule with cells still
unknown it raises ChainStall rather than returning garbage.

The rules run on symbolic cells (see `program`): `decoding_program` runs
them once per (params, erased columns) and keeps the compiled XOR program
for the erased information columns, with the XOR count of each phase, in a
bounded cache.  `decode` converts each cell the program reads to an int
once, runs the program as a flat loop over lanes of any width (the cells of
many stripes concatenated) and converts only the recovered cells back to
bytes.  Then `encode` re-encodes just the erased parity columns; it is
handed every cell the decode program loaded or recovered as an int, so a
decode converts no cell from bytes twice.  A two-information program runs
in two stages, `build_syndromes` and the chain of `decode_two_info`; they
and the re-encode are called through their module-level names, so a traced
run can time each apart.  The rank check of the chain chaser happens at
compile time, and so does the common-bit consistency check wherever its
two sides combine the same cells (see `Builder.check`).  `decode` adds the
XOR counts of the programs it runs to a `metrics.DecodeTally`, when given
one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .codearray import CodeArray, ErasurePattern
from .codec import common_bit_participants, diagonal_terms, encode, encoding_program
from .errors import (
    ChainStall,
    DiagParityMissing,
    ParityMissing,
    RowParityMissing,
)
from .params import CodeParams
from .program import CACHE_SIZE, ZERO, Builder, Program


@dataclass
class SyndromePair:
    """Reduced two-column syndromes: row_syn[i] is the XOR of the two
    erased cells of row i; diag_syn[i] additionally carries the reduced
    common bit on rows below the common-row threshold.  Entries are value
    ids of a Builder."""

    f: int
    g: int
    row_syn: list[int]
    diag_syn: list[int]
    sum_s: int  # XOR of the reduced common bits


def sum_common_bits(b: Builder) -> int:
    """XOR of all 2*tau*(p-1) parity lanes, which telescopes to the XOR of
    the t common bits (each appears an odd number of times overall)."""
    p = b.params
    if p.k in b.erased or p.k + 1 in b.erased:
        raise ParityMissing("both parity columns are required to sum the common bits")
    return b.xor_cells((i, c) for c in (p.k, p.k + 1) for i in range(p.rows))


def _row_syndrome(b: Builder, i: int, skip) -> int:
    """Row parity i minus the surviving information cells of row i: the
    XOR of the row's cells in the columns of `skip`."""
    p = b.params
    return b.xor_cells([(i, p.k)] + [(i, j) for j in range(p.k) if j not in skip])


def _diag_syndrome(b: Builder, i: int, skip) -> int:
    """Diagonal parity i minus its surviving diagonal terms; the common
    bit, on the first n_c rows, is left in."""
    p = b.params
    return b.xor_cells([(i, p.k + 1)] + diagonal_terms(p, i, skip))


def _reduced_common_surviving(b: Builder, mu: int, skip) -> int | None:
    """XOR of the surviving participants of common bit mu (columns outside
    `skip`), or None when no participant survives."""
    return b.xor_cells(
        (r, j) for r, j in common_bit_participants(b.params, mu) if j not in skip
    )


def pair_syndromes(b: Builder, f: int, g: int) -> SyndromePair:
    """Subtract all surviving contributions from both parity columns.

    The reduction XORs count in phase "reduce", the parity-sum XORs in
    phase "sum_common" (the metrics module reports the two separately).
    """
    p = b.params
    skip = (f, g)
    b.phase = "reduce"
    row_syn = [_row_syndrome(b, i, skip) for i in range(p.rows)]
    reduced_s = [_reduced_common_surviving(b, mu, skip) for mu in range(p.t)]
    diag_syn: list[int] = []
    for i in range(p.rows):
        acc = _diag_syndrome(b, i, skip)
        if i < p.n_c and reduced_s[i % p.t] is not None:
            acc = b.xor(acc, reduced_s[i % p.t])
        diag_syn.append(acc)

    b.phase = "sum_common"
    sum_s = sum_common_bits(b)
    b.phase = "reduce"
    sum_s = b.xor_values(reduced_s, sum_s)
    return SyndromePair(f, g, row_syn, diag_syn, sum_s)


class _PairEngine:
    """Chain chaser for two erased information columns.

    Variables: F[pos], G[pos] over ring positions (virtual ones known
    zero) and the t reduced common bits.  Equations: the row and diagonal
    syndromes, the common-bit definitions, and the common-bit sum.  The
    rule schedule is data independent, so XOR counts depend only on the
    parameters and the erased pair.
    """

    def __init__(self, b: Builder, syn: SyndromePair):
        p = b.params
        self.p = p
        self.b = b
        self.syn = syn
        self.f = syn.f
        self.g = syn.g
        self.d = syn.g - syn.f
        # val[side][pos]: side 0 = column f, side 1 = column g.
        self.val = [[None] * p.ring for _ in range(2)]
        self.known = [[False] * p.ring for _ in range(2)]
        for side in range(2):
            for pos in range(p.rows, p.ring):
                self.val[side][pos] = ZERO
                self.known[side][pos] = True
        # Reduced common bits: definition S'[mu] = F[rows+mu-f] ^ G[rows+mu-g]
        # restricted to real positions.  No real part => structurally zero.
        self.s_val: list[int | None] = [None] * p.t
        self.s_known = [False] * p.t
        self.s_parts: list[list[tuple[int, int]]] = []
        self.s_struct_zero = [False] * p.t
        for mu in range(p.t):
            parts = []
            for side, col in ((0, self.f), (1, self.g)):
                pos = (p.rows + mu - col) % p.ring
                if pos < p.rows:
                    parts.append((side, pos))
            self.s_parts.append(parts)
            if not parts:
                self.s_val[mu] = ZERO
                self.s_known[mu] = True
                self.s_struct_zero[mu] = True
        self._did_stride_seeds = False

    # -- helpers -----------------------------------------------------------

    def _set_cell(self, side: int, pos: int, value: int) -> None:
        self.val[side][pos] = value
        self.known[side][pos] = True

    def _diag_positions(self, i: int) -> tuple[int, int]:
        return (i - self.f) % self.p.ring, (i - self.g) % self.p.ring

    def _s_index(self, i: int) -> int | None:
        return i % self.p.t if i < self.p.n_c else None

    # -- rules -------------------------------------------------------------

    def _rule_links(self) -> bool:
        """Complete common-bit definitions (zero-cost or single-XOR)."""
        progress = False
        for mu in range(self.p.t):
            parts = self.s_parts[mu]
            known_parts = [(s, q) for s, q in parts if self.known[s][q]]
            if not self.s_known[mu]:
                if len(known_parts) == len(parts):
                    self.s_val[mu] = self.b.xor_values(self.val[s][q] for s, q in parts)
                    self.s_known[mu] = True
                    progress = True
            elif len(known_parts) == len(parts) - 1:
                (ms, mq) = next((s, q) for s, q in parts if not self.known[s][q])
                acc = self.b.xor_values(
                    (self.val[s][q] for s, q in known_parts), self.s_val[mu]
                )
                self._set_cell(ms, mq, acc)
                progress = True
        return progress

    def _solvable_diag(self, i: int):
        """(unknown, xor_cost) for diagonal row i when it has exactly one
        unknown, else None.  Cost counts payable terms: known real cells
        and known non-structurally-zero common bits."""
        p = self.p
        fpos, gpos = self._diag_positions(i)
        mu = self._s_index(i)
        unknowns = []
        cost = 0
        if self.known[0][fpos]:
            if fpos < p.rows:
                cost += 1
        else:
            unknowns.append(("F", fpos))
        if self.known[1][gpos]:
            if gpos < p.rows:
                cost += 1
        else:
            unknowns.append(("G", gpos))
        if mu is not None:
            if self.s_known[mu]:
                if not self.s_struct_zero[mu]:
                    cost += 1
            else:
                unknowns.append(("S", mu))
        if len(unknowns) != 1:
            return None
        return unknowns[0], cost

    def _solve_diag(self, i: int, target) -> None:
        p = self.p
        fpos, gpos = self._diag_positions(i)
        mu = self._s_index(i)
        terms = []
        if self.known[0][fpos] and fpos < p.rows:
            terms.append(self.val[0][fpos])
        if self.known[1][gpos] and gpos < p.rows:
            terms.append(self.val[1][gpos])
        if mu is not None and self.s_known[mu] and not self.s_struct_zero[mu]:
            terms.append(self.s_val[mu])
        acc = self.b.xor_values(terms, self.syn.diag_syn[i])
        kind, where = target
        if kind == "F":
            self._set_cell(0, where, acc)
        elif kind == "G":
            self._set_cell(1, where, acc)
        else:
            self.s_val[where] = acc
            self.s_known[where] = True

    def _rule_equations(self) -> bool:
        """Solve one syndrome equation, cheapest first: row equations cost
        one XOR, diagonal equations one or two depending on how many known
        terms must be folded in.  One solve per call so each new value can
        unlock a cheaper route for the next."""
        p = self.p
        for i in range(p.rows):
            # Row equation: F[i] ^ G[i] = row_syn[i].
            kf, kg = self.known[0][i], self.known[1][i]
            if kf != kg:
                side = 1 if kf else 0
                other = 0 if kf else 1
                value = self.b.xor(self.syn.row_syn[i], self.val[other][i])
                self._set_cell(side, i, value)
                return True
        best = None
        for i in range(p.rows):
            hit = self._solvable_diag(i)
            if hit is None:
                continue
            target, cost = hit
            if best is None or cost < best[2]:
                best = (i, target, cost)
                if cost <= 1:
                    break
        if best is None:
            return False
        self._solve_diag(best[0], best[1])
        return True

    def _rule_sum(self) -> bool:
        """Last common bit from the parity-sum identity (needs n_c/t even,
        which the threshold rule guarantees)."""
        unknown = [mu for mu in range(self.p.t) if not self.s_known[mu]]
        if len(unknown) != 1:
            return False
        mu = unknown[0]
        others = [
            self.s_val[o] for o in range(self.p.t) if o != mu and not self.s_struct_zero[o]
        ]
        self.s_val[mu] = self.b.xor_values(others, self.syn.sum_s)
        self.s_known[mu] = True
        return True

    # -- telescoping seeds ---------------------------------------------------

    def _seed_terms(self, a: int, length: int):
        """Structure of the telescope starting at diagonal row a with
        `length` diagonal equations of stride d.  Returns None when some
        needed diagonal row is virtual; otherwise (end_f_pos, start_g_pos,
        s_coeffs) with s_coeffs[mu] the GF(2) coefficient of S'[mu]."""
        p = self.p
        coeffs = [0] * p.t
        for step in range(length):
            i = (a + step * self.d) % p.ring
            if i >= p.rows:
                return None
            mu = self._s_index(i)
            if mu is not None:
                coeffs[mu] ^= 1
        end_f = (a + (length - 1) * self.d - self.f) % p.ring
        start_g = (a - self.d - self.f) % p.ring
        return end_f, start_g, coeffs

    def _try_seed(self, a: int, length: int, use_sum: bool) -> bool:
        terms = self._seed_terms(a, length)
        if terms is None:
            return False
        end_f, start_g, coeffs = terms
        if use_sum:
            coeffs = [c ^ 1 for c in coeffs]
        unknowns = []
        if not self.known[0][end_f]:
            unknowns.append(("F", end_f))
        if not self.known[1][start_g]:
            unknowns.append(("G", start_g))
        for mu in range(self.p.t):
            if coeffs[mu] and not self.s_known[mu]:
                unknowns.append(("S", mu))
        if len(unknowns) != 1:
            return False
        p = self.p
        terms = [self.syn.diag_syn[(a + step * self.d) % p.ring] for step in range(length)]
        for step in range(length - 1):
            pos = (a - self.f + step * self.d) % p.ring
            if pos < p.rows:
                terms.append(self.syn.row_syn[pos])
        if use_sum:
            terms.append(self.syn.sum_s)
        for mu in range(p.t):
            if coeffs[mu] and self.s_known[mu] and not self.s_struct_zero[mu]:
                terms.append(self.s_val[mu])
        if self.known[0][end_f] and end_f < p.rows:
            terms.append(self.val[0][end_f])
        if self.known[1][start_g] and start_g < p.rows:
            terms.append(self.val[1][start_g])
        acc = self.b.xor_values(terms)
        kind, where = unknowns[0]
        if kind == "F":
            self._set_cell(0, where, acc)
        elif kind == "G":
            self._set_cell(1, where, acc)
        else:
            self.s_val[where] = acc
            self.s_known[where] = True
        return True

    def _rule_seed(self) -> bool:
        p = self.p
        orbit = p.ring // math.gcd(self.d, p.ring)
        # First stall of a stride-divisible pattern: seed every chain
        # offset m = 0..d-1 up front, the way the recursive walks do.
        if not self._did_stride_seeds:
            self._did_stride_seeds = True
            if p.rows % self.d == 0:
                progress = False
                for m in range(self.d):
                    for length in range(1, orbit + 1):
                        if self._try_seed(m, length, False) or self._try_seed(
                            m, length, True
                        ):
                            progress = True
                            break
                if progress:
                    return True
        # General search: shortest telescope first, lowest start row first.
        for length in range(1, orbit + 1):
            for a in range(p.ring):
                for use_sum in (False, True):
                    if self._try_seed(a, length, use_sum):
                        return True
        return False

    # -- driver --------------------------------------------------------------

    def run(self) -> tuple[list[int], list[int]]:
        p = self.p
        while True:
            if self._rule_links():
                continue
            if self._rule_equations():
                continue
            if all(self.known[0][q] and self.known[1][q] for q in range(p.rows)):
                break
            if self._rule_sum():
                continue
            if self._rule_seed():
                continue
            missing = [
                (side, q)
                for side in range(2)
                for q in range(p.rows)
                if not self.known[side][q]
            ]
            raise ChainStall(
                f"no rule makes progress for columns ({self.f},{self.g}) of "
                f"{p}; {len(missing)} cells unresolved (rank-deficient pair, "
                "or a full-rank one the chain rules cannot solve)"
            )
        # Recovered common bits must match their definitions.  The Builder
        # settles the comparison at compile time when both sides combine
        # the same cells.
        for mu in range(p.t):
            if self.s_known[mu]:
                self.b.check([self.val[s][q] for s, q in self.s_parts[mu]], self.s_val[mu])
        return (
            [self.val[0][q] for q in range(p.rows)],
            [self.val[1][q] for q in range(p.rows)],
        )


def recover_pair(b: Builder, f: int, g: int) -> tuple[list[int], list[int]]:
    """Recover two erased information columns f < g; return their cells.

    Phases: "sum_common" (parity sum), "reduce" (syndrome reduction) and
    "chase" (chain solving).  The syndromes are the program's stage 0 and
    the chain its stage 1.
    """
    if not (0 <= f < g < b.params.k):
        raise ValueError(f"need two information columns, got ({f},{g})")
    syn = pair_syndromes(b, f, g)
    b.end_stage()
    b.phase = "chase"
    return _PairEngine(b, syn).run()


def decode_info_via_row_parity(b: Builder, f: int) -> list[int]:
    """Recover information column f from the row-parity column."""
    p = b.params
    if p.k in b.erased:
        raise RowParityMissing("row-parity column is erased")
    return [_row_syndrome(b, i, (f,)) for i in range(p.rows)]


def decode_info_with_diag_parity(b: Builder, f: int) -> list[int]:
    """Recover information column f from the diagonal-parity column
    (row parity unavailable).

    For f = 0 every common bit is computable from the surviving columns
    and each diagonal row inverts directly.  For f >= 1 the rows f-1 down
    to max(0, f-t) of the diagonal column each pin one column-f common-bit
    participant (their direct diagonal term is virtual), after which all
    common bits are known and the remaining rows invert.
    """
    p = b.params
    if p.k + 1 in b.erased:
        raise DiagParityMissing("diagonal-parity column is erased")
    skip = (f,)
    # Common bits from their surviving participants; the column-f one (real
    # exactly when mu < f) is XORed in as the seed rows recover it.
    s = [_reduced_common_surviving(b, mu, skip) for mu in range(p.t)]
    known: dict[int, int] = {}
    seed_rows = range(f - 1, max(0, f - p.t) - 1, -1)
    for i in seed_rows:
        # Diagonal term of column f at row i is virtual here (i - f lands
        # in the virtual band), so the only unknown is the participant.
        mu = i % p.t
        cell = b.xor_values([_diag_syndrome(b, i, skip), s[mu]])
        known[(p.rows + mu - f) % p.ring] = cell
        s[mu] = b.xor_values([s[mu], cell])

    for i in range(p.rows):
        r = (i - f) % p.ring
        if i in seed_rows or r >= p.rows:
            continue
        acc = _diag_syndrome(b, i, skip)
        if i < p.n_c:
            acc = b.xor(acc, s[i % p.t])
        known[r] = acc

    if len(known) != p.rows:
        raise ChainStall(
            f"diagonal recovery of column {f} left {p.rows - len(known)} cells"
        )
    return [known[i] for i in range(p.rows)]


@functools.lru_cache(maxsize=CACHE_SIZE)
def decoding_program(params: CodeParams, erased: frozenset) -> Program:
    """Compile the recovery of the erased information columns, which must
    be one or two: outputs one column after the other, row by row.

    Raises ChainStall when the rules cannot recover the pattern: on the
    rank-deficient column pairs of non-MDS parameter sets, and on the
    full-rank pairs the chain rules find no way through.
    """
    b = Builder(params, erased)
    b.phase = "chase"
    info = sorted(c for c in erased if c < params.k)
    if len(info) == 2:
        columns = recover_pair(b, *info)
    elif params.k in erased:
        columns = [decode_info_with_diag_parity(b, info[0])]
    else:
        columns = [decode_info_via_row_parity(b, info[0])]
    return b.finish(
        [v for column in columns for v in column],
        f"decode of columns {sorted(erased)} of {params}",
    )


def recovery_programs(params: CodeParams, erased) -> list[tuple[Program, list[int]]]:
    """The programs `decode` runs for the loss of the `erased` columns,
    each with the columns it restores: the decode of the erased information
    columns, then the encode of the erased parity columns.  Raises
    ChainStall as `decoding_program` does."""
    info = sorted(c for c in erased if c < params.k)
    parity = sorted(c for c in erased if c >= params.k)
    programs = [(decoding_program(params, frozenset(erased)), info)] if info else []
    if parity:
        programs.append((encoding_program(params, tuple(parity)), parity))
    return programs


@functools.lru_cache(maxsize=CACHE_SIZE)
def undecodable_pairs(params: CodeParams) -> tuple[tuple[int, int], ...]:
    """The column pairs whose loss `decode` cannot recover: those whose
    recovery programs do not compile."""
    bad = []
    for pair in itertools.combinations(range(params.k + 2), 2):
        try:
            recovery_programs(params, pair)
        except ChainStall:
            bad.append(pair)
    return tuple(bad)


def build_syndromes(program: Program, regs: list[int]) -> None:
    """Reduce both parity columns to the syndromes of the erased pair:
    stage 0 of a two-information program, on loaded registers."""
    program.execute(regs, 0)


def decode_two_info(program: Program, regs: list[int]) -> None:
    """Recover two erased information columns on loaded registers: the
    syndromes, then the chain (stage 1)."""
    build_syndromes(program, regs)
    program.execute(regs, 1)


def decode(array: CodeArray, pattern: ErasurePattern, tally=None) -> CodeArray:
    """Restore the erased columns in place and return the array.

    Cells of erased columns are never read; every other column must be
    intact.  Erased information columns are recovered first, then only the
    erased parity columns are re-encoded.  `tally`, when given, is a
    metrics.DecodeTally: the XOR counts of the decode program's phases are
    added to it, and the re-encode's count under "chase".
    """
    p = array.params
    pattern.validate(p)
    info = sorted(c for c in pattern.erased if c < p.k)
    parity = tuple(sorted(pattern.erased - set(info)))
    xors = []
    values = None
    if info:
        program = decoding_program(p, pattern.erased)
        regs = program.load(array)
        if len(info) == 2:
            decode_two_info(program, regs)
        else:
            program.execute(regs)
        program.store(regs, array, info)
        if parity:
            values = program.cell_values(regs, info)
        xors += program.xors
    if parity:
        encode(array, columns=parity, values=values)
        xors.append(("chase", encoding_program(p, parity).xor_count))
    if tally is not None:
        tally.add(xors)
    return array
