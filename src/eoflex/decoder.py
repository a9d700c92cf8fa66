"""Erasure recovery for any one or two erased columns.

Every recovery reads the parity equations of `codec` with its erased
columns skipped, which leaves the XOR of the erased terms, and reads the
common-bit rule off `CodeParams`.  Single-column and column+parity
erasures invert one parity column.  Two erased information columns f < g
are recovered by a chain chaser over the subscript ring Z_{tau*p}: each
row-parity row links the two erased cells of one row, each
diagonal-parity row links cells g-f apart (plus the reduced common bit
the row carries), and walks of stride g-f thread those links together.
Three facts drive the walk:

  * virtual positions (>= tau*(p-1)) are known zero and anchor chains;
  * the XOR of all 2*tau*(p-1) parity lanes equals the XOR of the common
    bits, giving one extra equation;
  * each reduced common bit is itself the XOR of at most two erased cells,
    so it becomes known the moment those cells are.

When plain propagation stalls, a telescoping seed (the XOR of a run of
diagonal syndromes, the row syndromes between them, and optionally the
common-bit sum) isolates a single unknown.  If no rule makes progress
with cells still unknown, the chaser raises ChainStall rather than
returning garbage (see `_PairEngine`).

`decoding_program` runs the rules once per (params, erased columns), on
symbolic cells (see `program`), and keeps the compiled program, with the
XOR count of each phase, in a bounded cache.  That one program restores
every erased column: the information columns, then a lost parity column
re-encoded from them, as the paper rebuilds a failed parity disk; a loss
of parity columns alone is an `encode`.  A two-information program runs
in two stages, `build_syndromes` and the chain of `decode_two_info`; they
and `encode` are called through their module-level names, so a traced
run can time each apart.  The chaser's common-bit consistency check is
settled at compile time (see `Builder.check`).  `decode` adds the XOR
counts of the program it runs to a `metrics.DecodeTally`, when given one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .codearray import CodeArray, ErasurePattern
from .codec import (compute_common_bits, diagonal_sum, encode, encoding_program,
                    parity_columns, row_sum)
from .errors import ChainStall
from .params import CodeParams
from .program import CACHE_SIZE, ZERO, Builder, Program


@dataclass
class SyndromePair:
    """Reduced two-column syndromes: row_syn[i] is the XOR of the two
    erased cells of row i; diag_syn[i] additionally carries the reduced
    common bit of the row, if it carries one.  Entries are value ids of a
    Builder."""

    f: int
    g: int
    row_syn: list[int]
    diag_syn: list[int]
    sum_s: int  # XOR of the reduced common bits


def sum_common_bits(b: Builder) -> int:
    """XOR of all 2*tau*(p-1) parity lanes, which telescopes to the XOR of
    the t common bits (each appears an odd number of times overall)."""
    p = b.params
    return b.xor_cells((i, c) for c in (p.k, p.k + 1) for i in range(p.rows))


def pair_syndromes(b: Builder, f: int, g: int) -> SyndromePair:
    """Subtract all surviving contributions from both parity columns.

    The reduction XORs count in phase "reduce", the parity-sum XORs in
    phase "sum_common" (the metrics module reports the two separately).
    """
    p = b.params
    skip = (f, g)
    b.phase = "reduce"
    row_syn = [row_sum(b, i, [(i, p.k)], skip) for i in range(p.rows)]
    reduced_s = compute_common_bits(b, skip)
    diag_syn = [diagonal_sum(b, i, reduced_s, [(i, p.k + 1)], skip) for i in range(p.rows)]

    b.phase = "sum_common"
    sum_s = sum_common_bits(b)
    b.phase = "reduce"
    sum_s = b.xor_values(reduced_s, sum_s)
    return SyndromePair(f, g, row_syn, diag_syn, sum_s)


class _PairEngine:
    """Chain chaser for two erased information columns.

    Every variable lives in one store, `val`: the cells ("F", pos) and
    ("G", pos) of columns f and g over the ring positions, and the reduced
    common bits ("S", mu).  A variable holds None while unknown and ZERO
    when known to be zero: the virtual positions, and the common bits with
    no real participant.  Every rule is one equation, a key list whose
    variables XOR to its syndrome terms: row i, diagonal i (with the common
    bit it carries), each common-bit definition, the common-bit sum and each
    telescope.  An equation with exactly one unknown solves it as the XOR
    of the syndrome terms and the known non-zero variables.  The rule
    schedule is data independent, so XOR counts depend only on the
    parameters and the erased pair.
    """

    def __init__(self, b: Builder, syn: SyndromePair):
        p = self.p = b.params
        self.b, self.syn = b, syn
        self.f, self.g, self.d = syn.f, syn.g, syn.g - syn.f
        self.val: dict[tuple[str, int], int | None] = {}
        for pos in range(p.ring):
            self.val["F", pos] = self.val["G", pos] = None if pos < p.rows else ZERO
        # S[mu] is the XOR of its sources in columns f and g; zero when
        # both are virtual.
        self.links = [
            [("S", mu), ("F", p.common_source(mu, self.f)), ("G", p.common_source(mu, self.g))]
            for mu in range(p.t)
        ]
        for s, *parts in self.links:
            self.val[s] = ZERO if all(self.val[key] == ZERO for key in parts) else None
        self.row_eqs = [([("F", i), ("G", i)], [syn.row_syn[i]]) for i in range(p.rows)]
        self.diag_eqs = []
        for i in range(p.rows):
            keys = [("F", (i - self.f) % p.ring), ("G", (i - self.g) % p.ring)]
            if (mu := p.common_bit(i)) is not None:
                keys.append(("S", mu))
            self.diag_eqs.append((keys, [syn.diag_syn[i]]))
        self.commons = [("S", mu) for mu in range(p.t)]
        self._did_stride_seeds = False

    def _pending(self, keys) -> tuple[tuple[str, int], int] | None:
        """(the unknown, the number of known non-zero terms) when exactly
        one of `keys` is unknown, else None."""
        unknown = None
        cost = 0
        for key in keys:
            value = self.val[key]
            if value is None:
                if unknown is not None:
                    return None
                unknown = key
            elif value != ZERO:
                cost += 1
        return None if unknown is None else (unknown, cost)

    def _solve(self, keys, rhs: list[int]) -> None:
        """Set the one unknown of `keys` to the XOR of the syndrome terms
        `rhs` and the known non-zero variables, in key order."""
        known = [self.val[key] for key in keys if self.val[key] not in (None, ZERO)]
        unknown = next(key for key in keys if self.val[key] is None)
        self.val[unknown] = self.b.xor_values(rhs + known)

    # -- rules -------------------------------------------------------------

    def _rule_links(self) -> bool:
        """Complete common-bit definitions (zero-cost or single-XOR)."""
        progress = False
        for keys in self.links:
            if self._pending(keys):
                self._solve(keys, [])
                progress = True
        return progress

    def _rule_equations(self) -> bool:
        """Solve one syndrome equation, cheapest first: row equations cost
        one XOR, diagonal equations one or two depending on how many known
        terms must be folded in.  One solve per call so each new value can
        unlock a cheaper route for the next."""
        for keys, rhs in self.row_eqs:
            if self._pending(keys):
                self._solve(keys, rhs)
                return True
        best = None
        for keys, rhs in self.diag_eqs:
            hit = self._pending(keys)
            if hit and (best is None or hit[1] < best[0]):
                best = (hit[1], keys, rhs)
                if hit[1] <= 1:
                    break
        if best is None:
            return False
        self._solve(best[1], best[2])
        return True

    def _rule_sum(self) -> bool:
        """Last common bit from the parity-sum identity (needs n_c/t even,
        which the threshold rule guarantees)."""
        if not self._pending(self.commons):
            return False
        self._solve(self.commons, [self.syn.sum_s])
        return True

    # -- telescoping seeds ---------------------------------------------------

    def _try_seed(self, a: int, length: int) -> bool:
        """Solve the telescope of `length` diagonal equations of stride d
        from diagonal row a, alone or plus the common-bit sum: the inner
        cells cancel against the row equations between them, leaving the
        last F cell, the G cell before the first, and the common bits that
        appear an odd number of times.  False when a diagonal row is
        virtual or neither telescope has exactly one unknown."""
        p = self.p
        cells = [("F", (a + (length - 1) * self.d - self.f) % p.ring),
                 ("G", (a - self.d - self.f) % p.ring)]
        if self.val[cells[0]] is None and self.val[cells[1]] is None:
            return False
        diagonals = [(a + step * self.d) % p.ring for step in range(length)]
        if any(i >= p.rows for i in diagonals):
            return False
        commons = [p.common_bit(i) for i in diagonals]
        for use_sum in (False, True):
            keys = [("S", mu) for mu in range(p.t) if commons.count(mu) % 2 != use_sum] + cells
            if self._pending(keys):
                rhs = [self.syn.diag_syn[i] for i in diagonals] + [
                    self.syn.row_syn[pos]
                    for pos in ((i - self.f) % p.ring for i in diagonals[:-1])
                    if pos < p.rows
                ]
                self._solve(keys, rhs + ([self.syn.sum_s] if use_sum else []))
                return True
        return False

    def _rule_seed(self) -> bool:
        p = self.p
        lengths = range(1, p.ring // math.gcd(self.d, p.ring) + 1)
        # First stall of a stride-divisible pattern: seed every chain
        # offset m = 0..d-1 up front, the way the recursive walks do.
        if not self._did_stride_seeds:
            self._did_stride_seeds = True
            if p.rows % self.d == 0 and any([
                any(self._try_seed(m, n) for n in lengths) for m in range(self.d)
            ]):
                return True
        # General search: shortest telescope first, lowest start row first.
        return any(self._try_seed(a, n) for n in lengths for a in range(p.ring))

    # -- driver --------------------------------------------------------------

    def run(self) -> tuple[list[int], list[int]]:
        p = self.p
        cells = [(side, q) for side in "FG" for q in range(p.rows)]
        while True:
            if self._rule_links():
                continue
            if self._rule_equations():
                continue
            if all(self.val[key] is not None for key in cells):
                break
            if self._rule_sum():
                continue
            if self._rule_seed():
                continue
            unresolved = [self.val[key] for key in cells].count(None)
            raise ChainStall(
                f"no rule makes progress for columns ({self.f},{self.g}) of "
                f"{p}; {unresolved} cells unresolved (rank-deficient pair, "
                "or a full-rank one the chain rules cannot solve)"
            )
        # Recovered common bits must match their definitions.  The Builder
        # settles each comparison at compile time, and raises ChainStall
        # when the two sides combine different cells.
        for s, *parts in self.links:
            if self.val[s] is not None:
                self.b.check([self.val[key] for key in parts], self.val[s])
        return (
            [self.val["F", q] for q in range(p.rows)],
            [self.val["G", q] for q in range(p.rows)],
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
    return [row_sum(b, i, [(i, p.k)], (f,)) for i in range(p.rows)]


def decode_info_with_diag_parity(b: Builder, f: int) -> list[int]:
    """Recover information column f from the diagonal-parity column
    (row parity unavailable).

    For f = 0 every common bit is computable from the surviving columns
    and each diagonal row inverts directly.  For f >= 1 the rows f-1 down
    to max(0, f-t) of the diagonal column each pin one column-f common-bit
    participant (their direct diagonal term is virtual), after which all
    common bits are known and the remaining rows invert.  These seed rows
    still assume that each row i below t carries S[i], as the rule of
    `CodeParams.common_bit` has it; a rule that breaks that must revisit
    them.
    """
    p = b.params
    skip = (f,)
    # Common bits from their surviving participants; the column-f one (real
    # exactly when mu < f) is XORed in as the seed rows recover it.
    s = compute_common_bits(b, skip)
    known: dict[int, int] = {}
    seed_rows = range(f - 1, max(0, f - p.t) - 1, -1)
    for i in seed_rows:
        # Diagonal term of column f at row i is virtual here (i - f lands
        # in the virtual band), so the only unknown is the participant.
        mu = p.common_bit(i)
        cell = diagonal_sum(b, i, s, [(i, p.k + 1)], skip)
        known[p.common_source(mu, f)] = cell
        s[mu] = b.xor_values([s[mu], cell])

    for i in range(p.rows):
        r = (i - f) % p.ring
        if r < p.rows:  # false on the seed rows: their column-f term is virtual
            known[r] = diagonal_sum(b, i, s, [(i, p.k + 1)], skip)

    if len(known) != p.rows:
        raise ChainStall(f"diagonal recovery of column {f} left {p.rows - len(known)} cells")
    return [known[i] for i in range(p.rows)]


@functools.lru_cache(maxsize=CACHE_SIZE)
def decoding_program(params: CodeParams, erased: frozenset) -> Program:
    """Compile the recovery of the `erased` columns, one or two of which
    are information columns: the information columns first, then the
    erased parity column re-encoded from them under phase "chase".

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
    outputs = [((i, c), value) for c, cells in zip(info, columns) for i, value in enumerate(cells)]
    for cell, value in outputs:
        b.set(*cell, value)
    outputs += parity_columns(b, erased - set(info))
    return b.finish(outputs, f"decode of columns {sorted(erased)} of {params}")


def recovery_program(params: CodeParams, erased) -> Program:
    """The program that restores the `erased` columns; raises ChainStall
    as `decoding_program` does."""
    columns = tuple(sorted(erased))
    if columns[0] >= params.k:
        return encoding_program(params, columns)
    return decoding_program(params, frozenset(columns))


@functools.lru_cache(maxsize=CACHE_SIZE)
def undecodable_pairs(params: CodeParams) -> tuple[tuple[int, int], ...]:
    """The column pairs whose loss `decode` cannot recover: those whose
    recovery program does not compile."""
    bad = []
    for pair in itertools.combinations(range(params.k + 2), 2):
        try:
            recovery_program(params, pair)
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
    intact.  A pattern that loses an information column runs its one
    decoding program; a pattern that loses only parity columns re-encodes
    them.  `tally`, when given, is a metrics.DecodeTally: the XOR counts of
    the program's phases are added to it, a re-encode's under "chase".
    """
    p = array.params
    pattern.validate(p)
    erased = sorted(pattern.erased)
    if erased[0] >= p.k:
        encode(array, columns=erased)
        xors = [("chase", encoding_program(p, tuple(erased)).xor_count)]
    else:
        program = decoding_program(p, pattern.erased)
        regs = program.load(array)
        if len(erased) == 2 and erased[1] < p.k:
            decode_two_info(program, regs)
        else:
            program.execute(regs)
        program.store(regs, array)
        xors = program.xors
    if tally is not None:
        tally.add(xors)
    return array
