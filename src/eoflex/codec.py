"""Systematic encoder: row parity, common bits, diagonal parity, and
incremental single-cell update.

Row parity (column k) of row i is the XOR of the k information cells of
that row.  Diagonal parity (column k+1) of row i is the XOR of the cells
b[i-j, j] for j = 0..k-1 (subscripts mod tau*p, virtual rows skipped),
plus the common bit S[i mod t] for the first n_c rows.  The common bit
S[mu] is the XOR of the cells b[tau*(p-1)+mu-j, j] for j = 1..k-1; the
term is real exactly when mu < j.  `CodeParams.common_bit` and
`common_source` are the one statement of that rule.  Each equation is
stated once, in `compute_common_bits`, `row_sum` and `diagonal_sum`, and
shared with the decoders, which skip their erased columns.

The rules run once per parameter set, on symbolic cells, and are compiled
into an XOR program (see `program`); `encode` converts each information
cell to an int once, runs that program and converts only the parity cells
back to bytes.  A lane may concatenate the cells of many stripes.  Common
bits are computed once per encode and reused across the n_c rows, and
virtual diagonal terms are skipped rather than XOR-ed as zero lanes, so
the program runs exactly 2*(k-1)*tau*(p-1) - t + n_c lane XORs per
encode.  `encode` can also fill one parity column alone, as a decode that
lost only parity columns does.  A decode that lost an information column
emits `parity_columns` into its own program instead (see `decoder`).

Update reads the same program: `update_positions` runs it once on
bitmasks, which names the parity cells each information cell feeds, and
`update_cell` XOR-patches exactly those.
"""

from __future__ import annotations

import functools
from types import MappingProxyType

from .codearray import CodeArray, Lane, xor_lanes
from .errors import ParityColumnNotUpdatable
from .params import CodeParams
from .program import CACHE_SIZE, Builder, Program

CommonBits = list  # list of t value ids, None for an empty sum


def common_bit_participants(params: CodeParams, mu: int) -> list[tuple[int, int]]:
    """Real cells feeding common bit mu: (row, column) pairs, column > mu."""
    return [(params.common_source(mu, j), j) for j in range(mu + 1, params.k)]


def compute_common_bits(b: Builder, skip=()) -> CommonBits:
    """The t common bits, each the XOR of its participants outside the
    columns in `skip`; None for a bit with no participant left."""
    p = b.params
    return [
        b.xor_cells((i, j) for i, j in common_bit_participants(p, mu) if j not in skip)
        for mu in range(p.t)
    ]


def row_sum(b: Builder, i: int, cells=(), skip=()) -> int:
    """Row-parity equation i: the XOR of `cells` and the information cells
    of row i outside the columns in `skip`.  The encoder passes neither; a
    decoder passes the row-parity cell and its erased columns, and gets
    the XOR of the erased cells of the row."""
    return b.xor_cells([*cells, *((i, j) for j in range(b.params.k) if j not in skip)])


def diagonal_sum(b: Builder, i: int, s: CommonBits, cells=(), skip=()) -> int:
    """Diagonal-parity equation i: the XOR of `cells`, the real cells
    (i-j, j) outside the columns in `skip`, column 0 first, and the common
    bit in `s` that row i carries (`CodeParams.common_bit`), unless that
    entry is None.  The encoder passes neither `cells` nor `skip`; a
    decoder passes the diagonal-parity cell and its erased columns."""
    p = b.params
    terms = [(r, j) for j in range(p.k) if j not in skip and (r := (i - j) % p.ring) < p.rows]
    acc = b.xor_cells([*cells, *terms])
    mu = p.common_bit(i)
    return acc if mu is None else b.xor_values([s[mu]], acc)


def parity_columns(b: Builder, columns) -> list[tuple[tuple[int, int], int]]:
    """The cells of the given parity columns (k, k+1 or both), computed
    from the information cells of `b`: ((row, column), value id) pairs,
    column k first, row by row."""
    p = b.params
    out = []
    if p.k in columns:
        out += [((i, p.k), row_sum(b, i)) for i in range(p.rows)]
    if p.k + 1 in columns:
        s = compute_common_bits(b)
        out += [((i, p.k + 1), diagonal_sum(b, i, s)) for i in range(p.rows)]
    return out


@functools.lru_cache(maxsize=CACHE_SIZE)
def encoding_program(params: CodeParams, columns: tuple[int, ...]) -> Program:
    """The compiled encoder of the parity `columns`: (k,), (k+1,) or
    (k, k+1)."""
    b = Builder(params, {params.k, params.k + 1})
    b.phase = "encode"
    return b.finish(parity_columns(b, columns), f"encode {columns} of {params}")


def encode(array: CodeArray, *, columns=None) -> CodeArray:
    """Fill both parity columns, or the parity `columns` given, from the
    information columns, in place."""
    p = array.params
    columns = (p.k, p.k + 1) if columns is None else tuple(sorted(columns))
    program = encoding_program(p, columns)
    regs = program.load(array)
    program.execute(regs)
    program.store(regs, array)
    return array


@functools.lru_cache(maxsize=CACHE_SIZE)
def update_positions(params: CodeParams) -> MappingProxyType:
    """The parity cells each information cell (i, j) feeds, read off the
    compiled encoder: run once with input n holding the bitmask 1 << n,
    each output holds the mask of the input cells its equation combines.
    Positions come column k first, then column k+1, row by row."""
    program = encoding_program(params, (params.k, params.k + 1))
    regs = [0] * program.registers
    for n, r in enumerate(program.inputs[::3]):
        regs[r] = 1 << n
    program.execute(regs)
    values = program.cell_values(regs)
    outputs = [(cell, mask) for cell, mask in values.items() if cell[1] >= params.k]
    return MappingProxyType({
        cell: tuple(position for position, mask in outputs if mask & bit)
        for cell, bit in values.items()
        if cell[1] < params.k
    })


def update_cell(array: CodeArray, i: int, j: int, new_value: Lane) -> tuple[tuple[int, int], ...]:
    """Replace information cell (i, j), XOR-patching affected parity cells.

    Returns the distinct parity positions patched, those
    `update_positions` names.  Patching a cell with its current value
    returns the same positions and leaves the array unchanged (the XOR
    deltas are zero).
    """
    p = array.params
    if not (0 <= i < p.rows):
        raise IndexError(f"row {i} out of range [0, {p.rows})")
    if not (0 <= j < p.k):
        raise ParityColumnNotUpdatable(
            f"column {j} is not an information column (k={p.k})"
        )
    old_value = array.get(i, j)
    array.set(i, j, new_value)  # checks the lane width before any parity cell changes
    delta = xor_lanes(old_value, new_value)
    positions = update_positions(p)[(i, j)]
    for r, c in positions:
        array.set(r, c, xor_lanes(array.get(r, c), delta))
    return positions
