"""Systematic encoder: row parity, common bits, diagonal parity, and
incremental single-cell update.

Row parity (column k) of row i is the XOR of the k information cells of
that row.  Diagonal parity (column k+1) of row i is the XOR of the cells
b[i-j, j] for j = 0..k-1 (subscripts mod tau*p, virtual rows skipped),
plus the common bit S[i mod t] for the first n_c rows.  The common bit
S[mu] is the XOR of the cells b[tau*(p-1)+mu-j, j] for j = 1..k-1; the
term is real exactly when mu < j.

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

CommonBits = list  # list of t value ids


def common_bit_participants(params: CodeParams, mu: int) -> list[tuple[int, int]]:
    """Real cells feeding common bit mu: (row, column) pairs, column > mu."""
    rows = params.rows
    return [
        ((rows + mu - j) % params.ring, j)
        for j in range(mu + 1, params.k)
    ]


def compute_common_bits(b: Builder) -> CommonBits:
    """XOR up the t common bits from the information columns."""
    p = b.params
    return [b.xor_cells(common_bit_participants(p, mu)) for mu in range(p.t)]


def diagonal_terms(params: CodeParams, i: int, skip=()) -> list[tuple[int, int]]:
    """Real cells of diagonal i outside the columns in `skip`: (row, column)
    pairs with row < rows, the column-0 term first."""
    terms = []
    for j in range(params.k):
        r = (i - j) % params.ring
        if r < params.rows and j not in skip:
            terms.append((r, j))
    return terms


def parity_columns(b: Builder, columns) -> dict[int, list[int]]:
    """Symbolic parity cells of the given parity columns (k, k+1 or both)
    from the information cells of `b`."""
    p = b.params
    out = {}
    if p.k in columns:
        out[p.k] = [b.xor_cells((i, j) for j in range(p.k)) for i in range(p.rows)]
    if p.k + 1 in columns:
        s = compute_common_bits(b)
        diag = []
        for i in range(p.rows):
            acc = b.xor_cells(diagonal_terms(p, i))
            if i < p.n_c:
                acc = b.xor(acc, s[i % p.t])
            diag.append(acc)
        out[p.k + 1] = diag
    return out


@functools.lru_cache(maxsize=CACHE_SIZE)
def encoding_program(params: CodeParams, columns: tuple[int, ...]) -> Program:
    """The compiled encoder of the parity `columns` (k, k+1 or both, in
    order): outputs one column after the other, row by row."""
    b = Builder(params, {params.k, params.k + 1})
    b.phase = "encode"
    cols = parity_columns(b, columns)
    return b.finish([v for c in columns for v in cols[c]], f"encode {columns} of {params}")


def encode(array: CodeArray, *, columns=None) -> CodeArray:
    """Fill both parity columns, or the parity `columns` given, from the
    information columns, in place."""
    p = array.params
    columns = (p.k, p.k + 1) if columns is None else tuple(sorted(columns))
    program = encoding_program(p, columns)
    regs = program.load(array)
    program.execute(regs)
    program.store(regs, array, columns)
    return array


@functools.lru_cache(maxsize=CACHE_SIZE)
def update_positions(params: CodeParams) -> MappingProxyType:
    """The parity cells each information cell (i, j) feeds, read off the
    compiled encoder: run once with input n holding the bitmask 1 << n,
    each output holds the mask of the input cells its equation combines.
    Positions come column k first, then column k+1, row by row."""
    columns = (params.k, params.k + 1)
    program = encoding_program(params, columns)
    regs = [0] * program.registers
    for n, r in enumerate(program.inputs[::3]):
        regs[r] = 1 << n
    program.execute(regs)
    values = program.cell_values(regs, columns)
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
