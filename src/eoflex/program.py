"""Straight-line XOR programs, compiled once and run over whole arrays.

Every encode and decode schedule depends only on the parameters and the
erasure pattern, never on the data.  The rule code in `codec` and `decoder`
therefore runs once, on symbolic cells: a `Builder` hands out value ids for
the array cells it reads and records one instruction per XOR the rules ask
for.  `Builder.finish` turns the recording into a `Program`, one register
per value, and keeps the XOR count of each phase the rules ran in.  Those
counts are the package's only XOR accounting: `metrics` and `decoder.decode`
read them off the programs.  Each counted XOR is one instruction, so their
sum is the number of XORs the program runs.

The Builder also tracks which input cells each value combines, so a
consistency check the rules ask for is settled at compile time: its two
sides must combine the same cells, which makes them equal on any input, or
compiling raises ChainStall.  A program compares nothing when it runs.

A program's outputs carry their cells, as its inputs do.  Running a
program converts each input cell to an int once, XORs ints in a flat loop
and converts only the output cells back to bytes, which `store` writes
into the cells the array holds.  One program restores every lost column
of a pattern, so no int is handed from one program to another.  A lane
may be any width, so one run can cover many stripes whose cells are
concatenated lane by lane.  The code is cut into stages where the rules
asked for it, so a caller can run (and time) each stage on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ChainStall

ZERO = 0  # value id and register of the all-zero lane
CACHE_SIZE = 256  # compiled programs kept per cache


@dataclass(frozen=True)
class Program:
    """A compiled XOR schedule.

    Register 0 holds zero.  `inputs` is a flat tuple of (register, row,
    column) triples, each loading the array's flat cell row*(k+2) +
    column, and `code` a flat tuple of (dst, a, b) triples, each meaning
    reg[dst] = reg[a] ^ reg[b]; stage s is code[stages[s-1]:stages[s]]
    (from 0 for s = 0).  `outputs` holds (register, row, column) triples
    too, each storing a register into a cell.  `xors` pairs each phase
    with the XORs the rules spent in it, one per instruction.
    """

    name: str
    inputs: tuple[int, ...]
    code: tuple[int, ...]
    stages: tuple[int, ...]
    outputs: tuple[int, ...]
    registers: int
    xors: tuple[tuple[str, int], ...]

    @property
    def columns(self) -> frozenset[int]:
        """Array columns the program reads."""
        return frozenset(self.inputs[2::3])

    @property
    def xor_count(self) -> int:
        return sum(n for _, n in self.xors)

    def load(self, array) -> list[int]:
        """Registers with the input cells of `array` loaded as ints."""
        cells, n = array.cells, array.params.k + 2
        regs = [0] * self.registers
        it = iter(self.inputs)
        for r, i, j in zip(it, it, it):
            regs[r] = int.from_bytes(cells[i * n + j], "little")
        return regs

    def cell_values(self, regs: list[int]) -> dict[tuple[int, int], int]:
        """The cells held in executed `regs`, keyed by (row, column): every
        input cell, then every output cell."""
        values = {}
        for triples in (self.inputs, self.outputs):
            it = iter(triples)
            values.update(((i, j), regs[r]) for r, i, j in zip(it, it, it))
        return values

    def execute(self, regs: list[int], stage: int | None = None) -> None:
        """Run one stage of the code on `regs`, or all of it."""
        code = self.code
        if stage is not None:
            code = code[self.stages[stage - 1] if stage else 0 : self.stages[stage]]
        it = iter(code)
        for dst, a, b in zip(it, it, it):
            regs[dst] = regs[a] ^ regs[b]

    def store(self, regs: list[int], array) -> None:
        """Write each output into its cell of `array`: it overwrites the
        bytes of the cell the array holds, which must be writable."""
        cells, n, width = array.cells, array.params.k + 2, array.lane_width
        it = iter(self.outputs)
        for r, i, j in zip(it, it, it):
            cells[i * n + j][:] = regs[r].to_bytes(width, "little")


class Builder:
    """Records the XORs rule code performs on symbolic cells.

    `get(i, j)` returns the value id of array cell (i, j), reading it as a
    program input the first time; cells of `erased` columns must be `set`
    by the rules before they are read, or `get` raises ValueError.  `xor`
    emits one instruction, counts it against the current `phase` (None
    counts nothing) and returns the id of the result.  Rules build their sums with `xor_values` and
    `xor_cells`, which start from None, the empty sum, so a sum of n terms
    emits n-1 XORs.  `check` settles a consistency check at compile time.
    `end_stage` cuts the code recorded so far off as a stage.
    """

    def __init__(self, params, erased=frozenset()):
        self.params = params
        self.erased = frozenset(erased)
        self.phase: str | None = None
        self._cells: dict[tuple[int, int], int] = {}
        self._inputs: dict[int, tuple[int, int]] = {}
        self._code: list[tuple[int, int, int]] = []
        self._stages: list[int] = []
        self._counts: dict[str, int] = {}
        # _mask[v]: bit n set when input n (in order of first read) is one
        # of the cells value v is the XOR of.
        self._mask = [0]

    def _new(self, mask: int) -> int:
        self._mask.append(mask)
        return len(self._mask) - 1

    def get(self, i: int, j: int) -> int:
        value = self._cells.get((i, j))
        if value is None:
            if j in self.erased:
                raise ValueError(f"cell ({i},{j}) is erased and not yet recovered")
            value = self._cells[(i, j)] = self._new(1 << len(self._inputs))
            self._inputs[value] = (i, j)
        return value

    def set(self, i: int, j: int, value: int) -> None:
        self._cells[(i, j)] = value

    def xor(self, a: int, b: int) -> int:
        value = self._new(self._mask[a] ^ self._mask[b])
        self._code.append((value, a, b))
        if self.phase is not None:
            self._counts[self.phase] = self._counts.get(self.phase, 0) + 1
        return value

    def xor_values(self, values, acc: int | None = None) -> int | None:
        """XOR `values` onto `acc` and return the sum.  None stands for the
        empty sum: it costs no XOR, and is returned when there is nothing
        to XOR."""
        for value in values:
            if value is not None:
                acc = value if acc is None else self.xor(acc, value)
        return acc

    def xor_cells(self, cells, acc: int | None = None) -> int | None:
        """XOR the array cells `cells`, (row, column) pairs, onto `acc`."""
        return self.xor_values((self.get(i, j) for i, j in cells), acc)

    def check(self, values, target: int) -> None:
        """Require the XOR of `values` to equal `target`.  Both sides must
        combine the same input cells, which makes them equal on any input;
        otherwise raise ChainStall.  Emits no code."""
        mask = 0
        for value in values:
            mask ^= self._mask[value]
        if mask != self._mask[target]:
            raise ChainStall(
                f"{self.params} with columns {sorted(self.erased)} erased: a "
                "consistency check combines different cells on its two sides"
            )

    def end_stage(self) -> None:
        self._stages.append(len(self._code))

    def finish(self, outputs, name: str) -> Program:
        """Compile the recording into a Program that stores each value of
        `outputs`, ((row, column), value id) pairs, into its cell."""
        return Program(
            name=name,
            inputs=tuple(x for v, cell in self._inputs.items() for x in (v, *cell)),
            code=tuple(x for triple in self._code for x in triple),
            stages=tuple(3 * n for n in self._stages) + (3 * len(self._code),),
            outputs=tuple(x for (i, j), v in outputs for x in (v, i, j)),
            registers=len(self._mask),
            xors=tuple(sorted(self._counts.items())),
        )
