"""The code array: a tau*(p-1) x (k+2) grid of fixed-width byte lanes.

A lane is a block of the array's lane width; it stands in for one bit of
the construction, with every bit position inside the lane evolving under
the same XOR equations.  So a lane may also concatenate the same cell of
many stripes, and one encode or decode then covers all of them.  Rows
tau*(p-1) .. tau*p-1 of the subscript ring Z_{tau*p} are *virtual*: they
are not stored, read as zero, and the encode and decode rules skip them.
Each cell is a writable buffer of its own, and encode and decode write
their outputs into the cells the array holds, so an array laid over a
caller's buffer fills that buffer.
"""

from __future__ import annotations

import random
from dataclasses import InitVar, dataclass, field

from .errors import TooManyErasures
from .params import CodeParams

DEFAULT_LANE_WIDTH = 64

Lane = bytes


def xor_lanes(a: Lane, b: Lane) -> Lane:
    """Elementwise XOR of two equal-width lanes."""
    return (
        int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    ).to_bytes(len(a), "little")


@dataclass
class CodeArray:
    """Dense row-major grid of lanes; columns 0..k-1 hold information,
    column k row parity, column k+1 diagonal parity.

    Encode and decode overwrite the cells of the columns they fill.  Built
    without `cells`, the array allocates one zeroed `bytearray` per cell;
    given `cells` are used as they are, and must be distinct writable buffers
    of the lane width (`bytearray`s or views of one), which `check=False`
    does not check.  `set` replaces a cell with a writable copy of its value,
    so a lane taken earlier with `get` keeps its bytes.  Distinct arrays over
    distinct buffers are independent and may be processed in parallel.
    """

    params: CodeParams
    lane_width: int = DEFAULT_LANE_WIDTH
    cells: list[list[Lane]] = field(default=None)  # type: ignore[assignment]
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        if self.lane_width < 1:
            raise ValueError(f"lane width must be >= 1, got {self.lane_width}")
        if self.cells is None:
            self.cells = [
                [bytearray(self.lane_width) for _ in range(self.params.k + 2)]
                for _ in range(self.params.rows)
            ]
        elif check:
            if len(self.cells) != self.params.rows:
                raise ValueError("cell grid row count does not match params")
            for row in self.cells:
                if len(row) != self.params.k + 2:
                    raise ValueError("cell grid column count does not match params")
                for lane in row:
                    if len(lane) != self.lane_width:
                        raise ValueError("lane width mismatch in cell grid")

    # -- accessors ---------------------------------------------------------

    def get(self, i: int, j: int) -> Lane:
        return self.cells[i][j]

    def set(self, i: int, j: int, value: Lane) -> None:
        if len(value) != self.lane_width:
            raise ValueError("lane width mismatch")
        self.cells[i][j] = bytearray(value)

    def column(self, j: int) -> list[Lane]:
        return [self.cells[i][j] for i in range(self.params.rows)]

    def set_column(self, j: int, lanes: list[Lane]) -> None:
        """Set column j to `lanes`, one per row; a lane count other than
        `rows`, or a lane of another width, raises ValueError before any
        cell changes."""
        if len(lanes) != self.params.rows:
            raise ValueError(f"column of {self.params.rows} rows given {len(lanes)} lanes")
        if any(len(lane) != self.lane_width for lane in lanes):
            raise ValueError("lane width mismatch")
        for i, lane in enumerate(lanes):
            self.set(i, j, lane)

    def copy(self) -> "CodeArray":
        """An array with a copy of every cell."""
        cells = [[bytearray(lane) for lane in row] for row in self.cells]
        return CodeArray(self.params, self.lane_width, cells)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, params: CodeParams, lane_width: int = DEFAULT_LANE_WIDTH):
        return cls(params, lane_width)

    @classmethod
    def random(
        cls,
        params: CodeParams,
        lane_width: int = DEFAULT_LANE_WIDTH,
        rng: random.Random | None = None,
    ) -> "CodeArray":
        """Array with random information cells and zeroed parity columns."""
        rng = rng or random.Random()
        arr = cls(params, lane_width)
        for i in range(params.rows):
            for j in range(params.k):
                arr.cells[i][j] = bytearray(rng.randbytes(lane_width))
        return arr


@dataclass(frozen=True)
class ErasurePattern:
    """The set of erased column indices, size 1 or 2."""

    erased: frozenset[int]

    @classmethod
    def of(cls, *columns: int) -> "ErasurePattern":
        return cls(frozenset(columns))

    def validate(self, params: CodeParams) -> None:
        if len(self.erased) > 2:
            raise TooManyErasures(f"cannot recover {len(self.erased)} erased columns")
        if not self.erased:
            raise ValueError("erasure pattern is empty")
        for c in self.erased:
            if not (0 <= c <= params.k + 1):
                raise ValueError(f"column {c} out of range [0, {params.k + 1}]")
