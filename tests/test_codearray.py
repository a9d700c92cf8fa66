import pytest

from eoflex.codearray import CodeArray, ErasurePattern, xor_lanes
from eoflex.codec import encode
from eoflex.decoder import decode
from eoflex.errors import TooManyErasures
from eoflex.params import validate_params

PRM = validate_params(2, 5, 3)


def test_xor_lanes_properties(rng):
    a, b, c = (rng.randbytes(8) for _ in range(3))
    assert xor_lanes(a, b) == xor_lanes(b, a)
    assert xor_lanes(xor_lanes(a, b), c) == xor_lanes(a, xor_lanes(b, c))
    assert xor_lanes(a, a) == bytes(8)
    assert xor_lanes(a, bytes(8)) == a


def test_lane_width_enforced():
    arr = CodeArray.zeros(PRM, 4)
    with pytest.raises(ValueError):
        arr.set(0, 0, b"\x01")


def grid(rows=PRM.rows, columns=PRM.k + 2, width=4):
    return [[bytearray(width) for _ in range(columns)] for _ in range(rows)]


@pytest.mark.parametrize("lane_width, cells, match", [
    (0, None, "lane width must be >= 1"),
    (4, grid(rows=PRM.rows - 1), "row count"),
    (4, grid(columns=PRM.k + 1), "column count"),
    (4, grid(width=3), "lane width mismatch"),
], ids=["lane width 0", "rows-1 rows", "k+1 columns", "narrow lanes"])
def test_given_cells_are_validated(lane_width, cells, match):
    with pytest.raises(ValueError, match=match):
        CodeArray(PRM, lane_width, cells)


def test_unchecked_cells_are_taken_as_they_are():
    # check=False skips the cell checks for a caller that carved the cells
    # itself; the lane width is still checked.
    cells = grid(width=3)
    assert CodeArray(PRM, 4, cells, check=False).cells is cells
    with pytest.raises(ValueError, match="lane width must be >= 1"):
        CodeArray(PRM, 0, cells, check=False)


@pytest.mark.parametrize("lanes", [
    [b"\xff" * 4],
    [b"\xff" * 4] * (PRM.rows + 1),
    [b"\xff" * 4] * (PRM.rows - 1) + [b"\xff" * 3],
], ids=["one lane", "rows+1 lanes", "last lane narrow"])
def test_set_column_checks_its_lanes_first(rng, lanes):
    arr = CodeArray.random(PRM, 4, rng)
    before = arr.copy()
    with pytest.raises(ValueError):
        arr.set_column(0, lanes)
    assert arr == before


def test_copy_gives_independent_cells(rng):
    arr = encode(CodeArray.random(PRM, 4, rng))
    want = [[bytes(lane) for lane in row] for row in arr.cells]
    got = arr.copy()
    got.cells[0][1][0] ^= 1
    decode(got, ErasurePattern.of(0, 3))  # writes columns 0 and 3 of the copy
    assert [[bytes(lane) for lane in row] for row in arr.cells] == want


def test_erasure_pattern_validation():
    ErasurePattern.of(0, 4).validate(PRM)
    with pytest.raises(TooManyErasures):
        ErasurePattern.of(0, 1, 2).validate(PRM)
    with pytest.raises(ValueError):
        ErasurePattern.of(5).validate(PRM)  # only columns 0..4 exist
    with pytest.raises(ValueError, match="empty"):
        ErasurePattern.of().validate(PRM)
