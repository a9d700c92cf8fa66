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


def flat(rows=PRM.rows, columns=PRM.k + 2, width=4):
    """A flat list of the cells of a rows x columns grid."""
    return [bytearray(width) for _ in range(rows * columns)]


@pytest.mark.parametrize("lane_width, cells, match", [
    (0, None, "lane width must be >= 1"),
    (4, flat(rows=PRM.rows - 1), f"{(PRM.rows - 1) * (PRM.k + 2)} cells given"),
    (4, flat(columns=PRM.k + 1), f"{PRM.rows * (PRM.k + 1)} cells given"),
    (4, flat(width=3), "lane width mismatch"),
], ids=["lane width 0", "rows-1 rows", "k+1 columns", "narrow lanes"])
def test_given_cells_are_validated(lane_width, cells, match):
    with pytest.raises(ValueError, match=match):
        CodeArray(PRM, lane_width, cells)


def test_cells_are_flat_row_major(rng):
    # Cell (i, j) is cells[i*(k+2) + j]; given cells are taken as they are.
    n = PRM.k + 2
    cells = [bytearray(rng.randbytes(4)) for _ in range(PRM.rows * n)]
    arr = CodeArray(PRM, 4, cells)
    assert arr.cells is cells
    for i in range(PRM.rows):
        for j in range(n):
            assert arr.get(i, j) is cells[i * n + j]
    for j in range(n):
        assert arr.column(j) == [cells[i * n + j] for i in range(PRM.rows)]
    arr.set(2, 1, b"\x01\x02\x03\x04")
    assert cells[2 * n + 1] == b"\x01\x02\x03\x04"


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
    want = [bytes(lane) for lane in arr.cells]
    got = arr.copy()
    got.get(0, 1)[0] ^= 1
    decode(got, ErasurePattern.of(0, 3))  # writes columns 0 and 3 of the copy
    assert [bytes(lane) for lane in arr.cells] == want


def test_erasure_pattern_validation():
    ErasurePattern.of(0, 4).validate(PRM)
    with pytest.raises(TooManyErasures):
        ErasurePattern.of(0, 1, 2).validate(PRM)
    with pytest.raises(ValueError):
        ErasurePattern.of(5).validate(PRM)  # only columns 0..4 exist
    with pytest.raises(ValueError, match="empty"):
        ErasurePattern.of().validate(PRM)
