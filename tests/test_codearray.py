import pytest

from eoflex.codearray import CodeArray, ErasurePattern, xor_lanes, zero_lane
from eoflex.errors import TooManyErasures
from eoflex.params import validate_params

PRM = validate_params(2, 5, 3)


def test_xor_lanes_properties(rng):
    a, b, c = (rng.randbytes(8) for _ in range(3))
    assert xor_lanes(a, b) == xor_lanes(b, a)
    assert xor_lanes(xor_lanes(a, b), c) == xor_lanes(a, xor_lanes(b, c))
    assert xor_lanes(a, a) == zero_lane(8)
    assert xor_lanes(a, zero_lane(8)) == a


def test_lane_width_enforced():
    arr = CodeArray.zeros(PRM, 4)
    with pytest.raises(ValueError):
        arr.set(0, 0, b"\x01")


def test_erasure_pattern_validation():
    ErasurePattern.of(0, 4).validate(PRM)
    with pytest.raises(TooManyErasures):
        ErasurePattern.of(0, 1, 2).validate(PRM)
    with pytest.raises(ValueError):
        ErasurePattern.of(5).validate(PRM)  # only columns 0..4 exist
