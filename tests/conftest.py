import random

import pytest

from eoflex.params import validate_params
from eoflex.program import Builder

# Parameter sets the acceptance suite sweeps.
ACCEPTANCE_SETS = [
    (1, 5, 3), (2, 5, 3), (3, 5, 3),
    (1, 7, 4), (2, 7, 4), (1, 7, 5),
    (1, 9, 3), (2, 9, 3), (3, 9, 3),
    (1, 11, 7),
]

# (2,7,4) columns (0,3): the two-erasure system is rank deficient -- the
# all-but-row-0 pattern on both columns encodes to all-zero parities, so no
# decoder can tell it from zero.  Verified by tests/test_oracle.py
# (TestRankCheck) and by the explicit kernel in
# tests/test_decoder.py (test_rank_deficient_pair_has_kernel).
KNOWN_RANK_DEFICIENT = {(2, 7, 4): [(0, 3)]}


def deficient_pairs(triple):
    return KNOWN_RANK_DEFICIENT.get(triple, [])


@pytest.fixture
def rng():
    return random.Random(0xE0F1E)


def params_of(triple):
    return validate_params(*triple)


def evaluate(array, rule, erased=()):
    """Run symbolic rule code on a concrete array: compile the rules, run
    the program and give back the lanes of the value ids `rule(builder)`
    returns, each held in the register of the same number."""
    b = Builder(array.params, erased)
    values = list(rule(b))
    program = b.finish((), "test")
    regs = program.load(array)
    program.execute(regs)
    return [regs[v].to_bytes(array.lane_width, "little") for v in values]
