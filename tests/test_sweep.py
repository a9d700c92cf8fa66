"""The construction pinned on a sweep of parameter sets: which column pairs
are rank deficient, which the decoder cannot recover, and every program
that compiles.  The values were recorded before the common-bit rule moved
onto `CodeParams`; a change to the rule, to an equation or to the chain
rules shows up here."""

import hashlib
import itertools

from eoflex.decoder import recovery_program, undecodable_pairs
from eoflex.errors import ChainStall, ParameterError
from eoflex.oracle import rank_check
from eoflex.params import validate_params


def _sweep():
    """Every set `validate_params` accepts with tau <= 4, odd p <= 11 and
    k <= 6."""
    for tau, p, k in itertools.product(range(1, 5), range(3, 12, 2), range(2, 7)):
        try:
            yield validate_params(tau, p, k)
        except ParameterError:
            pass


SWEEP = list(_sweep())

# (tau, p, k): (rank_check, undecodable_pairs) of each set of SWEEP that
# has a pair in either; every other set has none.
DEFICIENT = {
    (2, 5, 5): ([], [(2, 4)]),
    (2, 7, 4): ([(0, 3)], [(0, 3)]),
    (2, 7, 5): ([(0, 3)], [(0, 3), (2, 4)]),
    (2, 7, 6): ([], [(2, 4), (2, 5)]),
    (2, 11, 5): ([], [(2, 4)]),
    (2, 11, 6): ([(0, 5), (1, 4), (2, 5)], [(0, 5), (1, 4), (2, 4), (2, 5)]),
    (3, 7, 6): ([], [(0, 4), (1, 5), (2, 5), (3, 5)]),
    (3, 11, 6): ([(0, 5)], [(0, 4), (0, 5), (1, 5), (2, 5), (3, 5)]),
    (4, 5, 5): ([], [(0, 3), (1, 4)]),
    (4, 7, 5): ([(0, 3), (1, 4)], [(0, 3), (1, 4)]),
    (4, 7, 6): ([], [(0, 5)]),
    (4, 11, 5): ([], [(0, 3), (1, 4)]),
    (4, 11, 6): ([(0, 5)], [(0, 5)]),
}

# SHA-256 of the repr of the recovery program of every one- and two-column
# loss of every set of SWEEP, in order, skipping the losses that raise
# ChainStall.
SWEEP_PROGRAMS_SHA256 = "ce1d28b9a396a7775a930747c4e5f36c9647a26d97122002c3aca890f06981d8"


def test_sweep_has_72_sets():
    assert len(SWEEP) == 72


def test_rank_and_decodability_are_pinned():
    found = {}
    for prm in SWEEP:
        rank, stalls = rank_check(prm), list(undecodable_pairs(prm))
        if rank or stalls:
            found[prm.tau, prm.p, prm.k] = (rank, stalls)
    assert found == DEFICIENT


def test_every_program_is_golden():
    digest = hashlib.sha256()
    for prm in SWEEP:
        losses = [(c,) for c in range(prm.k + 2)]
        for cols in losses + list(itertools.combinations(range(prm.k + 2), 2)):
            try:
                program = recovery_program(prm, cols)
            except ChainStall:
                continue
            digest.update(repr(program).encode())
    assert digest.hexdigest() == SWEEP_PROGRAMS_SHA256
