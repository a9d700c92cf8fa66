"""Classic EVENODD encoder and the single-repetition reduction check.

Classic EVENODD places one common bit (the XOR along the diagonal ending
at virtual row p-1) on *every* row of the diagonal-parity column, which
is what pushes its update complexity to 3 - (p+k-2)/(k(p-1)).  Only the
encoder is needed here; it exists for complexity comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codearray import Lane, xor_lanes, zero_lane
from .errors import PNotPrime, PTooSmall
from .oracle import generator_matrix
from .params import validate_params


@dataclass(frozen=True)
class EvenoddParams:
    p: int
    k: int


def validate_evenodd(p: int, k: int) -> EvenoddParams:
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise PNotPrime(f"p must be prime, got {p}")
    if p < k:
        raise PTooSmall(f"p={p} must be >= k={k}")
    return EvenoddParams(p, k)


def evenodd_encode(info: list[list[Lane]], p: int, k: int) -> list[list[Lane]]:
    """Encode a (p-1) x k grid of lanes into a (p-1) x (k+2) grid.

    Column k is row parity; column k+1 is the common bit XOR the diagonal
    i-j mod p (virtual row p-1 reads as zero).
    """
    validate_evenodd(p, k)
    if len(info) != p - 1 or any(len(r) != k for r in info):
        raise ValueError(f"information grid must be {p - 1} x {k}")
    width = len(info[0][0])

    def read(i: int, j: int) -> Lane | None:
        i %= p
        return info[i][j] if i < p - 1 else None

    common = zero_lane(width)
    for j in range(1, k):
        cell = read(p - 1 - j, j)
        if cell is not None:
            common = xor_lanes(common, cell)

    out = [row[:] + [zero_lane(width), zero_lane(width)] for row in info]
    for i in range(p - 1):
        acc = info[i][0]
        for j in range(1, k):
            acc = xor_lanes(acc, info[i][j])
        out[i][k] = acc
    for i in range(p - 1):
        acc = common
        for j in range(k):
            cell = read(i - j, j)
            if cell is not None:
                acc = xor_lanes(acc, cell)
        out[i][k + 1] = acc
    return out


def evenodd_parity_dependents(p: int, k: int, i: int, j: int) -> list[tuple[int, int]]:
    """Parity cells containing information cell (i, j) of classic EVENODD."""
    positions = [(i, k)]
    diag = (i + j) % p
    if diag != p - 1:
        positions.append((diag, k + 1))
    elif j >= 1:
        # Common-bit participant: feeds every diagonal-parity row.
        positions.extend((r, k + 1) for r in range(p - 1))
    return positions


def evenodd_update_complexity(p: int, k: int) -> Fraction:
    """Empirical average parity cells touched per information-cell write;
    equals 3 - (p+k-2)/(k(p-1)) exactly."""
    validate_evenodd(p, k)
    touched = sum(
        len(evenodd_parity_dependents(p, k, i, j))
        for i in range(p - 1)
        for j in range(k)
    )
    return Fraction(touched, k * (p - 1))


def evenodd_update_formula(p: int, k: int) -> Fraction:
    return 3 - Fraction(p + k - 2, k * (p - 1))


def tau1_equivalence_check(p: int, k: int) -> bool:
    """Check that the tau = 1 instance is the single-common-bit code:
    one common bit, fed by the diagonal ending at the virtual row, added
    to exactly the first 2*floor(k/2) diagonal-parity rows.

    Works structurally on the generator matrix: the difference between
    each diagonal-parity row's dependency set and the bare diagonal must
    be empty above the threshold and equal to one fixed nonempty set below
    it.  The check is exact.
    """
    params = validate_params(1, p, k)
    if params.t != 1 or params.n_c != 2 * (k // 2):
        return False
    g = generator_matrix(params)
    rows = params.rows
    expected_common = 0
    for j in range(1, k):
        expected_common |= 1 << (j * rows + (rows - j))
    threshold = params.n_c
    for i in range(rows):
        diag = 0
        for j in range(k):
            r = (i - j) % params.ring
            if r < rows:
                diag |= 1 << (j * rows + r)
        actual = g.bits[(k + 1) * rows + i]
        difference = actual ^ diag
        if i < threshold:
            if difference != expected_common or difference == 0:
                return False
        elif difference:
            return False
    return True
