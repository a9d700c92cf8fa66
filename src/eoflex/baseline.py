"""Classic EVENODD as a parameter set, and the single-repetition reduction
check.

Classic EVENODD (Blaum, Brady, Bruck & Menon, 1995) is this construction
with tau = 1 and its one common bit (the XOR along the diagonal ending at
virtual row p-1) on *every* row of the diagonal-parity column, which is
what pushes its update complexity to 3 - (p+k-2)/(k(p-1)).
`evenodd_params` returns it as a `CodeParams`, so the package's one
compiled encoder and decoder serve it; it exists for complexity
comparison.  Its measured update complexity is
`metrics.measure_update_complexity(evenodd_params(p, k)).empirical`, read
off the encoder like that of any other parameter set, and equals
`evenodd_update_formula(p, k)` exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PNotPrime, PTooSmall
from .oracle import generator_matrix
from .params import CodeParams, Regime, validate_params


def evenodd_params(p: int, k: int) -> CodeParams:
    """Classic EVENODD over p-1 rows and k information columns: tau = 1,
    t = 1 and n_c = p-1, one common bit on every row.  p must be a prime
    no smaller than k."""
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise PNotPrime(f"p must be prime, got {p}")
    if p < k:
        raise PTooSmall(f"p={p} must be >= k={k}")
    regime = Regime.TAU_GE if k <= 2 else Regime.TAU_LT
    return CodeParams(tau=1, p=p, k=k, t=1, n_c=p - 1, regime=regime, rows=p - 1, ring=p)


def evenodd_update_formula(p: int, k: int) -> Fraction:
    return 3 - Fraction(p + k - 2, k * (p - 1))


def tau1_equivalence_check(p: int, k: int) -> bool:
    """Check that the tau = 1 instance is the single-common-bit code:
    one common bit, fed by the diagonal ending at the virtual row, added
    to exactly the first 2*floor(k/2) diagonal-parity rows.

    Works structurally on the generator matrix: the difference between
    each diagonal-parity row's dependency set and the bare diagonal must
    be empty above the threshold and equal to the common bit's set below
    it.  The check is exact.
    """
    params = validate_params(1, p, k)
    if params.t != 1 or params.n_c != 2 * (k // 2):
        return False
    g = generator_matrix(params)
    rows = params.rows
    common = sum(1 << (j * rows + rows - j) for j in range(1, k))
    for i in range(rows):
        diag = sum(1 << (j * rows + r) for j in range(k) if (r := (i - j) % params.ring) < rows)
        if g.bits[(k + 1) * rows + i] ^ diag != (common if i < params.n_c else 0):
            return False
    return True
