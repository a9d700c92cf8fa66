"""Code parameter validation and derived quantities.

A code instance is fixed by three integers (tau, p, k): the array has
tau*(p-1) rows, k information columns and two parity columns, and all row
subscripts live in the ring Z_{tau*p}.  Validation enforces:

  * tau >= 1, k >= 2, p odd >= 3;
  * every divisor of p other than 1 exceeds k-1 (checked by trial
    division up to sqrt(p));
  * the common-bit row count n_c fits in the array.

Validation does not imply MDS.  Some accepted sets have a column pair no
decoder can recover, or one the chain decoder cannot: tests/test_sweep.py
pins both over 72 sets, `shardio.shard_file` refuses to write such a set,
and `eoflex verify` names each pair and says which kind it is.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (
    CommonRowsExceedArray,
    DivisorConditionViolated,
    KTooSmall,
    NonPositiveTau,
    PNotOdd,
)


class Regime(enum.Enum):
    """Which of the two decoding regimes the parameters fall in."""

    TAU_GE = "tau>=k-1"
    TAU_LT = "tau<k-1"


@dataclass(frozen=True)
class CodeParams:
    """Validated (tau, p, k) plus derived quantities.

    Immutable after construction; safe to share across workers.  Use
    :func:`validate_params` to construct one -- building the dataclass
    directly skips validation.

    Attributes:
        t: number of common bits, min(k-1, tau).
        n_c: number of leading rows of the diagonal-parity column that
            receive a common bit.
        rows: tau*(p-1), the number of real rows.
        ring: tau*p, the modulus for all row subscripts.
    """

    tau: int
    p: int
    k: int
    t: int
    n_c: int
    regime: Regime
    rows: int
    ring: int

    def __str__(self) -> str:
        return f"({self.tau},{self.p},{self.k})"

    def common_bit(self, i: int) -> int | None:
        """The common bit that diagonal-parity row i carries, or None: the
        first n_c rows carry S[i mod t].  This is the one statement of the
        rule; the encoder and every decoder read it here."""
        return i % self.t if i < self.n_c else None

    def common_source(self, mu: int, j: int) -> int:
        """The ring row of column j that feeds common bit S[mu]: the cell
        on the diagonal that ends at virtual row rows+mu.  It is virtual
        (known zero) when j <= mu."""
        return (self.rows + mu - j) % self.ring


def _threshold(k: int, t: int, regime: Regime) -> int:
    # For t == 1 the construction must add its single common bit to the
    # first 2*floor(k/2) rows (the one-repetition code does exactly this);
    # with the tau>=k-1 formula a k=2 code would get n_c = 0, which strands
    # the last bit of every erased column and breaks two-erasure recovery.
    if t == 1:
        return 2 * (k // 2)
    if regime is Regime.TAU_GE:
        return 2 * ((k - 1) // 2) * t
    return 2 * (k // 2) * t


def _check_divisors(p: int, k: int) -> None:
    # Divisors come in pairs (d, p // d); checking d <= sqrt(p) sees both.
    limit = math.isqrt(p)
    for d in range(2, limit + 1):
        if p % d == 0:
            small = d if d <= k - 1 else p // d
            if small <= k - 1:
                raise DivisorConditionViolated(p, k, small)
    if p <= k - 1:
        # p divides itself.
        raise DivisorConditionViolated(p, k, p)


def validate_params(tau: int, p: int, k: int) -> CodeParams:
    """Validate a parameter triple and derive all dependent quantities.

    Total over integer triples: returns a CodeParams or raises exactly one
    ParameterError subclass identifying the first failed requirement.  A
    set that passes need not be MDS (see the module docstring).
    """
    if tau < 1:
        raise NonPositiveTau(f"tau must be >= 1, got {tau}")
    if k < 2:
        raise KTooSmall(f"k must be >= 2, got {k}")
    if p % 2 == 0 or p < 3:
        raise PNotOdd(f"p must be an odd integer >= 3, got {p}")
    _check_divisors(p, k)

    t = min(k - 1, tau)
    regime = Regime.TAU_GE if tau >= k - 1 else Regime.TAU_LT
    n_c = _threshold(k, t, regime)
    rows = tau * (p - 1)
    if n_c > rows:
        raise CommonRowsExceedArray(
            f"common-bit rows n_c={n_c} exceed array rows {rows}"
        )
    return CodeParams(
        tau=tau, p=p, k=k, t=t, n_c=n_c, regime=regime, rows=rows, ring=tau * p
    )
