"""Exception types raised by the eoflex library."""


class CodeError(Exception):
    """Base class for all eoflex errors."""


class ParameterError(CodeError, ValueError):
    """A (tau, p, k) triple that cannot define a code."""


class NonPositiveTau(ParameterError):
    pass


class KTooSmall(ParameterError):
    pass


class PNotOdd(ParameterError):
    """p is not an odd integer >= 3."""


class DivisorConditionViolated(ParameterError):
    """p has a divisor other than 1 that is <= k-1."""

    def __init__(self, p: int, k: int, divisor: int):
        self.divisor = divisor
        super().__init__(
            f"p={p} has divisor {divisor} <= k-1={k - 1}; "
            "every divisor of p other than 1 must exceed k-1"
        )


class CommonRowsExceedArray(ParameterError):
    pass


class LaneWidthOutOfRange(ParameterError):
    """A shard lane width below 1 or above the header's u32 field, or one
    whose batch buffer this process cannot allocate."""


class UndecodablePairs(ParameterError):
    """A valid code whose decoder cannot recover the loss of some column
    pairs, named in `pairs`; shards of it are not written."""

    def __init__(self, params, pairs):
        self.pairs = pairs
        names = ", ".join(f"{a}+{b}" for a, b in pairs)
        super().__init__(
            f"{params} cannot recover the loss of columns {names}; "
            "eoflex verify tells rank-deficient pairs from decoder stalls"
        )


class ParamsFileError(CodeError, ValueError):
    """A parameter file line that does not hold three integers tau, p, k."""


class ParityColumnNotUpdatable(CodeError, ValueError):
    pass


class TooManyErasures(CodeError, ValueError):
    pass


class ChainStall(CodeError, RuntimeError):
    """The chain decoder could not make progress.

    It fires, by design, on the rank-deficient column pairs of non-MDS
    parameter sets instead of returning garbage.  It also fires on some
    full-rank pairs, such as (2,5,5) columns 2+4, where the chain rules
    find no way through although the pair is recoverable; `eoflex verify`
    tells the two apart.  Compiling a program raises it too when a
    consistency check's two sides combine different cells (see
    `program.Builder.check`).
    """


class Underdetermined(CodeError, RuntimeError):
    """The erasure system is rank deficient (non-MDS instance)."""


class PNotPrime(ParameterError):
    pass


class PTooSmall(ParameterError):
    pass


class ShardError(CodeError):
    """Base class for shard-file problems."""


class TooManyMissing(ShardError):
    pass


class HeaderMismatch(ShardError):
    pass


class CrcFailure(ShardError):
    pass


class UnsupportedVersion(ShardError):
    """A shard header whose format version this reader does not know."""


class ShardInUse(ShardError):
    """An encode whose input is a shard file it would overwrite or remove,
    or a decode whose output is one of the shards it reads."""
