"""eoflex: binary MDS array codes with two parity columns.

Systematic XOR-only encoding over a tau*(p-1) x (k+2) lane grid, recovery
from any two column erasures, a GF(2) Gaussian-elimination oracle, and
XOR-level complexity instrumentation.
"""

from .codearray import CodeArray, ErasurePattern, xor_lanes
from .codec import encode, update_cell
from .decoder import decode
from .params import CodeParams, Regime, validate_params

__all__ = [
    "CodeArray",
    "CodeParams",
    "ErasurePattern",
    "Regime",
    "decode",
    "encode",
    "update_cell",
    "validate_params",
    "xor_lanes",
]
