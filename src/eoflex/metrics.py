"""XOR-level complexity measurement and closed-form comparison.

Counting convention (matching how the costs decompose analytically):

  * encode: every lane XOR of the common-bit/row/diagonal schedule counts;
    with common bits computed once and virtual terms skipped the total is
    exactly 2*(k-1)*tau*(p-1) - t + n_c.
  * decode of two information columns: the comparable quantity is the
    parity-sum phase (2*tau*(p-1) - 1 XORs) plus the chain-solving phase;
    the syndrome-reduction XORs (subtracting the k-2 surviving columns)
    are tallied separately and excluded from the closed-form comparison,
    which models only those two phases.
  * update: positions touched, not XORs; the average over all information
    cells has an exact combinatorial value that the empirical count must
    reproduce, while the closed form ignores virtual-row losses and is
    only an approximation.

Every count is read off the compiled XOR programs: XORs off
`Program.xors`, which hold the XORs each phase runs, and update positions
off the encoder (`codec.update_positions`); no count needs an array, an
encode or a decode.

The classic-EVENODD baseline is here too (`evenodd_params`, measured by the
same compiled encoder, and its closed form `evenodd_update_formula`); the
exact tau = 1 reduction check is `oracle.tau1_equivalence_check`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .codec import encoding_program, update_positions
from .decoder import decoding_program
from .errors import ChainStall, PNotPrime, PTooSmall
from .params import CodeParams, Regime, validate_params


@dataclass
class DecodeTally:
    """Lane XORs per phase, summed over the decodes it is passed to (see
    `decoder.decode`)."""

    sum_common: int = 0
    reduce: int = 0
    chase: int = 0

    def add(self, xors) -> None:
        """Add (phase, count) pairs, as `Program.xors` holds them."""
        for phase, n in xors:
            setattr(self, phase, getattr(self, phase) + n)

    @property
    def comparable(self) -> int:
        """Parity-sum plus chain phases, the quantity the closed forms model."""
        return self.sum_common + self.chase

    @property
    def total(self) -> int:
        return self.sum_common + self.reduce + self.chase


# -- closed forms ------------------------------------------------------------


def encode_xor_formula(params: CodeParams) -> int:
    """2[(k-1)tau(p-1)] - t + n_c; equals the per-regime closed forms."""
    return 2 * (params.k - 1) * params.rows - params.t + params.n_c


def decode_xor_formula(params: CodeParams, f: int, g: int) -> int:
    """Closed-form XOR count for recovering information columns f < g,
    selected by regime, stride size and divisibility; includes the
    2*tau*(p-1)-1 parity-sum XORs."""
    p = params
    d = g - f
    divisible = p.rows % d == 0
    if p.regime is Regime.TAU_GE:
        if d == p.k - 1:
            chase = (p.k - 1) * (1 + 2 * p.rows // (p.k - 1)) if divisible \
                else (p.k - 1) * (1 + 2 * p.rows)
        else:
            chase = d * (p.k - 1) + 2 * p.rows if divisible \
                else d * (p.k - 2) + 2 * d * p.rows
    else:
        if d == p.tau:
            chase = p.tau * (1 + 2 * (p.p - 1))
        elif divisible:
            chase = d * (p.tau - 1) + 2 * p.rows
        else:
            chase = d * (p.tau - 1) + 2 * d * p.rows
    return (2 * p.rows - 1) + chase


def update_formula(params: CodeParams) -> Fraction:
    """Closed-form update complexity 2 + (n_c/t - 1)(k-1)/(k tau (p-1))."""
    p = params
    return 2 + Fraction((p.n_c // p.t - 1) * (p.k - 1), p.k * p.rows)


def update_exact(params: CodeParams) -> Fraction:
    """Exact combinatorial average of parity cells touched per cell write:
    row parity always, the diagonal cell when real, and n_c/t diagonal
    rows for each common-bit participant (participant iff mu < j)."""
    p = params
    diag = p.k * p.rows - sum(min(j, p.tau) for j in range(p.k))
    participants = sum(p.k - 1 - mu for mu in range(p.t))
    touches = p.k * p.rows + diag + participants * (p.n_c // p.t)
    return Fraction(touches, p.k * p.rows)


def update_lower_bound(params: CodeParams) -> Fraction:
    """Minimum update complexity of a systematic two-parity MDS array code
    with the same number of rows (rows = q - 1 gives 2 + (1/q)(1 - 1/k))."""
    return 2 + Fraction(params.k - 1, params.k * (params.rows + 1))


def evenodd_plus_reference(p: int, k: int) -> dict[str, Fraction]:
    """Normalized complexities of the single-repetition (tau = 1) code."""
    half = 2 * (k // 2)
    return {
        "encode": 2 - Fraction(2 * p - k, k * (p - 1)),
        "decode": 2 + Fraction(half - 1, k * (p - 1)),
        "update": 2 + Fraction((half - 1) * (k - 1), k * (p - 1)),
    }


# -- classic EVENODD ---------------------------------------------------------


def evenodd_params(p: int, k: int) -> CodeParams:
    """Classic EVENODD (Blaum, Brady, Bruck & Menon, 1995) over p-1 rows and
    k information columns: the tau = 1 code with its one common bit (the
    XOR along the diagonal ending at virtual row p-1) on *every* row of the
    diagonal-parity column, n_c = p-1.  p must be a prime no smaller than
    k; it exists for complexity comparison."""
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise PNotPrime(f"p must be prime, got {p}")
    if p < k:
        raise PTooSmall(f"p={p} must be >= k={k}")
    return replace(validate_params(1, p, k), n_c=p - 1)


def evenodd_update_formula(p: int, k: int) -> Fraction:
    """Classic EVENODD's update complexity 3 - (p+k-2)/(k(p-1)), which
    `measure_update_complexity(evenodd_params(p, k)).empirical` equals
    exactly."""
    return 3 - Fraction(p + k - 2, k * (p - 1))


# -- measurements ------------------------------------------------------------


def count_encode_xors(params: CodeParams) -> int:
    """Lane XORs of one encode of both parity columns."""
    return encoding_program(params, (params.k, params.k + 1)).xor_count


def count_decode_xors(params: CodeParams, f: int, g: int) -> DecodeTally:
    """Per-phase lane XORs of recovering erased information columns f < g.
    Raises ChainStall on a pair the chain decoder cannot recover."""
    tally = DecodeTally()
    tally.add(decoding_program(params, frozenset((f, g))).xors)
    return tally


@dataclass
class UpdateComplexity:
    empirical: Fraction
    combinatorial: Fraction
    closed_form: Fraction
    lower_bound: Fraction


def measure_update_complexity(params: CodeParams) -> UpdateComplexity:
    """Average distinct parity positions touched per information-cell
    write, over all k*tau*(p-1) positions."""
    touched = sum(len(positions) for positions in update_positions(params).values())
    return UpdateComplexity(
        empirical=Fraction(touched, params.k * params.rows),
        combinatorial=update_exact(params),
        closed_form=update_formula(params),
        lower_bound=update_lower_bound(params),
    )


# -- report ------------------------------------------------------------------


@dataclass
class DecodeRow:
    pair: tuple[int, int]
    measured: int
    formula: int


@dataclass
class ReportRow:
    params: CodeParams
    encode_measured: int
    encode_formula: int
    decode: list[DecodeRow]
    skipped: list[tuple[int, int]]  # pairs the chain decoder stalls on
    update: UpdateComplexity
    evenodd_plus: dict[str, Fraction]
    classic_update: Fraction | None  # None when p is not prime

    @property
    def info_bits(self) -> int:
        return self.params.k * self.params.rows

    def lines(self):
        """(metric, case, measured, formula) for encode, each decoded pair,
        then update.  Encode and decode are XOR counts; update is already
        an average per information cell."""
        yield "encode", "-", self.encode_measured, self.encode_formula
        for d in self.decode:
            yield "decode", f"{d.pair[0]}+{d.pair[1]}", d.measured, d.formula
        yield "update", "-", self.update.empirical, self.update.closed_form


@dataclass
class ComplexityReport:
    rows: list[ReportRow]

    def to_csv(self) -> str:
        lines = ["tau,p,k,metric,case,measured,formula,normalized_measured,normalized_formula"]
        for row in self.rows:
            pm = row.params
            n = row.info_bits
            for metric, case, measured, formula in row.lines():
                if metric == "update":
                    values = f"{float(measured):.6f},{float(formula):.6f},,"
                else:
                    values = f"{measured},{formula},{measured / n:.6f},{formula / n:.6f}"
                lines.append(f"{pm.tau},{pm.p},{pm.k},{metric},{case},{values}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = (
            f"{'params':>9} {'metric':>7} {'case':>6} {'measured':>9} "
            f"{'formula':>9} {'norm-meas':>10} {'norm-form':>10}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            pm = row.params
            n = row.info_bits
            for metric, case, measured, formula in row.lines():
                if metric == "update":
                    values = f"{float(measured):>9.4f} {float(formula):>9.4f} {'':>10} {'':>10}"
                else:
                    values = (f"{measured:>9} {formula:>9} "
                              f"{measured / n:>10.4f} {formula / n:>10.4f}")
                lines.append(f"{str(pm):>9} {metric:>7} {case:>6} {values}")
            eo = row.evenodd_plus
            classic = row.classic_update
            lines.append(
                f"{str(pm):>9} {'': >7} {'ref':>6} tau=1: enc {float(eo['encode']):.4f} "
                f"dec {float(eo['decode']):.4f} upd {float(eo['update']):.4f}"
                + ("" if classic is None else f"; classic upd {float(classic):.4f}")
            )
        sections = {
            "schedule deviations (measured - formula; chain scheduling differs from the "
            "recursive per-case walks):": [
                f"  {row.params} columns {d.pair}: measured {d.measured}, "
                f"formula {d.formula}, delta {d.measured - d.formula:+d}"
                for row in self.rows for d in row.decode if d.measured != d.formula
            ],
            "skipped pairs (the chain decoder stalls on them; `eoflex verify` says why):": [
                f"  {row.params} columns {pair}" for row in self.rows for pair in row.skipped
            ],
        }
        for title, items in sections.items():
            if items:
                lines += ["", title, *items]
        return "\n".join(lines)


def complexity_report(param_list) -> ComplexityReport:
    """Measure encode/decode/update complexity for each parameter set and
    put the closed-form values alongside.

    Decode is measured for every pair of information columns.  Pairs the
    chain decoder stalls on are skipped and listed in the row's `skipped`:
    the rank-deficient ones, and the full-rank ones its rules find no way
    through (the verify command names both kinds).
    """
    rows = []
    for params in param_list:
        decode_rows = []
        skipped = []
        for f, g in itertools.combinations(range(params.k), 2):
            try:
                tally = count_decode_xors(params, f, g)
            except ChainStall:
                skipped.append((f, g))
                continue
            decode_rows.append(
                DecodeRow((f, g), tally.comparable, decode_xor_formula(params, f, g))
            )
        try:
            classic = measure_update_complexity(evenodd_params(params.p, params.k)).empirical
        except (PNotPrime, PTooSmall):
            classic = None
        rows.append(
            ReportRow(
                params=params,
                encode_measured=count_encode_xors(params),
                encode_formula=encode_xor_formula(params),
                decode=decode_rows,
                skipped=skipped,
                update=measure_update_complexity(params),
                evenodd_plus=evenodd_plus_reference(params.p, params.k),
                classic_update=classic,
            )
        )
    return ComplexityReport(rows)
