"""Command line interface: encode/decode shard sets, verify recoverability,
benchmark XOR complexity.

    eoflex encode --tau T --p P --k K [--lane-width N] <file> <dir>
    eoflex decode <dir> <out>
    eoflex verify --tau T --p P --k K
    eoflex bench [--params-file <csv>] [--csv <path>]

`verify` proves, for every pair of lost columns, that the program a
decode runs recovers every codeword exactly (see `oracle.check_program`);
it uses no random data and exits 1 if any pair fails.  `encode` refuses
parameters whose decoder cannot recover some pair.

Exit status 0 on success, nonzero with a one-line diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
from pathlib import Path

from . import metrics, oracle, shardio
from .decoder import recovery_program
from .errors import ChainStall, CodeError, ParameterError, ParamsFileError
from .params import validate_params

DEFAULT_BENCH_SETS = [
    (1, 5, 3), (2, 5, 3), (3, 5, 3),
    (1, 7, 4), (2, 7, 4), (1, 7, 5),
    (1, 9, 3), (2, 9, 3), (3, 9, 3),
    (1, 11, 7),
]


def _cmd_encode(args) -> int:
    params = validate_params(args.tau, args.p, args.k)
    paths = shardio.shard_file(args.input, params, args.output_dir, args.lane_width)
    print(f"wrote {len(paths)} shards to {args.output_dir}")
    return 0


def _cmd_decode(args) -> int:
    n = shardio.reconstruct(args.shard_dir, args.output)
    print(f"reconstructed {n} bytes to {args.output}")
    return 0


def _pair_status(params, pair) -> str:
    """Prove the program `decode` runs for the loss of `pair`."""
    if not oracle.erasure_solver(params, pair).full_rank:
        return "FAIL (rank deficient)"
    try:
        program = recovery_program(params, pair)
    except ChainStall:
        return "FAIL (chain decoder stalls on a full-rank pair)"
    faults = len(oracle.check_program(params, program, sorted(pair)))
    return f"FAIL ({faults} cells differ from the generator)" if faults else "OK"


def _cmd_verify(args) -> int:
    params = validate_params(args.tau, args.p, args.k)
    pairs = list(itertools.combinations(range(params.k + 2), 2))
    ok = 0
    for pair in pairs:
        status = _pair_status(params, pair)
        ok += status == "OK"
        print(f"columns {pair[0]}+{pair[1]}: {status}")
    print(f"{ok}/{len(pairs)} column pairs OK")
    return 0 if ok == len(pairs) else 1


def _read_params_file(path: str):
    """(tau, p, k) triples from a CSV file with those columns; a line that
    does not hold three integers, or a file with no line after its header,
    raises ParamsFileError naming the file and the line."""
    sets = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                sets.append(tuple(int(row[name]) for name in ("tau", "p", "k")))
            except (KeyError, TypeError, ValueError):
                raise ParamsFileError(
                    f"{path} line {reader.line_num}: expected integer tau,p,k columns, "
                    f"got {row}"
                ) from None
    if not sets:
        raise ParamsFileError(
            f"{path} line {reader.line_num}: expected a tau,p,k header and one set "
            f"per line after it, got header {reader.fieldnames} and no set"
        )
    return sets


def _cmd_bench(args) -> int:
    triples = _read_params_file(args.params_file) if args.params_file else DEFAULT_BENCH_SETS
    params = [validate_params(*t) for t in triples]
    report = metrics.complexity_report(params)
    print(report.to_text())
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
        print(f"\ncsv written to {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="eoflex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="split a file into k+2 shards")
    enc.add_argument("--tau", type=int, required=True)
    enc.add_argument("--p", type=int, required=True)
    enc.add_argument("--k", type=int, required=True)
    enc.add_argument("--lane-width", type=int, default=shardio.DEFAULT_SHARD_LANE_WIDTH)
    enc.add_argument("input")
    enc.add_argument("output_dir")
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="reconstruct a file from shards")
    dec.add_argument("shard_dir")
    dec.add_argument("output")
    dec.set_defaults(func=_cmd_decode)

    ver = sub.add_parser("verify", help="exact two-erasure recoverability check")
    ver.add_argument("--tau", type=int, required=True)
    ver.add_argument("--p", type=int, required=True)
    ver.add_argument("--k", type=int, required=True)
    ver.set_defaults(func=_cmd_verify)

    ben = sub.add_parser("bench", help="XOR complexity: measured vs closed forms")
    ben.add_argument("--params-file", help="CSV with tau,p,k columns")
    ben.add_argument("--csv", help="also write the report as CSV to this path")
    ben.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, CodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
