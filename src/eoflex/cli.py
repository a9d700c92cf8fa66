"""Command line interface: encode/decode shard sets, verify recoverability,
benchmark XOR complexity.

    eoflex encode --tau T --p P --k K [--lane-width N] <file> <dir>
    eoflex decode <dir> <out>
    eoflex verify --tau T --p P --k K
    eoflex bench [--params-file <csv>] [--csv <path>]

`verify` proves, for every pair of lost columns, that the program a
decode runs recovers every codeword exactly (see `oracle.check_program`);
it uses no random data and exits 1 if any pair fails.  `encode` refuses
parameters whose decoder cannot recover some pair.  `decode` prints its
status line to stderr, so a decode into /dev/stdout writes only the data.

Exit status 0 on success, nonzero with a one-line diagnostic otherwise.

A plain decode, `decode A B` with neither word starting with "-", builds
no parser: argparse takes such words as positionals, so `main` builds the
namespace argparse would.  Any other call that names a command is parsed
by that command's own parser, the subparser `build_parser` would hand it
to, which takes 0.1-0.2 ms to build and run; encode keeps it, because its
int options, abbreviations and `--tau=2` forms are argparse's to parse.
The full parser (0.5-0.9 ms) is built only for an argv that names no
command or that the command's parser leaves words of.  No parser is
cached.  A small-object decode takes 0.3-0.4 ms in all, and an encode
0.4-0.5 ms (Python 3.11, shared 2-core Xeon container).  Only `verify`
and `bench` import the report code (`oracle`, `metrics`, `csv`), so
`encode` and `decode` load none of it.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from . import shardio
from .decoder import recovery_program
from .errors import ChainStall, CodeError, ParamsFileError
from .params import validate_params

DEFAULT_BENCH_SETS = [
    (1, 5, 3), (2, 5, 3), (3, 5, 3),
    (1, 7, 4), (2, 7, 4), (1, 7, 5),
    (1, 9, 3), (2, 9, 3), (3, 9, 3),
    (1, 11, 7),
]


def _code_arguments(parser) -> None:
    for name in ("--tau", "--p", "--k"):
        parser.add_argument(name, type=int, required=True)


def _encode_arguments(parser) -> None:
    _code_arguments(parser)
    parser.add_argument("--lane-width", type=int, default=shardio.DEFAULT_SHARD_LANE_WIDTH)
    parser.add_argument("input")
    parser.add_argument("output_dir")


def _cmd_encode(args) -> int:
    params = validate_params(args.tau, args.p, args.k)
    shardio.shard_file(args.input, params, args.output_dir, args.lane_width)
    print(f"wrote {params.k + 2} shards to {args.output_dir}")
    return 0


def _decode_arguments(parser) -> None:
    parser.add_argument("shard_dir")
    parser.add_argument("output")


def _cmd_decode(args) -> int:
    n = shardio.reconstruct(args.shard_dir, args.output)
    print(f"reconstructed {n} bytes to {args.output}", file=sys.stderr)
    return 0


def _pair_status(params, pair) -> str:
    """Prove the program `decode` runs for the loss of `pair`; where it
    does not compile, the dense rank tells why."""
    from . import oracle

    try:
        program = recovery_program(params, pair)
    except ChainStall:
        if not oracle.erasure_solver(params, pair).full_rank:
            return "FAIL (rank deficient)"
        return "FAIL (chain decoder stalls on a full-rank pair)"
    faults = len(oracle.check_program(params, program))
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
    """(tau, p, k) triples from a UTF-8 CSV file with those columns; a line
    that does not hold three integers, or a file with no line after its
    header, raises ParamsFileError naming the file and the line, and a file
    that is not UTF-8 one naming the file and the byte."""
    import csv
    import io

    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParamsFileError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    sets = []
    reader = csv.DictReader(io.StringIO(text, newline=""))
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


def _bench_arguments(parser) -> None:
    parser.add_argument("--params-file", help="CSV with tau,p,k columns")
    parser.add_argument("--csv", help="also write the report as CSV to this path")


def _cmd_bench(args) -> int:
    from . import metrics

    triples = _read_params_file(args.params_file) if args.params_file else DEFAULT_BENCH_SETS
    params = [validate_params(*t) for t in triples]
    report = metrics.complexity_report(params)
    print(report.to_text())
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
        print(f"\ncsv written to {args.csv}")
    return 0


# name: (help, function that adds its arguments, handler)
COMMANDS = {
    "encode": ("split a file into k+2 shards", _encode_arguments, _cmd_encode),
    "decode": ("reconstruct a file from shards", _decode_arguments, _cmd_decode),
    "verify": ("exact two-erasure recoverability check", _code_arguments, _cmd_verify),
    "bench": ("XOR complexity: measured vs closed forms", _bench_arguments, _cmd_bench),
}


def _command_parser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """`parser` with the arguments and handler of command `name`."""
    COMMANDS[name][1](parser)
    parser.set_defaults(func=COMMANDS[name][2], command=name)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full `eoflex` parser, with all four subparsers, for an argv that
    names no command or that its command's parser leaves words of (see the
    module docstring for what each parser costs)."""
    # `eoflex -h` prints the module docstring up to its last paragraph.
    description = __doc__ and __doc__.rpartition("\n\n")[0]
    parser = argparse.ArgumentParser(prog="eoflex", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = extra = None
    if len(argv) == 3 and argv[0] == "decode" and not argv[1].startswith("-") \
            and not argv[2].startswith("-"):
        # argparse takes words that do not start with "-" as positionals, so
        # this is the namespace it would build.
        args = argparse.Namespace(shard_dir=argv[1], output=argv[2],
                                  func=COMMANDS["decode"][2], command="decode")
    elif argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"eoflex {argv[0]}")
        args, extra = _command_parser(parser, argv[0]).parse_known_args(argv[1:])
    if args is None or extra:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
