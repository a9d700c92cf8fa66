import argparse
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eoflex
from eoflex import cli
from eoflex.cli import DEFAULT_BENCH_SETS, build_parser, main
from eoflex.metrics import complexity_report
from eoflex.params import validate_params
from eoflex.shardio import HEADER_SIZE, ShardHeader, shard_path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

# SHA-256 of `eoflex bench --csv` over the default parameter sets.
BENCH_CSV_SHA256 = "d9ba320918f49e839c8c3c7d15fba803c707fe94cb5ec9b2bed6ed62739f31e7"

# SHA-256 of whole complexity reports: the default sets' text, and the text
# and CSV of three sets whose report has both a skipped pair and schedule
# deviations.
REPORT_SETS = {"default": DEFAULT_BENCH_SETS, "gaps": [(2, 7, 4), (2, 5, 5), (1, 7, 5)]}
REPORT_SHA256 = [
    ("default", "to_text", "f97bd31961411fcd0fe13ad51cf70a9850feaf884a8eddd66652571fb37773e7"),
    ("gaps", "to_text", "bc63833ba1817f2809b08588716c9d87aa6577f957e15c60e997d6da78344ed2"),
    ("gaps", "to_csv", "4a31054563fc817a127bc7608063b3dbf481a39cbfabb0133a584d27c3c6c995"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment of a child interpreter that imports this eoflex."""
    package_root = str(Path(eoflex.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


class TestVerify:
    def test_clean_instance(self, capsys):
        code, out, _ = run(capsys, "verify", "--tau", "2", "--p", "5", "--k", "3")
        assert code == 0
        assert "10/10 column pairs OK" in out

    def test_parameter_rejection_names_divisor(self, capsys):
        code, _, err = run(capsys, "verify", "--tau", "1", "--p", "9", "--k", "4")
        assert code != 0
        assert "3" in err and "divisor" in err

    def test_known_gap_reported_nonzero(self, capsys):
        code, out, _ = run(capsys, "verify", "--tau", "2", "--p", "7", "--k", "4")
        assert code == 1
        assert "14/15 column pairs OK" in out
        assert "columns 0+3: FAIL (rank deficient)\n" in out

    def test_stall_on_full_rank_pair_is_named(self, capsys):
        code, out, _ = run(capsys, "verify", "--tau", "2", "--p", "7", "--k", "5")
        assert code == 1
        assert "columns 0+3: FAIL (rank deficient)\n" in out
        assert "columns 2+4: FAIL (chain decoder stalls on a full-rank pair)\n" in out
        assert "19/21 column pairs OK" in out

    @pytest.mark.parametrize("triple, ranked", [((2, 5, 3), []), ((2, 7, 4), [(0, 3)])],
                             ids=["2,5,3", "2,7,4"])
    def test_rank_runs_only_where_compiling_stalls(self, capsys, monkeypatch, triple, ranked):
        from eoflex import oracle

        calls = []
        real = oracle.erasure_solver

        def counting(params, pair):
            calls.append(tuple(pair))
            return real(params, pair)

        monkeypatch.setattr(oracle, "erasure_solver", counting)
        run(capsys, "verify", *(f"--{n}={v}" for n, v in zip(("tau", "p", "k"), triple)))
        assert calls == ranked

    def test_random_trial_options_are_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--tau", "2", "--p", "5", "--k", "3", "--trials", "10"])
        capsys.readouterr()


class TestBench:
    def test_default_set_has_example_row(self, capsys):
        code, out, _ = run(capsys, "bench")
        assert code == 0
        assert "1.4167" in out  # normalized encode of (2,5,3)

    def test_params_file_and_csv(self, capsys, tmp_path):
        pfile = tmp_path / "params.csv"
        pfile.write_text("tau,p,k\n2,5,3\n1,5,3\n")
        csv_out = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "bench", "--params-file", str(pfile), "--csv", str(csv_out)
        )
        assert code == 0
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0].startswith("tau,p,k,metric")
        assert any(line.startswith("2,5,3,encode,-,34,34") for line in lines)

    def test_default_csv_is_golden(self, capsys, tmp_path):
        # Every per-phase XOR count of the default sets, frozen against
        # refactors of the rules and the program builder.
        csv_out = tmp_path / "report.csv"
        code, _, _ = run(capsys, "bench", "--csv", str(csv_out))
        assert code == 0
        assert hashlib.sha256(csv_out.read_bytes()).hexdigest() == BENCH_CSV_SHA256

    @pytest.mark.parametrize("sets,form,digest", REPORT_SHA256)
    def test_report_is_golden(self, sets, form, digest):
        report = complexity_report([validate_params(*t) for t in REPORT_SETS[sets]])
        assert hashlib.sha256(getattr(report, form)().encode()).hexdigest() == digest

    @pytest.mark.parametrize("text", [
        "t,p,k\n2,5,3\n",
        "tau,p,k\n2,5,3\nx,5,3\n",
        "tau,p,k\n2,5,3\n2,5\n",
        "1,5,3\n",
        "tau,p,k\n",
    ], ids=["no-tau-column", "not-an-integer", "short-row", "no-header", "no-set"])
    def test_malformed_params_file_is_diagnosed(self, capsys, tmp_path, text):
        pfile = tmp_path / "params.csv"
        pfile.write_text(text)
        code, out, err = run(capsys, "bench", "--params-file", str(pfile))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {pfile} line ") and err.count("\n") == 1
        bad_line = len(text.splitlines())
        assert f"line {bad_line}:" in err

    def test_params_file_that_is_not_utf8_is_diagnosed(self, capsys, tmp_path):
        pfile = tmp_path / "params.csv"
        pfile.write_bytes(b"tau,p,k\n\xff\xfe,5,3\n")
        code, out, err = run(capsys, "bench", "--params-file", str(pfile))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {pfile}: not UTF-8 text") and err.count("\n") == 1


class TestEncodeDecode:
    def test_roundtrip_with_losses(self, capsys, tmp_path, rng):
        src = tmp_path / "file.bin"
        src.write_bytes(rng.randbytes(150_000))
        shards = tmp_path / "shards"
        code, out, _ = run(
            capsys, "encode", "--tau", "2", "--p", "5", "--k", "3",
            "--lane-width", "512", str(src), str(shards),
        )
        assert code == 0 and "5 shards" in out
        shard_path(shards, 0).unlink()
        shard_path(shards, 4).unlink()
        out_file = tmp_path / "restored.bin"
        code, out, _ = run(capsys, "decode", str(shards), str(out_file))
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).digest() == \
            hashlib.sha256(src.read_bytes()).digest()

    def test_missing_input_is_diagnosed(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "encode", "--tau", "2", "--p", "5", "--k", "3",
            str(tmp_path / "absent.bin"), str(tmp_path / "shards"),
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("kind", ["missing", "regular file"])
    def test_shard_dir_that_is_no_directory(self, capsys, tmp_path, kind):
        shards = tmp_path / "shards"
        if kind == "regular file":
            shards.write_bytes(b"shard_0.eof")
        code, out, err = run(capsys, "decode", str(shards), str(tmp_path / "o.bin"))
        assert (code, out, err) == (2, "", "error: no readable shards found\n")
        assert not (tmp_path / "o.bin").exists()

    def test_too_many_missing_is_diagnosed(self, capsys, tmp_path, rng):
        src = tmp_path / "file.bin"
        src.write_bytes(rng.randbytes(1000))
        shards = tmp_path / "shards"
        run(capsys, "encode", "--tau", "1", "--p", "5", "--k", "3",
            "--lane-width", "16", str(src), str(shards))
        for c in (0, 1, 2):
            shard_path(shards, c).unlink()
        code, _, err = run(capsys, "decode", str(shards), str(tmp_path / "o.bin"))
        assert code == 2
        assert "missing" in err

    @pytest.mark.parametrize("triple", [("2", "7", "4"), ("2", "5", "5")])
    def test_undecodable_parameters_are_refused(self, capsys, tmp_path, triple):
        # Refused before the input is opened: it does not even exist.
        shards = tmp_path / "shards"
        tau, p, k = triple
        code, out, err = run(
            capsys, "encode", "--tau", tau, "--p", p, "--k", k,
            str(tmp_path / "absent.bin"), str(shards),
        )
        assert code == 2 and out == ""
        pair = "0+3" if triple == ("2", "7", "4") else "2+4"
        assert err.startswith(f"error: ({tau},{p},{k}) cannot recover the loss of columns {pair};")
        assert err.count("\n") == 1
        assert not shards.exists()

    @pytest.mark.parametrize("width", ["0", "-5", str(2**32)])
    def test_lane_width_out_of_range(self, capsys, tmp_path, width):
        src = tmp_path / "file.bin"
        src.write_bytes(bytes(1000))
        shards = tmp_path / "shards"
        code, _, err = run(
            capsys, "encode", "--tau", "2", "--p", "5", "--k", "3",
            "--lane-width", width, str(src), str(shards),
        )
        assert code == 2
        assert err.startswith("error: lane width") and err.count("\n") == 1
        assert not shards.exists()

    def test_unknown_version_is_diagnosed(self, capsys, tmp_path, rng):
        src = tmp_path / "file.bin"
        src.write_bytes(rng.randbytes(1000))
        shards = tmp_path / "shards"
        run(capsys, "encode", "--tau", "2", "--p", "5", "--k", "3",
            "--lane-width", "16", str(src), str(shards))
        for c in range(5):
            blob = shard_path(shards, c).read_bytes()
            header = dataclasses.replace(ShardHeader.unpack(blob), version=7)
            shard_path(shards, c).write_bytes(header.pack() + blob[HEADER_SIZE:])
        code, _, err = run(capsys, "decode", str(shards), str(tmp_path / "o.bin"))
        assert code == 2
        assert err.startswith("error: ") and "version 7" in err and err.count("\n") == 1
        assert not (tmp_path / "o.bin").exists()

    def test_rewrite_with_fewer_columns_decodes(self, capsys, tmp_path, rng):
        shards = tmp_path / "shards"
        wide, narrow = tmp_path / "wide.bin", tmp_path / "narrow.bin"
        wide.write_bytes(rng.randbytes(5000))
        narrow.write_bytes(rng.randbytes(3000))
        assert run(capsys, "encode", "--tau", "1", "--p", "11", "--k", "7",
                   "--lane-width", "16", str(wide), str(shards))[0] == 0
        assert run(capsys, "encode", "--tau", "2", "--p", "5", "--k", "3",
                   "--lane-width", "16", str(narrow), str(shards))[0] == 0
        out_file = tmp_path / "o.bin"
        code, out, err = run(capsys, "decode", str(shards), str(out_file))
        assert (code, out, err) == (0, "", f"reconstructed 3000 bytes to {out_file}\n")
        assert out_file.read_bytes() == narrow.read_bytes()
        assert not shard_path(shards, 5).exists()

    @pytest.mark.parametrize("where", ["missing-directory", "is-a-directory"])
    def test_unwritable_output_is_named(self, capsys, tmp_path, rng, where):
        src = tmp_path / "file.bin"
        src.write_bytes(rng.randbytes(1000))
        shards = tmp_path / "shards"
        run(capsys, "encode", "--tau", "2", "--p", "5", "--k", "3",
            "--lane-width", "16", str(src), str(shards))
        if where == "missing-directory":
            out_file = tmp_path / "nodir" / "o.bin"
        else:
            out_file = tmp_path / "outdir"
            out_file.mkdir()
        code, out, err = run(capsys, "decode", str(shards), str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(str(out_file)) in err and ".tmp" not in err
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("lost", [(), (0, 2)], ids=["healthy", "degraded"])
    def test_output_write_that_writes_nothing(self, capsys, tmp_path, rng, monkeypatch,
                                              lost):
        src = tmp_path / "file.bin"
        src.write_bytes(rng.randbytes(1000))
        shards = tmp_path / "shards"
        run(capsys, "encode", "--tau", "2", "--p", "5", "--k", "3",
            "--lane-width", "16", str(src), str(shards))
        for c in lost:
            shard_path(shards, c).unlink()
        monkeypatch.setattr(os, "writev", lambda fd, buffers: 0)
        out_file = tmp_path / "o.bin"
        code, out, err = run(capsys, "decode", str(shards), str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "wrote nothing" in err
        assert not out_file.exists()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_rejected_shards_are_named(self, capsys, tmp_path, rng):
        src = tmp_path / "file.bin"
        src.write_bytes(rng.randbytes(1000))
        shards = tmp_path / "shards"
        run(capsys, "encode", "--tau", "2", "--p", "5", "--k", "3",
            "--lane-width", "16", str(src), str(shards))
        blob = bytearray(shard_path(shards, 0).read_bytes())
        blob[20] ^= 1
        shard_path(shards, 0).write_bytes(bytes(blob))
        for c in (1, 3):
            blob = shard_path(shards, c).read_bytes()
            shard_path(shards, c).write_bytes(blob[:-10])
        code, out, err = run(capsys, "decode", str(shards), str(tmp_path / "o.bin"))
        assert code == 2 and out == ""
        assert err == (
            "error: 3 shards missing, can recover at most 2; rejected "
            f"{shard_path(shards, 0)} (header CRC failed), "
            f"{shard_path(shards, 1)} (payload 374 bytes where 384 were expected), "
            f"{shard_path(shards, 3)} (payload 374 bytes where 384 were expected)\n"
        )

    # Every header is rewritten alike, so no shard disagrees with another.
    # The last case is self-consistent, but no payload holds what it implies.
    @pytest.mark.parametrize("changes,expected", [
        pytest.param({"lane_width": 0}, "error: {s}/shard_0.eof records ", id="lane_width-0"),
        pytest.param({"original_length": 10**9}, "error: {s}/shard_0.eof records ",
                     id="original_length-1000000000"),
        pytest.param({"original_length": 10**6, "stripe_count": 2605},
                     "error: 5 shards missing, can recover at most 2; rejected " + ", ".join(
                         f"{{s}}/shard_{c}.eof (payload 384 bytes where 333440 were expected)"
                         for c in range(5)) + "\n",
                     id="original_length-1000000"),
    ])
    def test_inconsistent_header_is_diagnosed(self, capsys, tmp_path, rng, changes, expected):
        src = tmp_path / "file.bin"
        src.write_bytes(rng.randbytes(1000))
        shards = tmp_path / "shards"
        run(capsys, "encode", "--tau", "2", "--p", "5", "--k", "3",
            "--lane-width", "16", str(src), str(shards))
        for c in range(5):
            blob = shard_path(shards, c).read_bytes()
            header = dataclasses.replace(ShardHeader.unpack(blob), **changes)
            shard_path(shards, c).write_bytes(header.pack() + blob[HEADER_SIZE:])
        code, out, err = run(capsys, "decode", str(shards), str(tmp_path / "o.bin"))
        assert code == 2 and out == ""
        assert err.startswith(expected.format(s=shards))
        assert err.count("\n") == 1
        assert not (tmp_path / "o.bin").exists()


INTEGRITY_HOLE = pytest.mark.xfail(
    strict=True, reason="v1 shards carry no payload checksum and no file identity, and a "
    "header's column is trusted (ROADMAP item 2: shard format v2)")


class TestIntegrityHoles:
    """Damage that v1 shard sets do not detect: each decodes to wrong bytes
    under exit 0.  A decode must give the input byte for byte, or exit 2
    with one `error:` line."""

    @staticmethod
    def encode(capsys, tmp_path, rng, name="file"):
        src = tmp_path / f"{name}.bin"
        src.write_bytes(rng.randbytes(300_000))
        shards = tmp_path / name
        assert run(capsys, "encode", "--tau", "2", "--p", "5", "--k", "3",
                   str(src), str(shards))[0] == 0
        return src, shards

    @staticmethod
    def assert_exact_or_refused(capsys, tmp_path, src, shards):
        out_file = tmp_path / "out.bin"
        code, out, err = run(capsys, "decode", str(shards), str(out_file))
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code == 0 and out_file.read_bytes() == src.read_bytes()

    @INTEGRITY_HOLE
    def test_flipped_payload_byte(self, capsys, tmp_path, rng):
        src, shards = self.encode(capsys, tmp_path, rng)
        blob = bytearray(shard_path(shards, 0).read_bytes())
        blob[5000] ^= 0xFF
        shard_path(shards, 0).write_bytes(blob)
        self.assert_exact_or_refused(capsys, tmp_path, src, shards)

    @INTEGRITY_HOLE
    def test_shard_of_another_file(self, capsys, tmp_path, rng):
        src, shards = self.encode(capsys, tmp_path, rng)
        _, other = self.encode(capsys, tmp_path, rng, "other")
        shard_path(shards, 1).write_bytes(shard_path(other, 1).read_bytes())
        self.assert_exact_or_refused(capsys, tmp_path, src, shards)

    @INTEGRITY_HOLE
    def test_header_relabelled_as_a_missing_column(self, capsys, tmp_path, rng):
        src, shards = self.encode(capsys, tmp_path, rng)
        blob = shard_path(shards, 1).read_bytes()
        header = dataclasses.replace(ShardHeader.unpack(blob), column_index=0)
        shard_path(shards, 1).write_bytes(header.pack() + blob[HEADER_SIZE:])
        shard_path(shards, 0).unlink()
        self.assert_exact_or_refused(capsys, tmp_path, src, shards)


def add_parser_calls(monkeypatch):
    """The names every subparser is built under from now on, in order."""
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return calls


class TestLeanParser:
    """`main` parses with the parser of the subcommand its first word names,
    and falls back to the full parser (`build_parser`) only when that word
    names none or the parse leaves arguments over.  What it prints, its exit
    status and the namespace it hands the handler are the full parser's."""

    ARGVS = [
        [], ["-h"], ["frob"],
        ["decode"], ["decode", "-h"], ["decode", "a", "b", "c"],
        ["encode", "-h"], ["encode", "--tau", "x", "a", "b"],
        ["verify", "--tau", "2"],
        ["bench", "-h"], ["bench", "--csv"],
        # Parses that reach the handler.
        ["encode", "--tau", "2", "--p", "5", "--k", "3", "a", "b"],
        ["encode", "--tau", "2", "--p", "5", "--k", "3", "--lane-width", "64", "a", "b"],
        ["decode", "a", "b"],
        ["verify", "--tau", "2", "--p", "5", "--k", "3"],
        ["bench"],
        ["bench", "--params-file", "f.csv", "--csv", "o.csv"],
        ["encode", "--tau=2", "--p", "5", "--k", "3", "a", "b"],
        ["encode", "--t", "2", "--p", "5", "--k", "3", "--la", "64", "a", "b"],
        ["verify", "--t", "2", "--p", "5", "--k", "3"],
        ["bench", "--p", "f.csv", "--csv=o.csv"],
        ["verify", "--tau", "1", "--tau", "2", "--p", "5", "--k", "3"],
        ["encode", "a", "b", "--tau", "2", "--p", "5", "--k", "3"],
        ["encode", "a", "--tau", "2", "b", "--p", "5", "--k", "3"],
        ["decode", "--", "a", "b"],
        ["decode", "a", "--", "b"],
        ["decode", "a", "b", "--"],
        ["encode", "--tau", "2", "--p", "5", "--k", "3", "--", "-a", "b"],
        # Parses that end in help or an error.
        ["decode", "-x", "a", "b"],
        ["decode", "a", "b", "-h"],
        ["decode", "a", "b", "c", "-h"],
        ["decode", "--", "a", "b", "c"],
        ["decode", "a"],
        ["verify", "--tau", "2", "--p", "5", "--k", "3", "extra"],
        ["verify", "-h"],
        ["encode", "--tau", "2", "--p", "5", "--k", "3", "a", "b", "c"],
        ["encode", "--tau", "2", "--p", "5", "--k", "3", "--lane-width", "x", "a", "b"],
        ["encode", "--tau", "2", "--p", "5", "--k", "3", "--lane", "a", "b"],
        ["bench", "extra"],
        ["bench", "--params-file"],
        ["decode", "--he"],
        ["--help"], ["-x"], ["--", "decode", "a", "b"], ["Decode", "a", "b"],
        # Decode words that are or look like options, or hold a space.
        ["decode", "", "b"], ["decode", "a b", "c"], ["decode", "-", "b"],
        ["decode", "a", "-b"], ["decode", "--", "-a", "b"],
    ]

    @staticmethod
    def outcome(capsys, parse, argv):
        """(stdout, stderr, exit status, namespace) of `parse(argv)`: the
        status of the SystemExit it raised, or None and the namespace it
        returned."""
        namespace = code = None
        try:
            namespace = parse(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return out, err, code, namespace

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(
        word if word and " " not in word else repr(word) for word in argv) or "no arguments")
    def test_same_output_as_the_full_parser(self, capsys, monkeypatch, argv):
        # Every handler records the namespace it is called with.
        seen = []
        for name, (help_text, add_arguments, _) in list(cli.COMMANDS.items()):
            monkeypatch.setitem(cli.COMMANDS, name,
                                (help_text, add_arguments, lambda args: seen.append(args) or 0))

        def via_main(argv):
            assert main(argv) == 0
            return seen.pop()

        assert self.outcome(capsys, via_main, argv) == \
            self.outcome(capsys, build_parser().parse_args, argv)

    def test_no_arguments_names_the_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([])
        out, err = capsys.readouterr()
        assert (out, exit_info.value.code) == ("", 2)
        assert err.endswith("error: the following arguments are required: command\n")

    def test_help_ends_its_description_where_the_docstring_turns_to_the_code(self, capsys):
        out, _, code, _ = self.outcome(capsys, build_parser().parse_args, ["-h"])
        assert code == 0
        assert "diagnostic otherwise. positional arguments:" in " ".join(out.split())

    # The full parser, and with it every subparser, is built only for an argv
    # that names no command or that the command's own parser leaves words of.
    @pytest.mark.parametrize("argv", [[], ["-h"], ["frob"], ["decode", "a", "b", "c"]],
                             ids=["no arguments", "-h", "frob", "decode a b c"])
    def test_no_command_builds_every_subparser(self, capsys, monkeypatch, argv):
        calls = add_parser_calls(monkeypatch)
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()
        assert calls == ["encode", "decode", "verify", "bench"]

    def test_encode_and_decode_build_no_subparser(self, capsys, monkeypatch, tmp_path, rng):
        src = tmp_path / "file.bin"
        src.write_bytes(rng.randbytes(1000))
        calls = add_parser_calls(monkeypatch)
        code, _, _ = run(capsys, "encode", "--tau", "2", "--p", "5", "--k", "3",
                         str(src), str(tmp_path / "s"))
        assert (code, calls) == (0, [])
        code, _, _ = run(capsys, "decode", str(tmp_path / "s"), str(tmp_path / "out.bin"))
        assert (code, calls) == (0, [])
        assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()

    def test_decode_builds_no_parser_and_encode_one(self, capsys, monkeypatch, tmp_path, rng):
        src = tmp_path / "file.bin"
        src.write_bytes(rng.randbytes(1000))
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        code, _, _ = run(capsys, "encode", "--tau", "2", "--p", "5", "--k", "3",
                         str(src), str(tmp_path / "s"))
        assert (code, built) == (0, ["eoflex encode"])
        code, _, _ = run(capsys, "decode", str(tmp_path / "s"), str(tmp_path / "out.bin"))
        assert (code, built) == (0, ["eoflex encode"])
        assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()


class TestShardInUse:
    """A command that would overwrite or remove a shard of the set it uses
    is refused with one `error:` line and exit 2, and leaves the disk as
    it was."""

    PARAMS = ("--tau", "2", "--p", "5", "--k", "3")

    @pytest.fixture
    def shards(self, capsys, tmp_path, rng):
        src = tmp_path / "file.bin"
        src.write_bytes(rng.randbytes(300_000))
        shards = tmp_path / "shards"
        assert run(capsys, "encode", *self.PARAMS, str(src), str(shards))[0] == 0
        return shards

    @staticmethod
    def disk(tmp_path):
        return {path: path.read_bytes() for path in sorted(tmp_path.rglob("*"))
                if path.is_file()}

    def refused(self, capsys, tmp_path, *argv):
        before = self.disk(tmp_path)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert self.disk(tmp_path) == before
        return err

    def decodes_to_the_input(self, capsys, tmp_path, shards):
        out_file = tmp_path / "check.bin"
        assert run(capsys, "decode", str(shards), str(out_file))[0] == 0
        assert out_file.read_bytes() == (tmp_path / "file.bin").read_bytes()

    def test_encode_of_a_shard_into_its_own_set(self, capsys, tmp_path, shards):
        shard = shard_path(shards, 0)
        err = self.refused(capsys, tmp_path, "encode", *self.PARAMS, str(shard), str(shards))
        assert f"input {shard} is shard file {shard}, which encoding into {shards}" in err
        self.decodes_to_the_input(capsys, tmp_path, shards)

    def test_encode_of_an_input_that_stale_removal_would_delete(self, capsys, tmp_path, shards):
        stale = shard_path(shards, 7)
        stale.write_bytes((tmp_path / "file.bin").read_bytes())
        err = self.refused(capsys, tmp_path, "encode", *self.PARAMS, str(stale), str(shards))
        assert f"input {stale} is shard file {stale}" in err

    def test_decode_over_a_shard_it_reads(self, capsys, tmp_path, shards):
        shard_path(shards, 1).unlink()
        shard_path(shards, 4).unlink()
        output = shard_path(shards, 0)
        err = self.refused(capsys, tmp_path, "decode", str(shards), str(output))
        assert f"output {output} is shard file {output}, which the read uses" in err
        self.decodes_to_the_input(capsys, tmp_path, shards)


@pytest.mark.skipif(resource is None, reason="needs resource.RLIMIT_AS")
class TestUnallocatableBatch:
    """A lane width whose batch buffer the process cannot allocate gives one
    `error:` line and exit 2, not a traceback.  The CLI runs in a child
    whose address space is capped far below the buffer it asks for."""

    ADDRESS_SPACE = 4 << 30

    def run(self, *argv):
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (self.ADDRESS_SPACE, self.ADDRESS_SPACE))

        return subprocess.run([sys.executable, "-m", "eoflex.cli", *map(str, argv)],
                              env=child_env(), preexec_fn=cap, capture_output=True,
                              text=True, timeout=60)

    def test_encode(self, tmp_path):
        src = tmp_path / "empty.bin"
        src.write_bytes(b"")
        shards = tmp_path / "shards"
        result = self.run("encode", "--tau", "2", "--p", "5", "--k", "3",
                          "--lane-width", 2**32 - 1, src, shards)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: lane width 4294967295 needs a batch buffer")
        assert result.stderr.count("\n") == 1
        assert not shards.exists()

    def test_decode(self, tmp_path):
        # The three information shards of one stripe at 256 MiB lanes,
        # sparse: the output buffer would take 6 GiB.
        lane_width = 2**28
        shards = tmp_path / "shards"
        shards.mkdir()
        for c in range(3):
            path = shard_path(shards, c)
            path.write_bytes(ShardHeader(1, 2, 5, 3, c, lane_width, 1, 1).pack())
            os.truncate(path, HEADER_SIZE + 8 * lane_width)
        result = self.run("decode", shards, tmp_path / "o.bin")
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: lane width 268435456 needs a batch buffer")
        assert result.stderr.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [shards]


# Modules `eoflex encode` and `decode` never need: the report code and the
# stdlib modules only it, or a random file name, would load.
REPORT_MODULES = ("fractions", "csv", "secrets", "hashlib",
                  "eoflex.metrics", "eoflex.oracle", "eoflex.baseline")


def test_encode_and_decode_load_no_report_code(tmp_path):
    # A fresh interpreter encodes through cli.main, loses two information
    # columns, decodes, and prints which of REPORT_MODULES it loaded.
    src, shards, out = tmp_path / "in.bin", tmp_path / "shards", tmp_path / "out.bin"
    src.write_bytes(bytes(range(256)) * 117)
    script = f"""if True:
        import os, sys
        from eoflex.cli import main
        src, shards, out = sys.argv[1:]
        assert main(["encode", "--tau", "2", "--p", "5", "--k", "3", src, shards]) == 0
        for c in (0, 2):
            os.remove(os.path.join(shards, f"shard_{{c}}.eof"))
        assert main(["decode", shards, out]) == 0
        print([name for name in {REPORT_MODULES!r} if name in sys.modules])
    """
    result = subprocess.run([sys.executable, "-c", script, src, shards, out], env=child_env(),
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, f"reconstructed 29952 bytes to {out}\n")
    assert result.stdout.splitlines()[-1] == "[]"
    assert out.read_bytes() == src.read_bytes()


@pytest.mark.parametrize("lost", [(), (0, 2)], ids=["healthy", "degraded"])
def test_decode_to_stdout_carries_the_data_alone(tmp_path, rng, lost):
    # The status line goes to stderr, so a decode into /dev/stdout, a pipe
    # here, hands its reader the file and nothing more.
    src, shards = tmp_path / "in.bin", tmp_path / "shards"
    src.write_bytes(rng.randbytes(3000))
    assert main(["encode", "--tau", "2", "--p", "5", "--k", "3", str(src), str(shards)]) == 0
    for c in lost:
        shard_path(shards, c).unlink()
    result = subprocess.run([sys.executable, "-m", "eoflex.cli", "decode", shards, "/dev/stdout"],
                            env=child_env(), capture_output=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, b"reconstructed 3000 bytes to /dev/stdout\n")
    assert result.stdout == src.read_bytes()


def test_metrics_loads_neither_oracle_nor_baseline():
    # perfbench imports metrics in every timed set-up; the oracle and the
    # classic-EVENODD baseline (once a module of its own) stay unloaded.
    script = ("import sys, eoflex.metrics; "
              "print([m for m in ('eoflex.oracle', 'eoflex.baseline') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", script], env=child_env(),
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "[]\n")
