"""Tests of the benchmark itself: its checks, its tracer and a tiny run.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import time
import types
from pathlib import Path

import pytest

import checks
import layers
import run
import workload as wl

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def mods():
    return run.import_package()


@pytest.fixture
def encoded(tmp_path, mods):
    """A two-stripe object encoded with the real CLI; returns (obj, source, digest, shard dir)."""
    obj = wl.Obj("t", (2, 5, 3), 64, 2 * wl.stripe_bytes((2, 5, 3), 64) - 7, ())
    source = tmp_path / "in"
    digest = wl.generate(obj, 3, source)
    shards = tmp_path / "shards"
    assert run.call_cli(mods["cli"], ["encode", "--tau", "2", "--p", "5", "--k", "3",
                                      "--lane-width", "64", str(source), str(shards)])
    return obj, source, digest, shards


def test_read_check_rejects_flipped_output_byte(tmp_path, encoded, mods):
    _, _, digest, shards = encoded
    out = tmp_path / "out"
    assert run.call_cli(mods["cli"], ["decode", str(shards), str(out)])
    assert checks.read_ok(out, digest)
    run.flip_byte(out)
    assert not checks.read_ok(out, digest)
    assert not checks.read_ok(tmp_path / "missing", digest)


def test_write_check_rejects_short_shard_set(encoded, mods):
    obj, _, _, shards = encoded
    ok, stored = checks.write_ok(mods["shardio"], shards, 3, obj.size)
    assert ok and stored * 3 >= obj.size * 5
    stale = time.time_ns() + 10**9  # shards older than the write under test
    assert not checks.write_ok(mods["shardio"], shards, 3, obj.size, stale)[0]
    mods["shardio"].shard_path(shards, 4).unlink()
    assert checks.write_ok(mods["shardio"], shards, 3, obj.size) == (False, 0)


def test_write_check_rejects_too_little_storage(encoded, mods):
    obj, _, _, shards = encoded
    assert not checks.write_ok(mods["shardio"], shards, 3, 10 * obj.size)[0]


def test_flipped_shard_read_fails_and_is_restored(tmp_path, mods):
    obj = wl.Obj("c", (2, 5, 3), 64, 3 * wl.stripe_bytes((2, 5, 3), 64),
                 (wl.Read("corrupt", (), flip_column=0), wl.Read("two_info", (0, 2))))
    runner = run.Runner(5, tmp_path, mods)
    runner.generate([obj])
    for _ in range(2):
        runner.run_round([obj], [])
    assert [s.failed for s in runner.stats.values()] == [0, 2, 0]


def test_tracer_reports_missing_name_as_absent():
    present = types.SimpleNamespace(shard_file=lambda: 1)
    tracer = layers.Tracer({"shardio": present})
    tracer.install()
    assert present.shard_file() == 1
    assert "shardio.shard_file" not in tracer.absent
    assert {"shardio.reconstruct", "decoder.build_syndromes"} <= set(tracer.absent)
    assert set(tracer.take()) == {"shardio.shard_file"}
    tracer.uninstall()


def tiny(name):
    return wl.bulk(7, size=200_000) if name == "bulk" else wl.small_objects(7, lanes=(32,), stripe_counts=(1,))


@pytest.mark.parametrize("name", [w["name"] for w in CONFIG["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(tmp_path, name, trace):
    result, lines = run.measure(tiny(name), 7, 0, bool(trace), tmp_path)
    wanted = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], float) and metric["value"] > 0, m["name"]
    counts = json.loads(next(l for l in lines if l.startswith("ops "))[4:])
    corrupt = counts.get("read.corrupt", {"failed": 0})["failed"]
    assert result["failed"] == corrupt == (3 if name == "bulk" else 0)
    assert any(l.startswith("drift_probe_us ") for l in lines)


def test_command_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(CONFIG))
    for path in CONFIG["paths"]:
        subprocess.run(["cp", "-r", str(ROOT / path), str(tmp_path / path)], check=True)
    proc = subprocess.run(
        CONFIG["command"] + ["--workload", "bulk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_small_objects_lost_columns_do_not_depend_on_seed():
    def losses(seed):
        objects = wl.small_objects(seed).objects
        return sorted((o.params, o.lane_width, r.cls, r.lost) for o in objects for r in o.reads)
    assert losses(1) == losses(2)
    sizes = [[o.size for o in wl.small_objects(seed).objects] for seed in (1, 2)]
    assert sizes[0] != sizes[1]
