"""End-to-end and per-layer benchmark of the eoflex shard tool.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  One client in one process runs a closed loop: every
operation is `eoflex.cli.main(["encode", ...])` or `cli.main(["decode", ...])`
called in-process, one at a time.  A round writes each object once and reads
it under each of its loss classes; rounds repeat until `--seconds` have
passed, and the last round is always finished, so every run attempts whole
rounds.  Every timed figure is first reduced to its median over the rounds
for each (object, operation), which keeps a few seconds of a slow machine
from moving the result.  Set-up is timed SETUP_REPS times, spread over the
run, and `setup_s` is their median.

With `--trace 0` the last line of standard output is the end-to-end result,
with `--trace 1` the per-layer result of a run with every layer entry point
wrapped.  The lines before it give attempted and failed counts per
operation type and the drift probe.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import layers
import workload as wl

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
WORK_ROOT = CHECKOUT / ".perfbench-work"
SETUP_REPS = 9
PROBE_LOOPS = 1500
MIB = 2**20
REQUIRED_MODULES = ("cli", "shardio")
OPTIONAL_MODULES = ("decoder", "codec", "codearray", "metrics", "params")
REENCODE_CLASSES = ("info_row", "info_diag", "two_parity")


def unload_package() -> dict:
    """Take every eoflex module out of `sys.modules`; return them by name."""
    names = [n for n in sys.modules if n == "eoflex" or n.startswith("eoflex.")]
    return {name: sys.modules.pop(name) for name in names}


def import_package() -> dict:
    """Import a fresh copy of eoflex from the checkout's src/."""
    unload_package()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"eoflex.{name}") for name in REQUIRED_MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"eoflex imported from {mods['cli'].__file__}, not {SRC}")
    for name in OPTIONAL_MODULES:
        try:
            mods[name] = importlib.import_module(f"eoflex.{name}")
        except ImportError:
            pass
    return mods


def call_cli(cli, argv: list[str]) -> bool:
    """One user-facing operation; True when it returned exit status 0."""
    sink = io.StringIO()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            return cli.main(argv) == 0
    except (Exception, SystemExit):  # an escaping exception is a failed operation
        return False


def drift_probe() -> float:
    """A fixed pure-Python loop; its time tracks the machine, not the program."""
    start = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc ^= i * 7
    return perf_counter() - start


def flip_byte(path: Path) -> None:
    """Invert the middle byte of a shard: file data for any multi-stripe file."""
    with open(path, "r+b") as fh:
        pos = fh.seek(0, os.SEEK_END) // 2
        fh.seek(pos)
        byte = fh.read(1)[0]
        fh.seek(pos)
        fh.write(bytes([byte ^ 0xFF]))


@dataclass
class KeyStats:
    """One (object, operation) accumulated over the rounds of a run.  Every
    timed figure it gives is the median over those rounds."""

    obj: wl.Obj
    read: wl.Read | None
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    stored: int = 0  # shard bytes after a write
    spans: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    io: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))

    def add(self, ok: bool, latency: float, spans: dict, io_delta: dict, stored: int = 0) -> None:
        self.latencies.append(latency)
        self.failed += not ok
        self.stored = max(self.stored, stored)
        for name, value in spans.items():
            self.spans[name].append(value)
        for name, value in io_delta.items():
            self.io[name].append(value)

    @property
    def cls(self) -> str:
        return "" if self.read is None else self.read.cls

    @property
    def op_type(self) -> str:
        return "write" if self.read is None else f"read.{self.read.cls}"

    @property
    def latency(self) -> float:
        return statistics.median(self.latencies)

    @property
    def ok_share(self) -> float:
        return 1 - self.failed / len(self.latencies)

    def span(self, name: str) -> float:
        return statistics.median(self.spans[name]) if name in self.spans else 0.0

    def io_bytes(self, name: str) -> float:
        return statistics.median(self.io[name]) if name in self.io else 0.0


class Runner:
    """Generates a workload's inputs under `root`, runs its operations and
    accumulates their figures in `stats`."""

    def __init__(self, seed: int, root: Path, mods: dict):
        self.seed = seed
        self.root = root
        self.mods = mods
        self.tracer: layers.Tracer | None = None
        self.digests: dict[str, str] = {}
        self.stats: dict[tuple, KeyStats] = {}
        for sub in ("in", "shards", "held"):
            (root / sub).mkdir(parents=True, exist_ok=True)

    def generate(self, objects) -> None:
        for obj in objects:
            self.digests[obj.name] = wl.generate(obj, self.seed, self.source(obj))

    def source(self, obj: wl.Obj) -> Path:
        return self.root / "in" / obj.name

    def shard_dir(self, obj: wl.Obj) -> Path:
        return self.root / "shards" / obj.name

    def _stats(self, obj: wl.Obj, read: wl.Read | None) -> KeyStats:
        key = (obj.name, read)
        if key not in self.stats:
            self.stats[key] = KeyStats(obj, read)
        return self.stats[key]

    def _timed(self, argv: list[str]) -> tuple[bool, float, dict, dict]:
        before = layers.io_counters() if self.tracer else {}
        start = perf_counter()
        ok = call_cli(self.mods["cli"], argv)
        latency = perf_counter() - start
        if not self.tracer:
            return ok, latency, {}, {}
        after = layers.io_counters()
        return ok, latency, self.tracer.take(), {k: after[k] - before[k] for k in after}

    def write(self, obj: wl.Obj) -> None:
        """Encode the object into its shard directory, over the last round's
        shards, as an update does."""
        shards = self.shard_dir(obj)
        tau, p, k = obj.params
        argv = ["encode", "--tau", str(tau), "--p", str(p), "--k", str(k),
                "--lane-width", str(obj.lane_width), str(self.source(obj)), str(shards)]
        since = time.time_ns() - checks.MTIME_SLACK_NS
        ok, latency, spans, io_delta = self._timed(argv)
        stored = 0
        if ok:
            ok, stored = checks.write_ok(self.mods["shardio"], shards, k, obj.size, since)
        self._stats(obj, None).add(ok, latency, spans, io_delta, stored)

    def read(self, obj: wl.Obj, read: wl.Read) -> None:
        shardio = self.mods["shardio"]
        shards = self.shard_dir(obj)
        held = []
        for c in read.lost:
            path = Path(shardio.shard_path(shards, c))
            if path.exists():
                aside = self.root / "held" / f"{obj.name}.{c}"
                os.replace(path, aside)
                held.append((aside, path))
        flipped = None
        if read.flip_column is not None:
            flipped = Path(shardio.shard_path(shards, read.flip_column))
            if flipped.exists():
                flip_byte(flipped)
            else:
                flipped = None  # the write failed; the read fails on its own
        out = self.root / "out"
        out.unlink(missing_ok=True)
        try:
            ok, latency, spans, io_delta = self._timed(["decode", str(shards), str(out)])
            ok = ok and checks.read_ok(out, self.digests[obj.name])
        finally:
            for aside, path in held:
                os.replace(aside, path)
            if flipped is not None:
                flip_byte(flipped)
        self._stats(obj, read).add(ok, latency, spans, io_delta)

    def run_round(self, objects, probes: list[float]) -> None:
        for obj in objects:
            self.write(obj)
            probes.append(drift_probe())
            for read in obj.reads:
                self.read(obj, read)
                probes.append(drift_probe())


# -- reduction -----------------------------------------------------------------


def percentiles(values: list[float]) -> list[float]:
    """The 1st to 99th percentiles, interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")


def end_to_end(stats: list[KeyStats], setup_times: list[float]) -> dict:
    writes = [s for s in stats if s.read is None]
    reads = [s for s in stats if s.read is not None]
    healthy = [s for s in reads if s.cls == "none"]
    degraded = [s for s in reads if s.cls != "none"]

    def rate(group) -> float:
        """Correctly returned MiB per second of median latency."""
        return sum(s.obj.size * s.ok_share for s in group) / MIB / sum(s.latency for s in group)

    latency_pct = percentiles([s.latency * 1e3 for s in reads])
    source = sum(s.obj.size for s in writes)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "write_mib_s": (rate(writes), "MiB/s"),
        "healthy_read_mib_s": (rate(healthy), "MiB/s"),
        "degraded_read_mib_s": (rate(degraded), "MiB/s"),
        "read_p50_ms": (latency_pct[49], "ms"),
        "read_p95_ms": (latency_pct[94], "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "storage_ratio": (sum(s.stored for s in writes) / source, "ratio"),
    }


def stripes(obj: wl.Obj) -> int:
    return -(-obj.size // wl.stripe_bytes(obj.params, obj.lane_width))


def per_layer(stats: list[KeyStats], xors: layers.XorCounts, absent: set[str]) -> dict:
    """Per-layer figures; a figure that needs an absent span or count reads 0."""
    writes = [s for s in stats if s.read is None]
    reads = [s for s in stats if s.read is not None]
    by_cls = defaultdict(list)
    for s in reads:
        by_cls[s.cls].append(s)

    def mib(group) -> float:
        return sum(s.obj.size for s in group) / MIB

    def span(group, name: str, minus: str | None = None) -> float | None:
        """Busy seconds in span `name`, less those in its child span `minus`."""
        if name in absent or minus in absent:
            return None
        return sum(s.span(name) - (s.span(minus) if minus else 0.0) for s in group)

    def per_mib(group, name, minus=None):
        busy = span(group, name, minus)
        return (busy / mib(group), "s/MiB") if busy is not None and group else (None, "s/MiB")

    def mean_count(group, count):
        values = [count(s) for s in group]
        if not values or None in values:
            return (None, "count")
        return (sum(values) / len(values), "count")

    def xor_rate(group, count, busy_name):
        lane_bytes = [count(s) for s in group]
        busy = span(group, busy_name)
        if not group or None in lane_bytes or not busy:
            return (None, "MiB/s")
        total = sum(n * s.obj.lane_width * stripes(s.obj) for n, s in zip(lane_bytes, group))
        return (total / MIB / busy, "MiB/s")

    def enc_count(s):
        return xors.encode(s.obj.params)

    def dec_count(s):
        return xors.decode(s.obj.params, s.read.lost)

    degraded = [s for s in reads if s.read.lost]
    reencode = [s for c in REENCODE_CLASSES for s in by_cls[c]]
    two_info = by_cls["two_info"]
    out = {
        "shardio.write_self_s": per_mib(writes, "shardio.shard_file", minus="shardio.encode"),
        "shardio.read_self_s": per_mib(reads, "shardio.reconstruct", minus="shardio.decode"),
        "shardio.read_bytes_per_byte": (
            sum(s.io_bytes("rchar") for s in reads) / (mib(reads) * MIB), "B/B"),
        "shardio.write_bytes_per_byte": (
            sum(s.io_bytes("wchar") for s in writes) / (mib(writes) * MIB), "B/B"),
        "codec.encode_s": per_mib(writes, "shardio.encode"),
        "codec.xors_per_stripe": mean_count(writes, enc_count),
        "codec.xor_mib_s": xor_rate(writes, enc_count, "shardio.encode"),
        "decoder.syndrome_s": per_mib(two_info, "decoder.build_syndromes"),
        "decoder.chain_s": per_mib(two_info, "decoder.decode_two_info", minus="decoder.build_syndromes"),
        "decoder.reencode_s": per_mib(reencode, "decoder.encode"),
        "decoder.xor_mib_s": xor_rate(degraded, dec_count, "shardio.decode"),
    }
    for cls in wl.LOSS_CLASSES[1:]:
        out[f"decoder.decode_s.{cls}"] = per_mib(by_cls[cls], "shardio.decode")
        out[f"decoder.xors_per_stripe.{cls}"] = mean_count(by_cls[cls], dec_count)
    return out


# -- measurement ---------------------------------------------------------------


def op_counts(stats: list[KeyStats]) -> dict:
    counts: dict[str, dict[str, int]] = {}
    for s in stats:
        c = counts.setdefault(s.op_type, {"attempted": 0, "failed": 0})
        c["attempted"] += len(s.latencies)
        c["failed"] += s.failed
    return counts


def set_up(workload: wl.Workload, seed: int, root: Path) -> tuple[Runner, float]:
    """Import the package, generate every input and run one warm-up round;
    return the runner and the seconds it took."""
    start = perf_counter()
    runner = Runner(seed, root, import_package())
    warm = wl.warmup_objects(workload)
    runner.generate(workload.objects + tuple(warm))
    runner.run_round(warm, [])
    runner.stats.clear()
    return runner, perf_counter() - start


def timed_set_up(workload: wl.Workload, seed: int, root: Path) -> float:
    """One more set-up over the run's own files in `root` (the inputs come
    out the same), timed between rounds.  The run's copy of the package is
    put back in `sys.modules` afterwards."""
    kept = unload_package()
    try:
        return set_up(workload, seed, root)[1]
    finally:
        unload_package()
        sys.modules.update(kept)


def measure(workload: wl.Workload, seed: int, seconds: float, trace: bool,
            work: Path) -> tuple[dict, list[str]]:
    """Set up, run whole rounds for `seconds` with SETUP_REPS - 1 more set-ups
    spread between them, and return the result object and the summary lines
    printed before it."""
    runner, first = set_up(workload, seed, work)
    setup_times = [first]
    mods = runner.mods
    xors = layers.XorCounts(mods) if trace else None
    if trace:  # count before wrapping: counting runs the decoder
        for obj in workload.objects:
            xors.encode(obj.params)
            for read in obj.reads:
                xors.decode(obj.params, read.lost)
        runner.tracer = layers.Tracer(mods)
        runner.tracer.install()

    probes: list[float] = []
    rounds = 0
    start = perf_counter()
    try:
        while True:
            runner.run_round(workload.objects, probes)
            rounds += 1
            elapsed = perf_counter() - start
            if elapsed >= seconds:
                break
            if len(setup_times) < SETUP_REPS and elapsed >= seconds * len(setup_times) / SETUP_REPS:
                setup_times.append(timed_set_up(workload, seed, work))
    finally:
        if runner.tracer:
            runner.tracer.uninstall()
    elapsed = perf_counter() - start
    while len(setup_times) < SETUP_REPS:  # too few rounds to spread them over
        setup_times.append(timed_set_up(workload, seed, work))

    stats = list(runner.stats.values())
    counts = op_counts(stats)
    unexpected = sum(c["failed"] for t, c in counts.items() if t != "read.corrupt")
    e2e = end_to_end(stats, setup_times)
    if trace:
        absent = set(runner.tracer.absent)
        metrics = per_layer(stats, xors, absent)
        absent |= {name for name, (value, _) in metrics.items() if value is None}
        metrics = {name: (value or 0.0, unit) for name, (value, unit) in metrics.items()}
    else:
        metrics = e2e
    probe_pct = percentiles([p * 1e6 for p in probes])
    lines = [
        f"workload {workload.name} seed {seed} rounds {rounds} measured_s {elapsed:.2f} "
        f"trace {int(trace)} setup_s {json.dumps([round(t, 4) for t in setup_times])}",
        "ops " + json.dumps(counts, sort_keys=True),
        "drift_probe_us " + json.dumps({
            "median": probe_pct[49],
            "q1": probe_pct[24],
            "q3": probe_pct[74],
            "samples": len(probes),
        }),
    ]
    if trace:
        lines.append("traced_end_to_end " + json.dumps({n: v for n, (v, _) in e2e.items()}))
        lines.append("absent_layers " + json.dumps(sorted(absent)))
    result = {
        "correct": unexpected == 0,
        "attempted": sum(c["attempted"] for c in counts.values()),
        "failed": sum(c["failed"] for c in counts.values()),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eoflex" / "cli.py").is_file():
        print(f"perfbench: no eoflex sources at {SRC / 'eoflex'}", file=sys.stderr)
        return 2
    work = WORK_ROOT / str(os.getpid())
    try:
        result, lines = measure(wl.WORKLOADS[args.workload](args.seed), args.seed,
                                args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
