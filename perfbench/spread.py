"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload bulk --seeds 1-10 [--seconds 40] [--trace 0]

For every metric this prints the median of the per-run values and the
distance between the first and third quartile as a share of that median,
as `statistics.quantiles(values, n=4)` gives them.  The drift probe's
per-run median gets the same treatment, so a wide metric can be set against
the machine's own drift over the same runs.  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float, str]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    probe = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("drift_probe_us "))
    return json.loads(lines[-1]), probe["median"], lines[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config = json.loads(BENCHMARK.read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    results, probes = [], []
    for seed in args.seeds:
        result, probe, header = run_once(args.workload, seed, seconds, args.trace)
        results.append(result)
        probes.append(probe)
        print(header, "| correct", result["correct"], "attempted", result["attempted"],
              "failed", result["failed"], flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")
    rows = [("drift_probe_us", probes, None)]
    rows += [(name, [r["metrics"][name]["value"] for r in results], bounds.get(name))
             for name in results[0]["metrics"]]
    for name, values, bound in rows:
        med, share = spread(values)
        limit = f"  bound {bound:.2f}, a third {bound / 3:.3f}" if bound else ""
        print(f"{name:34s} median {med:12.5g}  iqr/median {share:.4f}{limit}")
        print(f"{'':34s} runs {' '.join(f'{v:.5g}' for v in values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
