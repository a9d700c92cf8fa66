"""Seeded inputs and the operation rounds of the two workloads.

An object is one source file the benchmark generates; it is written once per
round with `eoflex encode` and then read with `eoflex decode` under one or
more loss classes.  A loss class names which shard columns are taken away
before a read (or, for `corrupt`, which byte is flipped):

    none        nothing missing
    one_info    one information column
    info_row    one information column and the row-parity column k
    info_diag   one information column and the diagonal-parity column k+1
    two_info    two information columns
    two_parity  both parity columns
    corrupt     nothing missing, one byte of file data flipped in an
                information shard

Only file contents and, in `small-objects`, how full each object's last
stripe is and the order of the objects depend on the seed.  Sizes in `bulk`,
lost columns and the corrupt read's flipped position do not, so the share of
failing operations and the exact XOR counts are the same on every seed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

LOSS_CLASSES = ("none", "one_info", "info_row", "info_diag", "two_info", "two_parity")

# The three ROADMAP parameter sets, plus (1,7,5) for a wider MDS stripe.
ROADMAP_SETS = ((2, 5, 3), (1, 11, 7), (3, 9, 3))
SMALL_SETS = ROADMAP_SETS + ((1, 7, 5),)

BULK_SIZE = 20 * 2**20 + 12345  # not a stripe multiple, so the last stripe is padded
BULK_LANE_WIDTH = 4096
SMALL_LANE_WIDTHS = (32, 64, 128, 256)
SMALL_STRIPE_COUNTS = (1, 2, 3)
GEN_CHUNK = 2**20


@dataclass(frozen=True)
class Read:
    """One read of an object: the columns removed and whether a byte is flipped."""

    cls: str
    lost: tuple[int, ...]
    flip_column: int | None = None


@dataclass(frozen=True)
class Obj:
    name: str
    params: tuple[int, int, int]
    lane_width: int
    size: int
    reads: tuple[Read, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    objects: tuple[Obj, ...]


def stripe_bytes(params: tuple[int, int, int], lane_width: int) -> int:
    """Source bytes per stripe: k columns of tau*(p-1) lanes."""
    tau, p, k = params
    return k * tau * (p - 1) * lane_width


def lost_columns(cls: str, k: int, f: int, g: int) -> tuple[int, ...]:
    """Columns removed for loss class `cls`; f < g are information columns."""
    return {
        "none": (),
        "one_info": (f,),
        "info_row": (f, k),
        "info_diag": (f, k + 1),
        "two_info": (f, g),
        "two_parity": (k, k + 1),
        "corrupt": (),
    }[cls]


def bulk(seed: int, size: int = BULK_SIZE) -> Workload:
    """A few large files, one per parameter set, each read under every loss
    class and once with a flipped byte.  The lost columns are fixed (column 1
    and column k-1), so seeds differ only in file contents."""
    del seed  # contents are drawn from the seed in generate()
    objects = []
    for params in ROADMAP_SETS:
        k = params[2]
        reads = tuple(Read(c, lost_columns(c, k, 1, k - 1)) for c in LOSS_CLASSES)
        reads += (Read("corrupt", (), flip_column=0),)
        objects.append(Obj(f"bulk-{'-'.join(map(str, params))}", params, BULK_LANE_WIDTH, size, reads))
    return Workload("bulk", tuple(objects))


def small_objects(seed: int, lanes=SMALL_LANE_WIDTHS, stripe_counts=SMALL_STRIPE_COUNTS) -> Workload:
    """Hundreds of objects of one to three stripes with small lanes.

    Every (params, loss class, lane width, stripe count) combination gets
    one object, so the mix of work does not change with the seed: per-call
    costs dominate here and a seeded mix of lane widths would move MiB/s by
    itself.  Lost columns cycle through the column pairs in a fixed order,
    because the XOR count of a decode depends on which columns are lost.
    The seed draws the last stripe's fill and the order of the objects.
    """
    rng = random.Random(f"small-objects:{seed}")
    objects = []
    for params in SMALL_SETS:
        k = params[2]
        pairs = list(itertools.combinations(range(k), 2))
        for cls in LOSS_CLASSES:
            shapes = itertools.product(lanes, stripe_counts)
            for i, (lane, count) in enumerate(shapes):
                stripe = stripe_bytes(params, lane)
                size = (count - 1) * stripe + rng.randint(stripe // 2, stripe)
                f, g = pairs[i % len(pairs)]
                if cls in ("one_info", "info_row", "info_diag"):
                    f = i % k
                read = Read(cls, lost_columns(cls, k, f, g))
                name = f"obj-{len(objects):04d}"
                objects.append(Obj(name, params, lane, size, (read,)))
    rng.shuffle(objects)
    return Workload("small-objects", tuple(objects))


WORKLOADS = {"bulk": bulk, "small-objects": small_objects}


def generate(obj: Obj, seed: int, path: Path) -> str:
    """Write the object's seeded contents to `path` in chunks; return its SHA-256."""
    rng = random.Random(f"{seed}:{obj.name}")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        left = obj.size
        while left:
            chunk = rng.randbytes(min(GEN_CHUNK, left))
            digest.update(chunk)
            fh.write(chunk)
            left -= len(chunk)
    return digest.hexdigest()


def warmup_objects(workload: Workload) -> list[Obj]:
    """One small object per (params, lane width) with every loss class the
    workload reads it under, so lazy set-up in the program finishes before
    timing starts."""
    reads: dict[tuple, dict[str, Read]] = {}
    for obj in workload.objects:
        seen = reads.setdefault((obj.params, obj.lane_width), {})
        for read in obj.reads:
            seen.setdefault(read.cls, read)
    return [
        Obj(f"warm-{i}", params, lane, 2 * stripe_bytes(params, lane) - 1, tuple(by_cls.values()))
        for i, ((params, lane), by_cls) in enumerate(reads.items())
    ]
