"""Correctness checks that do not copy the program's own output.

A read is right when the SHA-256 of the returned file equals the digest the
benchmark computed while generating the input.  A write is right when every
one of the k+2 shards exists where `shardio.shard_path` says it should, was
written by that operation, and the shards together hold at least (k+2)/k bytes per source byte, the least
any two-erasure MDS code can store.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

READ_CHUNK = 2**20
# File times come from a clock that may lag the process clock by a tick.
MTIME_SLACK_NS = 20_000_000


def file_digest(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(READ_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def read_ok(output: Path, expected_digest: str) -> bool:
    return output.is_file() and file_digest(output) == expected_digest


def shard_paths(shardio, directory: Path, k: int) -> list[Path]:
    return [Path(shardio.shard_path(directory, c)) for c in range(k + 2)]


def write_ok(shardio, directory: Path, k: int, source_size: int,
             since_ns: int = 0) -> tuple[bool, int]:
    """Check one encoded shard set written no earlier than `since_ns`
    (wall clock); return (ok, bytes the shards occupy)."""
    paths = shard_paths(shardio, directory, k)
    stats = [p.stat() for p in paths if p.is_file()]
    if len(stats) < len(paths) or any(st.st_mtime_ns < since_ns for st in stats):
        return False, 0
    stored = sum(st.st_size for st in stats)
    return stored * k >= source_size * (k + 2), stored
