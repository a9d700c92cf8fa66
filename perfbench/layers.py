"""Per-layer tracing from outside the program.

The traced run replaces, at run time, the module-level names each layer
calls through with wrappers that add their wall time to a per-name total.
A name the program no longer has is reported as absent and its time reads 0.
Self times are differences: `reconstruct` minus `shardio.decode`, and so on.

XOR counts come from the package's own counters on a one-byte-lane array of
the same params and erasure pattern, so they repeat exactly from run to run.
"""

from __future__ import annotations

import random
from time import perf_counter

# (module, attribute): the name each layer is entered through.
WRAPPED = (
    ("shardio", "shard_file"),  # called by cli encode
    ("shardio", "reconstruct"),  # called by cli decode
    ("shardio", "encode"),  # codec.encode as shard_file calls it
    ("shardio", "decode"),  # decoder.decode as reconstruct calls it
    ("decoder", "build_syndromes"),
    ("decoder", "decode_two_info"),
    ("decoder", "encode"),  # parity re-encode after a decode
)


class Tracer:
    """Wraps the layer entry points of one imported copy of the package."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.busy: dict[str, float] = {}
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr in WRAPPED:
            name = f"{module}.{attr}"
            mod = self.modules.get(module)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        busy = self.busy

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] = busy.get(name, 0.0) + perf_counter() - start

        return traced

    def take(self) -> dict[str, float]:
        """Busy seconds per span since the last call."""
        out = dict(self.busy)
        self.busy.clear()
        return out


def io_counters() -> dict[str, int]:
    """rchar/wchar of this process: bytes passed through read and write calls."""
    out = {}
    with open("/proc/self/io") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("rchar", "wchar"):
                out[key] = int(value)
    return out


class XorCounts:
    """Exact lane-XOR counts per stripe, from the package's public counters.

    A count is None when the package no longer offers the counters.
    """

    def __init__(self, eoflex_modules: dict):
        self.m = eoflex_modules
        self._cache: dict[tuple, int | None] = {}

    def encode(self, params: tuple[int, int, int]) -> int | None:
        key = ("encode", params)
        if key not in self._cache:
            try:
                p = self.m["params"].validate_params(*params)
                self._cache[key] = self.m["metrics"].count_encode_xors(p)
            except (AttributeError, KeyError, TypeError):
                self._cache[key] = None
        return self._cache[key]

    def decode(self, params: tuple[int, int, int], lost: tuple[int, ...]) -> int | None:
        key = ("decode", params, lost)
        if key not in self._cache:
            self._cache[key] = self._count_decode(params, lost) if lost else None
        return self._cache[key]

    def _count_decode(self, params, lost) -> int | None:
        try:
            m = self.m
            p = m["params"].validate_params(*params)
            arr = m["codearray"].CodeArray.random(p, 1, random.Random(0))
            m["codec"].encode(arr)
            tally = m["metrics"].DecodeTally()
            m["decoder"].decode(arr, m["codearray"].ErasurePattern(frozenset(lost)), tally)
            return tally.total
        except (AttributeError, KeyError, TypeError):
            return None
