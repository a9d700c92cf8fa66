"""Durable shard files: split a file into k+2 column shards, lose any two,
reconstruct byte-identically.

Each shard holds one array column across all stripes, preceded by a fixed
48-byte header (all integers little-endian):

    magic           8 bytes   b"EOFLEX01"
    version         u16
    tau, p, k       u32 each
    column_index    u16
    lane_width      u32
    stripe_count    u64
    original_length u64
    header_crc      u32       CRC-32 (IEEE) of all prior header bytes

A stripe is k*tau*(p-1)*lane_width bytes of source data laid out row-major
over the information cells; the final stripe is zero padded and the true
length recorded in the header.  Shards are self-describing: reconstruction
needs nothing but the shard directory.  A reader accepts only the format
version it writes (VERSION); a shard of any other version is refused with
UnsupportedVersion rather than read as if it were this one.

Both directions stream the data in batches of BATCH_BYTES of source (at
least one stripe), and of at most BATCH_LANES lanes, so memory use depends
on the batch, not on the file or the lane width.  A write's layout is two
inverse lane shuffles: `_deinterleave` deals the lanes of a buffer in turn
into n buffers, and `_interleave` merges them back.  Dealt into k buffers,
a batch of source gives the information shards' payload; dealt into
tau*(p-1) buffers, a column's payload gives its cells, each lane that cell
over all the batch's stripes.  `_batch_array` gathers a write's or a read's
cells into one CodeArray, and one call of the compiled encode or decode
program covers the whole batch.  The input is read to its end, so it may be
a pipe; the headers, which record its length, are written last.

A write rewrites existing shard files in place rather than truncating
them, which on ext4 would free their blocks and force write-back on close.
Each shard is opened once, created if absent; its header is overwritten
with zeros before any payload byte, the payload follows, the file is
truncated at the end of the payload and only then gets its real header.
A write that raises, or a process killed part way, thus leaves shards
whose header fails its CRC, which read as missing.  Nothing is synced, so
this order holds only in the page cache: after a crash of the machine or
a power loss during a rewrite, the disk may hold the new payload under
the old header, or the new header over part of the old payload, and as
only the header has a CRC a read can then return wrong bytes without an
error.  Shards shard_<c>.eof with c >= k+2, left by an earlier set with
more columns, are removed.

A read reuses one output buffer for every batch, and reads each
surviving information shard straight into that column's lanes of it with
`os.readv`, so the kernel does the shuffle and a read with every
information column present only moves bytes.  Only when a column is lost
are the parity shards its decode program reads loaded too: the decode
gathers the information cells from the buffer's lanes and the parity
cells with `_deinterleave`, `decode` converts each cell to an int at most
once (see `decoder`) and restores the lost columns, and each recovered
information column is copied into its lanes.
The output is written to a temporary file beside it and renamed into
place after the last batch, so a failed read leaves an existing output
untouched.
"""

from __future__ import annotations

import dataclasses
import errno
import io
import os
import re
import secrets
import struct
import zlib
from contextlib import ExitStack
from pathlib import Path

from .codearray import CodeArray, ErasurePattern
from .codec import encode
from .decoder import decode, decoding_program, undecodable_pairs
from .errors import (
    CrcFailure,
    HeaderMismatch,
    LaneWidthOutOfRange,
    TooManyMissing,
    UndecodablePairs,
    UnsupportedVersion,
)
from .params import CodeParams, validate_params

MAGIC = b"EOFLEX01"
VERSION = 1
_HEADER = struct.Struct("<8sHIIIHIQQ")
HEADER_SIZE = _HEADER.size + 4  # + crc32
MAX_LANE_WIDTH = 2**32 - 1  # the header stores it as a u32

DEFAULT_SHARD_LANE_WIDTH = 4096
BATCH_BYTES = 2**20  # source bytes per batch; at least one stripe
BATCH_LANES = 4096  # lanes (k * rows * stripes) per batch at most; at least one stripe
IOV_MAX = 1024  # buffers per os.readv call: the limit on Linux, macOS and the BSDs


@dataclasses.dataclass(frozen=True)
class ShardHeader:
    version: int
    tau: int
    p: int
    k: int
    column_index: int
    lane_width: int
    stripe_count: int
    original_length: int

    def pack(self) -> bytes:
        body = _HEADER.pack(
            MAGIC,
            self.version,
            self.tau,
            self.p,
            self.k,
            self.column_index,
            self.lane_width,
            self.stripe_count,
            self.original_length,
        )
        return body + struct.pack("<I", zlib.crc32(body))

    @classmethod
    def unpack(cls, raw: bytes, name: str = "shard") -> "ShardHeader":
        """Parse a header.  A CRC or magic failure raises CrcFailure; a
        version other than VERSION raises UnsupportedVersion naming `name`."""
        if len(raw) < HEADER_SIZE:
            raise CrcFailure("shard too short for header")
        body, (crc,) = raw[: _HEADER.size], struct.unpack("<I", raw[_HEADER.size : HEADER_SIZE])
        if zlib.crc32(body) != crc:
            raise CrcFailure("header CRC failed")
        magic, version, tau, p, k, column, lane_width, stripes, length = _HEADER.unpack(body)
        if magic != MAGIC:
            raise CrcFailure(f"bad magic {magic!r}")
        if version != VERSION:
            raise UnsupportedVersion(
                f"{name} has shard format version {version}; only version {VERSION} is supported"
            )
        return cls(version, tau, p, k, column, lane_width, stripes, length)

    def payload_length(self, params: CodeParams) -> int:
        return self.stripe_count * params.rows * self.lane_width


def shard_path(directory: str | os.PathLike, column: int) -> Path:
    return Path(directory) / f"shard_{column}.eof"


def _stripes_per_batch(params: CodeParams, lane_width: int) -> int:
    """Stripes of one batch: BATCH_BYTES of source, but no more than
    BATCH_LANES lanes, so that narrow lanes do not multiply the per-lane
    objects a batch builds; at least one stripe."""
    lanes = params.k * params.rows
    return max(1, min(BATCH_BYTES // (lanes * lane_width), BATCH_LANES // lanes))


def _interleave(buffers, lane_width: int) -> bytes:
    """Lane 0 of every buffer in turn, then lane 1, and so on: the inverse
    of `_deinterleave`."""
    views = [memoryview(b) for b in buffers]
    return b"".join(
        [v[n : n + lane_width] for n in range(0, len(views[0]), lane_width) for v in views]
    )


def _deal(lanes, n: int) -> list[bytes]:
    """Deal `lanes` in turn into `n` buffers: lane 0 to buffer 0, lane 1
    to buffer 1, lane n to buffer 0 again."""
    return [b"".join(lanes[i::n]) for i in range(n)]


def _deinterleave(buf, n: int, lane_width: int) -> list[bytes]:
    """Deal the lanes of `buf` in turn into `n` buffers (see `_deal`)."""
    view = memoryview(buf)
    return _deal([view[m : m + lane_width] for m in range(0, len(view), lane_width)], n)


def _batch_array(params: CodeParams, lane_width: int, stripes: int, columns) -> CodeArray:
    """Batch array of `stripes` stripes: `columns` maps a column to its
    cells row by row, each that cell over all `stripes` stripes.  Cells of
    other columns are zero."""
    zero = bytes(stripes * lane_width)
    cells = [[zero] * (params.k + 2) for _ in range(params.rows)]
    for j, column in columns.items():
        for row, cell in zip(cells, column):
            row[j] = cell
    return CodeArray(params, stripes * lane_width, cells)


def _check_lane_width(lane_width: int) -> None:
    if not 1 <= lane_width <= MAX_LANE_WIDTH:
        raise LaneWidthOutOfRange(
            f"lane width must be in [1, {MAX_LANE_WIDTH}], got {lane_width}"
        )


def _read_batch(src, size: int):
    """Up to `size` bytes of `src`; fewer only at the end of the input."""
    data = src.read(size)
    if 0 < len(data) < size:
        data = bytearray(data)
        while len(data) < size and (more := src.read(size - len(data))):
            data += more
    return data


def _remove_stale_shards(directory: Path, k: int) -> None:
    """Delete shard_<c>.eof for every integer c >= k+2 in `directory`: the
    higher columns of an earlier set, which a read would take as part of
    this one."""
    for path in directory.iterdir():
        match = re.fullmatch(r"shard_([1-9][0-9]*)\.eof", path.name)
        if match and int(match[1]) >= k + 2:
            path.unlink()


def shard_file(
    input_path: str | os.PathLike,
    params: CodeParams,
    output_dir: str | os.PathLike,
    lane_width: int = DEFAULT_SHARD_LANE_WIDTH,
) -> list[Path]:
    """Encode a file into k+2 shard files named shard_<col>.eof, reading
    and encoding it one batch of stripes at a time until its end.  The
    input may be a pipe, and is opened before the output directory is
    touched.  Existing shard files are rewritten in place, and nothing is
    synced: the header is zeroed first, the payload written, the file
    truncated at its end, and the real header, which holds the length,
    written last, so a write that raises leaves shards that read as
    missing (a crash of the machine may not; see the module docstring).
    Shard files of columns k+2 and above are removed.  Parameters whose
    decoder cannot recover the loss of some column pair are refused with
    UndecodablePairs before anything is opened."""
    _check_lane_width(lane_width)
    if bad := undecodable_pairs(params):
        raise UndecodablePairs(params, bad)
    k = params.k
    stripe_bytes = k * params.rows * lane_width
    batch_bytes = _stripes_per_batch(params, lane_width) * stripe_bytes
    outdir = Path(output_dir)
    paths = [shard_path(outdir, c) for c in range(k + 2)]
    with open(input_path, "rb") as src, ExitStack() as stack:
        outdir.mkdir(parents=True, exist_ok=True)
        _remove_stale_shards(outdir, k)
        shards = [stack.enter_context(open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+b"))
                  for path in paths]
        for fh in shards:
            fh.write(bytes(HEADER_SIZE))
        length = 0
        while data := _read_batch(src, batch_bytes):
            length += len(data)
            stripes = -(-len(data) // stripe_bytes)
            data += bytes(stripes * stripe_bytes - len(data))  # the last stripe is padded
            info = _deinterleave(data, k, lane_width)
            arr = _batch_array(params, lane_width, stripes,
                               {j: _deinterleave(buf, params.rows, lane_width)
                                for j, buf in enumerate(info)})
            encode(arr)
            for fh, buf in zip(shards, info):
                fh.write(buf)
            for c in (k, k + 1):
                shards[c].write(_interleave(arr.column(c), lane_width))
        stripe_count = -(-length // stripe_bytes)
        for c, fh in enumerate(shards):
            fh.truncate()
            fh.seek(0)
            fh.write(ShardHeader(VERSION, params.tau, params.p, k, c, lane_width,
                                 stripe_count, length).pack())
    return paths


def _too_many_missing(message: str, rejected: list[str]) -> TooManyMissing:
    """TooManyMissing with `message` and the files rejected, and why."""
    if rejected:
        message += "; rejected " + ", ".join(sorted(rejected))
    return TooManyMissing(message)


def _open_shards(directory: str | os.PathLike, stack: ExitStack):
    """Open the usable shards on `stack`: returns (reference header,
    params, column -> unbuffered file positioned at its payload).  A file
    whose header fails its CRC, or whose payload length is not what the
    header implies, counts as missing (an erasure of that column); if more
    than two columns are missing, TooManyMissing names each such file and
    why it was rejected.  A header of another format version raises
    UnsupportedVersion.  Headers that disagree, a column index above k+1,
    two shards of one column, a lane width of 0 and a stripe count that
    does not fit the original length raise HeaderMismatch."""
    found: dict[int, tuple] = {}
    rejected: list[str] = []
    reference: ShardHeader | None = None
    reference_path = None
    for path in sorted(Path(directory).glob("shard_*.eof")):
        fh = stack.enter_context(open(path, "rb", buffering=0))
        try:
            header = ShardHeader.unpack(fh.read(HEADER_SIZE), str(path))
        except CrcFailure as exc:
            rejected.append(f"{path} ({exc})")
            continue
        if reference is None:
            reference, reference_path = header, path
        elif dataclasses.replace(header, column_index=reference.column_index) != reference:
            raise HeaderMismatch(f"{path} disagrees with other shards")
        column = header.column_index
        if column > header.k + 1:
            raise HeaderMismatch(f"{path} names column {column}, above k+1 = {header.k + 1}")
        if column in found:
            raise HeaderMismatch(f"{path} and {found[column][0]} both hold column {column}")
        found[column] = (path, fh, os.fstat(fh.fileno()).st_size - HEADER_SIZE)
    if reference is None:
        raise _too_many_missing("no readable shards found", rejected)
    params = validate_params(reference.tau, reference.p, reference.k)
    if reference.lane_width < 1:
        raise HeaderMismatch(f"{reference_path} records lane width 0")
    stripes = -(-reference.original_length // (params.k * params.rows * reference.lane_width))
    if reference.stripe_count != stripes:
        raise HeaderMismatch(
            f"{reference_path} records {reference.stripe_count} stripes for "
            f"{reference.original_length} bytes, which fill {stripes}"
        )
    payload = reference.payload_length(params)
    shards = {}
    for c, (path, fh, size) in found.items():
        if size == payload:
            shards[c] = fh
        else:
            rejected.append(f"{path} (payload {size} bytes where {payload} were expected)")
    if (missing := params.k + 2 - len(shards)) > 2:
        raise _too_many_missing(f"{missing} shards missing, can recover at most 2", rejected)
    return reference, params, shards


def reconstruct(directory: str | os.PathLike, output_path: str | os.PathLike) -> int:
    """Rebuild the original file from the shards in `directory`.

    Missing or corrupt shards (up to two) are treated as column erasures.
    The file is rebuilt one batch of stripes at a time into a temporary
    file beside `output_path`, renamed into place after the last batch;
    on failure the temporary file is removed.  An `output_path` that is a
    directory, or whose directory does not exist, raises an OSError naming
    it before any shard is read.  Returns the number of bytes written.
    """
    output = Path(output_path)
    if output.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(output))
    if not output.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(output))
    with ExitStack() as stack:
        ref, params, shards = _open_shards(directory, stack)
        return _restore(ref, params, shards, output)


def _read_into(fh, views, width: int) -> None:
    """Fill `views`, each `width` bytes, in order from the position of the
    unbuffered file `fh`: one os.readv per IOV_MAX views, or readinto per
    view where os.readv is missing.  A short read is finished view by view;
    if the file ends first, HeaderMismatch names it."""
    readv = getattr(os, "readv", None)
    for start in range(0, len(views), IOV_MAX):
        chunk = views[start : start + IOV_MAX]
        done = readv(fh.fileno(), chunk) if readv else 0
        if done == len(chunk) * width:
            continue
        full, offset = divmod(done, width)
        for view in chunk[full:]:
            view, offset = view[offset:], 0
            while view:
                if not (n := fh.readinto(view)):
                    raise HeaderMismatch(f"{fh.name} ended early")
                view = view[n:]


def _restore(ref: ShardHeader, params: CodeParams, shards, output: Path) -> int:
    """Stream the original file out of the open `shards` into `output`.

    One output buffer, sized to the file's largest batch, serves every
    batch, and the views of each information column's lanes in it are
    built once.  Each surviving information shard is read straight into
    its lanes (`_read_into`).  When a column is lost, the decode gathers
    the information cells from those lanes and the parity cells it needs
    from reused buffers, and each recovered information column is copied
    into its lanes.  The buffer, cut at the original length, is written
    with one call per batch."""
    k, rows, lane_width = params.k, params.rows, ref.lane_width
    missing = [c for c in range(k + 2) if c not in shards]
    pattern = ErasurePattern(frozenset(missing))
    lost_info = [c for c in missing if c < k]
    info = [c for c in range(k) if c in shards]
    parity = []
    if lost_info:
        parity = sorted(decoding_program(params, pattern.erased).columns - set(range(k)))

    per_batch = min(_stripes_per_batch(params, lane_width), ref.stripe_count)
    buf = memoryview(bytearray(per_batch * k * rows * lane_width))
    lanes = [[buf[n : n + lane_width] for n in range(c * lane_width, len(buf), k * lane_width)]
             for c in range(k)]  # column c's lanes, stripe by stripe and row by row
    parity_bufs = {c: memoryview(bytearray(per_batch * rows * lane_width)) for c in parity}
    temp = output.parent / f".{output.name}.{secrets.token_hex(4)}.tmp"
    left = ref.original_length
    out = open(temp, "xb")
    try:
        with out:
            for first in range(0, ref.stripe_count, per_batch or 1):
                n = min(per_batch, ref.stripe_count - first) * rows  # lanes per column
                for c in info:
                    _read_into(shards[c], lanes[c][:n], lane_width)
                if missing:
                    cells = {c: _deal(lanes[c][:n], rows) for c in info}
                    for c in parity:
                        view = parity_bufs[c][: n * lane_width]
                        _read_into(shards[c], [view], len(view))
                        cells[c] = _deinterleave(view, rows, lane_width)
                    arr = _batch_array(params, lane_width, n // rows, cells)
                    decode(arr, pattern)
                    # Row by row, in lists small enough for Python's own
                    # allocator: a list of all of a column's lanes would come
                    # from glibc, whose heap then gets trimmed and regrown by
                    # the next batch's decode, a page fault per page.
                    for f in lost_info:
                        for r, cell in enumerate(arr.column(f)):
                            readinto = io.BytesIO(cell).readinto
                            for lane in lanes[f][r:n:rows]:
                                readinto(lane)
                size = min(left, n * k * lane_width)
                out.write(buf[:size])
                left -= size
        os.replace(temp, output)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return ref.original_length - left
