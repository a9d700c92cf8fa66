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
on the batch, not on the file or the lane width.  The kernel moves every
lane, by scatter-gather I/O through lists of views (`_lanes`), at most
IOV_MAX per `os.readv` or `os.writev` call, so the tool is POSIX-only.  A
write reuses one cell-major buffer for every batch (`_batch_buffer`), in
which each cell over all the batch's stripes is one contiguous slice; the
buffer's cells are the flat cells of the CodeArray the programs run on,
cut to its width for a short last batch only.  The source is read with
`os.readv` straight into the information cells, lane by lane in its own
order; the encode program runs once on the whole batch and writes the
parity into the buffer's parity cells; and each shard is written from its
column's lanes with `os.writev`.  The input is read to its end, so it may
be a pipe; the headers, which record its length, are written last.

A write rewrites existing shard files in place rather than truncating
them, which on ext4 would free their blocks and force write-back on close.
Each shard is opened once, created if absent; its header is overwritten
with zeros before any payload byte, the payload follows, the file is
truncated at the end of the payload if it was longer and only then gets
its real header.  A write that raises, or a process killed part way, thus
leaves shards whose header fails its CRC, which read as missing.  Nothing
is synced, so this order holds only in the page cache: after a crash of
the machine or a power loss during a rewrite, the disk may hold the new
payload under the old header, or the new header over part of the old
payload, and as only the header has a CRC a read can then return wrong
bytes without an error.  Shards shard_<c>.eof with c >= k+2, left by an
earlier set with more columns, are removed.  Besides its I/O a write makes
one listing of the directory and per shard one `os.stat`, for the check
that the input is no shard it replaces and for the truncation, one `open`,
one `write` of the zeroed header, one `os.pwrite` of the real one and one
`close`.

A read with every column present reuses one output buffer in the source's
order, reads each information shard straight into that column's lanes of it
with `os.readv` and writes it with one call per batch, so it only moves bytes.
A read with a column lost uses a write's cell-major buffer instead, with lane
views of only the columns it reads and of the information columns: each shard
the decode program reads is loaded into its column's lanes with `os.readv`,
`decode` converts each cell to an int at most once (see `decoder`) and writes
the lost columns into their cells, and the information lanes are written with
`os.writev`, the mirror image of a write.  Healthy reads keep their own buffer
because one `write` of it is faster than `os.writev` of its lanes.  The
output, or the regular file it links to, is written to a temporary file beside
it, `.<name>.<8 hex digits>.tmp` with <name> cut short to stay within
NAME_MAX, which takes the permission bits of an output it replaces and is
renamed into place after the last batch, so a failed read leaves an existing
output untouched; an output that is not a regular file, such as a FIFO or
/dev/null, is written directly, and what a failed read wrote into a pipe stays
written.  Besides its I/O a read makes few system calls, as on a small object
they are most of its cost: one `os.stat` of the output (plus an `os.lstat` of
a regular or absent one, and a stat of an absent one's directory), one listing of
the shard directory, and per shard one `open` and one `os.fstat`, whose result
also serves the check that the output is not a shard the read uses.
"""

from __future__ import annotations

import dataclasses
import errno
import os
import stat
import struct
import zlib
from contextlib import ExitStack, suppress
from pathlib import Path

from .codearray import CodeArray, ErasurePattern
from .codec import encode
from .decoder import decode, recovery_program, undecodable_pairs
from .errors import (
    CrcFailure,
    HeaderMismatch,
    LaneWidthOutOfRange,
    ShardInUse,
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
IOV_MAX = 1024  # views per os.readv or os.writev call: the limit on Linux, macOS and the BSDs
NAME_MAX = 255  # bytes in a file name: the limit on Linux, macOS and the BSDs


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
        return _pack_header(*dataclasses.astuple(self))

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

    def set_fields(self) -> tuple:
        """Every field but column_index: what all shards of one set share."""
        return (self.version, self.tau, self.p, self.k, self.lane_width, self.stripe_count,
                self.original_length)

    def payload_length(self, params: CodeParams) -> int:
        return self.stripe_count * params.rows * self.lane_width


def _pack_header(*fields: int) -> bytes:
    """The header of `fields`, in ShardHeader's order, with its CRC."""
    body = _HEADER.pack(MAGIC, *fields)
    return body + struct.pack("<I", zlib.crc32(body))


def shard_path(directory: str | os.PathLike, column: int) -> Path:
    return Path(directory) / f"shard_{column}.eof"


def _stripes_per_batch(params: CodeParams, lane_width: int) -> int:
    """Stripes of one batch: BATCH_BYTES of source, but no more than
    BATCH_LANES lanes, so that narrow lanes do not multiply the per-lane
    objects a batch builds; at least one stripe."""
    lanes = params.k * params.rows
    return max(1, min(BATCH_BYTES // (lanes * lane_width), BATCH_LANES // lanes))


def _lanes(cells, lane_width: int) -> list[memoryview]:
    """Views of the lanes of `cells`, buffers of equal length, stripe by
    stripe: lane 0 of every cell in turn, then lane 1, and so on (views of
    one lane are their own).  Read or written in this order, the views put
    a shard's or the source's bytes into the cells, or take them out."""
    views = cells if isinstance(cells[0], memoryview) else [memoryview(c) for c in cells]
    if len(views[0]) == lane_width:
        return list(views)
    return [v[n : n + lane_width] for n in range(0, len(views[0]), lane_width) for v in views]


def _cell_buffer(cells: int, width: int, lane_width: int) -> list[memoryview]:
    """`cells` zeroed cells of `width` bytes, one after the other in one new
    buffer.  A buffer this process cannot allocate, which only a huge
    `lane_width` asks for, raises LaneWidthOutOfRange."""
    try:
        buf = memoryview(bytearray(cells * width))
    except MemoryError:
        raise LaneWidthOutOfRange(
            f"lane width {lane_width} needs a batch buffer of {cells * width} bytes, "
            "more than this process can allocate"
        ) from None
    return [buf[i * width : (i + 1) * width] for i in range(cells)]


def _batch_buffer(params: CodeParams, stripes: int, lane_width: int, columns):
    """The reused buffer of a batch of up to `stripes` stripes, as (array,
    lanes, source).  `array` is the CodeArray over every stripe whose flat
    cells lie one after the other in the buffer.  `lanes[c]` are the lanes
    of column c (`_lanes`) in shard order, for each of `columns` and each
    information column, and `source` are the information lanes in the
    source's order.  A buffer this process cannot allocate raises
    LaneWidthOutOfRange."""
    n = params.k + 2
    cells = _cell_buffer(params.rows * n, stripes * lane_width, lane_width)
    lanes = {c: _lanes(cells[c::n], lane_width) for c in {*range(params.k), *columns}}
    source = [v for row in zip(*(lanes[j] for j in range(params.k))) for v in row]
    return CodeArray(params, stripes * lane_width, cells), lanes, source


def _vectored(move, views, width: int) -> int:
    """Move the bytes of `views`, each `width` bytes, in order: each call of
    `move` gets up to IOV_MAX views, the first cut where the last call
    stopped, and returns the bytes it moved.  Stops early when a call
    moves nothing; returns the bytes moved."""
    i = offset = done = 0
    while i < len(views):
        if not (n := move([views[i][offset:], *views[i + 1 : i + IOV_MAX]])):
            break
        done += n
        full, offset = divmod(offset + n, width)
        i += full
    return done


def _fill(fh, views, width: int) -> int:
    """Read the unbuffered file `fh` from its position into `views`, each
    `width` bytes, in order, one os.readv per IOV_MAX views.  Short reads,
    as from a pipe, are finished.  Returns the bytes read, which fall short
    of the views only at the end of the file."""
    return _vectored(lambda chunk: os.readv(fh.fileno(), chunk), views, width)


def _write_all(fd: int, views, width: int) -> None:
    """Write `views`, each `width` bytes, in order to the raw file `fd`, one
    os.writev per IOV_MAX views.  Partial writes are finished."""
    if _vectored(lambda chunk: os.writev(fd, chunk), views, width) < len(views) * width:
        raise OSError(errno.EIO, f"a write to fd {fd} wrote nothing")


def _stale_shards(prefix: str, k: int) -> list[str]:
    """shard_<c>.eof in the directory `prefix`, ending in a separator, for
    every c >= k+2 in ASCII digits with no leading zero: the higher columns
    of an earlier set, which a read would take as part of this one."""
    return [prefix + name for name in os.listdir(prefix)
            if name[:6] == "shard_" and name[-4:] == ".eof" and (c := name[6:-4]).isascii()
            and c.isdigit() and c[0] != "0" and int(c) >= k + 2]


def shard_file(
    input_path: str | os.PathLike,
    params: CodeParams,
    output_dir: str | os.PathLike,
    lane_width: int = DEFAULT_SHARD_LANE_WIDTH,
) -> list[Path]:
    """Encode a file into k+2 shard files named shard_<col>.eof, reading
    and encoding it one batch of stripes at a time until its end.  The
    input may be a pipe, and is opened before the output directory is
    touched.  One cell-major buffer (`_batch_buffer`) serves every batch:
    the source is read straight into its information cells, the encoder
    writes its parity cells, and every shard is written from its column's
    lanes, all by scatter-gather I/O.  The size of a regular input only
    caps that buffer at the stripes the file fills; batches run until the
    input ends whatever its size.  A buffer this process cannot allocate
    raises LaneWidthOutOfRange before the output directory is touched.
    Existing shard files are rewritten in place, and nothing is synced:
    the header is zeroed first, the payload written, a longer file cut at
    its end, and the real header, which holds the length, written last, so
    a write that raises leaves shards that read as missing (a crash of the
    machine may not; see the module docstring).  Shard files of columns
    k+2 and above are removed.  Parameters whose decoder cannot recover
    the loss of some column pair are refused with UndecodablePairs before
    anything is opened.  An input that is one of the shard files the write
    would overwrite or remove raises ShardInUse before any file is written
    or removed."""
    if not 1 <= lane_width <= MAX_LANE_WIDTH:
        raise LaneWidthOutOfRange(f"lane width must be in [1, {MAX_LANE_WIDTH}], got {lane_width}")
    if bad := undecodable_pairs(params):
        raise UndecodablePairs(params, bad)
    k, rows = params.k, params.rows
    stripe_bytes = k * rows * lane_width
    outdir = os.fspath(output_dir) or os.curdir
    prefix = os.path.join(outdir, "")
    paths = [f"{prefix}shard_{c}.eof" for c in range(k + 2)]
    with open(input_path, "rb", buffering=0) as src, ExitStack() as stack:
        per_batch = _stripes_per_batch(params, lane_width)
        status = os.fstat(src.fileno())
        if stat.S_ISREG(status.st_mode):
            per_batch = min(per_batch, max(1, -(-status.st_size // stripe_bytes)))
        array, lanes, source = _batch_buffer(params, per_batch, lane_width, range(k + 2))
        stale = []  # a directory this creates holds no file the input could be
        try:
            stale = _stale_shards(prefix, k)
        except (FileNotFoundError, NotADirectoryError):
            os.makedirs(outdir, exist_ok=True)
        longest = 0  # bytes in the longest shard there is
        for path in paths + stale:
            with suppress(FileNotFoundError):
                if os.path.samestat(status, shard := os.stat(path)):
                    raise ShardInUse(f"input {input_path} is shard file {Path(path)}, which "
                                     f"encoding into {Path(outdir)} would overwrite or remove")
                longest = max(longest, shard.st_size)
        for path in stale:
            os.unlink(path)
        fds = []
        for path in paths:
            fds.append(os.open(path, os.O_RDWR | os.O_CREAT, 0o666))
            stack.callback(os.close, fds[-1])
        for fd in fds:  # 48 bytes at the start of a file: written whole or not at all
            os.write(fd, bytes(HEADER_SIZE))
        length = 0
        while got := _fill(src, source, lane_width):
            length += got
            stripes = -(-got // stripe_bytes)
            filled = stripes * rows * k
            if got < filled * lane_width and length > got:  # pad; a first batch is zeroed
                full, offset = divmod(got, lane_width)
                zero = bytes(lane_width)
                for view in source[full:filled]:
                    view[offset:] = zero[offset:]
                    offset = 0
            if stripes < per_batch:  # the last batch, short
                width = stripes * lane_width
                array = CodeArray(params, width, [cell[:width] for cell in array.cells])
            encode(array)
            for c, fd in enumerate(fds):
                _write_all(fd, lanes[c][: stripes * rows], lane_width)
            if got < len(source) * lane_width:
                break
        stripe_count = -(-length // stripe_bytes)
        end = HEADER_SIZE + stripe_count * rows * lane_width
        for c, fd in enumerate(fds):
            if longest > end:  # otherwise each shard ends at `end` already
                os.ftruncate(fd, end)
            os.pwrite(fd, _pack_header(VERSION, params.tau, params.p, k, c, lane_width,
                                       stripe_count, length), 0)
    return [Path(outdir, f"shard_{c}.eof") for c in range(k + 2)]


def _too_many_missing(message: str, rejected: list[str]) -> TooManyMissing:
    """TooManyMissing with `message` and the files rejected, and why."""
    if rejected:
        message += "; rejected " + ", ".join(sorted(rejected))
    return TooManyMissing(message)


def _open_nonblocking(path, flags: int) -> int:
    """`open` opener that does not wait for a FIFO's writer."""
    return os.open(path, flags | os.O_NONBLOCK)


def _open_shards(directory: str | os.PathLike, stack: ExitStack):
    """Open the usable shards on `stack`: returns (reference header,
    params, column -> unbuffered file positioned at its payload, column ->
    that file's `os.fstat` result).  An entry that cannot be opened or is
    not a regular file (no FIFO is waited on), or whose header fails its
    CRC, or whose payload length is not what the header implies, counts as
    missing (an erasure of that column); if more than two columns are
    missing, TooManyMissing names each such entry and why it was rejected.
    A header of another format version raises UnsupportedVersion.  Headers
    that disagree, a column index above k+1, two shards of one column, a
    lane width of 0 and a stripe count that does not fit the original
    length raise HeaderMismatch."""
    found: dict[int, tuple] = {}
    rejected: list[str] = []
    reference: ShardHeader | None = None
    reference_path = None
    names = []
    with suppress(OSError):  # no directory (missing, or a file): no shard
        names = [n for n in os.listdir(directory) if n.startswith("shard_") and n.endswith(".eof")]
    for name in sorted(names):
        path = os.path.join(directory, name)
        try:
            fh = stack.enter_context(open(path, "rb", buffering=0, opener=_open_nonblocking))
        except OSError as exc:
            rejected.append(f"{path} ({exc.strerror})")
            continue
        status = os.fstat(fh.fileno())
        if not stat.S_ISREG(status.st_mode):
            rejected.append(f"{path} (not a regular file)")
            continue
        try:
            header = ShardHeader.unpack(fh.read(HEADER_SIZE), path)
        except CrcFailure as exc:
            rejected.append(f"{path} ({exc})")
            continue
        if reference is None:
            reference, reference_path = header, path
        elif header.set_fields() != reference.set_fields():
            raise HeaderMismatch(f"{path} disagrees with other shards")
        column = header.column_index
        if column > header.k + 1:
            raise HeaderMismatch(f"{path} names column {column}, above k+1 = {header.k + 1}")
        if column in found:
            raise HeaderMismatch(f"{path} and {found[column][0]} both hold column {column}")
        found[column] = (path, fh, status)
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
    shards, statuses = {}, {}
    for c, (path, fh, status) in found.items():
        if (size := status.st_size - HEADER_SIZE) == payload:
            shards[c] = fh
            statuses[c] = status
        else:
            rejected.append(f"{path} (payload {size} bytes where {payload} were expected)")
    if (missing := params.k + 2 - len(shards)) > 2:
        raise _too_many_missing(f"{missing} shards missing, can recover at most 2", rejected)
    return reference, params, shards, statuses


def reconstruct(directory: str | os.PathLike, output_path: str | os.PathLike) -> int:
    """Rebuild the original file from the shards in `directory`.

    Missing or corrupt shards (up to two) are treated as column erasures.
    The file is rebuilt one batch of stripes at a time into a temporary
    file beside `output_path`, or beside the file a link there names,
    even a dangling link, which stays a link; it is renamed into place
    after the last batch, and on failure removed.  An output that is not a
    regular file, such as a FIFO or /dev/null, is written directly: opening
    a FIFO waits for a reader, and a failed read cannot take back what it
    wrote into a pipe.  Before any shard is read, an output that is a
    directory raises IsADirectoryError naming it, one whose directory, or
    that of the file its dangling link names, does not exist
    FileNotFoundError naming that file, and one that `os.stat` fails on for
    any other reason, such as a name too long, that error.  An output that is
    a shard the read uses raises ShardInUse before anything is written.
    Returns the number of bytes written."""
    output = real = os.fspath(output_path)
    try:
        status = os.stat(output)
    except FileNotFoundError:
        status = None
    if status is not None and stat.S_ISDIR(status.st_mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), output)
    if (status is None or stat.S_ISREG(status.st_mode)) and os.path.islink(output):
        real = os.path.realpath(output)  # the file it names is written; the link stays
    head, name = os.path.split(real)
    if status is None and (not name or not os.path.isdir(head or os.curdir)):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), real)
    with ExitStack() as stack:
        ref, params, shards, statuses = _open_shards(directory, stack)
        if status is not None:
            for c, fh in shards.items():
                if os.path.samestat(statuses[c], status):
                    raise ShardInUse(f"output {output} is shard file {fh.name}, which the read uses")
        return _restore(ref, params, shards, real, status)


def _read_into(fh, views, width: int) -> None:
    """Fill `views`, each `width` bytes, from the unbuffered shard `fh`
    (see `_fill`); if the file ends first, HeaderMismatch names it."""
    if _fill(fh, views, width) < len(views) * width:
        raise HeaderMismatch(f"{fh.name} ended early")


def _temp_path(output: str) -> str:
    """A fresh path for a temporary file beside `output`,
    `.<name>.<8 hex digits>.tmp`, with the output's name cut short by whole
    characters so that it stays within NAME_MAX bytes."""
    head, name = os.path.split(output)
    most = NAME_MAX - len(".." + "0" * 8 + ".tmp")
    name = name[:most]
    while len(os.fsencode(name)) > most:
        name = name[:-1]
    return os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")


def _restore(ref: ShardHeader, params: CodeParams, shards, output: str, status) -> int:
    """Stream the original file out of the open `shards` into `output`.

    With every column present, one output buffer in the source's order
    serves every batch: each information shard is read straight into its
    lanes (`_read_into`), and the buffer, cut at the original length, is
    written with one call.  With a column lost, a write's buffer serves
    instead (`_batch_buffer`), with lanes of only the columns read and the
    information columns: each shard the decode needs is read into its
    column's lanes, `decode` writes the lost columns into their cells, and
    the information lanes, cut at the original length, are written with
    os.writev, the mirror image of a write.  A set of 0 stripes compiles
    no program and allocates no buffer.  A buffer this process cannot
    allocate raises LaneWidthOutOfRange before the output is created.  The
    output keeps the permission bits of the file it replaces, whose
    `os.stat` result is `status` (None for a new output)."""
    k, rows, lane_width = params.k, params.rows, ref.lane_width
    missing = [c for c in range(k + 2) if c not in shards]
    degraded = bool(missing) and ref.stripe_count > 0
    read = [c for c in range(k) if c in shards]
    per_batch = min(_stripes_per_batch(params, lane_width), ref.stripe_count)
    # columns[c] holds column c's lanes in shard order; out_views of out_width bytes the output.
    if degraded:
        pattern = ErasurePattern(frozenset(missing))
        read += sorted(recovery_program(params, missing).columns - set(range(k)))
        array, columns, out_views = _batch_buffer(params, per_batch, lane_width, read)
        out_width = lane_width
    else:
        (buf,) = _cell_buffer(1, k * rows * per_batch * lane_width, lane_width)
        lanes = _lanes([buf], lane_width)
        columns = {c: lanes[c::k] for c in read}
        out_views, out_width = [buf], len(buf)
    direct = status is not None and not stat.S_ISREG(status.st_mode)  # a FIFO, a device
    target = output if direct else _temp_path(output)
    left = ref.original_length
    try:
        with open(target, "wb" if direct else "xb", buffering=0) as out:
            for first in range(0, ref.stripe_count, per_batch or 1):
                stripes = min(per_batch, ref.stripe_count - first)
                for c in read:
                    _read_into(shards[c], columns[c][: stripes * rows], lane_width)
                if degraded:
                    if stripes < per_batch:  # the last batch, short
                        width = stripes * lane_width
                        array = CodeArray(params, width, [cell[:width] for cell in array.cells])
                    decode(array, pattern)
                size = min(left, stripes * rows * k * lane_width)
                full, rest = divmod(size, out_width)
                _write_all(out.fileno(), out_views[:full], out_width)
                if rest:
                    _write_all(out.fileno(), [out_views[full][:rest]], rest)
                left -= size
        if not direct:
            if status is not None:
                os.chmod(target, stat.S_IMODE(status.st_mode))
            os.replace(target, output)
    except BaseException:
        if not direct:
            with suppress(FileNotFoundError):
                os.unlink(target)
        raise
    return ref.original_length - left
