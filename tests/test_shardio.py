import contextlib
import dataclasses
import errno
import hashlib
import itertools
import os
import random
import stat
import struct
import threading
import tracemalloc
import types
import zlib

import pytest

from eoflex import cli, shardio
from eoflex.errors import (
    ChainStall,
    CrcFailure,
    HeaderMismatch,
    TooManyMissing,
    UnsupportedVersion,
)
from eoflex.params import validate_params
from eoflex.shardio import (
    BATCH_BYTES,
    HEADER_SIZE,
    ShardHeader,
    reconstruct,
    shard_file,
    shard_path,
)

PRM = validate_params(2, 5, 3)
LANE = 4096
STRIPE = PRM.k * PRM.rows * LANE
PER_BATCH = BATCH_BYTES // STRIPE  # stripes per batch at LANE

# SHA-256 of every shard of a seeded 2,500,000-byte file at 4 KiB lanes,
# recorded before shard I/O was streamed in batches: the format must not move.
GOLDEN = {
    (2, 5, 3): [
        "21151ba4214f61cac77715d232adfd5bf60b5d0d46fbd4356e0d378466af6767",
        "d3efca31ef6b8ee6f4e6cb612ff702795f505a4334596bceeeb674fbb193af20",
        "8e9ada8a9dc25a0d48c6ab3d147ec13e6dbd08e02142a010d8ae8e2187a4ae45",
        "10b27f74ac079375335c6799a4f54a83e4e68488f300383a6a3b7f9d319575d4",
        "70ba7f29835f00736fa1706af227df13b992df0854e5296d9b19a10dda08a8da",
    ],
    (1, 11, 7): [
        "378a802aabd707a7b2d35a5384b03f51baa14a65fa81cff2d97ab8d5ab259c69",
        "91371c5d5b97fbcc686bb67851e4f7d37a05799cb6461d3a4bbc4d11fd968342",
        "dd8b1cca4dc27d7a12a70f82f0fdf6ef0786cff3d8ebc84bc7c71e0aaf6ec745",
        "b753357f3397b63a999cefce3489ad6541a59b297b9a0bb3e63b05b445089900",
        "70044e0a54d2dccca14194d9e0fbce237a25bc69e3bff41ee7d205d88c6cbf7a",
        "7f2491eb5ab11ce9016f3fde2776a5557c26894af79fd37eec082d197dcd669f",
        "839697b3babd75342ea238d924fc178dea58631608ce77901b80d372edb22b56",
        "9edc65aaa31232770db40b68b771020ad7c32777f1242d4ef91129226e040660",
        "2ffa7e00a5507fae322c70948efd8fdad1401d8b92cd22b8315f445bf31e46ed",
    ],
    (3, 9, 3): [
        "f63ee8e35a2c780e598cea2987a6372be1a83583a99c97860bc7a54e0a7c2838",
        "bcee21e42bbac9039c0e11cca8c9dd2ebd7ff919f117426173a33369860469a2",
        "f1a1c0293be14ca79932ce0551f16a24760dca98792b9ab42eaa01bf03c5d824",
        "7f791ab84b2a93d4853efd2d5fdaf42c8d9307e790a5b1b75891eb7a729cb9b1",
        "dac001887cdaa13d194e3315b81684adb6f1063a6c920b2c68a6d646c761aa01",
    ],
}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def shard_bytes(directory):
    return [shard_path(directory, c).read_bytes() for c in range(PRM.k + 2)]


def with_magic(blob, magic):
    """`blob`, a shard or its header, with `magic` in its header and the
    header CRC recomputed to match."""
    body = magic + blob[len(magic) : HEADER_SIZE - 4]
    return body + struct.pack("<I", zlib.crc32(body)) + blob[HEADER_SIZE:]


def encoded(tmp_path, rng, size, prm=PRM, lane_width=64):
    """Shard `size` random bytes; return (source, shard dir)."""
    src = tmp_path / "data.bin"
    src.write_bytes(rng.randbytes(size))
    shards = tmp_path / "shards"
    shard_file(src, prm, shards, lane_width=lane_width)
    return src, shards


class TestHeader:
    def test_roundtrip(self):
        h = ShardHeader(1, 2, 5, 3, 4, 4096, 17, 123456789)
        assert ShardHeader.unpack(h.pack()) == h
        assert len(h.pack()) == HEADER_SIZE == 48

    def test_crc_detects_corruption(self):
        raw = bytearray(ShardHeader(1, 2, 5, 3, 0, 64, 1, 10).pack())
        raw[9] ^= 0xFF
        with pytest.raises(CrcFailure):
            ShardHeader.unpack(bytes(raw))

    def test_bad_magic(self):
        raw = with_magic(ShardHeader(1, 2, 5, 3, 0, 64, 1, 10).pack(), b"NOTMAGIC")
        with pytest.raises(CrcFailure, match="bad magic b'NOTMAGIC'"):
            ShardHeader.unpack(raw)

    def test_unknown_version(self):
        raw = ShardHeader(7, 2, 5, 3, 0, 64, 1, 10).pack()
        with pytest.raises(UnsupportedVersion, match="x.eof has shard format version 7"):
            ShardHeader.unpack(raw, "x.eof")


@pytest.mark.parametrize("lane_width", [1, 7, 4096])
@pytest.mark.parametrize("n", [1, PRM.k, PRM.rows])
@pytest.mark.parametrize("rounds", [1, 3])
def test_deinterleave_inverts_interleave(n, lane_width, rounds):
    # n = 1 with one round is a buffer of a single lane.  The views of
    # _lanes do both shuffles: written in order, they deal the source's
    # lanes in turn into the n cells, and read in order they give the
    # source back.
    source = random.Random(n * lane_width + rounds).randbytes(n * rounds * lane_width)
    cells = [bytearray(rounds * lane_width) for _ in range(n)]
    views = shardio._lanes(cells, lane_width)
    assert [len(view) for view in views] == [lane_width] * (n * rounds)
    for m, view in enumerate(views):
        view[:] = source[m * lane_width : (m + 1) * lane_width]
    for m in range(n * rounds):
        s, i = divmod(m, n)
        assert cells[i][s * lane_width : (s + 1) * lane_width] == \
            source[m * lane_width : (m + 1) * lane_width]
    assert b"".join(views) == source


def rewrite_version(shards, version, columns):
    """Give the shards of `columns` a header of `version` with a valid CRC."""
    for c in columns:
        blob = shard_path(shards, c).read_bytes()
        header = dataclasses.replace(ShardHeader.unpack(blob), version=version)
        shard_path(shards, c).write_bytes(header.pack() + blob[HEADER_SIZE:])


class TestRoundTrip:
    def test_empty_file(self, tmp_path):
        src = tmp_path / "empty.bin"
        src.write_bytes(b"")
        paths = shard_file(src, PRM, tmp_path / "shards", lane_width=4)
        assert len(paths) == 5
        for path in paths:
            assert path.stat().st_size == HEADER_SIZE
        out = tmp_path / "out.bin"
        assert reconstruct(tmp_path / "shards", out) == 0
        assert out.read_bytes() == b""

    def test_all_shards_present(self, tmp_path, rng):
        src = tmp_path / "data.bin"
        src.write_bytes(rng.randbytes(300_000))
        shard_file(src, PRM, tmp_path / "shards", lane_width=512)
        out = tmp_path / "out.bin"
        reconstruct(tmp_path / "shards", out)
        assert sha(out) == sha(src)

    def test_deterministic_output(self, tmp_path, rng):
        src = tmp_path / "data.bin"
        src.write_bytes(rng.randbytes(10_000))
        shard_file(src, PRM, tmp_path / "a", lane_width=128)
        shard_file(src, PRM, tmp_path / "b", lane_width=128)
        for c in range(5):
            assert shard_path(tmp_path / "a", c).read_bytes() == \
                shard_path(tmp_path / "b", c).read_bytes()

    @pytest.mark.parametrize("missing", [(0,), (3,), (0, 2), (1, 3), (3, 4), (0, 4)])
    def test_loss_patterns(self, missing, tmp_path, rng):
        src = tmp_path / "data.bin"
        src.write_bytes(rng.randbytes(77_777))
        shards = tmp_path / "shards"
        shard_file(src, PRM, shards, lane_width=256)
        for c in missing:
            shard_path(shards, c).unlink()
        out = tmp_path / "out.bin"
        reconstruct(shards, out)
        assert sha(out) == sha(src)

    def test_corrupt_header_treated_as_erasure(self, tmp_path, rng):
        src = tmp_path / "data.bin"
        src.write_bytes(rng.randbytes(20_000))
        shards = tmp_path / "shards"
        shard_file(src, PRM, shards, lane_width=64)
        blob = bytearray(shard_path(shards, 1).read_bytes())
        blob[12] ^= 0x55
        shard_path(shards, 1).write_bytes(bytes(blob))
        out = tmp_path / "out.bin"
        reconstruct(shards, out)
        assert sha(out) == sha(src)

    def test_three_missing_rejected(self, tmp_path, rng):
        src = tmp_path / "data.bin"
        src.write_bytes(rng.randbytes(5_000))
        shards = tmp_path / "shards"
        shard_file(src, PRM, shards, lane_width=64)
        for c in (0, 1, 2):
            shard_path(shards, c).unlink()
        with pytest.raises(TooManyMissing):
            reconstruct(shards, tmp_path / "out.bin")

    def test_header_mismatch_rejected(self, tmp_path, rng):
        src = tmp_path / "data.bin"
        src.write_bytes(rng.randbytes(5_000))
        shards = tmp_path / "shards"
        shard_file(src, PRM, shards, lane_width=64)
        other = validate_params(1, 5, 3)
        shard_file(src, other, tmp_path / "other", lane_width=64)
        shard_path(shards, 2).write_bytes(
            shard_path(tmp_path / "other", 2).read_bytes()
        )
        with pytest.raises(HeaderMismatch):
            reconstruct(shards, tmp_path / "out.bin")

    def test_reconstruct_is_parameter_free(self, tmp_path, rng):
        # Headers alone carry everything needed.
        prm = validate_params(1, 7, 5)
        src = tmp_path / "data.bin"
        src.write_bytes(rng.randbytes(123_456))
        shards = tmp_path / "shards"
        shard_file(src, prm, shards, lane_width=1024)
        shard_path(shards, 5).unlink()
        shard_path(shards, 2).unlink()
        out = tmp_path / "out.bin"
        reconstruct(shards, out)
        assert sha(out) == sha(src)


# Nothing lost, every single column and every pair of columns.
EVERY_LOSS = [()] + [(c,) for c in range(PRM.k + 2)] + list(
    itertools.combinations(range(PRM.k + 2), 2))


def roundtrip_every_loss(tmp_path, src, shards):
    """Read `shards` back byte-exact under every loss in EVERY_LOSS."""
    blobs = shard_bytes(shards)
    for lost in EVERY_LOSS:
        for c, blob in enumerate(blobs):
            if c in lost:
                shard_path(shards, c).unlink(missing_ok=True)
            else:
                shard_path(shards, c).write_bytes(blob)
        out = tmp_path / "out.bin"
        assert reconstruct(shards, out) == src.stat().st_size
        assert sha(out) == sha(src), lost


def test_wide_roundtrip_all_pairs(tmp_path):
    # A larger file through every loss pattern.
    src, shards = encoded(tmp_path, random.Random(20240817), 2 * 1024 * 1024 + 311,
                          lane_width=LANE)
    roundtrip_every_loss(tmp_path, src, shards)


@pytest.mark.parametrize("triple", sorted(GOLDEN))
def test_shards_match_golden_digests(tmp_path, triple):
    prm = validate_params(*triple)
    src = tmp_path / "src"
    src.write_bytes(random.Random(f"golden:{triple}").randbytes(2_500_000))
    shard_file(src, prm, tmp_path / "s", lane_width=LANE)
    assert [sha(shard_path(tmp_path / "s", c)) for c in range(prm.k + 2)] == GOLDEN[triple]


@pytest.mark.parametrize("stripes", [0, 1, PER_BATCH - 1, PER_BATCH, PER_BATCH + 1])
def test_batch_edges_roundtrip_all_pairs(tmp_path, stripes):
    rng = random.Random(stripes)
    src, shards = encoded(tmp_path, rng, max(0, stripes * STRIPE - 100), lane_width=LANE)
    roundtrip_every_loss(tmp_path, src, shards)


def trickled(move, most):
    """`move`, os.readv or os.writev, cut to at most `most` bytes per call."""

    def trickle(fd, buffers):
        views, left = [], most
        for buffer in buffers:
            views.append(memoryview(buffer)[:left])
            if not (left := left - len(views[-1])):
                break
        return move(fd, views)

    return trickle


@pytest.mark.parametrize("short", [False, True], ids=["readv", "short-readv"])
@pytest.mark.parametrize("lane_width", [1, 3, 8])
def test_narrow_lanes_roundtrip_every_loss(tmp_path, monkeypatch, lane_width, short):
    # One column's lanes in a batch outnumber IOV_MAX, and the last of the
    # three batches is short.  With `short`, every os.readv and os.writev
    # stops after 1001 bytes, inside a lane where lanes are 3 or 8 wide.
    per_batch = shardio._stripes_per_batch(PRM, lane_width)
    assert per_batch * PRM.rows > shardio.IOV_MAX
    if short:
        monkeypatch.setattr(os, "readv", trickled(os.readv, 1001))
        monkeypatch.setattr(os, "writev", trickled(os.writev, 1001))
    size = (5 * per_batch // 2) * PRM.k * PRM.rows * lane_width - 7
    src, shards = encoded(tmp_path, random.Random(lane_width), size, lane_width=lane_width)
    roundtrip_every_loss(tmp_path, src, shards)


@pytest.mark.parametrize("size", [0, 1, PRM.k * PRM.rows * 64 - 1])
def test_files_within_one_stripe_roundtrip_every_loss(tmp_path, size):
    src, shards = encoded(tmp_path, random.Random(size), size)
    roundtrip_every_loss(tmp_path, src, shards)


def test_short_readv_is_finished(tmp_path, rng, monkeypatch):
    real_readv = os.readv

    def short_readv(fd, buffers):
        """At most 5 bytes, into the first buffer only."""
        return real_readv(fd, [memoryview(buffers[0])[:5]])

    src, shards = encoded(tmp_path, rng, 10_000, lane_width=16)
    monkeypatch.setattr(os, "readv", short_readv)
    roundtrip_every_loss(tmp_path, src, shards)



def test_short_writev_is_finished(tmp_path, rng, monkeypatch):
    # Shards, and reads whose output is written from lanes when a column
    # is lost, come out the same through calls that stop inside a lane.
    src, plain = encoded(tmp_path, rng, PER_BATCH * STRIPE + 5000, lane_width=LANE)
    monkeypatch.setattr(os, "writev", trickled(os.writev, 1000))
    shards = tmp_path / "trickled"
    shard_file(src, PRM, shards, lane_width=LANE)
    assert shard_bytes(shards) == shard_bytes(plain)
    roundtrip_every_loss(tmp_path, src, shards)


def test_writev_that_writes_nothing_raises_eio(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "writev", lambda fd, buffers: 0)
    with open(tmp_path / "f", "wb", buffering=0) as fh, pytest.raises(OSError) as info:
        shardio._write_all(fh.fileno(), [b"abc", b"def"], 3)
    assert info.value.errno == errno.EIO


def test_zero_stripe_set_compiles_and_allocates_nothing(tmp_path):
    # The headers ask for 2**21 rows, and information column 0 is lost: a
    # read of 0 stripes must neither compile that decode program nor build
    # buffers sized by the header.
    for c in (1, 2, 3):
        header = ShardHeader(shardio.VERSION, 2**20, 3, 2, c, LANE, 0, 0)
        shard_path(tmp_path, c).write_bytes(header.pack())
    out = tmp_path / "out.bin"
    tracemalloc.start()
    try:
        assert reconstruct(tmp_path, out) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_bytes() == b""
    assert peak < 2**20

@pytest.mark.parametrize("lost, viewed", [
    ((3, 4), {0, 1, 2}),  # no parity is read
    ((0,), {0, 1, 2, 3}),  # the decode reads the row parity only
    ((0, 3), {0, 1, 2, 4}),  # the decode reads the diagonal parity
    ((1, 2), {0, 1, 2, 3, 4}),  # the decode reads both parities
], ids=["3+4", "0", "0+3", "1+2"])
def test_degraded_read_views_only_the_columns_it_uses(tmp_path, rng, monkeypatch, lost, viewed):
    # Lane views are built for the information columns, which the output
    # is written from, and for the parity columns the decode reads.
    src, shards = encoded(tmp_path, rng, 2 * PRM.k * PRM.rows * 64 - 9)
    for c in lost:
        shard_path(shards, c).unlink()
    cells = []
    real_lanes = shardio._lanes

    def counting_lanes(column_cells, lane_width):
        cells.extend(column_cells)
        return real_lanes(column_cells, lane_width)

    monkeypatch.setattr(shardio, "_lanes", counting_lanes)
    reconstruct(shards, tmp_path / "out.bin")
    assert sha(tmp_path / "out.bin") == sha(src)
    assert len(cells) == PRM.rows * len(viewed)


def test_each_batch_runs_on_the_buffers_own_cells(tmp_path, monkeypatch):
    # A write and a two-information read of a three-batch file call encode
    # and decode once per batch, on an array at the batch's width whose
    # cells all view one buffer, the same for every batch: nothing is
    # copied, and only the short last batch is cut to its 3 stripes.
    arrays = {"encode": [], "decode": []}

    def wrap(name):
        real = getattr(shardio, name)

        def wrapped(array, *args, **kwargs):
            arrays[name].append((array.lane_width, {id(cell.obj) for cell in array.cells}))
            return real(array, *args, **kwargs)

        monkeypatch.setattr(shardio, name, wrapped)

    wrap("encode")
    wrap("decode")
    src, shards = encoded(tmp_path, random.Random(26), (2 * PER_BATCH + 3) * STRIPE - 100,
                          lane_width=LANE)
    for c in (0, 2):
        shard_path(shards, c).unlink()
    reconstruct(shards, tmp_path / "out.bin")
    assert sha(tmp_path / "out.bin") == sha(src)
    for name, calls in arrays.items():
        assert [width for width, _ in calls] == [PER_BATCH * LANE] * 2 + [3 * LANE], name
        assert len(set().union(*(buffers for _, buffers in calls))) == 1, name


def test_write_builds_its_lanes_once(tmp_path, monkeypatch):
    # One buffer's lanes serve every batch of a write, parity shards
    # included: a 4-batch file builds no more lane views than a 1-batch one.
    calls = []
    real_lanes = shardio._lanes

    def counting_lanes(cells, lane_width):
        calls.append(len(cells))
        return real_lanes(cells, lane_width)

    monkeypatch.setattr(shardio, "_lanes", counting_lanes)
    counts = []
    for batches in (1, 4):
        src = tmp_path / f"src{batches}"
        src.write_bytes(random.Random(batches).randbytes((batches - 1) * PER_BATCH * STRIPE + 1))
        calls.clear()
        shard_file(src, PRM, tmp_path / f"shards{batches}", lane_width=LANE)
        counts.append(len(calls))
        shard_path(tmp_path / f"shards{batches}", 1).unlink()
        reconstruct(tmp_path / f"shards{batches}", tmp_path / f"out{batches}")
        assert sha(tmp_path / f"out{batches}") == sha(src)
    assert counts[0] == counts[1]


def peak_bytes(tmp_path, batches):
    """tracemalloc peak of sharding a file of `batches` batches and reading
    it back with two information columns lost."""
    src = tmp_path / f"src{batches}"
    rng = random.Random(batches)
    with open(src, "wb") as fh:
        for _ in range(batches):
            fh.write(rng.randbytes(PER_BATCH * STRIPE))
    shards = tmp_path / f"shards{batches}"
    tracemalloc.start()
    try:
        shard_file(src, PRM, shards, lane_width=LANE)
        for c in (0, 2):
            shard_path(shards, c).unlink()
        reconstruct(shards, tmp_path / f"out{batches}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sha(tmp_path / f"out{batches}") == sha(src)
    return peak


def test_memory_does_not_grow_with_file_size(tmp_path):
    small = peak_bytes(tmp_path, 4)
    assert peak_bytes(tmp_path, 16) <= 1.25 * small


def test_memory_does_not_grow_as_lanes_narrow(tmp_path):
    # Without a cap on the lanes of a batch, a batch at lane width 1 builds
    # a million one-byte lanes.
    src = tmp_path / "src"
    src.write_bytes(random.Random(1).randbytes(300_000))
    _, warm = encoded(tmp_path, random.Random(2), 1000)  # compile the programs untraced
    shard_path(warm, 1).unlink()
    reconstruct(warm, tmp_path / "warm")

    def peak(lane_width):
        shards = tmp_path / f"shards{lane_width}"
        out = tmp_path / f"out{lane_width}"
        tracemalloc.start()
        try:
            shard_file(src, PRM, shards, lane_width=lane_width)
            shard_path(shards, 1).unlink()
            reconstruct(shards, out)
            result = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sha(out) == sha(src)
        return result

    assert peak(1) <= 2 * peak(4096)


class TestFailedRead:
    """A failed decode leaves an existing output as it was and no
    temporary file beside it."""

    def check(self, tmp_path, shards, error, match=None):
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        out = outdir / "out.bin"
        out.write_bytes(b"previous contents")
        with pytest.raises(error, match=match):
            reconstruct(shards, out)
        assert out.read_bytes() == b"previous contents"
        assert list(outdir.iterdir()) == [out]

    def test_rank_deficient_pair(self, tmp_path, rng, monkeypatch):
        # shard_file refuses (2,7,4); with its gate taken out it writes the
        # shards an older writer would have left.
        monkeypatch.setattr(shardio, "undecodable_pairs", lambda params: ())
        _, shards = encoded(tmp_path, rng, 20_000, prm=validate_params(2, 7, 4))
        shard_path(shards, 0).unlink()
        shard_path(shards, 3).unlink()
        self.check(tmp_path, shards, ChainStall)

    def test_three_missing(self, tmp_path, rng):
        _, shards = encoded(tmp_path, rng, 20_000)
        for c in (0, 1, 4):
            shard_path(shards, c).unlink()
        self.check(tmp_path, shards, TooManyMissing)

    def test_failure_after_first_batch(self, tmp_path, rng, monkeypatch):
        _, shards = encoded(tmp_path, rng, 3 * PER_BATCH * STRIPE, lane_width=LANE)
        shard_path(shards, 1).unlink()
        calls = []

        def failing_decode(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ChainStall("injected")
            return real_decode(*args, **kwargs)

        real_decode = shardio.decode
        monkeypatch.setattr(shardio, "decode", failing_decode)
        self.check(tmp_path, shards, ChainStall)
        assert len(calls) == 2

    @pytest.mark.parametrize("lost, short", [((), 1), ((0, 4), 3)],
                             ids=["information", "parity"])
    def test_shard_ended_early(self, tmp_path, rng, monkeypatch, lost, short):
        # The shard shrinks after its size was checked, in the last batch.
        _, shards = encoded(tmp_path, rng, 3 * PER_BATCH * STRIPE, lane_width=LANE)
        for c in lost:
            shard_path(shards, c).unlink()
        real_open_shards = shardio._open_shards

        def open_then_shrink(directory, stack):
            opened = real_open_shards(directory, stack)
            os.truncate(shard_path(shards, short), shard_path(shards, short).stat().st_size - 10)
            return opened

        monkeypatch.setattr(shardio, "_open_shards", open_then_shrink)
        self.check(tmp_path, shards, HeaderMismatch, match=rf"shard_{short}\.eof ended early")



class TestOutputMode:
    """A read gives an output it replaces that output's permission bits,
    and a new output those of a new file."""

    def test_existing_output_keeps_its_mode(self, tmp_path, rng):
        src, shards = encoded(tmp_path, rng, 1000)
        out = tmp_path / "out.bin"
        out.write_bytes(b"previous contents")
        out.chmod(0o600)
        old = os.umask(0o022)
        try:
            reconstruct(shards, out)
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o600
        assert sha(out) == sha(src)

    def test_new_output_mode_is_that_of_a_new_file(self, tmp_path, rng):
        _, shards = encoded(tmp_path, rng, 1000)
        old = os.umask(0o027)
        try:
            (tmp_path / "reference").write_bytes(b"")
            reconstruct(shards, tmp_path / "out.bin")
        finally:
            os.umask(old)
        want = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
        assert want == 0o640
        assert stat.S_IMODE((tmp_path / "out.bin").stat().st_mode) == want


class TestOutputPath:
    """What `reconstruct` accepts as its output, and how it names one it
    refuses."""

    def test_directory_is_refused_by_name(self, tmp_path, rng):
        _, shards = encoded(tmp_path, rng, 1000)
        out = tmp_path / "outdir"
        out.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            reconstruct(shards, str(out))
        assert info.value.filename == str(out)
        assert list(out.iterdir()) == []

    def test_missing_directory_is_refused_by_name(self, tmp_path, rng):
        _, shards = encoded(tmp_path, rng, 1000)
        out = tmp_path / "nodir" / "out.bin"
        with pytest.raises(FileNotFoundError) as info:
            reconstruct(shards, str(out))
        assert info.value.filename == str(out)
        assert not (tmp_path / "nodir").exists()

    def test_bare_name_is_in_the_current_directory(self, tmp_path, rng, monkeypatch):
        src, shards = encoded(tmp_path, rng, 1000)
        here = tmp_path / "here"
        here.mkdir()
        monkeypatch.chdir(here)
        assert reconstruct(str(shards), "out.bin") == 1000
        assert os.listdir(here) == ["out.bin"]
        assert sha(here / "out.bin") == sha(src)

    def test_path_objects(self, tmp_path, rng):
        src, shards = encoded(tmp_path, rng, 1000)
        shard_path(shards, 1).unlink()
        assert reconstruct(shards, tmp_path / "out.bin") == 1000
        assert sha(tmp_path / "out.bin") == sha(src)

    def test_name_over_name_max_is_refused_by_name(self, tmp_path, rng):
        _, shards = encoded(tmp_path, rng, 1000)
        out = tmp_path / ("n" * 256)
        with pytest.raises(OSError) as info:
            reconstruct(shards, out)
        assert (info.value.errno, info.value.filename) == (errno.ENAMETOOLONG, str(out))
        assert not list(tmp_path.glob(".*"))

    # The temporary file beside the output gets a name of its own that must
    # fit in NAME_MAX (255 bytes) too.
    @pytest.mark.parametrize("name", ["n" * 255, "\u00e9" * 127 + "n", "n" * 241],
                             ids=["255 ascii", "255 bytes of utf-8", "241 ascii"])
    @pytest.mark.parametrize("lost", [(), (0, 2)], ids=["healthy", "degraded"])
    def test_longest_name(self, tmp_path, rng, name, lost):
        src, shards = encoded(tmp_path, rng, 3000)
        for c in lost:
            shard_path(shards, c).unlink()
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        (outdir / name).touch()
        assert reconstruct(shards, outdir / name) == 3000
        assert os.listdir(outdir) == [name]
        assert sha(outdir / name) == sha(src)

    @pytest.mark.parametrize("lost", [(), (0, 2)], ids=["healthy", "degraded"])
    def test_link_to_a_file_stays_a_link(self, tmp_path, rng, lost):
        # The file the link names is replaced, by way of a temporary file
        # beside it, and not the link.
        src, shards = encoded(tmp_path, rng, 3000)
        for c in lost:
            shard_path(shards, c).unlink()
        (tmp_path / "data").mkdir()
        target = tmp_path / "data" / "out.bin"
        target.write_bytes(b"old")
        link = tmp_path / "link"
        link.symlink_to(os.path.join("data", "out.bin"))
        assert reconstruct(shards, link) == 3000
        assert os.readlink(link) == os.path.join("data", "out.bin")
        assert sha(target) == sha(src)
        assert os.listdir(tmp_path / "data") == ["out.bin"]

    @pytest.mark.parametrize("lost", [(), (0, 2)], ids=["healthy", "degraded"])
    def test_dangling_link_stays_a_link(self, tmp_path, rng, lost):
        # The file the link names is created, by way of a temporary file
        # beside it, and the link is kept.
        src, shards = encoded(tmp_path, rng, 3000)
        for c in lost:
            shard_path(shards, c).unlink()
        (tmp_path / "data").mkdir()
        link = tmp_path / "link"
        link.symlink_to(os.path.join("data", "out.bin"))
        assert reconstruct(shards, link) == 3000
        assert os.readlink(link) == os.path.join("data", "out.bin")
        assert sha(tmp_path / "data" / "out.bin") == sha(src)
        assert os.listdir(tmp_path / "data") == ["out.bin"]

    def test_dangling_link_into_a_missing_directory(self, tmp_path, rng):
        _, shards = encoded(tmp_path, rng, 1000)
        link = tmp_path / "link"
        link.symlink_to(os.path.join("nodir", "out.bin"))
        with pytest.raises(FileNotFoundError) as info:
            reconstruct(shards, link)
        assert info.value.filename == os.path.realpath(tmp_path / "nodir" / "out.bin")
        assert link.is_symlink() and not (tmp_path / "nodir").exists()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_descriptor_link_to_a_file(self, tmp_path, rng):
        # As `decode DIR /dev/stdout > FILE` hands it over: a link to an open
        # descriptor of a regular file.  FILE is replaced, in its directory.
        src, shards = encoded(tmp_path, rng, 3000)
        out = tmp_path / "out.bin"
        with open(out, "wb") as fh:
            assert reconstruct(shards, f"/proc/self/fd/{fh.fileno()}") == 3000
        assert sha(out) == sha(src)
        assert sorted(tmp_path.iterdir()) == sorted([src, shards, out])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
class TestNonRegularOutput:
    """An output that is not a regular file is written into, not replaced
    by a regular file, and no temporary file is made beside it."""

    @pytest.mark.parametrize("lost", [(), (0, 2)], ids=["healthy", "degraded"])
    def test_fifo_with_a_reader(self, tmp_path, rng, lost):
        src, shards = encoded(tmp_path, rng, PER_BATCH * STRIPE + 5000, lane_width=LANE)
        for c in lost:
            shard_path(shards, c).unlink()
        out = tmp_path / "out.fifo"
        os.mkfifo(out)
        got = []
        reader = threading.Thread(target=lambda: got.append(out.read_bytes()), daemon=True)
        reader.start()
        assert reconstruct_or_fail(shards, out) == PER_BATCH * STRIPE + 5000
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [src.read_bytes()]
        assert stat.S_ISFIFO(out.lstat().st_mode)
        assert sorted(tmp_path.iterdir()) == sorted([src, shards, out])

    def test_dev_null(self, tmp_path, rng):
        # Through a link, so that an output replaced by a regular file would
        # replace the link and not the device.
        src, shards = encoded(tmp_path, rng, 30_000)
        null = tmp_path / "null"
        null.symlink_to(os.devnull)
        assert reconstruct(shards, null) == 30_000
        assert null.is_symlink() and stat.S_ISCHR(null.stat().st_mode)
        assert sorted(tmp_path.iterdir()) == sorted([src, shards, null])


class TestMalformedShards:
    def test_truncated_shard_is_an_erasure(self, tmp_path, rng):
        src, shards = encoded(tmp_path, rng, 30_000)
        blob = shard_path(shards, 1).read_bytes()
        shard_path(shards, 1).write_bytes(blob[:-10])
        out = tmp_path / "out.bin"
        reconstruct(shards, out)
        assert sha(out) == sha(src)

    def test_three_truncated_shards(self, tmp_path, rng):
        _, shards = encoded(tmp_path, rng, 30_000)
        for c in (0, 2, 3):
            blob = shard_path(shards, c).read_bytes()
            shard_path(shards, c).write_bytes(blob[:-10])
        with pytest.raises(TooManyMissing):
            reconstruct(shards, tmp_path / "out.bin")

    def test_short_and_bad_magic_shards_are_erasures(self, tmp_path, rng):
        src, shards = encoded(tmp_path, rng, 30_000)
        short, bad_magic = shard_path(shards, 0), shard_path(shards, 3)
        short.write_bytes(short.read_bytes()[:20])
        bad_magic.write_bytes(with_magic(bad_magic.read_bytes(), b"EOFLEX99"))
        out = tmp_path / "out.bin"
        reconstruct(shards, out)
        assert sha(out) == sha(src)
        shard_path(shards, 1).unlink()
        with pytest.raises(TooManyMissing) as info:
            reconstruct(shards, out)
        message = str(info.value)
        assert f"{short} (shard too short for header)" in message
        assert f"{bad_magic} (bad magic b'EOFLEX99')" in message

    def test_column_index_above_k_plus_1(self, tmp_path, rng):
        _, shards = encoded(tmp_path, rng, 30_000)
        blob = shard_path(shards, 4).read_bytes()
        header = ShardHeader.unpack(blob)
        bad = ShardHeader(header.version, header.tau, header.p, header.k, 5,
                          header.lane_width, header.stripe_count, header.original_length)
        shard_path(shards, 4).write_bytes(bad.pack() + blob[HEADER_SIZE:])
        with pytest.raises(HeaderMismatch, match="shard_4.eof"):
            reconstruct(shards, tmp_path / "out.bin")

    def test_unknown_version_rejected(self, tmp_path, rng):
        _, shards = encoded(tmp_path, rng, 30_000)
        rewrite_version(shards, 7, range(PRM.k + 2))
        out = tmp_path / "out.bin"
        with pytest.raises(UnsupportedVersion, match=r"shard_0\.eof has shard format version 7"):
            reconstruct(shards, out)
        assert not out.exists()

    def test_duplicate_column_index(self, tmp_path, rng):
        _, shards = encoded(tmp_path, rng, 30_000)
        shard_path(shards, 7).write_bytes(shard_path(shards, 2).read_bytes())
        with pytest.raises(HeaderMismatch, match="column 2"):
            reconstruct(shards, tmp_path / "out.bin")


def test_shard_names_are_shard_star_eof(tmp_path, rng):
    # Only the names shard_*.eof are read: the copies of column 0 under
    # other names are never opened, and the two junk entries whose names
    # fit are rejected for their content.
    _, shards = encoded(tmp_path, rng, 30_000)
    column_0 = shard_path(shards, 0).read_bytes()
    for c in (0, 1, 2):
        shard_path(shards, c).unlink()
    for name in (".shard_0.eof", "shard_0.eof.tmp", "Shard_0.eof"):
        (shards / name).write_bytes(column_0)
    (shards / "shard_junk.eof").write_bytes(b"junk")
    (shards / "shard_.eof").write_bytes(b"")
    with pytest.raises(TooManyMissing) as info:
        reconstruct(shards, tmp_path / "out.bin")
    assert str(info.value) == (
        "3 shards missing, can recover at most 2; rejected "
        f"{shards / 'shard_.eof'} (shard too short for header), "
        f"{shards / 'shard_junk.eof'} (shard too short for header)"
    )


def reconstruct_or_fail(shards, out, seconds=30):
    """Run reconstruct(shards, out) in a worker thread and return or raise
    what it does.  A read still blocked after `seconds` fails the test
    instead of stalling the suite; every FIFO among the shards is then
    opened for writing, which ends a wait for a writer."""
    outcome = []

    def work():
        try:
            outcome.append(reconstruct(shards, out))
        except Exception as exc:
            outcome.append(exc)

    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    worker.join(seconds)
    if worker.is_alive():
        for entry in shards.iterdir():
            if entry.is_fifo():
                with contextlib.suppress(OSError):
                    os.close(os.open(entry, os.O_WRONLY | os.O_NONBLOCK))
        pytest.fail(f"reconstruct still blocked after {seconds} s")
    if isinstance(outcome[0], Exception):
        raise outcome[0]
    return outcome[0]


def make_entry(path, kind):
    """Put a non-regular entry of `kind` at `path`."""
    if kind == "fifo":
        os.mkfifo(path)
    elif kind == "directory":
        path.mkdir()
    else:
        path.symlink_to(path.with_name("nowhere"))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
class TestNonRegularEntries:
    """Entries named like shards that are not regular files are rejected
    shards, like one whose header fails its CRC: they never stall or abort
    a read."""

    @pytest.mark.parametrize("kind", ["fifo", "directory", "dangling symlink"])
    def test_beside_an_intact_set(self, tmp_path, rng, kind):
        src, shards = encoded(tmp_path, rng, 30_000)
        make_entry(shard_path(shards, 7), kind)
        out = tmp_path / "out.bin"
        reconstruct_or_fail(shards, out)
        assert sha(out) == sha(src)

    def test_shard_replaced_by_a_fifo_is_an_erasure(self, tmp_path, rng):
        src, shards = encoded(tmp_path, rng, 30_000)
        shard_path(shards, 1).unlink()
        os.mkfifo(shard_path(shards, 1))
        out = tmp_path / "out.bin"
        reconstruct_or_fail(shards, out)
        assert sha(out) == sha(src)

    def test_each_is_named_with_its_reason(self, tmp_path, rng):
        _, shards = encoded(tmp_path, rng, 30_000)
        for c in (0, 1, 2):
            shard_path(shards, c).unlink()
        for c, kind in [(7, "fifo"), (8, "dangling symlink"), (9, "directory")]:
            make_entry(shard_path(shards, c), kind)
        with pytest.raises(TooManyMissing) as info:
            reconstruct_or_fail(shards, tmp_path / "out.bin")
        message = str(info.value)
        assert f"{shard_path(shards, 7)} (not a regular file)" in message
        assert f"{shard_path(shards, 8)} (No such file or directory)" in message
        assert f"{shard_path(shards, 9)} (Is a directory)" in message


class TestRewrite:
    """Shards written over an existing set are the shards a fresh directory
    gets, and a rewrite that fails leaves no shard that reads as valid."""

    OLD_SIZE = PER_BATCH * STRIPE + 5000  # two batches

    @pytest.mark.parametrize("new_size", [OLD_SIZE, 2 * PER_BATCH * STRIPE + 777, 3000],
                             ids=["same", "larger", "smaller"])
    def test_matches_a_fresh_directory(self, tmp_path, rng, new_size):
        self.check_rewrite(tmp_path, rng, PRM, LANE, self.OLD_SIZE, new_size)

    @staticmethod
    def check_rewrite(tmp_path, rng, prm, lane_width, old_size, new_size):
        """A set of `new_size` bytes written over one of `old_size` bytes
        equals a fresh directory's, is cut to its own length and decodes."""
        _, shards = encoded(tmp_path, rng, old_size, prm=prm, lane_width=lane_width)
        src = tmp_path / "new.bin"
        src.write_bytes(rng.randbytes(new_size))
        shard_file(src, prm, shards, lane_width=lane_width)
        shard_file(src, prm, tmp_path / "fresh", lane_width=lane_width)
        columns = range(prm.k + 2)
        assert [shard_path(shards, c).read_bytes() for c in columns] == \
            [shard_path(tmp_path / "fresh", c).read_bytes() for c in columns]
        stripes = -(-new_size // (prm.k * prm.rows * lane_width))
        for c in columns:
            assert shard_path(shards, c).stat().st_size == \
                HEADER_SIZE + stripes * prm.rows * lane_width
        out = tmp_path / "out.bin"
        reconstruct(shards, out)
        assert sha(out) == sha(src)

    def test_failure_at_second_batch_leaves_every_shard_rejected(self, tmp_path, rng,
                                                                   monkeypatch):
        _, shards = encoded(tmp_path, rng, self.OLD_SIZE, lane_width=LANE)
        src = tmp_path / "new.bin"
        src.write_bytes(rng.randbytes(self.OLD_SIZE))
        calls = []

        def failing_encode(arr):
            calls.append(1)
            if len(calls) == 2:
                # What a process killed here leaves in its files: the
                # first batch's payload under zeroed headers.
                for c in range(PRM.k + 2):
                    assert shard_path(shards, c).read_bytes()[:HEADER_SIZE] == bytes(HEADER_SIZE)
                raise RuntimeError("injected")
            real_encode(arr)

        real_encode = shardio.encode
        monkeypatch.setattr(shardio, "encode", failing_encode)
        with pytest.raises(RuntimeError, match="injected"):
            shard_file(src, PRM, shards, lane_width=LANE)
        assert len(calls) == 2
        out = tmp_path / "out.bin"
        with pytest.raises(TooManyMissing, match="no readable shards found") as info:
            reconstruct(shards, out)
        for c in range(PRM.k + 2):
            assert f"{shard_path(shards, c)} (header CRC failed)" in str(info.value)
        assert not out.exists()

    def test_new_shard_mode_is_that_of_a_new_file(self, tmp_path, rng):
        old = os.umask(0o027)
        try:
            (tmp_path / "reference").write_bytes(b"")
            _, shards = encoded(tmp_path, rng, 1000)
        finally:
            os.umask(old)
        want = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
        assert want == 0o640
        for c in range(PRM.k + 2):
            assert stat.S_IMODE(shard_path(shards, c).stat().st_mode) == want

    def test_rewrite_keeps_an_existing_mode(self, tmp_path, rng):
        _, shards = encoded(tmp_path, rng, 1000)
        shard_path(shards, 1).chmod(0o600)
        shard_file(tmp_path / "data.bin", PRM, shards, lane_width=64)
        assert stat.S_IMODE(shard_path(shards, 1).stat().st_mode) == 0o600

    def test_removes_only_higher_shard_columns(self, tmp_path, rng, capsys):
        src, shards = encoded(tmp_path, rng, 5000, prm=validate_params(1, 11, 7))
        # Only a column number in ASCII digits without a leading zero, as
        # a write names it, makes a stale shard.
        kept = ["shard_x.eof", "shard_9.eof.bak", "notes.txt", "shard_09.eof", "shard_+9.eof",
                "shard_ 9.eof", "shard_\u0669.eof", "shard_9.EOF"]
        for name in kept:
            (shards / name).write_bytes(b"kept")
        (shards / "shard_9.eof").symlink_to(tmp_path / "nowhere")  # dangling: removed
        shard_file(src, PRM, shards, lane_width=64)
        assert sorted(path.name for path in shards.iterdir()) == sorted(
            kept + [shard_path(shards, c).name for c in range(PRM.k + 2)])
        # A directory named like a stale shard cannot be removed: the encode
        # fails before it opens any shard.
        (shards / "shard_9.eof").mkdir()
        before = shard_bytes(shards)
        code = cli.main(["encode", "--tau", "2", "--p", "5", "--k", "3", "--lane-width", "64",
                         str(src), str(shards)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert shard_bytes(shards) == before

    @pytest.mark.parametrize("lane_width", [32, 256])
    @pytest.mark.parametrize("triple", [(1, 11, 7), (3, 9, 3)])
    @pytest.mark.parametrize("old_stripes", [1, 3])
    @pytest.mark.parametrize("change", ["same", "larger", "smaller"])
    def test_matches_a_fresh_directory_at_small_shapes(self, tmp_path, rng, change, old_stripes,
                                                        triple, lane_width):
        # A one-stripe batch hands out its cells as lanes, and a shard no
        # longer than its new length is not truncated.
        prm = validate_params(*triple)
        stripe = prm.k * prm.rows * lane_width
        old_size = old_stripes * stripe - 100
        new_size = {"same": old_size, "larger": old_size + stripe, "smaller": old_size // 2}[change]
        self.check_rewrite(tmp_path, rng, prm, lane_width, old_size, new_size)

    def test_truncates_only_a_longer_shard(self, tmp_path, rng, monkeypatch):
        src, shards = encoded(tmp_path, rng, 5000)
        real_ftruncate, lengths = os.ftruncate, []

        def counting_ftruncate(fd, length):
            lengths.append(length)
            real_ftruncate(fd, length)

        monkeypatch.setattr(os, "ftruncate", counting_ftruncate)
        for size, truncated in [(5000, []), (7000, []), (1000, [HEADER_SIZE + PRM.rows * 64] * 5)]:
            src.write_bytes(rng.randbytes(size))
            lengths.clear()
            shard_file(src, PRM, shards, lane_width=64)
            assert lengths == truncated
            reconstruct(shards, tmp_path / "out.bin")
            assert sha(tmp_path / "out.bin") == sha(src)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipe_input_gives_the_same_shards(tmp_path, rng):
    data = rng.randbytes(PER_BATCH * STRIPE + 5000)
    (tmp_path / "data.bin").write_bytes(data)
    shard_file(tmp_path / "data.bin", PRM, tmp_path / "plain", lane_width=LANE)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    shard_file(fifo, PRM, tmp_path / "piped", lane_width=LANE)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert shard_bytes(tmp_path / "piped") == shard_bytes(tmp_path / "plain")


def test_short_reads_give_the_same_shards(tmp_path, rng, monkeypatch):
    src, plain = encoded(tmp_path, rng, 2 * PER_BATCH * STRIPE + 5000, lane_width=LANE)
    monkeypatch.setattr(os, "readv", trickled(os.readv, 1000))
    shard_file(src, PRM, tmp_path / "trickled", lane_width=LANE)
    assert shard_bytes(tmp_path / "trickled") == shard_bytes(plain)


def test_size_only_sizes_the_buffer(tmp_path, rng, monkeypatch):
    # An input whose size reads as one stripe is still read to its end,
    # one stripe per batch.
    src, plain = encoded(tmp_path, rng, 2 * PER_BATCH * STRIPE + 5000, lane_width=LANE)
    real_fstat, real_encode = os.fstat, shardio.encode
    batches = []

    def one_stripe(fd):
        result = real_fstat(fd)
        return types.SimpleNamespace(st_mode=result.st_mode, st_size=STRIPE)

    def counted_encode(arr):
        batches.append(arr.lane_width)
        real_encode(arr)

    monkeypatch.setattr(os, "fstat", one_stripe)
    monkeypatch.setattr(shardio, "encode", counted_encode)
    shard_file(src, PRM, tmp_path / "small", lane_width=LANE)
    assert batches == [LANE] * (2 * PER_BATCH + 1)
    assert shard_bytes(tmp_path / "small") == shard_bytes(plain)


def test_write_memory_does_not_grow_with_file_size(tmp_path):
    def peak(batches):
        src = tmp_path / f"src{batches}"
        src.write_bytes(random.Random(batches).randbytes(batches * PER_BATCH * STRIPE))
        tracemalloc.start()
        try:
            shard_file(src, PRM, tmp_path / f"shards{batches}", lane_width=LANE)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16) <= 1.25 * peak(4)
