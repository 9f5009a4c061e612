"""File formats: round trips, atomicity, corruption detection."""

import functools
import hashlib
import io
import itertools
import json
import math
import operator
import os
import pathlib
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binreplay import bitpack, cwr, datasets, learner, serialize
from binreplay.bitpack import BinConvSpec, BitTensor, pack
from binreplay.cli import main
from binreplay.graph import BINARY_KINDS, BITWIDTHS, KINDS, BitwidthConfig, Graph
from binreplay.learner import ContinualConfig
from binreplay.quant import QuantizedTensor, QuantParams, quant_params, quantize
from binreplay.replay import LatentSample, ReplayMemory, update_after_experience
from binreplay.serialize import (
    FormatError,
    atomic_write,
    read_checkpoint,
    read_dataset,
    read_replay_memory,
    read_tensor,
    write_checkpoint,
    write_dataset,
    write_replay_memory,
    write_tensor,
)
from helpers import summed


# ---------------------------------------------------------------------------
# small files of every format, from fixed inputs: no RNG draw and no matmul,
# so their bytes do not depend on the platform or the BLAS


def ramp(*shape):
    """Values in [-1, 1) that float32 holds exactly."""
    return (np.arange(math.prod(shape)) % 16 - 8).reshape(shape) / 8


def signs(*shape, shift=0):
    return pack(np.where((np.arange(math.prod(shape)) + shift) % 3 == 0, 1, -1).reshape(shape))


def write_small_dataset(path):
    write_dataset(path, ramp(6, 4, 4, 1), np.arange(6) % 3, 3)


def write_small_replay_memory(path):
    mem = ReplayMemory(quota=2, max_classes=3)
    for c, seen in ((0, 5), (2, 1)):
        mem.seen_counts[c] = seen
        mem.per_class[c] = [LatentSample(signs(2, 3, 4, shift=c + k), c) for k in range(min(2, seen))]
    write_replay_memory(path, mem)


def write_small_checkpoint(path):
    """A model with a node of every layer kind, for the small dataset."""
    g = Graph((4, 4, 1))
    q = QuantParams(bits=8, scale=0.03125, zero_point=128, signed=False)
    g.add("conv2d", name="conv", trainable=True, spec=BinConvSpec(3, 3, 1, 1, 1, 2),
          params={"w": ramp(3, 3, 1, 2), "b": ramp(2)})
    g.add("batchnorm", params={"gamma": 1 + ramp(2), "beta": ramp(2),
                               "running_mean": ramp(2), "running_var": np.full(2, 2.0)}, eps=1e-5)
    g.add("prelu", params={"alpha": np.full(2, 0.25)})
    g.add("binarize")
    g.add("binary_conv2d", trainable=True, spec=BinConvSpec(3, 3, 1, 1, 2, 2),
          params={"latent": ramp(3, 3, 2, 2)})
    g.add("add", inputs=(4, 2))
    g.add("concat", inputs=(5, 0))
    g.add("global_avg_pool")
    g.add("dense", trainable=True, params={"w": ramp(4, 3), "b": ramp(3)})
    g.add("binary_dense", weight_bits=signs(3, 4))  # frozen: its weight bits and no latent
    g.add("softmax_ce_head", params={"w": ramp(4, 5), "b": ramp(5)})
    g.replay_level = 3
    g.input_qparams = g.nodes[0].out_qparams = q
    g.nodes[8].out_qparams = QuantParams(bits=16, scale=0.5, zero_point=7, signed=False)
    g.nodes[0].param_scales = {"b": 0.0625, "w": 0.125}
    g.nodes[4].param_scales = {"latent": 0.25}
    head = cwr.init(5, 3)
    head.cw[:] = ramp(3, 6)
    head.past_counts[:] = [2, 0, 1]
    head.seen = {0, 2}
    write_checkpoint(path, g, BitwidthConfig(), head)


def small_tensor_records() -> bytes:
    buf = io.BytesIO()
    write_tensor(buf, ramp(2, 3))
    write_tensor(buf, signs(5, 13))
    write_tensor(buf, QuantizedTensor(np.arange(-4, 4).reshape(2, 4), QuantParams(8, 0.5, 0, True)))
    write_tensor(buf, QuantizedTensor(np.arange(6), QuantParams(16, 0.25, 3, False)))
    write_tensor(buf, QuantizedTensor(np.arange(3), QuantParams(32, 2.0, 0, True)))
    return buf.getvalue()


WRITERS = {"d.brds": write_small_dataset, "m.brrm": write_small_replay_memory,
           "c.brck": write_small_checkpoint}
# the same replay memory and checkpoint as written by the version-1 writers,
# kept as files: a version-2 reader still loads them
V1_FILES = pathlib.Path(__file__).parent / "data" / "v1"
READERS = {"d.brds": read_dataset, "m.brrm": read_replay_memory, "c.brck": read_checkpoint,
           "v1/m.brrm": read_replay_memory, "v1/c.brck": read_checkpoint}
SUMMED = ("m.brrm", "c.brck")  # the version-2 files, which end in a CRC32 trailer


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("small")
    for name, write in WRITERS.items():
        write(d / name)
    shutil.copytree(V1_FILES, d / "v1")
    return d


def body(name: str, data: bytes) -> bytes:
    """A small file's bytes before its CRC32 trailer, if it has one."""
    return data[:-4] if name in SUMMED else data


def rebuilt(name: str, data: bytes) -> bytes:
    """A small file's edited body, with the trailer its version ends in."""
    return summed(data) if name in SUMMED else data


def descriptor_end(data: bytes) -> int:
    """Where a checkpoint's records start: after magic, version, length and descriptor."""
    return 9 + struct.unpack("<I", data[5:9])[0]


def record_offsets(data: bytes, start: int) -> list[int]:
    """Offsets of the back-to-back tensor records from start on, and the end of the last."""
    buf = io.BytesIO(data)
    buf.seek(start)
    offsets = [start]
    while buf.tell() < len(data):
        read_tensor(buf)
        offsets.append(buf.tell())
    return offsets


def tensor_bytes(t) -> bytes:
    buf = io.BytesIO()
    write_tensor(buf, t)
    return buf.getvalue()


class TestTensorFormat:
    def test_float_round_trip(self, rng):
        a = rng.normal(size=(3, 4, 5)).astype(np.float32).astype(np.float64)
        buf = io.BytesIO()
        write_tensor(buf, a)
        buf.seek(0)
        b = read_tensor(buf)
        assert b.shape == a.shape
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bits,signed", [(8, True), (8, False), (16, True), (32, False)])
    def test_quantized_round_trip(self, bits, signed, rng):
        p = quant_params(-2.0, 3.0, bits, signed=signed)
        q = quantize(rng.uniform(-2, 3, size=(6, 7)), p)
        buf = io.BytesIO()
        write_tensor(buf, q)
        buf.seek(0)
        r = read_tensor(buf)
        assert r.params == q.params
        assert np.array_equal(r.data, q.data)

    def test_bitpacked_round_trip(self, rng):
        t = pack(rng.choice([-1, 1], size=(5, 9)))
        buf = io.BytesIO()
        write_tensor(buf, t)
        buf.seek(0)
        r = read_tensor(buf)
        assert r == t

    def test_scalar_shape(self):
        buf = io.BytesIO()
        write_tensor(buf, np.float64(2.5))
        buf.seek(0)
        assert read_tensor(buf) == pytest.approx(2.5)

    def test_bad_magic(self):
        buf = io.BytesIO(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_tensor(buf)

    def test_truncated(self, rng):
        buf = io.BytesIO()
        write_tensor(buf, rng.normal(size=(4, 4)))
        data = buf.getvalue()[:-7]
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(data))

    @pytest.mark.parametrize("record", [
        # rank 129: more axes than numpy allows (was ValueError)
        b"QTNS" + struct.pack("<BBB129I", 1, serialize.DTYPE_F32, 129, *[1] * 129) + b"\x00" * 4,
        # 152-bit params (was KeyError)
        b"QTNS" + struct.pack("<BBBIdiBB", 1, serialize.DTYPE_I8, 1, 1, 1.0, 0, 152, 1) + b"\x00",
        # an 8-bit tag over 16-bit params (was read as 16-bit)
        b"QTNS" + struct.pack("<BBBIdiBB", 1, serialize.DTYPE_I8, 1, 1, 1.0, 0, 16, 1) + b"\x00" * 2,
        # a signed byte that is neither 0 nor 1 (was read as unsigned)
        b"QTNS" + struct.pack("<BBBIdiBB", 1, serialize.DTYPE_I8, 1, 1, 1.0, 0, 8, 2) + b"\x00",
        # 5 bits, with pad bits set in their word (was read)
        b"QTNS" + struct.pack("<BBBIQQ", 1, serialize.DTYPE_BITPACKED, 1, 5, 5, 0xFF),
    ], ids=["rank-129", "bits-152", "tag-disagrees-with-bits", "signed-byte-2", "pad-bits-set"])
    def test_malformed_record(self, record):
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(record))


class TestAtomicWrite:
    def test_writes_and_renames(self, tmp_path):
        p = tmp_path / "out.bin"
        with atomic_write(p) as f:
            f.write(b"hello")
        assert p.read_bytes() == b"hello"
        assert list(tmp_path.iterdir()) == [p]

    def test_failure_leaves_nothing(self, tmp_path):
        p = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            with atomic_write(p) as f:
                f.write(b"partial")
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_is_atomic(self, tmp_path):
        p = tmp_path / "out.bin"
        p.write_bytes(b"old")
        with atomic_write(p) as f:
            f.write(b"new")
        assert p.read_bytes() == b"new"


class TestDatasetFormat:
    def test_round_trip(self, tmp_path, rng):
        xs = rng.normal(size=(10, 4, 4, 1)).astype(np.float32).astype(np.float64)
        ys = rng.integers(0, 3, size=10)
        path = tmp_path / "d.brds"
        write_dataset(path, xs, ys, 3)
        rx, ry, nc = read_dataset(path)
        assert nc == 3
        assert np.array_equal(ry, ys)
        assert rx.tobytes() == xs.tobytes()

    def test_label_validation(self, tmp_path, rng):
        xs = rng.normal(size=(2, 3))
        with pytest.raises(FormatError):
            write_dataset(tmp_path / "d.brds", xs, [0, 5], 3)

    @pytest.mark.parametrize("n_inputs,labels,class_count", [
        (4, [0, 1], 3), (2, [0, 1, 2], 3), (2, [0, 1], 2**16),
    ], ids=["fewer-labels", "more-labels", "class-count-beyond-u16"])
    def test_writer_rejects_what_the_reader_would(self, n_inputs, labels, class_count,
                                                  tmp_path, rng):
        p = tmp_path / "d.brds"
        with pytest.raises(FormatError):
            write_dataset(p, rng.normal(size=(n_inputs, 2, 2, 1)), labels, class_count)
        assert not p.exists()

    def test_writer_rejects_more_rows_than_the_header_holds(self, tmp_path):
        # 2**32 rows as a broadcast view, so nothing of their size is
        # allocated; the row count is checked before the labels are read
        p = tmp_path / "d.brds"
        xs = np.broadcast_to(np.zeros((1, 1, 1, 1)), (2**32, 1, 1, 1))
        with pytest.raises(FormatError, match="4294967296 rows do not fit"):
            write_dataset(p, xs, [0], 1)
        assert not p.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, value, tmp_path, rng):
        xs = rng.normal(size=(3, 2, 2, 1))
        p = tmp_path / "d.brds"
        write_dataset(p, xs, [0, 1, 2], 3)
        xs[1, 0, 1, 0] = value
        with pytest.raises(FormatError, match="sample 1 holds"):
            write_dataset(tmp_path / "w.brds", xs, [0, 1, 2], 3)
        assert not (tmp_path / "w.brds").exists()
        # after the 24-byte header, each sample is a record (a 19-byte header
        # for rank 3, then 4 f32 values) and a u16 label: sample 1's second value
        data = bytearray(p.read_bytes())
        at = 24 + (19 + 16 + 2) + 19 + 4
        data[at:at + 4] = struct.pack("<f", value)
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="sample 1 holds"):
            read_dataset(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "d.brds"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            read_dataset(p)

    def test_count_beyond_file_length_rejected_before_allocation(self, tmp_path):
        # a bare 24-byte header claiming 2**32 - 1 samples of 12x12x1 (4.5 TiB as f64)
        p = tmp_path / "d.brds"
        p.write_bytes(b"BRDS" + struct.pack("<BIB3IH", 1, 2**32 - 1, 3, 12, 12, 1, 10))
        assert p.stat().st_size == 24
        with pytest.raises(FormatError, match="header claims"):
            read_dataset(p)

    def test_one_sample_short_rejected(self, tmp_path, rng):
        p = tmp_path / "d.brds"
        write_dataset(p, rng.normal(size=(3, 2, 2, 1)), [0, 1, 2], 3)
        data = bytearray(p.read_bytes())
        data[5:9] = struct.pack("<I", 4)  # the header's sample count
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="header claims"):
            read_dataset(p)

    def test_non_float_sample_rejected(self, tmp_path):
        p = tmp_path / "d.brds"
        with open(p, "wb") as f:
            f.write(b"BRDS" + struct.pack("<BIB2IH", 1, 1, 2, 4, 4, 2))
            write_tensor(f, pack(np.ones((4, 4), dtype=np.int8)))
            f.write(struct.pack("<H", 0) + b"\x00" * 64)
        with pytest.raises(FormatError, match="not a float tensor"):
            read_dataset(p)

    def test_tensor_shape_beyond_file_length_rejected_before_allocation(self, tmp_path):
        # the header (one sample of shape (2,)) fits the file, but the sample's
        # own record claims shape (2**32 - 1,): 16 GiB of f32
        p = tmp_path / "d.brds"
        p.write_bytes(b"BRDS" + struct.pack("<BIBIH", 1, 1, 1, 2, 2)
                      + b"QTNS" + struct.pack("<BBBI", 1, serialize.DTYPE_F32, 1, 2**32 - 1)
                      + b"\x00" * 10)
        with pytest.raises(FormatError, match="claims"):
            read_dataset(p)

    @pytest.mark.parametrize("pos,value", [(29, b"\x01"), (107, struct.pack("<H", 999))],
                             ids=["sample-dtype-tag", "label-999"])
    def test_malformed_sample_rejected(self, pos, value, small_files, tmp_path):
        # after the 24-byte header: sample 0's 83-byte record (magic, version,
        # tag at byte 29, ...), then its u16 label. An i8 tag reads garbage
        # params (was KeyError); label 999 is beyond the class count (was read)
        data = bytearray((small_files / "d.brds").read_bytes())
        data[pos:pos + len(value)] = value
        p = tmp_path / "d.brds"
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_dataset(p)


def read_dataset_per_record(path):
    """read_dataset with every sample read as its own record: the oracle of the one-pass read."""
    with open(path, "rb") as f, serialize._reading(f, path) as r:
        _, count, rank = r.header(serialize.DATASET_MAGIC, "IB")
        shape = r.unpack(f"{rank}I")
        (class_count,) = r.unpack("H")
        need = count * (7 + 4 * rank + 4 * math.prod(shape) + 2)
        if need > r.left:
            raise FormatError(f"header claims {count} samples of shape {shape}, "
                              f"which need at least {need} bytes; {r.left} remain")
        xs = np.empty((count,) + shape)
        ys = np.empty(count, dtype=np.int64)
        for i in range(count):
            xs[i] = serialize._read_as(r, np.ndarray, f"sample {i}", shape)
            (ys[i],) = r.unpack("H")
        if ys.max(initial=0) >= class_count:
            raise FormatError(f"labels outside [0, {class_count})")
    return xs, ys, class_count


def assert_reads_as_per_record(path):
    """read_dataset of path returns what the per-record oracle does, or raises its FormatError message."""
    try:
        want = read_dataset_per_record(path)
    except FormatError as e:
        with pytest.raises(FormatError) as got:
            read_dataset(path)
        assert str(got.value) == str(e)
        return str(e)
    got = read_dataset(path)
    assert got[2] == want[2] and got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
    assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()
    return None


class TestOnePassDatasetRead:
    """The samples are read as one array of fixed-size records; a record that fails a check is read on its own,
    so each error names the first failing record as the per-record reader does."""

    # the 24-byte header, then 6 records of 85 bytes: a 19-byte tensor header (magic, version, tag, rank, three
    # u32 dims), 16 f32 values and a u16 label
    FIELDS = {"magic": (0, b"QTNX"), "version-0": (4, b"\x00"), "version-2": (4, b"\x02"), "tag": (5, b"\x01"),
              "rank": (6, b"\x02"), "shape": (11, struct.pack("<I", 5)), "nan": (47, struct.pack("<f", np.nan)),
              "inf": (19, struct.pack("<f", -np.inf)), "label": (83, struct.pack("<H", 3))}

    @pytest.mark.parametrize("record", [0, 3, 5])
    @pytest.mark.parametrize("field", sorted(FIELDS))
    def test_a_bad_field_gives_the_per_record_message(self, field, record, small_files, tmp_path):
        at, value = self.FIELDS[field]
        data = bytearray((small_files / "d.brds").read_bytes())
        at += 24 + 85 * record
        data[at:at + len(value)] = value
        p = tmp_path / "d.brds"
        p.write_bytes(bytes(data))
        assert assert_reads_as_per_record(p) is not None

    @given(at=st.integers(0, 24 + 6 * 85 - 1), value=st.integers(0, 255))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_any_one_byte_edit_reads_as_per_record(self, at, value, tmp_path_factory):
        path = tmp_path_factory.mktemp("edit") / "d.brds"
        write_small_dataset(path)
        data = bytearray(path.read_bytes())
        data[at] = value
        path.write_bytes(bytes(data))
        assert_reads_as_per_record(path)

    @pytest.mark.parametrize("shape", [(0, 4, 4, 1), (0,), (3,), (2, 0, 3)])
    def test_zero_rows_and_odd_shapes(self, shape, tmp_path):
        p = tmp_path / "d.brds"
        write_dataset(p, ramp(*shape) if math.prod(shape) else np.zeros(shape), np.zeros(shape[0], int), 2)
        assert_reads_as_per_record(p)
        assert read_dataset(p)[0].shape == shape


def replay_image(quota, max_classes, classes, version=2) -> bytes:
    """A .brrm file: classes lists (class id, seen count, latents).  At
    version 1 each latent is a record; at version 2 a class's latents are
    stacked into one record, and a CRC32 trailer ends the file."""
    out = b"BRRM" + struct.pack("<BIII", version, quota, max_classes, len(classes))
    for c, seen, latents in classes:
        out += struct.pack("<IQI", c, seen, len(latents))
        if version == 1:
            out += b"".join(map(tensor_bytes, latents))
        elif latents:
            packed = isinstance(latents[0], BitTensor)
            out += tensor_bytes(bitpack.stack(latents) if packed else np.stack(latents))
    return out if version == 1 else summed(out)


class TestReplayMemoryFormat:
    def test_round_trip(self, tmp_path, rng):
        mem = ReplayMemory(quota=4, max_classes=5)
        batch = [
            LatentSample(activation=pack(rng.choice([-1, 1], size=(2, 3))), label=c)
            for c in (0, 2) for _ in range(6)
        ]
        update_after_experience(mem, batch, rng)
        path = tmp_path / "m.brrm"
        write_replay_memory(path, mem)
        r = read_replay_memory(path)
        assert r.quota == 4 and r.max_classes == 5
        assert r.classes == [0, 2]
        assert r.seen_counts == mem.seen_counts
        for c in r.classes:
            assert [s.activation for s in r.per_class[c]] == [s.activation for s in mem.per_class[c]]
            assert all(s.label == c for s in r.per_class[c])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.brrm"
        p.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_replay_memory(p)

    @pytest.mark.parametrize("version", [1, 2])
    def test_tensor_shape_beyond_file_length_rejected_before_allocation(self, version, tmp_path):
        # one class holding one latent whose record claims 2**32 - 1 bits
        # (at version 2, a record of one such latent)
        p = tmp_path / "m.brrm"
        shape = (2**32 - 1,) if version == 1 else (1, 2**32 - 1)
        image = (b"BRRM" + struct.pack("<BIIIIQI", version, 4, 5, 1, 0, 1, 1)
                 + b"QTNS" + struct.pack(f"<BBB{len(shape)}IQ", 1, serialize.DTYPE_BITPACKED,
                                         len(shape), *shape, 2**32 - 1))
        p.write_bytes(image if version == 1 else summed(image))
        with pytest.raises(FormatError, match="claims"):
            read_replay_memory(p)

    @pytest.mark.parametrize("quota,classes", [
        (2, [(3, 1, [signs(2, 3, 4)])]),
        (2, [(0, 1, [signs(2, 3, 4)]), (0, 1, [signs(2, 3, 4)])]),
        (1, [(0, 5, [signs(2, 3, 4)] * 2)]),
        (3, [(0, 1, [signs(2, 3, 4)] * 2)]),
        (2, [(0, 1, [signs(2, 3, 4)]), (1, 1, [signs(2, 3)])]),
        (2, [(0, 1, [ramp(2, 3, 4)])]),
        (0, []),
    ], ids=["class-above-max-classes", "class-twice", "bucket-above-quota", "bucket-above-seen",
            "mixed-latent-shapes", "float-latent", "quota-0"])
    @pytest.mark.parametrize("version", [1, 2])
    def test_malformed_memory_rejected(self, quota, classes, version, tmp_path):
        p = tmp_path / "m.brrm"
        p.write_bytes(replay_image(quota, 3, classes, version))
        with pytest.raises(FormatError):
            read_replay_memory(p)

    @pytest.mark.parametrize("count", [1, 3])
    def test_class_record_of_another_count_rejected(self, count, tmp_path):
        # the class header lists 2 latents, and its one record stacks count
        image = replay_image(4, 3, [(0, 5, [signs(2, 3, 4)] * count)])[:-4]
        at = 17 + 12  # after the file header, the class id and seen count: its latent count
        p = tmp_path / "m.brrm"
        p.write_bytes(summed(image[:at] + struct.pack("<I", 2) + image[at + 4:]))
        with pytest.raises(FormatError, match="latents have shape"):
            read_replay_memory(p)

    @pytest.mark.parametrize("version", [1, 2])
    def test_memory_image_round_trips(self, version, tmp_path):
        # replay_image writes what write_replay_memory does at version 2,
        # and a version-1 image reads back as the same memory
        p = tmp_path / "m.brrm"
        p.write_bytes(replay_image(2, 3, [(0, 5, [signs(2, 3, 4)] * 2), (2, 1, [signs(2, 3, 4, shift=1)])],
                                   version))
        mem = read_replay_memory(p)
        write_replay_memory(tmp_path / "again.brrm", mem)
        assert (tmp_path / "again.brrm").read_bytes() == replay_image(
            2, 3, [(c, mem.seen_counts[c], [s.activation for s in mem.per_class[c]]) for c in mem.classes])
        if version == 2:
            assert (tmp_path / "again.brrm").read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("shape", [(3, 3, 5), (12, 12, 5), (2, 32)], ids=["45-bit", "720-bit", "64-bit"])
    def test_one_record_per_class(self, shape, tmp_path, rng):
        # a channels-5 latent ends in pad bits: a class's latents are repacked
        # into one record without them, and read back one by one
        mem = ReplayMemory(quota=7, max_classes=4)
        update_after_experience(mem, [LatentSample(pack(rng.choice([-1, 1], size=shape)), c)
                                      for c in (0, 1, 3) for _ in range(5 + 2 * c)], rng)
        p = tmp_path / "m.brrm"
        write_replay_memory(p, mem)
        data = p.read_bytes()
        assert data.count(b"QTNS") == len(mem.classes)
        bits = math.prod(shape)
        assert len(data) == 17 + sum(16 + 7 + 4 * (1 + len(shape)) + 8 + 8 * -(-len(mem.per_class[c]) * bits // 64)
                                     for c in mem.classes) + 4
        r = read_replay_memory(p)
        assert r.seen_counts == mem.seen_counts
        for c in mem.classes:
            assert [s.activation for s in r.per_class[c]] == [s.activation for s in mem.per_class[c]]
            assert all(s.label == c for s in r.per_class[c])


class TestEveryFormat:
    @pytest.mark.parametrize("name", READERS)
    def test_trailing_bytes_rejected(self, name, small_files, tmp_path):
        # in a version-2 file, before a trailer that sums them
        p = tmp_path / name.replace("/", "-")
        data = (small_files / name).read_bytes()
        p.write_bytes(rebuilt(name, body(name, data) + b"garbage"))
        with pytest.raises(FormatError, match="7 bytes after the last record"):
            READERS[name](p)
        if name in SUMMED:  # after the trailer, they break its sum
            p.write_bytes(data + b"garbage")
            with pytest.raises(FormatError, match="CRC32 trailer does not match"):
                READERS[name](p)

    @pytest.mark.parametrize("name,sha256", [
        ("d.brds", "6b9ae9ef127fcc31bc889754718b610015e29e7cb8cc26eeac43ade06bf88166"),
        ("m.brrm", "020c649aa14a83aa79bc578c689b10ae44aea14a4b8a4cb64bdc7c079b693e59"),
        ("c.brck", "8e5d7624d7bd6c0e1380a082cce08b40df0dd8f2cd59db8fc205a132a0fb05fb"),
        ("v1/m.brrm", "7f6f46a08a94e82ebea4fa5afe85be7a0b575fd777911de40d0f82abd885fe46"),
        ("v1/c.brck", "9ee9ec31e4e7a551f2e41138305c7e5f91ee4f238aa546b6f99f21fd5cb95cf2"),
    ])
    def test_golden_bytes(self, name, sha256, small_files):
        data = (small_files / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha256
        READERS[name](small_files / name)

    def test_version_1_files_read_as_version_2(self, small_files):
        # the same memory and checkpoint, from one record per latent and f32
        # parameters, or from one record per class and parameter codes
        old, new = read_replay_memory(small_files / "v1/m.brrm"), read_replay_memory(small_files / "m.brrm")
        assert (old.quota, old.max_classes, old.seen_counts) == (new.quota, new.max_classes, new.seen_counts)
        assert {c: [s.activation for s in b] for c, b in old.per_class.items()} == {
            c: [s.activation for s in b] for c, b in new.per_class.items()}
        (g1, h1, bw1), (g2, h2, bw2) = read_checkpoint(small_files / "v1/c.brck"), read_checkpoint(
            small_files / "c.brck")
        assert bw1 == bw2 and serialize.graph_descriptor(g1, bw1) == serialize.graph_descriptor(g2, bw2)
        for a, b in zip(g1.nodes, g2.nodes):
            assert {k: v.tobytes() for k, v in a.params.items()} == {k: v.tobytes() for k, v in b.params.items()}
            assert a.weight_bits == b.weight_bits
        assert h1.cw.tobytes() == h2.cw.tobytes() and h1.seen == h2.seen
        assert np.array_equal(h1.past_counts, h2.past_counts)

    @pytest.mark.parametrize("name", SUMMED)
    def test_version_2_only_where_the_format_changed(self, name, small_files):
        # the files and the records in them: datasets and tensor records keep version 1
        data = (small_files / name).read_bytes()
        assert data[4] == 2 and small_files.joinpath("d.brds").read_bytes()[4] == 1
        start = descriptor_end(data) if name == "c.brck" else 17 + 16
        assert data[start:start + 5] == b"QTNS\x01"

    def test_small_checkpoint_holds_every_kind(self, small_files):
        g, _, _ = read_checkpoint(small_files / "c.brck")
        assert sorted(n.kind for n in g.nodes) == sorted(KINDS)

    def test_golden_tensor_records(self):
        # float, bitpacked with pad bits, and signed and unsigned integer records
        data = small_tensor_records()
        assert hashlib.sha256(data).hexdigest() == (
            "1649a6cf66b2e969f5a852d0a7fe1d95547dc31583045bffa0ef4bf40d39f754")
        assert len(record_offsets(data, 0)) == 6


class TestCheckpointFormat:
    @pytest.fixture(scope="class")
    @staticmethod
    def trained(tmp_path_factory):
        xs, ys = datasets.make_synthetic(4, 30, shape=(8, 8, 1), seed=3)
        (trx, try_), (tex, tey) = datasets.stratified_split(xs, ys, seed=3)
        cfg = ContinualConfig(num_experiences=2, epochs=1, pretrain_epochs=1,
                              quota=10, channels=8, seed=0)
        log, g, head, mem = learner.run_protocol(cfg, trx, try_, tex, tey, 4)
        return cfg, log, g, head, mem, (tex, tey)

    def test_round_trip_reproduces_accuracy(self, trained, tmp_path):
        cfg, log, g, head, mem, (tex, tey) = trained
        path = tmp_path / "c.brck"
        write_checkpoint(path, g, cfg.bitwidth, head)
        g2, head2, bw2 = read_checkpoint(path)
        assert bw2 == cfg.bitwidth
        acc_orig = learner.evaluate(g, head, tex, tey, cfg.bitwidth)
        acc_loaded = learner.evaluate(g2, head2, tex, tey, bw2)
        assert acc_loaded == acc_orig == log.final_accuracy

    def test_parameters_bit_identical(self, trained, tmp_path):
        cfg, _, g, head, mem, _ = trained
        path = tmp_path / "c.brck"
        write_checkpoint(path, g, cfg.bitwidth, head)
        g2, head2, _ = read_checkpoint(path)
        for a, b in zip(g.nodes, g2.nodes):
            assert sorted(a.params) == sorted(b.params)
            for pname in a.params:
                assert np.array_equal(a.params[pname], b.params[pname])
            if a.weight_bits is not None:
                assert a.weight_bits == b.weight_bits
            assert a.out_qparams == b.out_qparams
            assert a.param_scales == b.param_scales
        assert np.array_equal(head.cw.astype(np.float32), head2.cw.astype(np.float32))
        assert np.array_equal(head.past_counts, head2.past_counts)
        assert head.seen == head2.seen

    def test_replay_level_and_input_qparams_persist(self, trained, tmp_path):
        cfg, _, g, head, _, _ = trained
        path = tmp_path / "c.brck"
        write_checkpoint(path, g, cfg.bitwidth, head)
        g2, _, _ = read_checkpoint(path)
        assert g2.replay_level == g.replay_level
        assert g2.input_qparams == g.input_qparams
        assert g2.input_shape == g.input_shape

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.brck"
        p.write_bytes(b"JUNK" + b"\x00" * 64)
        with pytest.raises(FormatError):
            read_checkpoint(p)

    @staticmethod
    def _spliced(small_files, name: str, index: int, record: bytes) -> bytes:
        """A small checkpoint with its record index replaced."""
        data = body(name, (small_files / name).read_bytes())
        offsets = record_offsets(data, descriptor_end(data))
        i = index % (len(offsets) - 1)
        return rebuilt(name, data[:offsets[i]] + record + data[offsets[i + 1]:])

    @pytest.mark.parametrize("name", ["c.brck", "v1/c.brck"])
    @pytest.mark.parametrize("index,tensor", [
        (0, pack([1, -1])), (8, ramp(3, 3, 2, 2)), (-1, ramp(3, 5)), (-1, signs(3, 6)),
        (0, QuantizedTensor([-16, -14], QuantParams(32, 0.0625, 0, True))),
        (0, QuantizedTensor([0, 2], QuantParams(8, 0.0625, 16, False))),
        (-1, QuantizedTensor(np.zeros((3, 6)), QuantParams(8, 1.0, 0, True))),
    ], ids=["param-as-bits", "weight-bits-as-float", "head-cw-shape", "head-cw-as-bits",
            "param-as-32-bit-codes", "param-as-unsigned-codes", "head-cw-as-codes"])
    def test_record_of_the_wrong_kind_rejected(self, name, index, tensor, small_files, tmp_path):
        # record 8 is the binary conv's weight bits; a parameter may be its
        # codes only as a version-2 writer writes them: signed, 8 or 16 bits
        p = tmp_path / "c.brck"
        p.write_bytes(self._spliced(small_files, name, index, tensor_bytes(tensor)))
        with pytest.raises(FormatError, match="is not a"):
            read_checkpoint(p)

    def test_parameter_codes_only_from_version_2(self, small_files, tmp_path):
        # node 0's bias, on its pinned 16-bit grid (scale 1/16), is the record
        # of its codes at version 2; a version-1 checkpoint holds f32 only
        codes = tensor_bytes(QuantizedTensor([-16, -14], QuantParams(16, 0.0625, 0, True)))
        data = (small_files / "c.brck").read_bytes()[:-4]
        assert data[descriptor_end(data):].startswith(codes)
        g, _, _ = read_checkpoint(small_files / "c.brck")
        assert g.nodes[0].params["b"].tobytes() == np.array([-1.0, -0.875]).tobytes()
        p = tmp_path / "c.brck"
        p.write_bytes(self._spliced(small_files, "v1/c.brck", 0, codes))
        with pytest.raises(FormatError, match="node 0 param b is not a float tensor"):
            read_checkpoint(p)

    @pytest.mark.parametrize("name", ["c.brck", "v1/c.brck"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index,what", [(3, "node 1 param gamma"), (-1, "head cw")],
                             ids=["param", "head-cw"])
    def test_non_finite_weight_rejected(self, index, what, value, name, small_files, tmp_path):
        g, head, bw = read_checkpoint(small_files / name)
        w = g.nodes[1].params["gamma"] if index == 3 else head.cw
        w[0] = value
        p = tmp_path / "c.brck"
        with pytest.raises(FormatError, match=f"{what} holds a NaN or infinite value"):
            write_checkpoint(p, g, bw, head)
        assert not p.exists()
        # the same weights spliced into a checkpoint on disk; record 3 is node 1's gamma, after beta
        p.write_bytes(self._spliced(small_files, name, index, tensor_bytes(w)))
        with pytest.raises(FormatError, match=f"{what} holds a NaN or infinite value"):
            read_checkpoint(p)

    def test_codes_past_float32_rejected(self, small_files, tmp_path):
        # codes times a scale that float32 cannot hold read back as infinite
        p = tmp_path / "c.brck"
        p.write_bytes(self._spliced(small_files, "c.brck", 0, tensor_bytes(
            QuantizedTensor([-16, -14], QuantParams(16, 1e300, 0, True)))))
        with pytest.raises(FormatError, match="node 0 param b holds a NaN or infinite value"):
            read_checkpoint(p)

    @pytest.mark.parametrize("name", ["c.brck", "v1/c.brck"])
    @pytest.mark.parametrize("blob", [b'{"\xff": 1}', b"{", b"[]", b"[" * 200_000],
                             ids=["not-utf8", "not-json", "not-an-object", "nested-too-deep"])
    def test_malformed_descriptor_bytes(self, blob, name, small_files, tmp_path):
        data = body(name, (small_files / name).read_bytes())
        p = tmp_path / "c.brck"
        p.write_bytes(rebuilt(name, data[:5] + struct.pack("<I", len(blob)) + blob + data[descriptor_end(data):]))
        with pytest.raises(FormatError, match="descriptor|JSON|Expecting|codec|recursion"):
            read_checkpoint(p)


class TestParameterCodes:
    """A deployed model's version-2 checkpoint holds each parameter that
    store_param keeps on a grid of at most 16 bits as the record of its
    codes, and reads back byte for byte, zeros and their signs too."""

    @given(bits=st.tuples(*(st.sampled_from((*BITWIDTHS[k], None)) for k in ("q_f", "q_b_nonbin", "q_b_bin"))),
           seed=st.integers(0, 2**16), zeros=st.floats(0.0, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_deployed_model_round_trips(self, bits, seed, zeros, tmp_path_factory):
        rng = np.random.default_rng(seed)
        bw = BitwidthConfig(*bits)
        cfg = ContinualConfig(bitwidth=bw, channels=4, b_n=4, b_r=4)
        g = learner.build_reference_model((6, 6, 1), channels=4, seed=seed)
        xs = rng.uniform(-1.0, 1.0, size=(8, 6, 6, 1))
        learner.initialize_bn_stats(g, xs)
        learner.calibrate_activations(g, xs, bw.q_f)
        for node in g.nodes:  # zeros of either sign, where the values are held as they are and where they snap
            for v in node.params.values():
                v[rng.random(v.shape) < zeros] = rng.choice([0.0, -0.0])
        learner.freeze_backbone(g, cfg)
        head = cwr.init(4, 3)
        cwr.begin_experience(head, (0, 1, 2))
        latents = bitpack.from01(rng.integers(0, 2, size=(8, 6, 6, 4)))
        learner._train_step(g, head, latents, rng.integers(0, 3, size=8), 0.3, bw, from_level=g.replay_level)
        path = tmp_path_factory.mktemp("codes") / "c.brck"
        write_checkpoint(path, g, bw, head)
        g2, _, _ = read_checkpoint(path)
        for a, b in zip(g.nodes, g2.nodes):
            assert {k: v.tobytes() for k, v in a.params.items()} == {k: v.tobytes() for k, v in b.params.items()}
            assert a.weight_bits == b.weight_bits
            held = [k for k in KINDS[a.kind].trained if a.trainable and k in a.params]
            width = bw.q_b_bin if a.kind in BINARY_KINDS else bw.q_b_nonbin
            for k in held:  # every value store_param holds: +0.0 for zero, and a code at 16 bits or fewer
                assert not np.signbit(a.params[k][a.params[k] == 0]).any()
                coded = isinstance(serialize._param_record(a, k, bw), QuantizedTensor)
                assert coded == (width is not None and width <= 16), (a.name, k)


FLIPS = (0x01, 0x80, 0xFF)


def flipped(data: bytes, pos: int, mask: int) -> bytes:
    return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]


def loads(read, path) -> bool:
    """Whether read(path) loads; False if it raises FormatError, and any other
    exception fails the test."""
    try:
        read(path)
    except FormatError:
        return False
    return True


def number_paths(obj, path=()) -> list[tuple]:
    """The key path of every number in a JSON value, through its objects and lists."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [p for k, v in items for p in number_paths(v, (*path, k))]
    return [path] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []


class TestFuzz:
    """Every truncation of a small file of each format raises FormatError, and
    so does every single-byte flip of a version-2 file.  Every single-byte
    flip of a version-1 file, or of a version-2 file's body with its trailer
    summed again, and every descriptor number set past its range, either
    loads or raises FormatError."""

    @pytest.mark.parametrize("name", READERS)
    def test_every_truncation(self, name, small_files, tmp_path):
        data = (small_files / name).read_bytes()
        p = tmp_path / name.replace("/", "-")
        for n in range(len(data)):
            p.write_bytes(data[:n])
            assert not loads(READERS[name], p), f"a {n}-byte prefix loads"

    @pytest.mark.parametrize("name", SUMMED)
    def test_every_flip_of_a_version_2_file(self, name, small_files, tmp_path):
        data = (small_files / name).read_bytes()
        p = tmp_path / name
        for pos, mask in itertools.product(range(len(data)), FLIPS):
            p.write_bytes(flipped(data, pos, mask))
            assert not loads(READERS[name], p), f"a flip of byte {pos} by {mask:#x} loads"
        # the version byte read as 1: the trailer is left over after the last record
        p.write_bytes(data[:4] + b"\x01" + data[5:])
        assert not loads(READERS[name], p)

    @pytest.mark.parametrize("name", READERS)
    def test_every_flip_outside_the_descriptor(self, name, small_files, tmp_path):
        # headers, record headers and payloads byte by byte, behind a trailer
        # that sums them; positions in the checkpoint's JSON descriptor are
        # drawn by the test below
        data = body(name, (small_files / name).read_bytes())
        descriptor = range(9, descriptor_end(data)) if name.endswith("c.brck") else range(0)
        p = tmp_path / name.replace("/", "-")
        for pos, mask in itertools.product(range(len(data)), FLIPS):
            if pos not in descriptor:
                p.write_bytes(rebuilt(name, flipped(data, pos, mask)))
                loads(READERS[name], p)

    @pytest.mark.parametrize("name", ["c.brck", "v1/c.brck"])
    @pytest.mark.parametrize("value", [10**400, -10**400, 2**63, 2**64],
                             ids=["10**400", "-10**400", "2**63", "2**64"])
    def test_every_descriptor_number_past_range(self, value, name, small_files, tmp_path):
        # past float64's range, or past the int64 that numpy takes
        data = body(name, (small_files / name).read_bytes())
        desc = json.loads(data[9:descriptor_end(data)])
        p = tmp_path / "c.brck"
        for path in number_paths(desc):
            bad = json.loads(json.dumps(desc))
            *parents, leaf = path
            functools.reduce(operator.getitem, parents, bad)[leaf] = value
            blob = json.dumps(bad, sort_keys=True).encode()
            p.write_bytes(rebuilt(name, data[:5] + struct.pack("<I", len(blob)) + blob
                                  + data[descriptor_end(data):]))
            if loads(read_checkpoint, p):
                assert main(["eval", "--checkpoint", str(p),
                             "--dataset", str(small_files / "d.brds")]) in (0, 1), path

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_checkpoint_flip_loads_or_is_exit_1(self, small_files, data):
        # a flip of either version's body, behind a version-2 trailer that sums it
        name = data.draw(st.sampled_from(["c.brck", "v1/c.brck"]), label="name")
        ckpt = body(name, (small_files / name).read_bytes())
        pos = data.draw(st.integers(0, len(ckpt) - 1), label="pos")
        p = small_files / "flipped.brck"
        p.write_bytes(rebuilt(name, flipped(ckpt, pos, data.draw(st.sampled_from(FLIPS), label="mask"))))
        if loads(read_checkpoint, p):
            assert main(["eval", "--checkpoint", str(p),
                         "--dataset", str(small_files / "d.brds")]) in (0, 1)
