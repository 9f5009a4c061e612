"""File formats: round trips, atomicity, corruption detection."""

import io
import os
import struct

import numpy as np
import pytest

from binreplay import cwr, datasets, learner, serialize
from binreplay.bitpack import pack
from binreplay.graph import BitwidthConfig
from binreplay.learner import ContinualConfig
from binreplay.quant import quant_params, quantize
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

    def test_tensor_shape_beyond_file_length_rejected_before_allocation(self, tmp_path):
        # one class holding one latent whose record claims 2**32 - 1 bits
        p = tmp_path / "m.brrm"
        p.write_bytes(b"BRRM" + struct.pack("<BIIIIQI", 1, 4, 5, 1, 0, 1, 1)
                      + b"QTNS" + struct.pack("<BBBIQ", 1, serialize.DTYPE_BITPACKED, 1,
                                              2**32 - 1, 2**32 - 1))
        with pytest.raises(FormatError, match="claims"):
            read_replay_memory(p)


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
