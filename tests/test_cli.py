"""Command-line interface: end-to-end runs against real files in tmp dirs."""

import json
import os
import struct

import numpy as np
import pytest

from binreplay import serialize
from binreplay.cli import main


def write_config(path, dataset_dir, out_dir, **overrides):
    cfg = {
        "model": {"channels": 8},
        "replay": {"quota": 10, "b_n": 8, "b_r": 16},
        "protocol": {"num_experiences": 2, "epochs": 1,
                     "pretrain_epochs": 2, "seed": 0},
        "dataset": str(dataset_dir),
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    rc = main(["synth", "--out", str(d), "--classes", "4",
               "--samples-per-class", "30", "--shape", "8,8,1", "--seed", "3"])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def trained_dir(dataset_dir, tmp_path_factory):
    base = tmp_path_factory.mktemp("run")
    cfg_path = write_config(base / "cfg.json", dataset_dir, base / "out")
    assert main(["train", "--config", str(cfg_path)]) == 0
    return base / "out"


class TestSynth:
    def test_writes_both_splits(self, dataset_dir):
        xs, ys, nc = serialize.read_dataset(dataset_dir / "train.brds")
        assert nc == 4 and xs.shape == (96, 8, 8, 1)
        xs, ys, nc = serialize.read_dataset(dataset_dir / "test.brds")
        assert nc == 4 and len(xs) == 24

    def test_byte_identical_across_runs(self, tmp_path):
        args = ["--classes", "3", "--samples-per-class", "5", "--shape", "6,6,1",
                "--seed", "12"]
        for sub in ("a", "b"):
            assert main(["synth", "--out", str(tmp_path / sub)] + args) == 0
        for name in ("train.brds", "test.brds"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bad_shape_rejected(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--shape", "6,6"]) == 1


class TestTrain:
    def test_outputs_exist(self, trained_dir):
        for name in ("metrics.csv", "timings.csv", "checkpoint.brck", "replay.brrm"):
            assert (trained_dir / name).exists()

    def test_metrics_rows(self, trained_dir):
        lines = (trained_dir / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("experience,test_accuracy")
        assert len(lines) == 3  # header + one row per experience

    def test_metrics_byte_identical_for_same_seed(self, dataset_dir, tmp_path):
        outs = []
        for sub in ("x", "y"):
            out = tmp_path / sub
            cfg = write_config(tmp_path / f"{sub}.json", dataset_dir, out)
            assert main(["train", "--config", str(cfg)]) == 0
            outs.append((out / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_metrics(self, dataset_dir, trained_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, tmp_path / "out")
        assert main(["train", "--config", str(cfg), "--seed", "5"]) == 0
        assert ((tmp_path / "out" / "metrics.csv").read_bytes()
                != (trained_dir / "metrics.csv").read_bytes())

    def test_sweep_writes_tagged_outputs(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, tmp_path / "out")
        raw = json.loads(cfg.read_text())
        raw["sweep"] = {"bitwidth.q_b_bin": ["1", "4", "8", "16"]}
        cfg.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg)]) == 0
        names = sorted(p.name for p in (tmp_path / "out").glob("metrics_*.csv"))
        assert names == ["metrics_q_b_bin1.csv", "metrics_q_b_bin16.csv",
                         "metrics_q_b_bin4.csv", "metrics_q_b_bin8.csv"]

    def test_unknown_config_key(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, tmp_path / "out",
                           nonsense=True)
        assert main(["train", "--config", str(cfg)]) == 1

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert main(["train", "--config", str(p)]) == 1

    def test_missing_dataset_key(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"output_dir": str(tmp_path)}))
        assert main(["train", "--config", str(p)]) == 1

    def test_bad_bitwidth_string(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, tmp_path / "out",
                           bitwidth={"q_f": "7"})
        assert main(["train", "--config", str(cfg)]) == 1


class TestEval:
    def test_reproduces_metrics_accuracy(self, trained_dir, dataset_dir, capsys):
        rc = main(["eval", "--checkpoint", str(trained_dir / "checkpoint.brck"),
                   "--dataset", str(dataset_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        acc_line = next(l for l in out.splitlines() if l.startswith("accuracy "))
        last_row = (trained_dir / "metrics.csv").read_text().splitlines()[-1]
        csv_acc = last_row.split(",")[1]
        assert acc_line == f"accuracy {csv_acc}"

    def test_corrupted_checkpoint(self, trained_dir, dataset_dir, tmp_path):
        bad = tmp_path / "bad.brck"
        data = bytearray((trained_dir / "checkpoint.brck").read_bytes())
        data[:4] = b"XXXX"
        bad.write_bytes(bytes(data))
        assert main(["eval", "--checkpoint", str(bad),
                     "--dataset", str(dataset_dir)]) == 1

    def test_dataset_count_beyond_file_length(self, trained_dir, tmp_path, capsys):
        p = tmp_path / "huge.brds"
        p.write_bytes(b"BRDS" + struct.pack("<BIB3IH", 1, 2**32 - 1, 3, 8, 8, 1, 4))
        assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint.brck"),
                     "--dataset", str(p)]) == 1
        assert "header claims" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate", [
        lambda d: d["input_qparams"].update(extra=1),
        lambda d: d["nodes"][0]["out_qparams"].pop("scale"),
        lambda d: d["nodes"][0]["attrs"]["spec"].update(dilation=1),
        lambda d: d["nodes"][0]["attrs"]["spec"].pop("stride"),
        lambda d: d["bitwidth"].update(q_x="8"),
        lambda d: d["bitwidth"].pop("q_f"),
        lambda d: d["head"].update(bias=0),
        lambda d: d["head"].pop("seen"),
        lambda d: d.pop("head"),
        lambda d: d["nodes"][0].pop("inputs"),
        lambda d: d["input_qparams"].update(scale="x"),
        lambda d: d["nodes"][0]["attrs"]["spec"].update(stride="1"),
        lambda d: d["bitwidth"].update(q_f=8.0),
        lambda d: d["head"].update(max_classes="4"),
        lambda d: d["head"].update(seen=["0"]),
        lambda d: d.update(nodes=5),
        lambda d: d["nodes"][0].update(inputs="x"),
        lambda d: d["nodes"][0].update(param_names=5),
        lambda d: d["nodes"][3]["attrs"].update(eps="x"),
    ], ids=["qparams-extra", "qparams-missing", "spec-extra", "spec-missing",
            "bitwidth-extra", "bitwidth-missing", "head-extra", "head-missing-key",
            "head-missing", "node-missing-key", "qparams-type", "spec-type",
            "bitwidth-type", "head-type", "head-list-type", "nodes-type", "node-inputs-type",
            "node-param-names-type", "node-attr-type"])
    def test_malformed_descriptor(self, mutate, trained_dir, dataset_dir, tmp_path):
        data = (trained_dir / "checkpoint.brck").read_bytes()
        (blen,) = struct.unpack("<I", data[5:9])  # magic, version byte, blob length
        desc = json.loads(data[9 : 9 + blen])
        mutate(desc)
        blob = json.dumps(desc, sort_keys=True).encode()
        bad = tmp_path / "bad.brck"
        bad.write_bytes(data[:5] + struct.pack("<I", len(blob)) + blob + data[9 + blen:])
        with pytest.raises(serialize.FormatError):
            serialize.read_checkpoint(bad)
        assert main(["eval", "--checkpoint", str(bad), "--dataset", str(dataset_dir)]) == 1

    def test_tensor_shape_beyond_file_length(self, trained_dir, dataset_dir, tmp_path, capsys):
        data = bytearray((trained_dir / "checkpoint.brck").read_bytes())
        (blen,) = struct.unpack("<I", data[5:9])
        # the first tensor record (stem_conv's bias): magic, 3 bytes, then its shape
        data[9 + blen + 7 : 9 + blen + 11] = struct.pack("<I", 2**32 - 1)
        bad = tmp_path / "bad.brck"
        bad.write_bytes(bytes(data))
        with pytest.raises(serialize.FormatError, match="claims"):
            serialize.read_checkpoint(bad)
        assert main(["eval", "--checkpoint", str(bad), "--dataset", str(dataset_dir)]) == 1
        assert "claims" in capsys.readouterr().err

    def test_class_count_mismatch(self, trained_dir, tmp_path):
        other = tmp_path / "other"
        main(["synth", "--out", str(other), "--classes", "3",
              "--samples-per-class", "5", "--shape", "8,8,1"])
        assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint.brck"),
                     "--dataset", str(other)]) == 1


class TestReport:
    def test_table_and_csv(self, trained_dir, capsys):
        assert main(["report", "--metrics-dir", str(trained_dir)]) == 0
        out = capsys.readouterr().out
        assert "final_acc" in out
        report = (trained_dir / "report.csv").read_text().splitlines()
        assert report[0] == ("config,final_accuracy,replay_bits,float32_replay_bits,"
                             "replay_reduction,mac_ratio")
        row = report[1].split(",")
        assert row[0] == "metrics"
        assert int(row[3]) == 32 * int(row[2])  # float32 baseline is exactly 32x
        assert row[4] == "32"

    def test_empty_dir(self, tmp_path):
        assert main(["report", "--metrics-dir", str(tmp_path)]) == 1


class TestThreadsEnv:
    def test_invalid_value_exits_1(self, monkeypatch, capsys):
        monkeypatch.setenv("BINREPLAY_THREADS", "zero")
        assert main(["report", "--metrics-dir", "/nonexistent"]) == 1
        assert "BINREPLAY_THREADS" in capsys.readouterr().err

    def test_valid_value_accepted(self, monkeypatch, tmp_path):
        monkeypatch.setenv("BINREPLAY_THREADS", "2")
        assert main(["synth", "--out", str(tmp_path), "--classes", "2",
                     "--samples-per-class", "5", "--shape", "6,6,1"]) == 0


class TestImportIdx:
    def _write_idx(self, path, arr, code):
        with open(path, "wb") as f:
            f.write(struct.pack(">HBB", 0, code, arr.ndim))
            f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
            f.write(arr.astype(arr.dtype.newbyteorder(">")).tobytes())

    def test_round_trip(self, tmp_path, rng):
        imgs = rng.integers(0, 256, size=(10, 6, 6)).astype(np.uint8)
        labels = rng.integers(0, 3, size=10).astype(np.uint8)
        self._write_idx(tmp_path / "imgs.idx", imgs, 0x08)
        self._write_idx(tmp_path / "labels.idx", labels, 0x08)
        out = tmp_path / "imported.brds"
        assert main(["import-idx", "--images", str(tmp_path / "imgs.idx"),
                     "--labels", str(tmp_path / "labels.idx"), "--out", str(out)]) == 0
        xs, ys, nc = serialize.read_dataset(out)
        assert xs.shape == (10, 6, 6, 1)
        assert np.array_equal(ys, labels)
        assert nc == int(labels.max()) + 1
        assert xs.min() >= -1.0 and xs.max() <= 1.0
        # scaling is linear in the raw pixel value, normalized by the max
        expect = imgs[..., None] / float(imgs.max()) * 2.0 - 1.0
        np.testing.assert_allclose(xs, expect.astype(np.float32), atol=1e-6)

    def test_not_idx(self, tmp_path):
        (tmp_path / "junk").write_bytes(b"\xff\xff\x08\x01" + b"\x00" * 8)
        assert main(["import-idx", "--images", str(tmp_path / "junk"),
                     "--labels", str(tmp_path / "junk"), "--out",
                     str(tmp_path / "o.brds")]) == 1
