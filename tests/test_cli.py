"""Command-line interface: end-to-end runs against real files in tmp dirs."""

import dataclasses
import io
import json
import os
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binreplay import cli, learner, serialize
from binreplay.bitpack import pack
from binreplay.cli import SETTINGS, continual_config, load_run_config, main
from binreplay.graph import BITWIDTHS, BitwidthConfig
from binreplay.learner import ContinualConfig
from helpers import summed


# every kind of JSON value, with numbers at and past float64's range
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(-10**400, 10**400) | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64, 10**400])
    | st.floats() | st.sampled_from([5e-324, 1e308, float("nan"), float("inf"), -float("inf")]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)


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


def _train_outputs(out_dir, tag=""):
    """The bytes of one run's metrics, checkpoint and replay memory."""
    suffix = f"_{tag}" if tag else ""
    return {name: (out_dir / f"{name}{suffix}{ext}").read_bytes()
            for name, ext in (("metrics", ".csv"), ("checkpoint", ".brck"), ("replay", ".brrm"))}


def _config_at(path, dataset_dir, out_dir, dotted, value):
    """write_config, with the dotted key set to value."""
    write_config(path, dataset_dir, out_dir)
    raw = json.loads(path.read_text())
    *parents, leaf = dotted.split(".")
    cur = raw
    for p in parents:
        cur = cur.setdefault(p, {})
    cur[leaf] = value
    path.write_text(json.dumps(raw))
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


@pytest.fixture
def pretrainings(monkeypatch):
    """The config of each learner.pretrain_first_experience call, in order."""
    calls = []
    orig = learner.pretrain_first_experience

    def spy(*args):
        calls.append(args[0])
        return orig(*args)

    monkeypatch.setattr(learner, "pretrain_first_experience", spy)
    return calls


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

    def test_bad_shape_rejected(self, tmp_path, capsys):
        # a zero extent failed inside numpy after the classes were drawn, and
        # a non-integer one in int(), whose message named no flag
        for shape in ("6,6", "12,12,0", "0,12,1", "a,b,c"):
            assert main(["synth", "--out", str(tmp_path / "d"), "--shape", shape]) == 1
            assert "--shape must be" in capsys.readouterr().err
            assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("taken", ["out", "below a file", "train.brds", "test.brds"])
    def test_taken_output_refused_before_generation(self, taken, tmp_path, monkeypatch, capsys):
        # os.makedirs once raised FileExistsError after the dataset was built
        # (exit 2); then an --out naming a file, or a path below one, was
        # refused only after the whole dataset was generated, and a split
        # path naming a directory failed in the writer
        def generated(*args, **kwargs):
            raise AssertionError("make_synthetic ran")

        monkeypatch.setattr(cli.datasets, "make_synthetic", generated)
        out = tmp_path / "d"
        if taken == "out":
            out.write_text("kept")
            want = f"cannot make --out directory {out}: it is not a directory"
        elif taken == "below a file":
            out.write_text("kept")
            out, file = out / "sub", out
            want = f"cannot make --out directory {out}: {file} is not a directory"
        else:
            (out / taken).mkdir(parents=True)
            want = f"cannot write {out / taken}: it is a directory"
        before = sorted(tmp_path.rglob("*"))
        assert main(["synth", "--out", str(out), "--classes", "3", "--samples-per-class", "5",
                     "--shape", "6,6,1"]) == 1
        assert want in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "d").is_dir() or (tmp_path / "d").read_text() == "kept"

    @pytest.mark.parametrize("n", [1, 2**16])
    def test_class_count_rejected(self, n, tmp_path, capsys):
        # 2**16 classes do not fit the dataset header: the writer refused
        # them only after the whole dataset was built
        assert main(["synth", "--out", str(tmp_path / "d"), "--classes", str(n),
                     "--samples-per-class", "3", "--shape", "1,1,1"]) == 1
        assert "--classes must be" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_too_few_samples_per_class(self, n, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "d"), "--classes", "3",
                     "--samples-per-class", str(n), "--shape", "6,6,1"]) == 1
        assert ">= 3" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("classes,n", [(10, 10**12), (2, (2**32 - 1) // 2 + 1)])
    def test_more_rows_than_a_dataset_file_holds_rejected(self, classes, n, tmp_path, capsys):
        # the header's u32 row count: 10**12 per class once tried to allocate 10.2 PiB, exit 2
        assert main(["synth", "--out", str(tmp_path / "d"), "--classes", str(classes),
                     "--samples-per-class", str(n), "--shape", "12,12,1"]) == 1
        assert "--samples-per-class must be" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_failed_generation_leaves_no_out(self, tmp_path, monkeypatch, capsys):
        # --out was made before the rows were drawn, so a failed synth left it behind, empty
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 4.19 TiB")

        monkeypatch.setattr(cli.datasets, "make_synthetic", out_of_memory)
        assert main(["synth", "--out", str(tmp_path / "d"), "--classes", "10",
                     "--samples-per-class", "400000000", "--shape", "12,12,1"]) == 2
        assert "4.19 TiB" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_three_samples_per_class_fill_both_splits(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--classes", "3",
                     "--samples-per-class", "3", "--shape", "6,6,1"]) == 0
        for name, rows in (("train.brds", 2), ("test.brds", 1)):
            _, ys, _ = serialize.read_dataset(tmp_path / name)
            assert np.bincount(ys).tolist() == [rows] * 3


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

    @pytest.mark.parametrize("flag,value,dotted", [
        ("--seed", "-1", "protocol.seed"), ("--out", "", "output_dir"),
    ])
    def test_bad_override_rejected_before_any_run(self, flag, value, dotted, dataset_dir,
                                                  tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, tmp_path / "out")
        assert main(["train", "--config", str(cfg), flag, value]) == 1
        assert f"config.{dotted} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_sample_rejected_before_any_run(self, dataset_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "test.brds").write_bytes((dataset_dir / "test.brds").read_bytes())
        train = bytearray((dataset_dir / "train.brds").read_bytes())
        train[24 + 19 : 24 + 23] = struct.pack("<f", np.nan)  # sample 0's first pixel
        (data / "train.brds").write_bytes(bytes(train))
        cfg = write_config(tmp_path / "cfg.json", data, tmp_path / "out")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "sample 0 holds a NaN" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_dir_naming_a_file_rejected_before_any_run(self, dataset_dir, tmp_path,
                                                              capsys, pretrainings):
        # the whole protocol ran, then os.makedirs raised FileExistsError: exit 2
        out = tmp_path / "out"
        out.write_text("kept")
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, out)
        assert main(["train", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert f"cannot make output_dir {out}" in captured.err
        assert "final accuracy" not in captured.out
        assert pretrainings == [] and out.read_text() == "kept"

    @pytest.mark.parametrize("name", ["checkpoint.brck", "replay.brrm", "metrics.csv", "timings.csv",
                                      "checkpoint_q_b_bin4.brck"])
    def test_output_file_that_is_a_directory_rejected_before_any_run(self, name, dataset_dir, tmp_path,
                                                                     capsys, pretrainings):
        # the whole protocol ran, then the rename onto the directory exited 2
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        sweep = {"sweep": {"bitwidth.q_b_bin": ["1", "4"]}} if "q_b_bin" in name else {}
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, out, **sweep)
        assert main(["train", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert f"cannot write {out / name}: it is a directory" in captured.err
        assert "final accuracy" not in captured.out
        assert pretrainings == [] and sorted(p.name for p in out.iterdir()) == [name]

    def test_missing_dataset_in_a_sweep_rejected_before_any_run(self, dataset_dir, tmp_path,
                                                                capsys, pretrainings):
        # variant 1 trained and wrote its outputs before variant 2's dataset was read
        missing = tmp_path / "missing"
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, tmp_path / "out",
                           sweep={"dataset": [str(dataset_dir), str(missing)]})
        assert main(["train", "--config", str(cfg)]) == 1
        assert f"cannot read dataset {missing}" in capsys.readouterr().err
        assert pretrainings == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [b"[" * 200_000 + b"]" * 200_000, b'{"dataset": "\xff"}'],
                             ids=["nested-too-deep", "not-utf-8"])
    def test_unparsable_config_names_its_path(self, text, tmp_path, capsys):
        # json's RecursionError exited 2; a UnicodeDecodeError named no file
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        assert main(["train", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")

    def test_timings_row_0_counts_the_pretraining_of_its_own_variant(self, dataset_dir, tmp_path,
                                                                     monkeypatch, pretrainings):
        # a clock that only the pretraining advances, by 1000 s
        clock = [0.0]
        monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
        counted = learner.pretrain_first_experience

        def pretrain(*args):
            clock[0] += 1000.0
            return counted(*args)

        monkeypatch.setattr(learner, "pretrain_first_experience", pretrain)
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, out,
                           sweep={"bitwidth.q_b_bin": ["1", "4"]})
        assert main(["train", "--config", str(cfg)]) == 0
        assert len(pretrainings) == 1
        rows = [(out / f"timings_q_b_bin{v}.csv").read_text().splitlines()[1:] for v in "14"]
        assert rows == [["0,1000000.0", "1,0.0"], ["0,0.0", "1,0.0"]]

    @pytest.mark.parametrize("bitwidth", [{}, dict.fromkeys(("q_f", "q_b_nonbin", "q_b_bin"), "float")],
                             ids=["8-16-4", "float"])
    def test_diverged_run_writes_no_state_and_no_metrics(self, bitwidth, dataset_dir, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, out, bitwidth=bitwidth,
                           protocol={"num_experiences": 2, "epochs": 1, "pretrain_epochs": 2,
                                     "seed": 0, "lr": 1e300})
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(cfg)]) == 1
        assert "holds a NaN or infinite value" in capsys.readouterr().err
        assert not any(out.glob("*.*"))

    def test_sweep_writes_tagged_outputs(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, tmp_path / "out")
        raw = json.loads(cfg.read_text())
        raw["sweep"] = {"bitwidth.q_b_bin": ["1", "4", "8", "16"]}
        cfg.write_text(json.dumps(raw))
        assert main(["train", "--config", str(cfg)]) == 0
        names = sorted(p.name for p in (tmp_path / "out").glob("metrics_*.csv"))
        assert names == ["metrics_q_b_bin1.csv", "metrics_q_b_bin16.csv",
                         "metrics_q_b_bin4.csv", "metrics_q_b_bin8.csv"]

    def test_sweep_tags_hold_no_path_separator(self, dataset_dir, tmp_path, monkeypatch, capsys):
        # "./data" would write metrics_dataset./data.csv: a file in a new directory
        monkeypatch.chdir(dataset_dir.parent)
        name, out = dataset_dir.name, tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, out,
                           sweep={"dataset": [name, f".{os.sep}{name}"]})
        assert main(["train", "--config", str(cfg)]) == 0
        assert all(p.is_file() for p in out.iterdir())
        metrics = sorted(p.name for p in out.glob("metrics_*.csv"))
        assert metrics == [f"metrics_dataset._{name}.csv", f"metrics_dataset{name}.csv"]
        capsys.readouterr()
        assert main(["report", "--metrics-dir", str(out)]) == 0
        listed = [line.split(",")[0] for line in (out / "report.csv").read_text().splitlines()[1:]]
        assert listed == [m[:-len(".csv")] for m in metrics]

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

    @pytest.mark.parametrize("dotted,value", [
        ("model.preset", "resnet50"),
        ("model.channels", "32"),
        ("model.channels", 0),
        ("model.channels", True),
        ("replay.quota", 0),
        ("replay.quota", 2**32),  # replay.brrm stores it as a u32
        ("replay.b_n", 0),
        ("replay.b_r", -1),
        ("replay.b_r", 1.5),
        ("protocol.num_experiences", 0),
        ("protocol.epochs", "1"),
        ("protocol.epochs", 0),
        ("protocol.pretrain_epochs", 0),
        ("protocol.lr", "x"),
        ("protocol.lr", 0),
        ("protocol.lr", float("inf")),
        pytest.param("protocol.lr", 10**400, id="protocol.lr-10**400"),  # past float64's range
        pytest.param("protocol.pretrain_lr", 10**400, id="protocol.pretrain_lr-10**400"),
        ("protocol.pretrain_lr", -0.2),
        ("protocol.seed", -1),
        ("protocol.head_only", "no"),
        ("protocol.head_only", 0),
        ("dataset", 5),
        ("output_dir", ""),
    ])
    def test_bad_value(self, dotted, value, dataset_dir, tmp_path, capsys):
        cfg = _config_at(tmp_path / "cfg.json", dataset_dir, tmp_path / "out", dotted, value)
        assert main(["train", "--config", str(cfg)]) == 1
        assert f"config.{dotted} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @given(key=st.sampled_from(list(SETTINGS)), value=JSON_VALUES)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_any_value_loads_or_is_a_config_error(self, key, value, tmp_path_factory):
        cfg = _config_at(tmp_path_factory.getbasetemp() / "any_value.json", "data", "out", key, value)
        try:
            loaded = load_run_config(str(cfg))
        except cli.ConfigError as e:
            head, got = str(e).split(", got ", 1)
            assert head.startswith(f"config.{key} must be ")
            assert len(got) <= 60  # a long value is cut short
        else:
            assert loaded[key] == value

    @pytest.mark.parametrize("dotted,value,rc", [
        ("replay.quota", 2**32 - 1, 0),
        ("replay.b_n", 10**6, 0),
        ("protocol.seed", 2**128, 0),
        ("protocol.lr", 5e-324, 0),
        ("protocol.pretrain_lr", 1e308, 1),  # diverges
    ])
    def test_accepted_edge_value_runs(self, dotted, value, rc, dataset_dir, tmp_path):
        cfg = _config_at(tmp_path / "cfg.json", dataset_dir, tmp_path / "out", dotted, value)
        assert main(["train", "--config", str(cfg)]) == rc

    @pytest.mark.parametrize("sweep", [
        {"model.channels": [4, "8"]},
        {"protocol.epochs": [1, 0]},
        {"protocol.epochs": 1},
        {"protocol": [{"epochs": 1}]},
        {"protocol.epochs": [1], "model.channels": [4]},
        {"model.depth": [1]},
        {"bitwidth.q_b_bin": []},
        {"protocol.lr": [0.3, 0.3]},
        {"protocol.lr": [1, 1.0]},
        {"dataset": [f"a{os.sep}b", "a_b"]},
        # a long value or key is echoed in at most 60 characters
        {"protocol.seed": [10**400, 10**400]},
        {"dataset": [f"a{os.sep}b" + "x" * 400, "a_b" + "x" * 400]},
        {"x" * 400: [1]},
    ], ids=["value-type", "value-range", "not-a-list", "object-key", "two-axes", "unknown-key",
            "empty", "value-twice", "equal-values", "same-tag", "huge-value-twice", "long-same-tag",
            "long-unknown-key"])
    def test_bad_sweep_rejected_before_any_run(self, sweep, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, tmp_path / "out", sweep=sweep)
        assert main(["train", "--config", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()
        assert len(capsys.readouterr().err) < 250

    def test_help_defaults_load_to_the_table(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        raw = json.loads(capsys.readouterr().out.split("Config defaults: ", 1)[1])
        raw["dataset"] = "data"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        loaded = load_run_config(str(cfg))
        want = {key: default for key, (default, *_) in SETTINGS.items()}
        want["dataset"] = "data"
        assert [(k, type(v), v) for k, v in loaded.items()] == [
            (k, type(v), v) for k, v in want.items()]

    def test_sweep_variants_differ_only_at_the_swept_key(self, dataset_dir, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json", dataset_dir, tmp_path / "out",
                           sweep={"bitwidth.q_b_bin": ["1", "8"]})
        base = load_run_config(str(cfg))
        del base["sweep"]
        loaded, runs = [], []
        def load(path):
            loaded.append(load_run_config(path))
            return loaded[-1]
        monkeypatch.setattr(cli, "load_run_config", load)
        monkeypatch.setattr(cli, "run_training", lambda c, tag, bitwidth, run: runs.append((tag, c)))
        assert main(["train", "--config", str(cfg)]) == 0
        # compared after both runs: no variant sees another's value, and the
        # loaded config has lost only its sweep
        assert runs == [("q_b_bin1", {**base, "bitwidth.q_b_bin": "1"}),
                        ("q_b_bin8", {**base, "bitwidth.q_b_bin": "8"})]
        assert loaded == [base]


# the SETTINGS keys that set an engine field, each with that field
FIELDS = {key: row[3] for key, row in SETTINGS.items() if row[3]}
DEFAULTS = {key: default for key, (default, *_) in SETTINGS.items()}


def engine_fields(ccfg):
    """A ContinualConfig as {field: value}, its BitwidthConfig's fields among them."""
    fields = dataclasses.asdict(ccfg)
    return {**fields.pop("bitwidth"), **fields}


def engine_value(key, value):
    """The engine's value for a config value of key: a bitwidth string as a width."""
    if FIELDS[key] in BITWIDTHS:
        return None if value == "float" else int(value)
    return value


def valid_values(key):
    """Values the row of key accepts."""
    _, ok, *_ = SETTINGS[key]
    if FIELDS[key] in BITWIDTHS:
        return st.sampled_from(["float", *map(str, BITWIDTHS[FIELDS[key]])])
    return (st.integers(0, 2**70) | st.floats(5e-324, 1e308)).filter(ok)


class TestSettingsTable:
    """Each SETTINGS row that names a field holds the engine's default for
    that field, and its key sets that field and no other."""

    def test_rows_name_every_engine_field_once(self):
        named = sorted(FIELDS.values())
        # protocol.head_only sets b_r and train_graph_layers together
        assert named == sorted(set(engine_fields(ContinualConfig())) - {"train_graph_layers"})

    @pytest.mark.parametrize("key", sorted(FIELDS))
    def test_default_is_the_engines(self, key):
        assert engine_value(key, DEFAULTS[key]) == engine_fields(ContinualConfig())[FIELDS[key]]

    def test_defaults_make_the_default_engine_config(self):
        assert continual_config(DEFAULTS) == ContinualConfig()
        assert (continual_config({**DEFAULTS, "protocol.head_only": True})
                == dataclasses.replace(ContinualConfig(), b_r=0, train_graph_layers=False))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_a_key_sets_its_field_and_no_other(self, data):
        key = data.draw(st.sampled_from(sorted(FIELDS)))
        value = data.draw(valid_values(key))
        before = engine_fields(continual_config(DEFAULTS))
        after = engine_fields(continual_config({**DEFAULTS, key: value}))
        assert after[FIELDS[key]] == engine_value(key, value)
        assert {f for f in before if after[f] != before[f]} <= {FIELDS[key]}

    @pytest.mark.parametrize("field", sorted(BITWIDTHS))
    def test_bitwidth_row_takes_float_and_each_width_of_its_field(self, field, tmp_path):
        _, ok, *_ = SETTINGS[f"bitwidth.{field}"]
        widths = [str(b) for b in range(65)]
        assert [s for s in ["float", *widths] if ok(s)] == ["float", *map(str, sorted(BITWIDTHS[field]))]
        for s in ["float", *map(str, BITWIDTHS[field])]:
            cfg = _config_at(tmp_path / "cfg.json", "data", "out", f"bitwidth.{field}", s)
            got = getattr(continual_config(load_run_config(str(cfg))).bitwidth, field)
            assert got == (None if s == "float" else int(s))


class TestSharedPretraining:
    # sweep key -> a value other than write_config's; pretraining reads none of these keys
    SHARED = {
        "bitwidth.q_f": "16", "bitwidth.q_b_nonbin": "8", "bitwidth.q_b_bin": "1",
        "replay.quota": 5, "replay.b_n": 4, "replay.b_r": 8,
        "protocol.epochs": 2, "protocol.lr": 0.1, "protocol.head_only": True,
    }
    # ... and pretraining reads each of these
    OWN = {"protocol.seed": 1, "protocol.pretrain_epochs": 1, "model.channels": 4,
           "protocol.num_experiences": 3, "protocol.pretrain_lr": 0.1}

    @pytest.fixture(scope="class")
    @staticmethod
    def default_run(dataset_dir, tmp_path_factory):
        base = tmp_path_factory.mktemp("alone")
        assert main(["train", "--config", str(write_config(base / "cfg.json", dataset_dir, base / "out"))]) == 0
        return load_run_config(str(base / "cfg.json")), _train_outputs(base / "out")

    @pytest.mark.parametrize("key,other", SHARED.items(), ids=list(SHARED))
    def test_sweep_writes_the_bytes_of_independent_runs(self, key, other, dataset_dir, default_run,
                                                        tmp_path, pretrainings):
        defaults, alone = default_run
        values = [defaults[key], other]
        cfg = write_config(tmp_path / "sweep.json", dataset_dir, tmp_path / "sweep", sweep={key: values})
        assert main(["train", "--config", str(cfg)]) == 0
        assert len(pretrainings) == 1
        cfg = _config_at(tmp_path / "alone.json", dataset_dir, tmp_path / "alone", key, other)
        assert main(["train", "--config", str(cfg)]) == 0
        for v, want in zip(values, (alone, _train_outputs(tmp_path / "alone"))):
            assert _train_outputs(tmp_path / "sweep", cli._sweep_tag(key, v)) == want

    @pytest.mark.parametrize("key,other", OWN.items(), ids=list(OWN))
    def test_sweep_over_a_pretraining_key_pretrains_per_value(self, key, other, dataset_dir,
                                                              default_run, tmp_path, pretrainings):
        defaults, _ = default_run
        cfg = write_config(tmp_path / "sweep.json", dataset_dir, tmp_path / "sweep",
                           sweep={key: [defaults[key], other]})
        assert main(["train", "--config", str(cfg)]) == 0
        assert len(pretrainings) == 2


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
        lambda d: d["nodes"][0].update(inputs=[5]),
        lambda d: d["nodes"][3].update(inputs=[3]),
        lambda d: d["nodes"][1].update(inputs=[-2]),
        lambda d: d.update(replay_level=99),
        lambda d: d.update(replay_level=-1),
        lambda d: d["head"].update(past_counts=[0]),
        lambda d: d["head"].update(past_counts=[-1] * len(d["head"]["past_counts"])),
        lambda d: d["head"].update(seen=[42]),
        lambda d: d["head"].update(seen=[-1]),
        lambda d: d["nodes"][0]["attrs"].pop("spec"),
        lambda d: d["nodes"][2]["attrs"].pop("spec"),
        lambda d: d["nodes"][0].update(kind="dense"),
        lambda d: d["nodes"][2].update(kind="binary_dense"),
        lambda d: d["nodes"][3]["attrs"].update(spec=d["nodes"][0]["attrs"]["spec"]),
        lambda d: d["nodes"][0]["attrs"]["spec"].update(kernel_h=0),
        lambda d: d["nodes"][1].update(kind="maxpool"),
        lambda d: d["nodes"][3].update(param_names=["beta", "gamma", "running_mean"]),
        lambda d: d["nodes"][3].update(kind="prelu"),
        lambda d: d["nodes"][1].update(param_names=["alpha"]),
        lambda d: d["nodes"][2].update(has_weight_bits=False),
        lambda d: d["nodes"][2].update(param_names=["latent", "latent"]),
        lambda d: d["nodes"][0].update(has_weight_bits=True),
        lambda d: d["bitwidth"].update(q_b_bin=5),
        lambda d: d["nodes"][0]["out_qparams"].update(bits=9),
        lambda d: d["head"].update(feature_dim=0),
        lambda d: d.update(input_shape=[]),
        lambda d: d.update(input_shape=[8, 0, 1]),
        lambda d: d["nodes"][10].update(inputs=[9]),
        lambda d: d["nodes"][1].update(inputs=[]),
        lambda d: d["nodes"][1].update(inputs=[0, 0]),
        lambda d: d["nodes"][12].update(kind="binarize"),
        # block3_conv's spec: a 13-row output that residual_add cannot take, an
        # input of 8 channels, and 3x3 weight records under a 1x1 spec
        lambda d: d["nodes"][8]["attrs"]["spec"].update(kernel_h=2),
        lambda d: d["nodes"][8]["attrs"]["spec"].update(in_channels=16),
        lambda d: d["nodes"][8]["attrs"]["spec"].update(kernel_h=1, kernel_w=1, padding=0),
        # gamma and beta have one shape: read in this order, they would swap
        lambda d: d["nodes"][3].update(param_names=["gamma", "beta", "running_mean", "running_var"]),
        # json reads NaN and Infinity as numbers
        lambda d: d["nodes"][3]["attrs"].update(eps=float("nan")),
        lambda d: d["nodes"][9]["param_scales"].update(gamma=float("inf")),
        lambda d: d["nodes"][9]["param_scales"].update(beta=-float("inf")),
        # numbers past float64's range, and integers past int64's, which numpy cannot take
        lambda d: d["input_qparams"].update(scale=10**400),
        lambda d: d["nodes"][0]["out_qparams"].update(scale=10**400),
        lambda d: d["nodes"][3]["attrs"].update(eps=10**400),
        lambda d: d["head"]["past_counts"].__setitem__(0, 2**63),
        lambda d: d["nodes"][0]["attrs"]["spec"].update(padding=2**63),
    ], ids=["qparams-extra", "qparams-missing", "spec-extra", "spec-missing",
            "bitwidth-extra", "bitwidth-missing", "head-extra", "head-missing-key",
            "head-missing", "node-missing-key", "qparams-type", "spec-type",
            "bitwidth-type", "head-type", "head-list-type", "nodes-type", "node-inputs-type",
            "node-param-names-type", "node-attr-type", "node-input-later", "node-input-self",
            "node-input-below-graph-input", "replay-level-above", "replay-level-below",
            "past-counts-length", "past-counts-negative", "seen-above", "seen-below",
            "conv-without-spec", "binary-conv-without-spec", "dense-with-spec",
            "binary-dense-with-spec", "batchnorm-with-spec", "spec-range", "unknown-kind",
            "batchnorm-missing-param", "batchnorm-as-prelu", "binarize-with-param",
            "binary-conv-without-weight-bits", "binary-conv-param-twice", "conv-with-weight-bits",
            "bitwidth-range", "qparams-range", "head-feature-dim-range", "input-shape-empty",
            "input-shape-zero", "add-one-input", "node-no-input", "binarize-two-inputs",
            "output-not-features", "spec-kernel-h-2", "spec-in-channels-16", "spec-1x1-unpadded",
            "batchnorm-params-out-of-order", "attr-nan", "param-scale-inf", "param-scale-minus-inf",
            "qparams-scale-huge", "out-qparams-scale-huge", "eps-huge", "past-counts-past-int64",
            "spec-padding-past-int64"])
    def test_malformed_descriptor(self, mutate, trained_dir, dataset_dir, tmp_path, capsys):
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
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_missing_activation_grid_is_an_error_that_names_the_node(self, trained_dir, dataset_dir,
                                                                     tmp_path, capsys):
        g, head, bw = serialize.read_checkpoint(trained_dir / "checkpoint.brck")
        assert bw.q_f == 8
        g.nodes[3].out_qparams = None
        bad = tmp_path / "bad.brck"
        serialize.write_checkpoint(bad, g, bw, head)
        assert main(["eval", "--checkpoint", str(bad), "--dataset", str(dataset_dir)]) == 1
        assert "node 3 (block1_bn) holds no 8-bit activation grid" in capsys.readouterr().err

    @pytest.mark.parametrize("floating", [False, True], ids=["8-16-4", "float"])
    def test_negative_running_var_is_a_format_error(self, floating, trained_dir, dataset_dir, tmp_path,
                                                    capsys):
        g, head, bw = serialize.read_checkpoint(trained_dir / "checkpoint.brck")
        g.nodes[9].params["running_var"] = -g.nodes[9].params["running_var"]
        bad = tmp_path / "bad.brck"
        serialize.write_checkpoint(bad, g, BitwidthConfig.floating() if floating else bw, head)
        with pytest.raises(serialize.FormatError, match=r"node 9 \(block3_bn\).*negative running_var"):
            serialize.read_checkpoint(bad)
        assert main(["eval", "--checkpoint", str(bad), "--dataset", str(dataset_dir)]) == 1
        assert "negative running_var" in capsys.readouterr().err

    @pytest.mark.parametrize("floating", [False, True], ids=["8-16-4", "float"])
    def test_non_positive_eps_is_a_format_error(self, floating, trained_dir, dataset_dir, tmp_path, capsys):
        # running_var + eps below 0 took a square root of a negative number,
        # and eval exited 0
        g, head, bw = serialize.read_checkpoint(trained_dir / "checkpoint.brck")
        g.nodes[9].attrs["eps"] = -1000.0
        bad = tmp_path / "bad.brck"
        serialize.write_checkpoint(bad, g, BitwidthConfig.floating() if floating else bw, head)
        with pytest.raises(serialize.FormatError, match=r"node 9 \(block3_bn\).*eps -1000.0"):
            serialize.read_checkpoint(bad)
        assert main(["eval", "--checkpoint", str(bad), "--dataset", str(dataset_dir)]) == 1
        assert "not a finite number above 0" in capsys.readouterr().err

    def test_tensor_shape_beyond_file_length(self, trained_dir, dataset_dir, tmp_path, capsys):
        data = bytearray((trained_dir / "checkpoint.brck").read_bytes()[:-4])  # less its CRC32 trailer
        (blen,) = struct.unpack("<I", data[5:9])
        # the first tensor record (stem_conv's bias): magic, 3 bytes, then its shape
        data[9 + blen + 7 : 9 + blen + 11] = struct.pack("<I", 2**32 - 1)
        bad = tmp_path / "bad.brck"
        bad.write_bytes(summed(bytes(data)))
        with pytest.raises(serialize.FormatError, match="claims"):
            serialize.read_checkpoint(bad)
        assert main(["eval", "--checkpoint", str(bad), "--dataset", str(dataset_dir)]) == 1
        assert "claims" in capsys.readouterr().err

    def test_trailing_bytes(self, trained_dir, dataset_dir, tmp_path, capsys):
        # after the CRC32 trailer they break the sum; before a trailer that sums
        # them, they are left over after the last record
        data = (trained_dir / "checkpoint.brck").read_bytes()
        bad = tmp_path / "bad.brck"
        for image, error in [(data + b"garbage", "CRC32 trailer does not match"),
                             (summed(data[:-4] + b"garbage"), "7 bytes after the last record")]:
            bad.write_bytes(image)
            assert main(["eval", "--checkpoint", str(bad), "--dataset", str(dataset_dir)]) == 1
            assert error in capsys.readouterr().err

    def test_param_record_of_the_wrong_kind(self, trained_dir, dataset_dir, tmp_path, capsys):
        data = (trained_dir / "checkpoint.brck").read_bytes()[:-4]  # less its CRC32 trailer
        (blen,) = struct.unpack("<I", data[5:9])
        first = io.BytesIO(data)
        first.seek(9 + blen)
        bias = serialize.read_tensor(first)  # stem_conv's bias
        bits = io.BytesIO()
        serialize.write_tensor(bits, pack(np.ones(bias.shape, dtype=np.int8)))
        bad = tmp_path / "bad.brck"
        bad.write_bytes(summed(data[:9 + blen] + bits.getvalue() + data[first.tell():]))
        assert main(["eval", "--checkpoint", str(bad), "--dataset", str(dataset_dir)]) == 1
        assert "node 0 param b is not a float tensor" in capsys.readouterr().err

    @pytest.mark.parametrize("pos,value", [
        (29, b"\x01"), (24 + 7 + 12 + 4 * 64, struct.pack("<H", 999)),
        (24 + 7 + 12, struct.pack("<f", np.nan)), (24 + 7 + 12, struct.pack("<f", np.inf)),
    ], ids=["sample-dtype-tag", "label-999", "sample-nan", "sample-inf"])
    def test_malformed_dataset(self, pos, value, trained_dir, dataset_dir, tmp_path):
        # after the 24-byte header: sample 0's record (magic, version, tag at
        # byte 29, rank, 8x8x1 shape, 64 floats), then its u16 label
        data = bytearray((dataset_dir / "test.brds").read_bytes())
        data[pos:pos + len(value)] = value
        bad = tmp_path / "bad.brds"
        bad.write_bytes(bytes(data))
        assert main(["eval", "--checkpoint", str(trained_dir / "checkpoint.brck"),
                     "--dataset", str(bad)]) == 1

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

    @pytest.mark.parametrize("data", [
        b"experience,mean_train_loss,fwd_macs,bwd_macs,replay_bits\n1,0.5,10,20,30\n",
        b"experience,test_accuracy,mean_train_loss,fwd_macs,bwd_macs,replay_bits\n1,0.5,0.25\n",
        b"experience,test_accuracy,mean_train_loss,fwd_macs,bwd_macs,replay_bits\n1,abc,0.5,10,20,30\n",
        b"\xff\xfe",  # named no file
    ], ids=["header-without-test-accuracy", "row-too-short", "accuracy-not-a-number", "not-utf-8"])
    def test_malformed_csv_is_exit_1_before_any_output(self, data, trained_dir, tmp_path, capsys):
        (tmp_path / "metrics.csv").write_bytes((trained_dir / "metrics.csv").read_bytes())
        bad = tmp_path / "metrics_z.csv"  # sorts after the good file
        bad.write_bytes(data)
        assert main(["report", "--metrics-dir", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {bad}: ")

    def test_metrics_file_that_is_a_directory_is_exit_1_before_any_output(self, trained_dir, tmp_path,
                                                                          capsys):
        # exited 2: "runtime error: [Errno 21] Is a directory"
        (tmp_path / "metrics.csv").write_bytes((trained_dir / "metrics.csv").read_bytes())
        bad = tmp_path / "metrics_x.csv"
        bad.mkdir()
        assert main(["report", "--metrics-dir", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "report.csv").exists()
        assert err.startswith(f"error: cannot read metrics file {bad}: ")


def _empty_dataset(path):
    serialize.write_dataset(path, np.zeros((0, 8, 8, 1)), np.zeros(0, dtype=np.int64), 4)
    return path


class TestMissingInput:
    """A missing or empty input file is a validation error, exit 1."""

    @pytest.mark.parametrize("case", [
        "train-no-train-split", "train-empty-test-split", "eval-missing-checkpoint",
        "eval-missing-dataset", "eval-empty-dataset", "report-missing-dir",
        "import-missing-images", "import-missing-labels",
    ])
    def test_exits_1(self, case, trained_dir, dataset_dir, tmp_path, capsys):
        ckpt = str(trained_dir / "checkpoint.brck")
        missing = str(tmp_path / "missing")
        if case.startswith("train"):
            data = tmp_path / "data"
            data.mkdir()
            if case == "train-empty-test-split":
                (data / "train.brds").write_bytes((dataset_dir / "train.brds").read_bytes())
                _empty_dataset(data / "test.brds")
            cfg = write_config(tmp_path / "cfg.json", data, tmp_path / "out")
            argv = ["train", "--config", str(cfg)]
        elif case == "eval-missing-checkpoint":
            argv = ["eval", "--checkpoint", missing, "--dataset", str(dataset_dir)]
        elif case == "eval-missing-dataset":
            argv = ["eval", "--checkpoint", ckpt, "--dataset", missing]
        elif case == "eval-empty-dataset":
            argv = ["eval", "--checkpoint", ckpt, "--dataset", str(_empty_dataset(tmp_path / "e.brds"))]
        elif case == "report-missing-dir":
            argv = ["report", "--metrics-dir", missing]
        else:
            idx = tmp_path / "labels.idx"
            idx.write_bytes(struct.pack(">HBBI", 0, 0x08, 1, 1) + b"\x00")
            images, labels = (missing, str(idx)) if case == "import-missing-images" else (str(idx), missing)
            argv = ["import-idx", "--images", images, "--labels", labels,
                    "--out", str(tmp_path / "o.brds")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("cannot read" in err or "no rows" in err)


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

    def _import(self, tmp_path):
        return main(["import-idx", "--images", str(tmp_path / "imgs.idx"),
                     "--labels", str(tmp_path / "labels.idx"),
                     "--out", str(tmp_path / "o.brds")])

    @pytest.mark.parametrize("images,labels", [
        (b"", None),
        (struct.pack(">HBBI", 0, 0x08, 3, 10), None),
        (struct.pack(">HBB3I", 0, 0x08, 3, 10, 6, 6) + b"\x00" * 359, None),
        (None, struct.pack(">HBBI", 0, 0x08, 1, 10) + b"\x00" * 11),
    ], ids=["empty", "rank-3-one-dim", "short-data", "long-data"])
    def test_malformed_idx(self, images, labels, tmp_path, rng, capsys):
        self._write_idx(tmp_path / "imgs.idx", np.zeros((10, 6, 6), dtype=np.uint8), 0x08)
        self._write_idx(tmp_path / "labels.idx", np.zeros(10, dtype=np.uint8), 0x08)
        if images is not None:
            (tmp_path / "imgs.idx").write_bytes(images)
        if labels is not None:
            (tmp_path / "labels.idx").write_bytes(labels)
        assert self._import(tmp_path) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o.brds").exists()

    @pytest.mark.parametrize("n_images,label_shape,max_label", [
        (10, (8,), 2), (10, (12,), 2), (0, (0,), 0), (10, (10, 1), 2), (10, (10,), 70000),
    ], ids=["fewer-labels", "more-labels", "empty", "label-rank", "label-beyond-u16"])
    def test_mismatched_images_and_labels(self, n_images, label_shape, max_label, tmp_path):
        self._write_idx(tmp_path / "imgs.idx", np.zeros((n_images, 6, 6), dtype=np.uint8), 0x08)
        labels = np.zeros(label_shape, dtype=np.int32)
        labels.flat[:1] = max_label
        self._write_idx(tmp_path / "labels.idx", labels, 0x0C)
        assert self._import(tmp_path) == 1
        assert not (tmp_path / "o.brds").exists()

    def test_non_finite_float_idx(self, tmp_path, capsys):
        imgs = np.zeros((4, 6, 6), dtype=np.float32)
        imgs[2, 3, 3] = np.nan
        self._write_idx(tmp_path / "imgs.idx", imgs, 0x0D)
        self._write_idx(tmp_path / "labels.idx", np.zeros(4, dtype=np.uint8), 0x08)
        assert self._import(tmp_path) == 1
        assert "holds a NaN" in capsys.readouterr().err
        assert not (tmp_path / "o.brds").exists()

    def test_not_idx(self, tmp_path):
        (tmp_path / "junk").write_bytes(b"\xff\xff\x08\x01" + b"\x00" * 8)
        assert main(["import-idx", "--images", str(tmp_path / "junk"),
                     "--labels", str(tmp_path / "junk"), "--out",
                     str(tmp_path / "o.brds")]) == 1
