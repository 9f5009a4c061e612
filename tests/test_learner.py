"""Continual-learning protocol: NC stream, freezing, minibatch rules, determinism."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binreplay import bitpack, cwr, datasets, learner, replay
from binreplay import graph as G
from binreplay.graph import (BINARY_KINDS, BitwidthConfig, Graph, as_float, check_node, f32_precision, forward,
                             infer_shapes, latent_grid_scale)
from binreplay.learner import (
    ContinualConfig,
    ProtocolError,
    build_nc_experiences,
    build_reference_model,
    frozen_region_hash,
    _replay_draw_size,
)
from binreplay.quant import calibrate_range

from helpers import linear_probe_accuracy


@pytest.fixture(scope="module")
def small_data():
    xs, ys = datasets.make_synthetic(4, 40, shape=(8, 8, 1), seed=11)
    return datasets.stratified_split(xs, ys, seed=11)


@pytest.fixture(scope="module")
def nc_experience_0():
    """Experience 0 of nc-protocol's data (synth seed 7, protocol seed 1): 160 rows."""
    xs, ys = datasets.make_synthetic(10, 100, (12, 12, 1), seed=7)
    (tx, ty), _ = datasets.stratified_split(xs, ys, seed=7)
    return learner.build_nc_experiences(tx, ty, 5, 1)[0]


def _traced_peak(run) -> int:
    """The tracemalloc peak of run(), traced from its start."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def small_config(**kw):
    base = dict(num_experiences=2, epochs=1, pretrain_epochs=2, quota=10,
                channels=8, b_n=8, b_r=16, seed=0)
    base.update(kw)
    return ContinualConfig(**base)


class TestSyntheticData:
    def test_shapes_and_range(self):
        xs, ys = datasets.make_synthetic(3, 5, shape=(6, 7, 2), seed=1)
        assert xs.shape == (15, 6, 7, 2)
        assert xs.min() >= -1.0 and xs.max() <= 1.0
        assert sorted(np.unique(ys)) == [0, 1, 2]

    @pytest.mark.parametrize("shape", [(12, 12, 1), (5, 7, 3), (1, 1, 1)])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_equals_the_per_sample_loop(self, shape, seed):
        # the oracle: each sample rolls its prototype, adds its noise and is clipped on its own
        rng = np.random.default_rng(seed)
        protos = [datasets._smooth_field(rng, *shape) for _ in range(3)]
        want = []
        for cls in range(3):
            for _ in range(6):
                dy, dx = rng.integers(-datasets.MAX_SHIFT, datasets.MAX_SHIFT + 1, size=2)
                img = np.roll(protos[cls], (int(dy), int(dx)), axis=(0, 1))
                want.append(np.clip(img + rng.normal(0.0, datasets.NOISE, size=img.shape), -1.0, 1.0))
        xs, ys = datasets.make_synthetic(3, 6, shape=shape, seed=seed)
        assert xs.tobytes() == np.array(want).tobytes() and xs.shape == (18, *shape)
        assert ys.dtype == np.int64 and ys.tolist() == [c for c in range(3) for _ in range(6)]

    def test_deterministic_given_seed(self):
        a, _ = datasets.make_synthetic(2, 4, seed=9)
        b, _ = datasets.make_synthetic(2, 4, seed=9)
        assert a.tobytes() == b.tobytes()
        c, _ = datasets.make_synthetic(2, 4, seed=10)
        assert a.tobytes() != c.tobytes()

    def test_stratified_split_per_class(self):
        xs, ys = datasets.make_synthetic(4, 20, seed=2)
        (trx, try_), (tex, tey) = datasets.stratified_split(xs, ys, seed=2)
        for c in range(4):
            assert np.sum(try_ == c) == 16
            assert np.sum(tey == c) == 4

    def test_linear_probe_gate(self):
        # the default generator settings must stay linearly separable enough
        xs, ys = datasets.make_synthetic(10, 100, seed=7)
        (trx, try_), (tex, tey) = datasets.stratified_split(xs, ys, seed=7)
        assert linear_probe_accuracy(trx, try_, tex, tey) >= 0.90


class TestNCStream:
    def test_two_classes_per_experience(self):
        ys = np.repeat(np.arange(10), 5)
        xs = np.zeros((50, 2))
        exps = build_nc_experiences(xs, ys, 5, seed=0)
        assert len(exps) == 5
        seen = []
        for e in exps:
            assert len(e.classes_introduced) == 2
            seen.extend(e.classes_introduced)
            assert sorted(np.unique(e.labels)) == sorted(e.classes_introduced)
        assert sorted(seen) == list(range(10))

    def test_deterministic_partition(self):
        ys = np.repeat(np.arange(10), 3)
        xs = np.zeros((30, 1))
        a = build_nc_experiences(xs, ys, 5, seed=4)
        b = build_nc_experiences(xs, ys, 5, seed=4)
        assert [e.classes_introduced for e in a] == [e.classes_introduced for e in b]
        c = build_nc_experiences(xs, ys, 5, seed=5)
        assert [e.classes_introduced for e in a] != [e.classes_introduced for e in c]

    def test_too_few_classes(self):
        with pytest.raises(ProtocolError):
            build_nc_experiences(np.zeros((4, 1)), np.array([0, 0, 1, 1]), 3, seed=0)


class TestPartialBatchRule:
    def test_full_batch_keeps_ratio(self):
        cfg = ContinualConfig(b_n=16, b_r=64)
        assert _replay_draw_size(16, cfg) == 64

    def test_partial_batch_scales_down(self):
        cfg = ContinualConfig(b_n=16, b_r=64)
        assert _replay_draw_size(8, cfg) == 32
        assert _replay_draw_size(3, cfg) == 12
        assert _replay_draw_size(1, cfg) == 4

    def test_rounds_down(self):
        cfg = ContinualConfig(b_n=16, b_r=24)
        assert _replay_draw_size(5, cfg) == 7  # 5 * 24 / 16 = 7.5


class TestReferenceModel:
    def test_replay_level_is_a_binarize_node(self):
        g = build_reference_model(channels=8, seed=0)
        assert g.nodes[g.replay_level].kind == "binarize"

    def test_feature_dim_is_channels(self):
        g = build_reference_model(channels=8, seed=0)
        shapes = infer_shapes(g)
        assert shapes[g.output_id] == (8,)

    def test_latents_one_bit_at_replay_level(self, small_data):
        (trx, _), _ = small_data
        g = build_reference_model(input_shape=(8, 8, 1), channels=8, seed=0)
        lat, _ = forward(g, trx[:4], BitwidthConfig.floating(), mode="infer",
                         stop_level=g.replay_level)
        assert isinstance(lat, bitpack.BitTensor) and lat.shape == (4, 8, 8, 8)

    def test_bn_stats_from_each_batchnorm_input(self, rng):
        # the first batchnorm reads the graph input (node id -1), the last a
        # sign, which forward returns packed
        xs = rng.normal(size=(20, 4))
        g = Graph((4,))
        bn = {"gamma": np.ones(4), "beta": np.zeros(4),
              "running_mean": np.zeros(4), "running_var": np.ones(4)}
        for kind, params in (("batchnorm", dict(bn)), ("prelu", {"alpha": np.full(4, 0.25)}),
                             ("batchnorm", dict(bn)), ("binarize", {}), ("batchnorm", dict(bn))):
            g.add(kind, params=params)
        learner.initialize_bn_stats(g, xs)
        mid, _ = forward(g, xs, BitwidthConfig.floating(), mode="infer", stop_level=1)
        bn2, _ = forward(g, xs, BitwidthConfig.floating(), mode="infer", stop_level=2)
        sign = np.where(bn2 >= 0, 1.0, -1.0)
        for node, x in ((g.nodes[0], xs), (g.nodes[2], mid), (g.nodes[4], sign)):
            assert node.params["running_mean"].tobytes() == f32_precision(x.mean(axis=0)).tobytes()
            want_var = f32_precision(np.maximum(x.var(axis=0), 1e-3))
            assert node.params["running_var"].tobytes() == want_var.tobytes()

    @staticmethod
    def _per_batchnorm(g, xs):
        """The statistics oracle: one float pass per batchnorm, up to its input."""
        for node in g.nodes:
            if node.kind == "batchnorm":
                x = as_float(forward(g, xs, BitwidthConfig.floating(), stop_level=node.inputs[0])[0])
                axes = tuple(range(x.ndim - 1))
                node.params["running_mean"] = f32_precision(x.mean(axis=axes))
                node.params["running_var"] = f32_precision(np.maximum(x.var(axis=axes), 1e-3))

    @staticmethod
    def _stats(g):
        return [n.params[k].tobytes() for n in g.nodes for k in ("running_mean", "running_var") if k in n.params]

    def test_bn_stats_in_one_pass(self, monkeypatch):
        # experience 0's 160 rows: one pass makes three binary GEMM calls where
        # a pass per batchnorm, up to its input, made six; the statistics keep
        # that pass's bytes, and its tracemalloc peak does not rise
        xs = np.random.default_rng(0).uniform(-1.0, 1.0, size=(160, 12, 12, 1))

        def peak(init):
            g = build_reference_model((12, 12, 1), channels=32, seed=1)
            tracemalloc.start()
            try:
                init(g, xs)
                return g, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (want, want_peak), (got, got_peak) = peak(self._per_batchnorm), peak(learner.initialize_bn_stats)
        assert self._stats(got) == self._stats(want)
        assert got_peak <= want_peak, (got_peak, want_peak)
        calls = []
        run = bitpack.bin_conv2d
        monkeypatch.setattr(bitpack, "bin_conv2d", lambda *a, **kw: calls.append(1) or run(*a, **kw))
        learner.initialize_bn_stats(build_reference_model((12, 12, 1), channels=32, seed=1), xs)
        assert len(calls) == 3

    def test_bn_stats_read_only_the_chain_ends_that_feed_a_gemm(self, nc_experience_0, monkeypatch):
        # the pass stops at block3_conv, the last batchnorm's input, and gathers
        # only the two signs that block2_conv and block3_conv read.  It used to
        # gather the five other chain nodes' 5.9 MB outputs too, and peaked at
        # 16.92 MB (BENCH_24.json); with each batchnorm input summed whole as
        # float64, at 11.97 MB.  Summed per block of whole samples, from the
        # binary GEMMs' int32 counts, it reads 8.96 MB (BENCH_27.json), and the
        # statistics keep their bytes
        g = build_reference_model((12, 12, 1), channels=32, seed=1)
        gathered, gather = [], G._Tabled.gather
        monkeypatch.setattr(G._Tabled, "gather", lambda t: gathered.append(t.table) or gather(t))
        peak = _traced_peak(lambda: learner.initialize_bn_stats(g, nc_experience_0.inputs[: learner.STATS_ROWS]))
        assert len(gathered) == 2 and all(isinstance(t, bitpack.BitTensor) for t in gathered)
        assert peak <= 9.5e6
        stats = hashlib.sha256(b"".join(self._stats(g))).hexdigest()
        assert stats == "c3789c2ce484333fe6f9e4fed5fffb1a2fc8b3b63b4cc474398bdecc90769f69"

    def test_bn_stats_pass_returns_the_stop_counts_as_they_are(self, nc_experience_0, monkeypatch):
        # forward returns block3_conv's int32 counts at stop_level, which the
        # pass collects and discards; it used to cast them to a 5.9 MB float64
        # array as well, and the pass peaked at 8.96 MB (BENCH_27.json)
        g = build_reference_model((12, 12, 1), channels=32, seed=1)
        returned, run = [], learner.forward
        monkeypatch.setattr(learner, "forward", lambda *a, **kw: returned.append(run(*a, **kw)[0]) or (None, {}))
        xs = nc_experience_0.inputs[: learner.STATS_ROWS]
        peak = _traced_peak(lambda: learner.initialize_bn_stats(g, xs))
        assert [(y.dtype, y.shape) for y in returned] == [(np.int32, (len(xs), 12, 12, 32))]
        assert peak <= 8.0e6, peak
        stats = hashlib.sha256(b"".join(self._stats(g))).hexdigest()
        assert stats == "c3789c2ce484333fe6f9e4fed5fffb1a2fc8b3b63b4cc474398bdecc90769f69"

    def test_bn_stats_deep_in_a_chain(self, rng):
        # the first batchnorm reads a prelu inside a binary GEMM's chain, so its
        # table is built before its statistics are set; the second batchnorm
        # reads a GEMM whose input is the first one's sign
        c = 4

        def build():
            g = Graph((6, 6, c))
            g.add("binarize")
            for k in range(2):
                g.add("binary_conv2d", spec=bitpack.BinConvSpec(3, 3, 1, 1, c, c),
                      params={"latent": np.random.default_rng(k).uniform(-1.0, 1.0, size=(3, 3, c, c))})
                if k == 0:
                    g.add("prelu", params={"alpha": np.full(c, 0.25)})
                g.add("batchnorm", params={"gamma": np.ones(c), "beta": np.zeros(c),
                                           "running_mean": np.zeros(c), "running_var": np.ones(c)})
                g.add("binarize")
            return g

        xs = rng.normal(size=(8, 6, 6, c))
        want, got = build(), build()
        self._per_batchnorm(want, xs)
        learner.initialize_bn_stats(got, xs)
        assert self._stats(got) == self._stats(want)

    @pytest.mark.parametrize("q_b_bin,head_only,holding", [
        (4, False, ["block3_conv"]), (None, False, ["block3_conv"]), (1, False, []), (4, True, []),
    ], ids=["4-bit", "float", "1-bit", "head-only"])
    def test_freeze_drops_the_latents_that_do_not_train(self, q_b_bin, head_only, holding):
        # frozen binary layers, and every binary layer at q_b_bin = 1, keep
        # their weight bits alone
        g = build_reference_model(input_shape=(6, 6, 1), channels=4, seed=0)
        bits = {n.name: n.weight_bits for n in g.nodes}
        cfg = small_config(bitwidth=BitwidthConfig(q_b_bin=q_b_bin), train_graph_layers=not head_only)
        learner.freeze_backbone(g, cfg)
        assert [n.name for n in g.nodes if "latent" in n.params] == holding
        for idx, node in enumerate(g.nodes):
            check_node(idx, node)
            if node.kind in BINARY_KINDS and node.name not in holding:
                assert node.params == {} and node.weight_bits == bits[node.name]

    def test_freeze_stores_params_above_the_replay_level(self):
        g = build_reference_model(input_shape=(6, 6, 1), channels=4, seed=0)
        nodes = {n.name: n for n in g.nodes}
        bn, conv = nodes["block3_bn"], nodes["block3_conv"]
        bn.params["running_mean"] = np.full(4, 0.1234567)  # on no f32 or 8-bit grid
        stats = {k: bn.params[k].copy() for k in ("running_mean", "running_var")}
        cfg = small_config(bitwidth=BitwidthConfig(q_f=8, q_b_nonbin=8, q_b_bin=4))
        learner.freeze_backbone(g, cfg)
        for k, v in stats.items():  # statistics: nothing trains them
            assert bn.params[k].tobytes() == v.tobytes()
        assert sorted(bn.param_scales) == ["beta", "gamma"]
        assert list(nodes["head_act"].param_scales) == ["alpha"]
        codes = conv.params["latent"] / latent_grid_scale(4)
        np.testing.assert_allclose(codes, np.rint(codes), atol=1e-5)
        assert conv.weight_bits == bitpack.binarize(conv.params["latent"])
        assert not any(n.param_scales or n.trainable for n in g.nodes[: g.replay_level + 1])


def _tabled(rng, shape, rows):
    """A chain node's output of shape as a _Tabled: each element reads a random row of a (rows, C) table of
    normal values."""
    c = shape[-1]
    index = rng.integers(0, rows, size=shape) * c + np.arange(c)
    return G._Tabled(index.astype(np.uint16), rng.normal(size=(rows, c)))


class TestOfflinePassesInBlocks:
    """The offline passes read each chain output and each binary GEMM's counts
    per block of whole samples: the statistics and ranges keep the bytes of
    numpy's whole-array formulas, and each pass on nc-protocol's experience 0
    keeps a tracemalloc bound."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_blocked_moments_are_numpys_mean_and_var(self, data):
        # blocks of 1 to 2 samples of h * w positions, whose count need not
        # divide N; C = 1 is one pairwise block
        n, h, w = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        c = data.draw(st.sampled_from([1, 2, 3, 8, 33]))
        shape = data.draw(st.sampled_from([(n, h, w, c), (n * h * w, c)]))
        kind = data.draw(st.sampled_from(["float", "counts", "tabled"]))
        rows = math.prod(shape[1:-1]) * data.draw(st.integers(1, 2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "float":
            y = data.draw(st.sampled_from([0.0, -7.5, 1e3])) + data.draw(st.sampled_from([1e-3, 1.0, 1e4])) * \
                rng.normal(size=shape)
        elif kind == "counts":  # k - 2 * (differing bits) of a k-tap binary GEMM
            k = data.draw(st.integers(1, 600))
            y = (k - 2 * rng.integers(0, k + 1, size=shape)).astype(np.int32)
        else:
            y = _tabled(rng, shape, 7)
        x = y.gather() if kind == "tabled" else y
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(G, "GATHER_ROWS", rows)
            mean, var = G.channel_moments(y)
        axes = tuple(range(len(shape) - 1))
        assert mean.tobytes() == x.mean(axis=axes).tobytes()
        assert var.tobytes() == x.var(axis=axes).tobytes()

    @pytest.mark.parametrize("extreme", [-100.0, 100.0])
    @pytest.mark.parametrize("signs", [False, True])
    def test_ranges_of_a_tabled_output_are_those_it_gathers(self, extreme, signs, rng, monkeypatch):
        # ten one-sample blocks; only the last sample reads the extreme row
        monkeypatch.setattr(G, "GATHER_ROWS", 9)
        t = _tabled(rng, (10, 3, 3, 4), 6)
        table = np.vstack([t.table, np.full((1, 4), extreme)])
        index = t.index.copy()
        index[-1, 1, 2, 3] = 6 * 4 + 3
        if signs:  # a sign's table: +1 but for the extreme row's -1 or +1
            table = bitpack.binarize(np.where(table == -100.0, -1.0, 1.0))
        t = G._Tabled(index, table)
        assert len(t.blocks) == 10
        ranges = learner._Ranges([5])
        ranges[5] = t
        assert ranges[5] == calibrate_range([as_float(t.gather())])

    def test_calibration_peak(self, nc_experience_0):
        # the pass gathered every chain output its ranges read, 5.9 MB each,
        # and peaked at 14.70 MB; read per block, it reads 7.63 MB, most of it
        # the stem's float output and im2col
        rows = nc_experience_0.inputs[: learner.STATS_ROWS]
        g = build_reference_model((12, 12, 1), channels=32, seed=1)
        learner.initialize_bn_stats(g, rows)
        assert _traced_peak(lambda: learner.calibrate_activations(g, rows, 8)) <= 8.0e6
        assert [n.name for n in g.nodes if n.out_qparams is not None] == [
            g.nodes[i].name for i in G.grid_nodes(g)]

    def test_float_pretraining_step_peak(self, nc_experience_0):
        # a binary conv's input gradient built per block of about
        # bitpack.GEMM_BLOCK patch rows made a 4.6 MB (2016, 288) patch
        # gradient, and the step peaked at 11.58 MB; blocks of about
        # bitpack.CODE_ROWS rows put it at 8.52 MB
        exp0 = nc_experience_0
        g = build_reference_model((12, 12, 1), channels=32, seed=1)
        learner.initialize_bn_stats(g, exp0.inputs[: learner.STATS_ROWS])
        for node in g.nodes:
            node.trainable = bool(G.KINDS[node.kind].trained)
        head = cwr.init(infer_shapes(g)[g.output_id][0], 10)
        cwr.begin_experience(head, exp0.classes_introduced)
        cwr.record_training(head, exp0.labels)
        step = lambda: learner._train_step(g, head, exp0.inputs[:32], exp0.labels[:32], 0.2,  # noqa: E731
                                           BitwidthConfig.floating())
        assert _traced_peak(step) <= 9.0e6


class TestProtocol:
    @pytest.fixture(scope="class")
    @staticmethod
    def run(small_data):
        (trx, try_), (tex, tey) = small_data
        cfg = small_config()
        out = learner.run_protocol(cfg, trx, try_, tex, tey, 4)
        return cfg, out

    def test_row_per_experience(self, run):
        cfg, (log, g, head, mem) = run
        assert len(log.rows) == cfg.num_experiences
        assert [r["experience"] for r in log.rows] == list(range(cfg.num_experiences))

    def test_frozen_region_unchanged(self, run):
        cfg, (log, g, head, mem) = run
        assert log.frozen_hash_before == log.frozen_hash_after
        assert log.frozen_hash_after == frozen_region_hash(g)

    def test_replay_memory_balanced_at_quota(self, run):
        cfg, (log, g, head, mem) = run
        for c in mem.classes:
            assert len(mem.per_class[c]) <= cfg.quota
        assert len(mem.classes) == 4  # all classes represented at the end

    def test_mac_columns_constant_and_ratio(self, run):
        cfg, (log, g, head, mem) = run
        fwd = {r["fwd_macs"] for r in log.rows}
        bwd = {r["bwd_macs"] for r in log.rows}
        assert len(fwd) == 1 and len(bwd) == 1
        assert bwd.pop() / fwd.pop() == pytest.approx(2.0, abs=0.1)

    @staticmethod
    def assert_run_accuracy_is_a_full_forward(cfg, out, tex, tey):
        log, g, head, mem = out
        acc = learner.evaluate(g, head, tex, tey, cfg.bitwidth)
        feats, _ = forward(g, tex, cfg.bitwidth, mode="infer")
        preds = np.argmax(cwr.predict(head, feats), axis=1)
        assert acc == np.mean(preds == tey)
        assert acc == log.final_accuracy

    def test_evaluate_matches_manual_recount(self, run, small_data):
        _, (tex, tey) = small_data
        self.assert_run_accuracy_is_a_full_forward(*run, tex, tey)

    @pytest.mark.parametrize("shape,kw", [
        ((8, 8, 1), dict(bitwidth=BitwidthConfig.floating())),
        ((12, 12, 1), dict(channels=5)),  # 720-bit latents end in pad bits
    ], ids=["float", "pad-bits"])
    def test_evaluate_matches_manual_recount_on(self, shape, kw):
        # the run evaluates from the test rows' replay-level latents
        xs, ys = datasets.make_synthetic(4, 20, shape=shape, seed=5)
        (trx, try_), (tex, tey) = datasets.stratified_split(xs, ys, seed=5)
        cfg = small_config(**kw)
        out = learner.run_protocol(cfg, trx, try_, tex, tey, 4)
        self.assert_run_accuracy_is_a_full_forward(cfg, out, tex, tey)

    def test_test_rows_cross_the_frozen_region_once(self, small_data, monkeypatch):
        (trx, try_), (tex, tey) = small_data
        calls = []  # (inside evaluate, from_level, test rows fed in at the graph input)
        inside = []
        orig_forward, orig_evaluate = learner.forward, learner.evaluate

        def forward_spy(graph, x, *args, from_level=None, **kwargs):
            test_rows = len(x) if isinstance(x, np.ndarray) and np.shares_memory(x, tex) else 0
            calls.append((bool(inside), from_level, test_rows))
            return orig_forward(graph, x, *args, from_level=from_level, **kwargs)

        def evaluate_spy(*args):
            inside.append(1)
            try:
                return orig_evaluate(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(learner, "forward", forward_spy)
        monkeypatch.setattr(learner, "evaluate", evaluate_spy)
        cfg = small_config(num_experiences=3)
        log, g, head, mem = learner.run_protocol(cfg, trx, try_, tex, tey, 4)
        assert {lvl for ev, lvl, _ in calls if ev} == {g.replay_level}
        assert sum(n for _, lvl, n in calls if lvl is None) == len(tex)

    def test_per_class_accuracy_is_one_pass(self, run, small_data, monkeypatch):
        cfg, (log, g, head, mem) = run
        _, (tex, tey) = small_data
        want = {int(c): learner.evaluate(g, head, tex[tey == c], tey[tey == c], cfg.bitwidth)
                for c in np.unique(tey)}
        rows = []
        orig = learner.forward

        def spy(graph, x, *args, **kwargs):
            rows.append(len(x))
            return orig(graph, x, *args, **kwargs)

        monkeypatch.setattr(learner, "forward", spy)
        acc, per_class = learner.per_class_accuracy(g, head, tex, tey, cfg.bitwidth)
        assert sum(rows) == len(tex)
        assert acc == log.final_accuracy
        assert per_class == want

    def test_csv_shape_and_determinism(self, small_data):
        (trx, try_), (tex, tey) = small_data
        logs = []
        for _ in range(2):
            cfg = small_config()
            log, *_ = learner.run_protocol(cfg, trx, try_, tex, tey, 4)
            logs.append(log)
        assert logs[0].to_csv() == logs[1].to_csv()
        header = logs[0].to_csv().splitlines()[0]
        assert header == "experience,test_accuracy,mean_train_loss,fwd_macs,bwd_macs,replay_bits"

    def test_timings_separate_from_metrics(self, run):
        cfg, (log, *_rest) = run
        assert "elapsed_ms" not in log.to_csv()
        assert log.timings_csv().splitlines()[0] == "experience,elapsed_ms"

    def test_diverging_run_stops_at_its_first_non_finite_loss(self, small_data, monkeypatch):
        (trx, try_), (tex, tey) = small_data
        losses = []
        orig = learner.softmax_ce

        def spy(*args):
            out = orig(*args)
            losses.append(out[0])
            return out

        monkeypatch.setattr(learner, "softmax_ce", spy)
        cfg = small_config(pretrain_learning_rate=1e300)
        with np.errstate(all="ignore"), pytest.raises(ProtocolError, match="holds a NaN or infinite value"):
            learner.run_protocol(cfg, trx, try_, tex, tey, 4)
        assert np.all(np.isfinite(losses[:-1])) and not np.isfinite(losses[-1])

    def test_head_only_baseline_trains_no_graph_layers(self, small_data):
        (trx, try_), (tex, tey) = small_data
        cfg = small_config(train_graph_layers=False, b_r=0)
        log, g, head, mem = learner.run_protocol(cfg, trx, try_, tex, tey, 4)
        assert all(not n.trainable for n in g.nodes)
        assert all(r["bwd_macs"] == 0 for r in log.rows)

    def test_empty_experience_zero_rejected(self):
        with pytest.raises(ProtocolError):
            learner.pretrain_first_experience(small_config(), np.zeros((0, 8, 8, 1)),
                                              np.zeros(0, dtype=int), 4)


class TestSharedPretraining:
    def test_pretraining_reads_only_its_fields(self, small_data):
        (trx, try_), _ = small_data
        fields = set(vars(small_config()))
        reads = set()

        class Recording(ContinualConfig):
            def __getattribute__(self, name):
                if name in fields:
                    reads.add(name)
                return super().__getattribute__(name)

        learner.pretrain_first_experience(Recording(**vars(small_config())), trx, try_, 4)
        assert reads == set(learner.PRETRAIN_FIELDS)

    def test_variants_of_one_pretraining_draw_as_independent_runs(self, small_data, monkeypatch):
        (trx, try_), (tex, tey) = small_data
        draws = []
        orig = replay.sample_minibatch

        def spy(mem, k, rng):
            out = orig(mem, k, rng)
            draws.append([(s.label, s.activation.words.tobytes()) for s in out])
            return out

        monkeypatch.setattr(learner.replay, "sample_minibatch", spy)

        def observed(run):
            draws.clear()
            log, g, head, mem = run()
            memory = [(s.label, s.activation.words.tobytes()) for c in mem.classes for s in mem.per_class[c]]
            return log.to_csv(), list(draws), memory

        def param_bytes(g):
            return [v.tobytes() for n in g.nodes for _, v in sorted(n.params.items())]

        cfgs = [small_config(bitwidth=BitwidthConfig(q_f=8, q_b_nonbin=16, q_b_bin=b)) for b in (1, 4)]
        pre = learner.pretrain_first_experience(cfgs[0], trx, try_, 4)
        rng_state, params = pre.rng.bit_generator.state, param_bytes(pre.graph)
        for cfg in cfgs:
            shared = observed(lambda: learner.deploy_and_run(pre, cfg, tex, tey))
            assert draws
            assert shared == observed(lambda: learner.run_protocol(cfg, trx, try_, tex, tey, 4))
        assert pre.rng.bit_generator.state == rng_state
        assert param_bytes(pre.graph) == params
        # the shared pretraining keeps the latents that each deployment's freeze drops
        assert all("latent" in n.params for n in pre.graph.nodes if n.kind in BINARY_KINDS)


class TestMinibatchComposition:
    def test_b_t_joins_new_and_replay(self, small_data, monkeypatch):
        (trx, try_), (tex, tey) = small_data
        cfg = small_config()
        sizes = []
        orig = replay.sample_minibatch

        def spy(mem, b_r, rng):
            sizes.append(b_r)
            return orig(mem, b_r, rng)

        monkeypatch.setattr(learner.replay, "sample_minibatch", spy)
        learner.run_protocol(cfg, trx, try_, tex, tey, 4)
        assert sizes  # replay was drawn
        # 64 new samples per experience, b_n=8: full batches draw b_r=16
        assert set(sizes) == {16}

    def test_q_b_bin_1_keeps_binary_weights_frozen(self, small_data):
        (trx, try_), (tex, tey) = small_data
        cfg = small_config(bitwidth=BitwidthConfig(q_f=8, q_b_nonbin=16, q_b_bin=1))
        log, g, head, mem = learner.run_protocol(cfg, trx, try_, tex, tey, 4)
        for node in g.nodes:
            if node.kind == "binary_conv2d" and node.trainable:
                assert "latent" not in node.params  # dropped at freeze time
        assert log.frozen_hash_before == log.frozen_hash_after
