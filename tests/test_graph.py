"""Autograd engine: gradients vs finite differences and loop oracles,
quantized-backward fidelity, SGD grid behavior, MAC accounting."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binreplay import bitpack
from binreplay import graph as graph_module
from binreplay.bitpack import BinConvSpec, BitTensor, pack
from binreplay.graph import (
    BITWIDTHS,
    BitwidthConfig,
    Graph,
    GraphError,
    _snap_activation,
    backward,
    fake_quant,
    forward,
    grad_codes,
    grid_nodes,
    infer_shapes,
    latent_grid_scale,
    mac_count,
    sgd_step,
    snap_to_fixed_grid,
    softmax_ce,
    ste_backward,
    store_param,
)
from binreplay.learner import (ContinualConfig, _latents_for, build_reference_model, calibrate_activations,
                               freeze_backbone, initialize_bn_stats)
from binreplay.quant import (QuantError, QuantizedTensor, QuantParams, calibrate_range, dequantize, product_bound,
                             qmatmul, quant_params, quantize)
from helpers import (
    FLOAT_CFG,
    assert_within_column_sums,
    check_layer_gradients,
    make_layer_case,
    naive_binary_conv_grads,
    random_binary_conv_case,
)

SMOOTH_KINDS = ("dense", "softmax_ce_head", "conv2d", "batchnorm", "prelu",
                "global_avg_pool", "add", "concat")


class TestFiniteDifferences:
    @pytest.mark.parametrize("kind", SMOOTH_KINDS)
    def test_layer_gradients(self, kind, rng):
        tol = 1e-3 if kind == "batchnorm" else 1e-4
        for _ in range(10):
            assert check_layer_gradients(kind, rng) <= tol

    def test_softmax_ce_gradient(self, rng):
        logits = rng.normal(size=(4, 5))
        onehot = np.eye(5)[rng.integers(0, 5, size=4)]
        _, grad = softmax_ce(logits, onehot)

        def f(v):
            return softmax_ce(v, onehot)[0]

        from helpers import numeric_grad, rel_error
        assert rel_error(grad, numeric_grad(f, logits)) <= 1e-6

    def test_softmax_ce_rejects_non_one_hot(self):
        with pytest.raises(GraphError):
            softmax_ce(np.zeros((1, 3)), np.array([[1.0, 1.0, 0.0]]))


class TestSTE:
    def test_identity_inside_clip_zero_outside(self):
        g = np.ones(5)
        x = np.array([-2.0, -1.0, 0.0, 1.0, 1.5])
        assert ste_backward(g, x).tolist() == [0.0, 1.0, 1.0, 1.0, 0.0]

    def test_custom_threshold(self):
        g = np.ones(3)
        x = np.array([-1.5, 0.0, 1.5])
        assert ste_backward(g, x, clip_threshold=2.0).tolist() == [1.0, 1.0, 1.0]

    def test_shape_mismatch(self):
        with pytest.raises(GraphError):
            ste_backward(np.ones(3), np.ones(4))

    def test_binarize_node_uses_ste(self, rng):
        g = Graph((4,))
        g.add("binarize")
        x = np.array([[0.5, -0.5, 1.5, -2.0]])
        out, cache = forward(g, x, FLOAT_CFG, mode="train")
        assert out == pack([[1, -1, 1, -1]])
        direction = np.ones((1, 4))
        _, agrads = backward(g, cache, direction, FLOAT_CFG, return_act_grads=True)
        assert agrads[-1].tolist() == [[1.0, 1.0, 0.0, 0.0]]


class TestBinaryLayerGradients:
    def test_binary_dense_matches_oracle(self, rng):
        # with q_b_bin = 1 the binary weights are frozen: no latent gradient,
        # and the input gradient still flows through the +-1 weights
        for q_b_bin in [None] * 20 + [1] * 20:
            cfg = BitwidthConfig(q_f=None, q_b_nonbin=None, q_b_bin=q_b_bin)
            batch, k, n = (int(v) for v in rng.integers(1, 8, size=3))
            x = rng.choice([-1.0, 1.0], size=(batch, k))
            latent = rng.uniform(-1, 1, size=(k, n))
            g = Graph((k,))
            nid = g.add("binary_dense", trainable=True, params={"latent": latent})
            w_pm = g.nodes[nid].weight_bits.unpack().astype(np.float64)
            out, cache = forward(g, x, cfg, mode="train")
            np.testing.assert_array_equal(out, x @ w_pm)
            direction = rng.normal(size=(batch, n))
            pgrads, agrads = backward(g, cache, direction, cfg, return_act_grads=True)
            if q_b_bin == 1:
                assert nid not in pgrads
            else:
                np.testing.assert_allclose(pgrads[nid]["latent"], x.T @ direction, atol=1e-12)
            np.testing.assert_allclose(agrads[-1], direction @ w_pm.T, atol=1e-12)

    def test_binary_conv_matches_loop_oracle(self, rng):
        # ten drawn cases, then K = 9 * cin above one 64-bit word, padded:
        # the weight gradient unpacks the forward's packed patch rows
        for cin, padding in [(None, None)] * 10 + [(8, 1), (9, 1), (15, 1)]:
            g, x, spec, latent = random_binary_conv_case(rng, cin, padding)
            nid = 0
            out, cache = forward(g, x, FLOAT_CFG, mode="train")
            direction = rng.normal(size=out.shape)
            pgrads, agrads = backward(g, cache, direction, FLOAT_CFG, return_act_grads=True)
            w_pm = g.nodes[nid].weight_bits.unpack().astype(np.float64)
            gw, gx = naive_binary_conv_grads(x, w_pm, direction, spec.stride, spec.padding)
            np.testing.assert_allclose(pgrads[nid]["latent"], gw, atol=1e-9)
            np.testing.assert_allclose(agrads[-1], gx, atol=1e-9)

    def test_forward_matches_kernel(self, rng):
        g, x, spec, latent = random_binary_conv_case(rng)
        out, _ = forward(g, x, FLOAT_CFG, mode="infer")
        want = bitpack.bin_conv2d(pack(x), g.nodes[0].weight_bits, spec)
        np.testing.assert_array_equal(out, want)

    def test_q_b_bin_1_freezes_latents(self, rng):
        g, x, spec, latent = random_binary_conv_case(rng)
        cfg = BitwidthConfig(q_f=None, q_b_nonbin=None, q_b_bin=1)
        out, cache = forward(g, x, cfg, mode="train")
        pgrads = backward(g, cache, np.ones_like(out), cfg)
        assert 0 not in pgrads  # no latent gradient is even produced
        before = g.nodes[0].weight_bits
        sgd_step(g, {0: {"latent": np.ones_like(latent)}}, 0.1, cfg)
        assert g.nodes[0].weight_bits == before

    def test_layer_holding_only_weight_bits_backpropagates(self, rng):
        # a trainable binary layer given its weight bits and no latent: its
        # latent gradient is shaped like the bits, and sgd_step leaves them
        cfg = BitwidthConfig(q_f=None, q_b_nonbin=None, q_b_bin=4)
        wb = pack(rng.choice([-1, 1], size=(5, 3)))
        g = Graph((5,))
        nid = g.add("binary_dense", trainable=True, weight_bits=wb)
        x = rng.choice([-1.0, 1.0], size=(4, 5))
        out, cache = forward(g, x, cfg, mode="train")
        direction = rng.normal(size=out.shape)
        pgrads, agrads = backward(g, cache, direction, cfg, return_act_grads=True)
        w_pm = wb.unpack().astype(np.float64)
        np.testing.assert_allclose(pgrads[nid]["latent"], fake_quant(x.T @ direction, 4), atol=1e-12)
        np.testing.assert_allclose(agrads[-1], fake_quant(direction @ w_pm.T, 4), atol=1e-12)
        sgd_step(g, pgrads, 0.1, cfg)
        assert g.nodes[nid].weight_bits == wb and g.nodes[nid].params == {}


class TestGemmOperand:
    @pytest.mark.parametrize("kind", ["conv2d", "dense"])
    @pytest.mark.parametrize("cfg", [FLOAT_CFG, BitwidthConfig(q_f=8, q_b_nonbin=16, q_b_bin=4)],
                             ids=["float", "8/16/4"])
    def test_float_gemm_builds_its_im2col_once(self, kind, cfg, rng, monkeypatch):
        # backward reads the patch operand forward cached
        g, x, direction = make_layer_case(kind, rng)
        calibrate_activations(g, x, cfg.q_f)
        calls = []
        patches = bitpack.patches
        monkeypatch.setattr(bitpack, "patches", lambda x, spec: calls.append(x.shape) or patches(x, spec))
        _, cache = forward(g, x, cfg, mode="train")
        pgrads, agrads = backward(g, cache, direction, cfg, return_act_grads=True)
        assert sorted(pgrads[0]) == ["b", "w"] and agrads[-1].shape == x.shape
        assert len(calls) == 1


class TestGemmBlocks:
    """A GEMM node works on blocks of whole samples, about bitpack.GEMM_BLOCK
    rows each, and gives the bytes of one product of the whole batch."""

    # stride, padding and input extent of a 3x3 conv with 144 output positions
    CONVS = [(1, 0, 14), (1, 1, 12), (2, 0, 25), (2, 1, 23)]
    # (kind, stride, padding, extent, samples): 15 and 29 samples cross one and two
    # block edges, and 2049 dense rows one
    SHAPES = [("conv", *c, n) for c in CONVS for n in (15, 29)] + [("dense", 1, 0, 1, 2049)]

    @staticmethod
    def _case(kind, stride, padding, extent, n, binary, rng):
        """A one-node graph of kind (binary or float) and an input of n samples; its spec."""
        if kind == "conv":
            spec = BinConvSpec(3, 3, stride, padding, 3, 10)
            g, x = Graph((extent, extent, 3)), rng.normal(size=(n, extent, extent, 3))
            w = (3, 3, 3, 10)
        else:
            spec = BinConvSpec(1, 1, 1, 0, 16, 10)
            g, x = Graph((16,)), rng.normal(size=(n, 16))
            w = (16, 10)
        if binary:
            params = {"latent": rng.uniform(-1.0, 1.0, size=w)}
        else:
            params = {"w": rng.normal(size=w), "b": rng.normal(size=10)}
        g.add(("binary_" if binary else "") + ("conv2d" if kind == "conv" else "dense"), params=params,
              **({"spec": spec} if kind == "conv" else {}))
        return g, x, spec

    @staticmethod
    def _whole(g, x, spec, bits):
        """The node's output by one product of the whole batch's patch rows."""
        node = g.nodes[0]
        operand = bitpack.patches(x.reshape(len(x), 1, 1, -1) if x.ndim == 2 else x, spec)
        wmat = node.params["w"].reshape(-1, spec.out_channels)
        if bits is None:
            y = operand @ wmat
        else:
            xq = quantize(operand, g.input_qparams)
            wq = quantize(wmat, quant_params(*calibrate_range([wmat]), bits, signed=True))
            if bits == 8:
                y = dequantize(qmatmul(xq, wq))
            else:
                y = (np.subtract(xq.data, xq.params.zero_point, dtype=np.float64)
                     @ np.subtract(wq.data, wq.params.zero_point, dtype=np.float64))
                y *= xq.params.scale * wq.params.scale
        y = y + node.params["b"]
        return y if bits is None else dequantize(quantize(y, node.out_qparams))

    @pytest.mark.parametrize("mode", ["infer", "train"])
    @pytest.mark.parametrize("bits", [8, 16, 32, None])
    @pytest.mark.parametrize("kind,stride,padding,extent,n", SHAPES)
    def test_forward_gives_the_whole_products_bytes(self, kind, stride, padding, extent, n, bits, mode,
                                                    rng, monkeypatch):
        g, x, spec = self._case(kind, stride, padding, extent, n, False, rng)
        calibrate_activations(g, x, bits)
        calls = []
        patches = bitpack.patches
        monkeypatch.setattr(bitpack, "patches", lambda a, sp: calls.append(len(a)) or patches(a, sp))
        out, _ = forward(g, x, BitwidthConfig(q_f=bits) if bits else FLOAT_CFG, mode=mode)
        monkeypatch.undo()
        assert out.tobytes() == self._whole(g, x, spec, bits).reshape(out.shape).tobytes()
        # infer mode builds a quantized product's patches per block; train mode caches them whole
        per = math.prod(out.shape[1:-1])
        blocked = mode == "infer" and bits is not None
        assert sum(calls) == n and (len(calls) > 1) == blocked
        assert not blocked or max(calls) * per <= bitpack.GEMM_BLOCK

    @pytest.mark.parametrize("binary", [False, True], ids=["float", "binary"])
    @pytest.mark.parametrize("kind,stride,padding,extent,n", SHAPES)
    def test_input_gradient_gives_the_whole_products_bytes(self, kind, stride, padding, extent, n, binary, rng):
        g, x, spec = self._case(kind, stride, padding, extent, n, binary, rng)
        out, cache = forward(g, x, FLOAT_CFG, mode="train")
        direction = rng.normal(size=out.shape)
        _, agrads = backward(g, cache, direction, FLOAT_CFG, return_act_grads=True)
        node = g.nodes[0]
        wmat = graph_module.as_float(node.weight_bits if binary else node.params["w"]).reshape(-1, spec.out_channels)
        x4 = x.reshape(len(x), 1, 1, -1) if x.ndim == 2 else x
        want = bitpack.col2im(direction.reshape(-1, spec.out_channels) @ wmat.T, spec, x4.shape)
        assert agrads[-1].tobytes() == want.reshape(x.shape).tobytes()

    @pytest.mark.parametrize("bits", [8, 16, 32])
    def test_weights_are_quantized_once_per_call(self, bits, rng, monkeypatch):
        g, x, spec = self._case("conv", 1, 1, 12, 29, False, rng)
        calibrate_activations(g, x, bits)
        seen = []
        spy = graph_module.calibrate_range
        monkeypatch.setattr(graph_module, "calibrate_range", lambda s: seen.append(list(s)) or spy(s))
        forward(g, x, BitwidthConfig(q_f=bits), mode="infer")
        assert len(seen) == 1 and seen[0][0].tobytes() == g.nodes[0].params["w"].reshape(-1, 10).tobytes()

    @given(n=st.integers(0, 5000), per=st.integers(1, 3000))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_blocks_are_whole_samples_of_at_most_a_block(self, n, per):
        blocks = graph_module._blocks(n, per)
        sizes = [b.stop - b.start for b, _ in blocks]
        assert [b.start for b, _ in blocks] == [0, *np.cumsum(sizes)[:-1]] and sum(sizes) == n
        assert all(r.start == b.start * per and r.stop == b.stop * per for b, r in blocks)
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= max(1, bitpack.GEMM_BLOCK // per)


class TestFakeQuant:
    def test_float_passthrough(self, rng):
        x = rng.normal(size=10)
        assert fake_quant(x, None) is x

    def test_zero_tensor_passthrough(self):
        x = np.zeros(4)
        assert fake_quant(x, 8) is x

    def test_error_bounded_by_half_step(self, rng):
        x = rng.normal(size=1000)
        for bits in (4, 8, 16, 32):
            scale = np.abs(x).max() / (2 ** (bits - 1) - 1)
            assert np.abs(fake_quant(x, bits) - x).max() <= scale / 2 + 1e-12

    def test_one_bit_raises(self):
        # the restricted grid has no nonzero code at 1 bit
        for x in (np.array([0.3, -0.7, 0.1]), np.zeros(3)):
            with pytest.raises(GraphError, match="at least 2 bits"):
                fake_quant(x, 1)

    @pytest.mark.parametrize("bits,dtype", [(4, np.int8), (8, np.int8), (16, np.int16), (32, np.int32)])
    def test_bytes_are_the_written_out_snap(self, bits, dtype, rng):
        # tobytes, not array_equal, which holds -0.0 equal to +0.0
        tiny = [-1e-12, -1e-300, -5e-324, -0.0, 0.0, 1e-12]
        cases = [np.concatenate([rng.normal(size=300), tiny]), np.array([0.0, -2.5, -0.0]),
                 np.array([2.5, -2.5, 1.25]), np.array([[1e-3]]), np.zeros((2, 3)), np.array([-0.0])]
        hi = 2 ** (bits - 1) - 1
        for x in cases:
            before = x.tobytes()
            got = fake_quant(x, bits)
            assert x.tobytes() == before
            codes, scale = grad_codes(x, bits)
            if not np.abs(x).max():
                assert got is x and codes is x and scale is None
                continue
            s = np.abs(x).max() / hi
            assert scale == s
            assert codes.dtype == dtype and codes.shape == x.shape  # the narrowest integer type for bits
            assert codes.tobytes() == np.clip(np.rint(x / s), -hi, hi).astype(dtype).tobytes()
            assert got.tobytes() == (codes * s).tobytes()
            assert np.abs(codes).max() == hi  # the largest element sits at the end of the grid, either sign
        small = fake_quant(cases[0], bits)[-len(tiny):-2]
        assert np.all((small == 0) & ~np.signbit(small))  # code 0 times the scale: +0.0, whatever the sign

    @given(x=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
           bits=st.sampled_from(sorted({*BITWIDTHS["q_b_nonbin"], *BITWIDTHS["q_b_bin"]} - {1})),
           magnitude=st.integers(-323, 250))
    @example(x=[0.0, 0.5], bits=16, magnitude=-323)  # 5e-324: m / (2**15 - 1) underflows to 0
    @example(x=[0.12791, 0.59357], bits=8, magnitude=-319)  # a subnormal m / 127
    @settings(derandomize=True, max_examples=500, deadline=None)
    def test_a_second_snap_leaves_a_snapped_tensor_alone(self, x, bits, magnitude):
        # down to 5e-324, where m / (2**(bits-1) - 1) is subnormal or 0: a scale
        # of 0 once divided into NaN, with a divide-by-zero warning, and a
        # subnormal one, rounded to a few bits, gave the largest value a code
        # short of the grid's end, so a second snap moved it
        x = np.array(x) * 10.0**magnitude
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            once = grad_codes(x, bits)
            values = fake_quant(x, bits)
            twice = grad_codes(values, bits)
            assert np.all(np.isfinite(values))
            assert twice[0].tobytes() == once[0].tobytes() and twice[1] == once[1]
            assert fake_quant(values, bits).tobytes() == values.tobytes()


class TestBinaryWeightGradientOnCodes:
    """Every binary GEMM's weight gradient is bitpack.rows_t of its packed
    rows: on the integer codes of its gradient's pair at a width, else on the
    float gradient.  Neither builds the float64 +-1 patch matrix."""

    @staticmethod
    def _deployment_step(bw):
        """The reference model's 80-row deployment step at bw: its graph, its
        train-mode forward cache from the replay level and a head gradient."""
        rng = np.random.default_rng(0)
        cfg = ContinualConfig(bitwidth=bw)
        g = build_reference_model((12, 12, 1), channels=32, seed=0)
        xs = rng.uniform(-1.0, 1.0, size=(64, 12, 12, 1))
        initialize_bn_stats(g, xs)
        calibrate_activations(g, xs, bw.q_f)
        freeze_backbone(g, cfg)
        latents = bitpack.from01(rng.integers(0, 2, size=(cfg.b_n + cfg.b_r, 12, 12, 32)))
        out, cache = forward(g, latents, bw, mode="train", from_level=g.replay_level)
        return g, cache, rng.normal(size=out.shape)

    @staticmethod
    def _count_decoded_rows(monkeypatch):
        calls = []
        rows01 = bitpack._rows01
        monkeypatch.setattr(bitpack, "_rows01", lambda rows, spec: calls.append(len(rows)) or rows01(rows, spec))
        return calls

    def test_pretraining_backward_peak(self):
        # each binary conv's input gradient was one (4608, 288) float64 patch
        # gradient, 10.6 MB, before col2im: the peak read 14.85 MB.  Built per
        # block of whole samples of about bitpack.GEMM_BLOCK rows, it read
        # 8.01 MB; of about bitpack.CODE_ROWS rows, 4.95 MB
        rng = np.random.default_rng(0)
        g = build_reference_model((12, 12, 1), channels=32, seed=0)
        xs = rng.uniform(-1.0, 1.0, size=(32, 12, 12, 1))
        initialize_bn_stats(g, xs)
        for node in g.nodes:
            node.trainable = bool(graph_module.KINDS[node.kind].trained)
        out, cache = forward(g, xs, FLOAT_CFG, mode="train")
        direction = rng.normal(size=out.shape)
        tracemalloc.start()
        try:
            grads = backward(g, cache, direction, FLOAT_CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.5e6
        assert sorted(grads) == [i for i, n in enumerate(g.nodes) if n.trainable]

    def test_deployment_backward_peak(self):
        # block3_conv's float64 +-1 patch matrix, 11520 x 288, would take 26.5 MB
        # alone; the chain's gathered caches and fresh snaps of 2.95 MB each put
        # the peak at 14.8 MB (11.9 MB at float), residual_add's copying
        # re-snap of its pass-through gradient at 10.1 MB at every width, and
        # full float64 gradients above the replay level at 7.35 MB at every
        # width.  Blocked per-channel passes on integer codes: about 2.4, 3.1
        # and 4.6 MB at q_b_nonbin 8, 16 and 32, and 7.5 MB at float
        peaks = {}
        for bw, bound in [(BitwidthConfig(q_f=8, q_b_nonbin=16, q_b_bin=4), 4.0e6),
                          (BitwidthConfig(q_f=8, q_b_nonbin=8, q_b_bin=4), 3.0e6),
                          (BitwidthConfig(q_f=32, q_b_nonbin=32, q_b_bin=32), 5.5e6),
                          (BitwidthConfig(q_f=8, q_b_nonbin=None, q_b_bin=4), 9.5e6)]:
            g, cache, direction = self._deployment_step(bw)
            tracemalloc.start()
            try:
                grads = backward(g, cache, direction, bw, from_level=g.replay_level)
                peaks[bw.q_b_nonbin] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peaks[bw.q_b_nonbin] <= bound, bw
            conv = next(i for i, n in enumerate(g.nodes) if n.name == "block3_conv")
            assert np.any(grads[conv]["latent"])
        assert peaks[8] < peaks[16] < peaks[32]  # the step's memory follows its gradient width

    def test_deployment_step_decodes_the_rows_in_chunks(self, monkeypatch):
        counted = self._count_decoded_rows(monkeypatch)
        for bw in [BitwidthConfig(q_f=8, q_b_nonbin=16, q_b_bin=4),
                   BitwidthConfig(q_f=8, q_b_nonbin=8, q_b_bin=16),
                   BitwidthConfig(q_f=32, q_b_nonbin=32, q_b_bin=32),
                   BitwidthConfig(q_f=8, q_b_nonbin=None, q_b_bin=4)]:
            g, cache, direction = self._deployment_step(bw)
            counted.clear()
            backward(g, cache, direction, bw, from_level=g.replay_level)
            assert sum(counted) == 11520 and max(counted) <= bitpack.CODE_ROWS, bw

    def test_rows_t_receives_the_codes_block3_bn_made(self, monkeypatch):
        # block3_bn snaps block3_conv's gradient at q_b_nonbin, and hands its
        # codes on in the narrowest integer type for that width, at any
        # q_b_bin; a float gradient goes as it is
        seen, rows_t = [], bitpack.rows_t

        def spy(rows, spec, g, scale=None):
            seen.append((g.dtype, scale is None))
            return rows_t(rows, spec, g, scale)

        monkeypatch.setattr(bitpack, "rows_t", spy)
        for bw, dtype in [(BitwidthConfig(q_f=8, q_b_nonbin=8, q_b_bin=4), np.int8),
                          (BitwidthConfig(q_f=8, q_b_nonbin=16, q_b_bin=4), np.int16),
                          (BitwidthConfig(q_f=8, q_b_nonbin=16, q_b_bin=32), np.int16),
                          (BitwidthConfig(q_f=32, q_b_nonbin=32, q_b_bin=32), np.int32),
                          (BitwidthConfig(q_f=8, q_b_nonbin=None, q_b_bin=4), np.float64)]:
            g, cache, direction = self._deployment_step(bw)
            seen.clear()
            backward(g, cache, direction, bw, from_level=g.replay_level)
            assert seen == [(dtype, dtype == np.float64)], bw

    def test_float_pretraining_step_decodes_each_binary_convs_rows_in_chunks(self, rng, monkeypatch):
        g = build_reference_model((12, 12, 1), channels=4, seed=0)
        xs = rng.uniform(-1.0, 1.0, size=(5, 12, 12, 1))
        initialize_bn_stats(g, xs)
        for node in g.nodes:
            node.trainable = bool(graph_module.KINDS[node.kind].trained)
        out, cache = forward(g, xs, FLOAT_CFG, mode="train")
        counted = self._count_decoded_rows(monkeypatch)
        grads = backward(g, cache, rng.normal(size=out.shape), FLOAT_CFG)
        assert sum(counted) == 3 * 5 * 144 and max(counted) <= bitpack.CODE_ROWS
        assert sum("latent" in grads[i] for i in grads) == 3

    def test_weight_gradient_is_the_exact_product_of_the_codes(self, rng):
        # q_b_bin float leaves the latent gradient unsnapped: the integer
        # product of the signs and the codes, times the scale, rounded once
        bw = BitwidthConfig(q_f=None, q_b_nonbin=16, q_b_bin=None)
        for cin, padding in [(None, None)] * 5 + [(9, 1), (65, 0)]:
            g, x, spec, _ = random_binary_conv_case(rng, cin, padding)
            g.add("prelu", params={"alpha": np.ones(spec.out_channels)})  # the identity: one reader
            out, cache = forward(g, x, bw, mode="train")
            direction = rng.normal(size=out.shape)
            pgrads = backward(g, cache, direction, bw)
            codes, scale = grad_codes(fake_quant(direction, 16), 16)
            w_pm = g.nodes[0].weight_bits.unpack().astype(np.float64)
            gw, _ = naive_binary_conv_grads(x, w_pm, codes.astype(np.float64), spec.stride, spec.padding)
            assert pgrads[0]["latent"].tobytes() == (gw * scale).tobytes()

    def test_a_gradient_summed_from_two_readers_is_snapped_once(self, rng):
        bw = BitwidthConfig(q_f=None, q_b_nonbin=16, q_b_bin=None)
        g = Graph((8,))
        gemm = g.add("binary_dense", trainable=True, params={"latent": rng.uniform(-1.0, 1.0, size=(8, 3))})
        ends = [g.add("prelu", inputs=gemm, params={"alpha": np.ones(3)}) for _ in range(2)]
        g.add("add", inputs=ends)
        x = rng.choice([-1.0, 1.0], size=(4, 8))
        out, cache = forward(g, x, bw, mode="train")
        direction = rng.normal(size=out.shape)
        grads = backward(g, cache, direction, bw)
        # each identity prelu's snap leaves the add's pair alone, and their sum
        # is snapped once: the latent gradient is the exact product of its codes
        codes, scale = grad_codes(2 * fake_quant(direction, 16), 16)
        assert grads[gemm]["latent"].tobytes() == ((x.T @ codes.astype(np.float64)) * scale).tobytes()


class TestRandomBinaryGemmGraphs:
    """A binary GEMM under one or two readers, drawn at random, against the
    loop oracle: at a width the latent gradient is the exact integer product
    of the signs and the codes of its gradient's pair, times the scale; a
    float gradient gives the +-1 product within float64 rounding."""

    @given(conv=st.booleans(), cin=st.sampled_from([1, 7, 8, 9, 63, 64, 65]), cout=st.integers(1, 3),
           n=st.integers(1, 2), h=st.integers(3, 7), stride=st.integers(1, 2), padding=st.integers(0, 1),
           readers=st.integers(1, 2), bits=st.sampled_from([None, *BITWIDTHS["q_b_nonbin"]]),
           seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_latent_gradient_matches_the_loop_oracle(self, conv, cin, cout, n, h, stride, padding,
                                                     readers, bits, seed):
        rng = np.random.default_rng(seed)
        bw = BitwidthConfig(q_f=None, q_b_nonbin=bits, q_b_bin=None)  # the latent gradient stays unsnapped
        if not conv:  # a dense layer is a 1x1 conv of 1x1 images
            stride, padding = 1, 0
        k = 3 if conv else 1
        spec = BinConvSpec(k, k, stride, padding, cin, cout)
        in_shape = (h, h, cin) if conv else (cin,)
        latent = rng.uniform(-1.0, 1.0, size=(k, k, cin, cout) if conv else (cin, cout))
        g = Graph(in_shape)
        if conv:
            gemm = g.add("binary_conv2d", trainable=True, spec=spec, params={"latent": latent})
        else:
            gemm = g.add("binary_dense", trainable=True, params={"latent": latent})
        ends = [g.add("prelu", inputs=gemm, params={"alpha": np.ones(cout)}) for _ in range(readers)]
        if readers == 2:
            g.add("add", inputs=ends)
        x = rng.choice([-1.0, 1.0], size=(n, *in_shape))
        out, cache = forward(g, x, bw, mode="train")
        direction = rng.normal(size=out.shape)
        got = backward(g, cache, direction, bw)[gemm]["latent"]

        def oracle(grad):
            x4, g4 = (x, grad) if conv else (x.reshape(n, 1, 1, cin), grad.reshape(n, 1, 1, cout))
            w_pm = g.nodes[gemm].weight_bits.unpack().reshape(k, k, cin, cout).astype(np.float64)
            return naive_binary_conv_grads(x4, w_pm, g4, stride, padding)[0].reshape(latent.shape)

        summed = readers * fake_quant(direction, bits)  # each identity prelu's snap leaves it alone
        if bits is None:
            assert_within_column_sums(got, oracle(summed), summed)
        else:  # the sum of two readers snapped once
            codes, scale = grad_codes(summed, bits)
            assert got.tobytes() == (oracle(codes.astype(np.float64)) * scale).tobytes()


class TestInPlaceSnaps:
    """backward snaps an input gradient in place only where its node made it
    afresh: what the caller hands in, an add's two branches and the gradients
    it returns share no memory that a snap writes."""

    @staticmethod
    def _prelu_pair(rng):
        """Two trained prelus of the input, summed by an add."""
        g = Graph((6,))
        ends = [g.add("prelu", inputs=-1, trainable=True, params={"alpha": a})
                for a in (rng.uniform(0.1, 0.5, size=6), np.array([0.0, 1.0, -0.5, 0.25, 2.0, 0.0]))]
        g.add("add", inputs=ends)
        return g, rng.normal(size=(5, 6))

    def test_grad_at_head_is_left_as_it_is(self, rng):
        g, x = self._prelu_pair(rng)
        steps = [(g, x, bw) for bw in (FLOAT_CFG, BitwidthConfig(q_f=None, q_b_nonbin=8, q_b_bin=8))]
        ref = build_reference_model((6, 6, 1), channels=4, seed=0)
        steps.append((ref, rng.normal(size=(3, 6, 6, 1)), FLOAT_CFG))
        for graph, xs, bw in steps:
            for node in graph.nodes:
                node.trainable = bool(graph_module.KINDS[node.kind].trained)
            out, cache = forward(graph, xs, bw, mode="train")
            head = rng.normal(size=out.shape)
            before = head.tobytes()
            backward(graph, cache, head, bw, return_act_grads=True)
            assert head.tobytes() == before

    @pytest.mark.parametrize("bits", [8, 16])
    def test_an_add_hands_both_branches_the_one_snapped_pair(self, bits, rng, monkeypatch):
        bw = BitwidthConfig(q_f=None, q_b_nonbin=bits, q_b_bin=bits)
        g, x = self._prelu_pair(rng)
        out, cache = forward(g, x, bw, mode="train")
        direction = rng.normal(size=out.shape)
        handed, run = {}, graph_module._backward_node

        def spy(idx, node, pair, *args):
            handed[idx] = pair
            return run(idx, node, pair, *args)

        monkeypatch.setattr(graph_module, "_backward_node", spy)
        pgrads, agrads = backward(g, cache, direction, bw, return_act_grads=True)
        # the head's pair: its values neither copied nor snapped again
        assert handed[0][0] is handed[1][0] is handed[2][0] and handed[0][1] == handed[2][1]
        branch = fake_quant(direction, bits)  # the head's snap, which the add hands on as it is
        gins = []
        for idx in (0, 1):
            alpha = g.nodes[idx].params["alpha"]
            want = fake_quant(np.sum(branch * x * (x < 0), axis=0), bits)
            assert pgrads[idx]["alpha"].tobytes() == want.tobytes()
            gins.append(branch * np.where(x >= 0, 1.0, alpha))
        # prelu 1 runs first and snaps its input gradient; prelu 0's is summed
        # into it, and the sum snapped once
        assert agrads[-1].tobytes() == fake_quant(fake_quant(gins[1], bits) + gins[0], bits).tobytes()

    @pytest.mark.parametrize("bw", [FLOAT_CFG, BitwidthConfig(q_f=8, q_b_nonbin=16, q_b_bin=4)])
    def test_returned_gradients_survive_a_second_backward(self, bw, rng):
        pooled = Graph((3, 3, 2))
        pooled.add("global_avg_pool")
        ref = build_reference_model((6, 6, 1), channels=4, seed=0)
        xs = rng.uniform(-1.0, 1.0, size=(3, 6, 6, 1))
        initialize_bn_stats(ref, xs)
        for graph, x in [(pooled, rng.normal(size=(4, 3, 3, 2))), (ref, xs)]:
            for node in graph.nodes:
                node.trainable = bool(graph_module.KINDS[node.kind].trained)
            if bw.q_f is not None:
                calibrate_activations(graph, x, bw.q_f)
            out, cache = forward(graph, x, bw, mode="train")
            direction = rng.normal(size=out.shape)
            first = backward(graph, cache, direction, bw, return_act_grads=True)[1]
            kept = {i: v.tobytes() for i, v in first.items()}
            backward(graph, cache, direction, bw, return_act_grads=True)
            assert {i: v.tobytes() for i, v in first.items()} == kept

    @pytest.mark.parametrize("bits", [None, 8, 16])
    def test_a_pooled_input_gradient_comes_back_as_a_read_only_broadcast(self, bits, rng):
        bw = BitwidthConfig(q_f=None, q_b_nonbin=bits, q_b_bin=bits)
        g = Graph((3, 3, 2))
        g.add("global_avg_pool")
        x = rng.normal(size=(4, 3, 3, 2))
        out, cache = forward(g, x, bw, mode="train")
        direction = rng.normal(size=out.shape)
        got = backward(g, cache, direction, bw, return_act_grads=True)[1][-1]
        pooled = np.broadcast_to(fake_quant(direction, bits)[:, None, None, :] / 9, x.shape).copy()
        assert got.shape == x.shape and got.tobytes() == fake_quant(pooled, bits).tobytes()
        assert got.strides[1:3] == (0, 0) and not got.flags.writeable  # the 4 x 2 values, held once


class TestQuantizedBackwardFidelity:
    def _three_layer_net(self, rng):
        fin, fmid, fout = 6, 8, 4
        g = Graph((fin,))
        g.add("dense", trainable=True,
              params={"w": rng.normal(size=(fin, fmid)), "b": rng.normal(size=fmid)})
        g.add("prelu", trainable=True, params={"alpha": rng.uniform(0.1, 0.5, size=fmid)})
        g.add("dense", trainable=True,
              params={"w": rng.normal(size=(fmid, fout)), "b": rng.normal(size=fout)})
        x = rng.normal(size=(5, fin))
        return g, x

    @staticmethod
    def _cosines(g, x, direction, bits):
        _, cache = forward(g, x, FLOAT_CFG, mode="train")
        ref = backward(g, cache, direction, FLOAT_CFG)
        got = backward(g, cache, direction, BitwidthConfig(q_f=None, q_b_nonbin=bits, q_b_bin=bits if bits in (1, 4, 8, 16, 32) else None))
        cos = []
        for idx in ref:
            for name in ref[idx]:
                a, b = ref[idx][name].ravel(), got[idx][name].ravel()
                denom = np.linalg.norm(a) * np.linalg.norm(b)
                if denom > 0:
                    cos.append(float(a @ b / denom))
        return cos

    def test_16_bit_cosine_above_099(self, rng):
        for _ in range(5):
            g, x = self._three_layer_net(rng)
            out, _ = forward(g, x, FLOAT_CFG, mode="infer")
            direction = rng.normal(size=out.shape)
            assert min(self._cosines(g, x, direction, 16)) >= 0.99

    def test_similarity_monotone_in_bits(self):
        rng = np.random.default_rng(777)
        means = {}
        for bits in (8, 16, 32):
            vals = []
            r = np.random.default_rng(777)
            for _ in range(10):
                g, x = self._three_layer_net(r)
                out, _ = forward(g, x, FLOAT_CFG, mode="infer")
                direction = r.normal(size=out.shape)
                vals.extend(self._cosines(g, x, direction, bits))
            means[bits] = np.mean(vals)
        assert means[8] <= means[16] <= means[32]


class TestSgdStep:
    def test_zero_gradient_is_bit_identical(self, rng):
        g = Graph((3,))
        g.add("dense", trainable=True,
              params={"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)})
        cfg = BitwidthConfig(q_f=None, q_b_nonbin=16, q_b_bin=None)
        # store once onto the fixed grid, as the training setup does
        node = g.nodes[0]
        for pname in ("w", "b"):
            store_param(node, pname, node.params[pname], cfg)
        before = {k: v.copy() for k, v in node.params.items()}
        sgd_step(g, {0: {"w": np.zeros((3, 2)), "b": np.zeros(2)}}, 0.5, cfg)
        for k in before:
            assert node.params[k].tobytes() == before[k].tobytes()

    def test_convex_toy_converges_to_grid_optimum(self):
        # least squares fit of y = 2x + 0.25 from w=1.5, b=0.5
        g = Graph((1,))
        g.add("dense", trainable=True, params={"w": np.array([[1.5]]), "b": np.array([0.5])})
        cfg = BitwidthConfig(q_f=None, q_b_nonbin=16, q_b_bin=None)
        xs = np.linspace(-1, 1, 16).reshape(-1, 1)
        ts = 2.0 * xs + 0.25
        for _ in range(500):
            out, cache = forward(g, xs, cfg, mode="train")
            grad = 2.0 * (out - ts) / len(xs)
            sgd_step(g, backward(g, cache, grad, cfg), 0.4, cfg)
        node = g.nodes[0]
        for pname, target in (("w", 2.0), ("b", 0.25)):
            step = node.param_scales[pname]
            assert abs(float(node.params[pname].ravel()[0]) - target) <= 2 * step

    def test_latent_clip_and_rebinarize(self):
        latent = np.array([[0.9, -0.9]])
        g = Graph((1,))
        nid = g.add("binary_dense", trainable=True, params={"latent": latent.copy()})
        cfg = BitwidthConfig(q_f=None, q_b_nonbin=None, q_b_bin=8)
        sgd_step(g, {nid: {"latent": np.array([[-5.0, 5.0]])}}, 1.0, cfg)
        node = g.nodes[nid]
        # clipped to the largest symmetric grid value inside [-1, 1]
        scale = latent_grid_scale(8)
        assert node.params["latent"].min() >= -1.0 and node.params["latent"].max() <= 1.0
        assert node.params["latent"][0, 0] == pytest.approx(127 * scale)
        assert node.params["latent"][0, 1] == pytest.approx(-127 * scale)
        assert node.weight_bits.unpack().ravel().tolist() == [1, -1]
        snapped = snap_to_fixed_grid(node.params["latent"], scale, 8, symmetric=True)
        np.testing.assert_allclose(node.params["latent"], snapped, atol=1e-7)


class TestStoreParam:
    def test_add_derives_weight_bits_from_latent(self):
        latent = np.array([[0.5, -0.25, 0.0], [-1.0, 0.75, -0.1]])
        g = Graph((2,))
        nid = g.add("binary_dense", params={"latent": latent})
        assert g.nodes[nid].weight_bits == bitpack.binarize(latent)
        with pytest.raises(GraphError):  # neither latent nor weight bits
            g.add("binary_dense", params={})

    def test_latent_is_clipped_snapped_and_rebinarized(self):
        g = Graph((1,))
        node = g.nodes[g.add("binary_dense", params={"latent": np.array([[0.5, 0.5, 0.5]])})]
        store_param(node, "latent", np.array([[-3.0, 0.1, 0.4]]), BitwidthConfig(q_b_bin=4))
        step = latent_grid_scale(4)
        np.testing.assert_allclose(node.params["latent"], [[-7 * step, step, 3 * step]], rtol=1e-7)
        assert node.params["latent"].dtype == np.float64
        assert node.params["latent"].astype(np.float32).astype(np.float64).tobytes() == \
            node.params["latent"].tobytes()
        assert node.weight_bits.unpack().ravel().tolist() == [-1, 1, 1]
        assert node.param_scales == {}

    def test_float_latent_is_only_clipped(self):
        g = Graph((1,))
        node = g.nodes[g.add("binary_dense", params={"latent": np.array([[0.5, 0.5]])})]
        store_param(node, "latent", np.array([[2.0, -0.3]]), BitwidthConfig.floating())
        assert node.params["latent"].tolist() == [[1.0, np.float32(-0.3)]]
        assert node.weight_bits.unpack().ravel().tolist() == [1, -1]

    def test_grid_is_pinned_by_the_first_store(self):
        g = Graph((2,))
        node = g.nodes[g.add("prelu", params={"alpha": np.array([0.25, -0.5])})]
        cfg = BitwidthConfig(q_b_nonbin=8)
        store_param(node, "alpha", np.array([3.0, 0.1]), cfg)
        scale = node.param_scales["alpha"]
        # the grid comes from the value the node held: 2x headroom over 0.5
        assert scale == 2.0 * 1.0 / 255
        assert node.params["alpha"].tolist() == pytest.approx([127 * scale, 0.1], abs=scale / 2)
        store_param(node, "alpha", np.array([100.0, 0.0]), cfg)
        assert node.param_scales["alpha"] == scale
        assert node.params["alpha"][0] == pytest.approx(127 * scale)

    def test_float_param_is_kept_at_f32(self):
        g = Graph((1,))
        node = g.nodes[g.add("prelu", params={"alpha": np.array([0.25])})]
        store_param(node, "alpha", np.array([0.1]), BitwidthConfig.floating())
        assert node.params["alpha"].tolist() == [float(np.float32(0.1))]
        assert node.param_scales == {}


class TestMacCount:
    def _reference(self):
        from binreplay.learner import build_reference_model
        return build_reference_model(channels=32, seed=0)

    def test_forward_macs_hand_formula(self):
        g = self._reference()
        stem = 12 * 12 * 3 * 3 * 1 * 32
        block = 12 * 12 * 3 * 3 * 32 * 32
        assert mac_count(g, "forward") == stem + 3 * block

    def test_above_level_excludes_frozen_region(self):
        g = self._reference()
        block = 12 * 12 * 3 * 3 * 32 * 32
        assert mac_count(g, "forward", above_level=g.replay_level) == block

    def test_backward_is_twice_forward_for_trainable(self):
        g = self._reference()
        for idx, node in enumerate(g.nodes):
            node.trainable = idx > g.replay_level and (bool(node.params) or node.weight_bits is not None)
        fwd = mac_count(g, "forward", above_level=g.replay_level)
        bwd = mac_count(g, "backward", above_level=g.replay_level)
        assert bwd == 2 * fwd

    def test_frozen_layers_contribute_zero_backward(self):
        g = self._reference()
        for node in g.nodes:
            node.trainable = False
        assert mac_count(g, "backward") == 0

    def test_invalid_mode(self):
        with pytest.raises(GraphError):
            mac_count(self._reference(), "sideways")

    def test_dense_chain_shapes_and_macs(self):
        g = Graph((6,))
        g.add("dense", trainable=True, params={"w": np.ones((6, 5)), "b": np.zeros(5)})
        g.add("binarize")
        g.add("binary_dense", params={"latent": np.ones((5, 4))})
        g.add("softmax_ce_head", trainable=True, params={"w": np.ones((4, 3)), "b": np.zeros(3)})
        assert infer_shapes(g) == {-1: (6,), 0: (5,), 1: (5,), 2: (4,), 3: (3,)}
        assert mac_count(g, "forward") == 6 * 5 + 5 * 4 + 4 * 3
        assert mac_count(g, "forward", above_level=1) == 5 * 4 + 4 * 3
        assert mac_count(g, "backward") == 2 * (6 * 5 + 4 * 3)  # the binary layer is frozen

    @pytest.mark.parametrize("bits", [BitwidthConfig.floating(), BitwidthConfig(8, 16, 4)],
                             ids=["float", "8-16-4"])
    def test_softmax_ce_head_runs_as_dense(self, bits, rng):
        # the same bytes forward and backward, grid nodes and MACs as a dense head
        xs = rng.normal(size=(5, 6))
        params = {"w": rng.normal(size=(6, 4)), "b": rng.normal(size=4)}
        head = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        runs = []
        for kind in ("softmax_ce_head", "dense"):
            g = Graph((6,))
            g.add("dense", trainable=True, params=dict(params))
            g.add("binarize")  # holds a grid only because a float GEMM reads it
            g.add(kind, trainable=True, params=dict(head))
            calibrate_activations(g, xs, bits.q_f)
            out, cache = forward(g, xs, bits, mode="train")
            pgrads, agrads = backward(g, cache, np.ones_like(out), bits, return_act_grads=True)
            runs.append((out.tobytes(), grid_nodes(g), mac_count(g, "forward"), mac_count(g, "backward"),
                         {i: {k: v.tobytes() for k, v in d.items()} for i, d in pgrads.items()},
                         {i: v.tobytes() for i, v in agrads.items()}))
        assert runs[0] == runs[1]
        assert runs[0][1] == [0, 1, 2]

    def test_strided_conv_macs(self):
        g = Graph((7, 7, 2))
        g.add("conv2d", params={"w": np.ones((3, 3, 2, 4)), "b": np.zeros(4)},
              spec=BinConvSpec(3, 3, 2, 0, 2, 4))
        assert infer_shapes(g)[0] == (3, 3, 4)
        assert mac_count(g, "forward") == 3 * 3 * 4 * (3 * 3 * 2)

    @pytest.mark.parametrize("input_shape", [(12, 12), (12, 12, 1, 1), (12, 12, 3)])
    def test_conv_input_shape_error_names_node(self, input_shape):
        g = Graph(input_shape)
        g.add("conv2d", name="stem", params={"w": np.ones((3, 3, 1, 2)), "b": np.zeros(2)},
              spec=BinConvSpec(3, 3, 1, 1, 1, 2))
        with pytest.raises(GraphError, match="stem"):
            infer_shapes(g)
        with pytest.raises(GraphError, match="stem"):
            mac_count(g)
        with pytest.raises(GraphError, match="stem"):
            forward(g, np.zeros((2, *input_shape)), FLOAT_CFG)


class TestForwardModes:
    def _chain(self, rng):
        g = Graph((4,))
        g.add("dense", trainable=True,
              params={"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)})
        g.add("prelu", params={"alpha": np.full(3, 0.25)})
        g.add("dense", params={"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)})
        return g

    def test_stop_and_resume_equals_full(self, rng):
        g = self._chain(rng)
        x = rng.normal(size=(5, 4))
        full, _ = forward(g, x, FLOAT_CFG, mode="infer")
        mid, _ = forward(g, x, FLOAT_CFG, mode="infer", stop_level=1)
        resumed, _ = forward(g, mid, FLOAT_CFG, mode="infer", from_level=1)
        np.testing.assert_array_equal(full, resumed)

    def test_infer_mode_has_no_cache(self, rng):
        g = self._chain(rng)
        _, cache = forward(g, rng.normal(size=(2, 4)), FLOAT_CFG, mode="infer")
        assert cache == {}

    def test_invalid_mode_rejected(self, rng):
        with pytest.raises(GraphError):
            forward(self._chain(rng), np.zeros((1, 4)), FLOAT_CFG, mode="test")

    @pytest.mark.parametrize("levels,refused", [
        ({"stop_level": 99}, "stop_level 99"),
        ({"stop_level": 3}, "stop_level 3"),
        ({"stop_level": -3}, "stop_level -3"),
        ({"stop_level": -1}, "stop_level -1"),
        ({"from_level": 1, "stop_level": 1}, "stop_level 1"),
        ({"from_level": 1, "stop_level": 0}, "stop_level 0"),
        ({"from_level": -5}, "from_level -5"),
        ({"from_level": 40}, "from_level 40"),
    ])
    def test_forward_refuses_a_level_that_names_no_node(self, levels, refused, rng):
        # a stop_level that forward never reaches ran the whole graph, and a
        # from_level outside it ended in a KeyError
        x = rng.normal(size=(2, 3 if "from_level" in levels else 4))
        with pytest.raises(GraphError, match=f"^{refused} names no node"):
            forward(self._chain(rng), x, FLOAT_CFG, **levels)

    @pytest.mark.parametrize("from_level", [99, 3, -2])
    def test_backward_refuses_a_from_level_that_names_no_node(self, from_level, rng):
        # from_level 99 returned no gradient, and no error
        g = self._chain(rng)
        out, cache = forward(g, rng.normal(size=(2, 4)), FLOAT_CFG, mode="train")
        with pytest.raises(GraphError, match=f"^from_level {from_level} names no node"):
            backward(g, cache, np.ones_like(out), FLOAT_CFG, from_level=from_level)

    def test_the_first_and_last_levels_are_taken(self, rng):
        g = self._chain(rng)
        x = rng.normal(size=(2, 4))
        full, cache = forward(g, x, FLOAT_CFG, mode="train")
        assert forward(g, x, FLOAT_CFG, from_level=-1, stop_level=2)[0].tobytes() == full.tobytes()
        assert forward(g, full, FLOAT_CFG, from_level=2)[0] is full
        assert sorted(backward(g, cache, np.ones_like(full), FLOAT_CFG, from_level=-1)) == [0]

    def test_a_reads_target_gets_each_output_as_forward_holds_it(self, rng):
        # stem_sign's packed sign, block1_conv's exact counts, and the _Tabled
        # outputs of block1_bn and block1_sign, where a plain dict gets floats
        # and gathered outputs of the same values
        g = build_reference_model((6, 6, 1), channels=4, seed=0)
        xs = rng.uniform(-1.0, 1.0, size=(3, 6, 6, 1))
        initialize_bn_stats(g, xs)

        class Reads(dict):
            reads = {1, 2, 3, 4}

        held, plain = Reads(), {}
        forward(g, xs, FLOAT_CFG, collect=held)
        forward(g, xs, FLOAT_CFG, collect=plain)
        assert sorted(held) == [1, 2, 3, 4] and len(plain) == len(g.nodes)
        assert isinstance(held[1], BitTensor) and held[1] == plain[1]
        assert held[2].dtype == np.int32 and plain[2].dtype == np.float64
        assert held[2].astype(np.float64).tobytes() == plain[2].tobytes()
        assert all(isinstance(held[i], graph_module._Tabled) for i in (3, 4))
        assert held[3].gather().tobytes() == plain[3].tobytes()
        assert held[4].gather() == plain[4]

    def test_backward_floor_stops_at_from_level(self, rng):
        g = self._chain(rng)
        x = rng.normal(size=(2, 4))
        mid, _ = forward(g, x, FLOAT_CFG, mode="infer", stop_level=1)
        out, cache = forward(g, mid, FLOAT_CFG, mode="train", from_level=1)
        pgrads = backward(g, cache, np.ones_like(out), FLOAT_CFG, from_level=1)
        assert 0 not in pgrads  # layer below the floor receives nothing

    def test_shape_error_names_node(self, rng):
        g = self._chain(rng)
        with pytest.raises(GraphError, match="dense_0"):
            forward(g, np.zeros((2, 7)), FLOAT_CFG)

    def test_binary_dense_shape_error_names_node(self):
        g = Graph((4,))
        g.add("binary_dense", params={"latent": np.ones((4, 3))})
        with pytest.raises(GraphError, match="binary_dense_0"):
            forward(g, np.zeros((2, 7)), FLOAT_CFG)

    @pytest.mark.parametrize("bits", [8, 16, 32])
    @pytest.mark.parametrize("kind", ["dense", "softmax_ce_head", "conv2d"])
    def test_quantized_dense_matches_oracle(self, kind, bits, rng):
        # the codes' product is exact at 8 bits (qmatmul's 32-bit accumulator)
        # and at 16 bits (a float64 product below 2**53), so it is the int64
        # one; at 32 bits it is the float64 product of the same patch rows.
        # The input and output grids span x and y
        for _ in range(5):
            if kind == "conv2d":
                cin, cout, h, stride = (int(v) for v in rng.integers(1, [5, 5, 5, 3]))
                spec = BinConvSpec(3, 3, stride, 1, cin, cout)
                w, b = rng.normal(size=(3, 3, cin, cout)), rng.normal(size=cout)
                g = Graph((h + 2, h + 2, cin))
                g.add(kind, params={"w": w, "b": b}, spec=spec)
                x = rng.normal(size=(int(rng.integers(1, 4)), h + 2, h + 2, cin))
            else:
                fin, fout, batch = (int(v) for v in rng.integers(1, 40, size=3))
                w, b = rng.normal(size=(fin, fout)), rng.normal(size=fout)
                g = Graph((fin,))
                g.add(kind, params={"w": w, "b": b})
                x = rng.normal(size=(batch, fin))
            xq = quantize(x, quant_params(*calibrate_range([x]), bits, signed=False))
            wq = quantize(w, quant_params(*calibrate_range([w]), bits, signed=True))
            rows = xq.data - xq.params.zero_point
            if kind == "conv2d":  # patch rows in (kh, kw, c) order; a pad is 0.0, code zero_point
                padded = np.pad(rows, ((0, 0), (1, 1), (1, 1), (0, 0)))
                oh = (padded.shape[1] - 3) // stride + 1
                taps = [padded[:, i : i + stride * oh : stride, j : j + stride * oh : stride]
                        for i in range(3) for j in range(3)]
                rows = np.stack(taps, axis=3).reshape(-1, 9 * cin)
            wrows = wq.data.reshape(rows.shape[1], -1)
            if bits < 32:
                acc = (rows @ wrows).astype(np.float64)
            else:
                acc = rows.astype(np.float64) @ wrows.astype(np.float64)
            y = acc * (xq.params.scale * wq.params.scale) + b
            g.input_qparams = xq.params
            g.nodes[0].out_qparams = quant_params(*calibrate_range([y]), bits, signed=False)
            want = dequantize(quantize(y, g.nodes[0].out_qparams))
            out, _ = forward(g, x, BitwidthConfig(q_f=bits), mode="infer")
            assert out.shape == (len(x), *infer_shapes(g)[0])
            assert out.tobytes() == want.tobytes()

    def test_32_bit_conv_does_not_wrap(self):
        # 32-bit codes near 2**32 and 2**30: their int64 sum over 9 taps wrapped
        g = Graph((3, 3, 1))
        g.add("conv2d", params={"w": np.ones((3, 3, 1, 1)), "b": np.zeros(1)},
              spec=BinConvSpec(3, 3, 1, 0, 1, 1))
        x = np.ones((1, 3, 3, 1))
        g.input_qparams = quant_params(*calibrate_range([x]), 32, signed=False)
        g.nodes[0].out_qparams = quant_params(-16.0, 16.0, 32, signed=False)
        out, _ = forward(g, x, BitwidthConfig(q_f=32), mode="infer")
        np.testing.assert_allclose(out, [[[[9.0]]]], rtol=1e-9)

    def test_32_bit_dense_matches_float(self, rng):
        x = rng.uniform(-1.0, 1.0, size=(16, 64))
        w = rng.normal(size=(64, 8))
        g = Graph((64,))
        g.add("dense", params={"w": w, "b": np.zeros(8)})
        calibrate_activations(g, x, 32)
        out, _ = forward(g, x, BitwidthConfig(q_f=32), mode="infer")
        np.testing.assert_allclose(out, x @ w, rtol=0, atol=1e-6)

    def test_deterministic_repeat(self, rng):
        g = self._chain(rng)
        x = rng.normal(size=(3, 4))
        cfg = BitwidthConfig(q_f=8, q_b_nonbin=16, q_b_bin=4)
        calibrate_activations(g, x, cfg.q_f)
        a, _ = forward(g, x, cfg, mode="infer")
        b, _ = forward(g, x, cfg, mode="infer")
        assert a.tobytes() == b.tobytes()


class TestPackedSigns:
    """A sign's output stays a BitTensor inside forward; only float readers
    unpack it."""

    @pytest.mark.parametrize("cfg", [FLOAT_CFG, BitwidthConfig(q_f=8, q_b_nonbin=16, q_b_bin=4)],
                             ids=["float", "8/16/4"])
    def test_reference_model_resumes_from_packed_latents(self, cfg, rng):
        g = build_reference_model(input_shape=(6, 6, 1), channels=4, seed=0)
        xs = rng.uniform(-1.0, 1.0, size=(5, 6, 6, 1))
        initialize_bn_stats(g, xs)
        calibrate_activations(g, xs, cfg.q_f)
        full, _ = forward(g, xs, cfg, mode="infer")
        lat, _ = forward(g, xs, cfg, mode="infer", stop_level=g.replay_level)
        assert isinstance(lat, BitTensor) and lat.shape == (5, 6, 6, 4)
        resumed, _ = forward(g, lat, cfg, mode="infer", from_level=g.replay_level)
        assert resumed.tobytes() == full.tobytes()

    def test_only_float_readers_unpack(self, rng, monkeypatch):
        calls = []
        unpack = BitTensor.unpack
        monkeypatch.setattr(BitTensor, "unpack", lambda t: calls.append(t.shape) or unpack(t))
        g = Graph((8,))
        g.add("binarize")
        g.add("binary_dense", trainable=True, params={"latent": rng.uniform(-1.0, 1.0, size=(8, 3))})
        forward(g, rng.normal(size=(4, 8)), FLOAT_CFG, mode="train")
        assert calls == []
        ref = build_reference_model(input_shape=(6, 6, 1), channels=4, seed=0)
        lat = bitpack.from01(rng.integers(0, 2, size=(5, 6, 6, 4)))
        forward(ref, lat, FLOAT_CFG, mode="train", from_level=ref.replay_level)
        assert calls == []  # residual_add reads the latent's bits as part of its table row

    @pytest.mark.parametrize("kind", ["add", "concat", "prelu", "batchnorm", "global_avg_pool",
                                      "dense", "conv2d"])
    @pytest.mark.parametrize("cfg", [FLOAT_CFG, BitwidthConfig(q_f=8, q_b_nonbin=16, q_b_bin=4)],
                             ids=["float", "8/16/4"])
    def test_sign_feeds_float_kinds_as_the_float_signs(self, kind, cfg, rng):
        g, x, direction = make_layer_case(kind, rng)
        signed = Graph(g.input_shape)  # the same layers behind a sign node
        signed.add("binarize")
        for node in g.nodes:
            signed.add(node.kind, inputs=[i + 1 for i in node.inputs], trainable=node.trainable,
                       params=dict(node.params), **node.attrs)
        if cfg.q_f is not None:
            calibrate_activations(signed, x, cfg.q_f)
            x = _snap_activation(x, signed.input_qparams)  # on its grid, the input snap keeps x
            # +-1 lie on an integer grid: g's input snap keeps the signs that signed's sign emits
            g.input_qparams = signed.nodes[0].out_qparams = QuantParams(cfg.q_f, 1.0, 2 ** (cfg.q_f - 1), False)
            for node, twin in zip(g.nodes, signed.nodes[1:]):
                node.out_qparams = twin.out_qparams
        want, want_cache = forward(g, np.where(x >= 0, 1.0, -1.0), cfg, mode="train")
        got, got_cache = forward(signed, x, cfg, mode="train")
        assert got.tobytes() == want.tobytes()
        want_grads = backward(g, want_cache, direction, cfg)
        got_grads = backward(signed, got_cache, direction, cfg)
        assert sorted(got_grads) == [i + 1 for i in sorted(want_grads)]
        for i, grads in want_grads.items():
            for name, v in grads.items():
                assert got_grads[i + 1][name].tobytes() == v.tobytes()

    def test_node_may_read_one_input_twice(self):
        g = Graph((3,))
        sign = g.add("binarize")
        twice = g.add("add", inputs=(sign, sign))
        g.add("concat", inputs=(twice, twice))
        out, _ = forward(g, np.array([[0.5, -1.0, 0.0]]), FLOAT_CFG, mode="infer")
        assert out.tolist() == [[2.0, -2.0, 2.0, 2.0, -2.0, 2.0]]

    def test_activations_are_dropped_after_their_last_reader(self, rng):
        # at most 6 float activations live at once: forward used to hold
        # all 13 of the reference model until it returned
        g = build_reference_model(input_shape=(12, 12, 1), channels=16, seed=0)
        xs = rng.uniform(-1.0, 1.0, size=(64, 12, 12, 1))
        cfg = BitwidthConfig(q_f=8, q_b_nonbin=16, q_b_bin=4)
        calibrate_activations(g, xs, cfg.q_f)
        forward(g, xs, cfg, mode="infer")
        tracemalloc.start()
        try:
            forward(g, xs, cfg, mode="infer")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * xs.size * 16 * 8


class TestSignsOfQuantizedGemm:
    """In infer mode a quantized GEMM that only a sign reads hands the sign the packed signs of its snapped
    output, block by block, with the bytes of binarizing the whole snapped output."""

    @staticmethod
    def _model(bits, channels, rng):
        # 40 samples of 144 positions cross two block edges of bitpack.GEMM_BLOCK rows, and at 5 channels
        # a sample's 720 bits end mid-word
        g = build_reference_model((12, 12, 1), channels=channels, seed=0)
        g.nodes[0].params["b"] = rng.normal(scale=0.2, size=channels)  # a bias that moves signs
        xs = rng.uniform(-1.0, 1.0, size=(40, 12, 12, 1))
        initialize_bn_stats(g, xs)
        calibrate_activations(g, xs, bits)
        return g, xs, BitwidthConfig(q_f=bits)

    @pytest.mark.parametrize("channels", [32, 5])
    @pytest.mark.parametrize("bits", [8, 16, 32])
    def test_signs_are_those_of_the_whole_snapped_output(self, bits, channels, rng):
        g, xs, cfg = self._model(bits, channels, rng)
        stem, _ = forward(g, xs, cfg, mode="infer", stop_level=0)
        spec = g.nodes[0].attrs["spec"]
        assert stem.dtype == np.float64  # stopped at, the stem returns its whole snapped output
        assert stem.tobytes() == TestGemmBlocks._whole(g, xs, spec, bits).reshape(stem.shape).tobytes()
        want = bitpack.binarize(stem)
        got, _ = forward(g, xs, cfg, mode="infer", stop_level=1)
        assert got == want
        full, _ = forward(g, xs, cfg, mode="infer")
        assert full.tobytes() == forward(g, want, cfg, mode="infer", from_level=1)[0].tobytes()
        latents = forward(g, want, cfg, mode="infer", from_level=1, stop_level=g.replay_level)[0]
        ys = np.arange(len(xs)) % 3
        samples = _latents_for(g, xs, ys, cfg)
        assert [s.activation for s in samples] == bitpack.unstack(latents)
        assert [s.label for s in samples] == ys.tolist()

    @pytest.mark.parametrize("bits", [8, 32])
    def test_a_collected_stem_is_its_whole_snapped_output(self, bits, rng):
        g, xs, cfg = self._model(bits, 5, rng)
        got = {}
        forward(g, xs, cfg, mode="infer", collect=got)
        want = TestGemmBlocks._whole(g, xs, g.nodes[0].attrs["spec"], bits).reshape(got[0].shape)
        assert got[0].dtype == np.float64 and got[0].tobytes() == want.tobytes()
        assert got[1] == bitpack.binarize(want)

    @pytest.mark.parametrize("bits", [8, 16, 32])
    def test_nan_raises(self, bits, rng):
        g, xs, cfg = self._model(bits, 5, rng)
        nan_x = xs.copy()
        nan_x[3, 4, 5, 0] = np.nan
        with pytest.raises(QuantError, match="NaN"):
            forward(g, nan_x, cfg, mode="infer")
        g.nodes[0].params["b"][2] = np.nan  # a NaN made inside the stem, in each block's finish
        with pytest.raises(QuantError, match="NaN"):
            forward(g, xs, cfg, mode="infer")

    def test_a_sign_trains_on_a_packed_input_as_on_its_float_signs(self, rng):
        # a sign reads a packed input as it is, and caches it as floats for its straight-through gradient
        w = rng.normal(size=(8, 3))
        twice, once = Graph((8,)), Graph((8,))
        twice.add("binarize")
        for g in (twice, once):
            g.add("binarize")
            g.add("dense", trainable=True, params={"w": w.copy(), "b": np.zeros(3)})
        bits = bitpack.from01(rng.integers(0, 2, size=(4, 8)))
        direction = rng.normal(size=(4, 3))
        got, got_cache = forward(twice, bits, FLOAT_CFG, mode="train", from_level=0)
        want, want_cache = forward(once, graph_module.as_float(bits), FLOAT_CFG, mode="train")
        assert got.tobytes() == want.tobytes()
        got_grads, got_act = backward(twice, got_cache, direction, FLOAT_CFG, from_level=0, return_act_grads=True)
        want_grads, want_act = backward(once, want_cache, direction, FLOAT_CFG, return_act_grads=True)
        assert got_act[0].tobytes() == want_act[-1].tobytes()
        assert got_grads[2]["w"].tobytes() == want_grads[1]["w"].tobytes()


class TestStemThresholds:
    """The sign of a finished exact product t, t * s + b snapped onto the output grid, is t >= one threshold per
    channel (graph._thresholds) at every t within the bound, as the signs path of _quantized_gemm reads it."""

    @staticmethod
    def _case(bits, zero_point, rng):
        x_p = QuantParams(bits, rng.uniform(1e-3, 0.05), int(rng.integers(0, 2**bits)), False)
        w_p = QuantParams(bits, rng.uniform(1e-3, 0.05), 0, True)
        out = QuantParams(bits, rng.uniform(1e-3, 0.5), zero_point, False)
        s, m = x_p.scale * w_p.scale, product_bound(9, x_p, w_p)
        # steps inside the bound and near its ends, 0 and +-0, and values far past either end
        steps = np.concatenate([rng.integers(-m, m + 1, size=4), [-m, -m + 1, m - 1, m]])
        b = np.concatenate([-s * steps + rng.uniform(-0.6, 0.6, size=8) * out.scale,
                            [0.0, -0.0, 1e6, -1e6, 1e300, -1e300]])
        return s, b, out, m

    @pytest.mark.parametrize("zero_point", [0, 1, 128, 255])
    def test_8_bit_signs_at_every_product(self, zero_point, rng):
        s, b, out, _ = self._case(8, zero_point, rng)
        m = 9 * 255 * 127
        cut = graph_module._thresholds(s, b, out, m)
        assert cut.shape == (1, len(b)) and ((-m <= cut) & (cut <= m + 1)).all()
        acc = np.arange(-m, m + 1)
        finished = dequantize(QuantizedTensor(acc[:, None], QuantParams(32, s, 0, True)))
        for c in range(len(b)):
            want = _snap_activation(finished + b[c], out).ravel() >= 0.0
            assert np.array_equal(acc >= cut[0, c], want), c

    @pytest.mark.parametrize("zero_point", [0, 1, 2**15, 2**16 - 1])
    def test_16_bit_signs_about_the_threshold_and_at_random_products(self, zero_point, rng):
        s, b, out, m = self._case(16, zero_point, rng)
        cut = graph_module._thresholds(s, b, out, m)
        for c in range(len(b)):
            t = cut[0, c]
            acc = np.clip(np.concatenate([np.arange(t - 2, t + 3), rng.integers(-m, m + 1, size=2000), [-m, m]]),
                          -m, m)
            want = _snap_activation(np.multiply(acc, s) + b[c], out) >= 0.0
            assert np.array_equal(acc >= t, want), c

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_no_thresholds_where_a_value_is_not_finite(self, bad, rng):
        s, b, out, m = self._case(8, 128, rng)
        b[3] = bad
        assert graph_module._thresholds(s, b, out, m) is None
        with np.errstate(over="ignore"):  # m * s overflows
            assert graph_module._thresholds(1e305, np.zeros(2), out, m) is None


class TestActivationSnap:
    @pytest.mark.parametrize("bits", [8, 16, 32])
    @pytest.mark.parametrize("lo,hi", [(-1.5, 2.0), (0.0, 1.0)])
    def test_matches_integer_round_trip_bytes(self, bits, lo, hi, rng):
        p = quant_params(lo, hi, bits, signed=False)
        s = p.scale
        y = np.concatenate([rng.uniform(-3.0, 3.0, size=500),
                            [0.0, -0.0, -5e-324, -1e-300, -s / 4, -s / 2, s / 2, -1.5 * s,
                             np.inf, -np.inf]])
        got = _snap_activation(y, p)
        assert got.tobytes() == dequantize(quantize(y, p)).tobytes()
        assert not np.any(np.signbit(got) & (got == 0))  # no -0.0 survives

    @pytest.mark.parametrize("bits", [8, 16, 32])
    @pytest.mark.parametrize("mode", ["infer", "train"])
    def test_in_place_snaps_alias_nothing(self, bits, mode, rng, monkeypatch):
        # each node snaps its own fresh output in place: the caller's input stays
        # as it is, and every collected output holds the copying snap's bytes
        cases = [make_layer_case(kind, rng)[:2] for kind in SMOOTH_KINDS]
        ref = build_reference_model((6, 6, 1), channels=4, seed=0)
        xs = rng.uniform(-1.0, 1.0, size=(8, 6, 6, 1))
        initialize_bn_stats(ref, xs)
        cfg = BitwidthConfig(q_f=bits)
        snap = graph_module._snap_activation
        for g, x in [*cases, (ref, xs)]:
            calibrate_activations(g, x, bits)
            before, got = x.tobytes(), {}
            forward(g, x, cfg, mode=mode, collect=got)
            assert x.tobytes() == before
            with monkeypatch.context() as m:
                m.setattr(graph_module, "_snap_activation", lambda y, p, out=None: snap(y, p))
                want = {}
                forward(g, x, cfg, mode=mode, collect=want)
            raw = lambda acts: {i: (v.unpack01() if isinstance(v, BitTensor) else v).tobytes()  # noqa: E731
                                for i, v in acts.items()}
            assert raw(got) == raw(want)

    def test_infer_forward_peak(self):
        # the stem's (36864, 32) output takes 9.4 MB, and each array built
        # around it counts: with an int64 accumulator, dequantize's int64
        # difference and a copying bias add and snap, the peak read 33.99 MB
        # at 8 bits, 24.48 MB at 16 and 32, and 21.60 MB at float; with the
        # whole batch's codes, product and dequantized copy, 24.55 MB at 8 bits
        # and 17.70 MB at 16 and 32.  Blocks of whole samples put it at 12.25 MB
        # at 8 and 16 bits.  At 8 and 16 bits the stem now hands its sign the
        # signs of each finished block, and the whole float output is never
        # built: 5.91 MB.  A 32-bit product stays whole (12.97 MB), and the
        # float stem is not blocked (12.16 MB)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1.0, 1.0, size=(256, 12, 12, 1))
        for bits, bound in [(8, 7e6), (16, 7e6), (32, 15e6), (None, 15e6)]:
            g = build_reference_model((12, 12, 1), channels=32, seed=0)
            initialize_bn_stats(g, xs)
            calibrate_activations(g, xs, bits)
            cfg = BitwidthConfig(q_f=bits) if bits else FLOAT_CFG
            tracemalloc.start()
            try:
                forward(g, xs, cfg, mode="infer")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (bits, peak)

    @staticmethod
    def _calibrated(rng):
        g = build_reference_model((6, 6, 1), channels=4, seed=0)
        xs = rng.uniform(-1.0, 1.0, size=(8, 6, 6, 1))
        initialize_bn_stats(g, xs)
        calibrate_activations(g, xs, 8)
        return g, xs

    def test_nan_input_raises(self, rng):
        g, xs = self._calibrated(rng)
        xs[0, 2, 3, 0] = np.nan
        with pytest.raises(QuantError, match="NaN"):
            forward(g, xs, BitwidthConfig())

    def test_nan_batchnorm_gamma_raises(self, rng):
        g, xs = self._calibrated(rng)
        next(n for n in g.nodes if n.kind == "batchnorm").params["gamma"][0] = np.nan
        with pytest.raises(QuantError, match="NaN"):
            forward(g, xs, BitwidthConfig())

    def test_infinite_input_saturates(self, rng):
        g, xs = self._calibrated(rng)
        p = g.input_qparams
        inf_x, sat_x = xs.copy(), xs.copy()
        inf_x[0, 0, 0, 0], inf_x[1, 2, 2, 0] = np.inf, -np.inf
        sat_x[0, 0, 0, 0] = (p.qmax - p.zero_point) * p.scale
        sat_x[1, 2, 2, 0] = (p.qmin - p.zero_point) * p.scale
        a, _ = forward(g, inf_x, BitwidthConfig())
        b, _ = forward(g, sat_x, BitwidthConfig())
        assert np.all(np.isfinite(a))
        assert a.tobytes() == b.tobytes()


class TestFixedGrids:
    """A quantized forward reads every activation on the grid that
    calibration fixed, and derives none from the batch it is given."""

    @staticmethod
    def _case(case, rng):
        if case == "reference":
            g = build_reference_model((6, 6, 1), channels=4, seed=0)
            xs = rng.uniform(-1.0, 1.0, size=(4, 6, 6, 1))
            initialize_bn_stats(g, xs)
            return g, xs
        g = Graph((3,))
        if case == "binarize-dense":
            g.add("binarize")
        else:
            g.add("binary_dense", params={"latent": rng.uniform(-1.0, 1.0, size=(3, 3))})
        g.add("dense", params={"w": np.array([[1.0], [0.05], [-0.05]]), "b": np.ones(1)})
        # alone, the first row's signs are all -1: a grid calibrated on that
        # row alone is not the batch's
        return g, np.array([[-2.0, -1.0, -0.5], [-1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])

    CASES = ["reference", "binarize-dense", "binary_dense-dense"]

    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("case", CASES)
    def test_each_row_reads_the_same_alone_as_in_its_batch(self, case, bits, rng):
        g, xs = self._case(case, rng)
        calibrate_activations(g, xs, bits)
        cfg = BitwidthConfig(q_f=bits)
        batch, _ = forward(g, xs, cfg)
        for i in range(len(xs)):
            alone, _ = forward(g, xs[i : i + 1], cfg)
            assert alone.tobytes() == batch[i : i + 1].tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_forward_calibrates_only_the_weights_of_float_gemms(self, case, rng, monkeypatch):
        g, xs = self._case(case, rng)
        calibrate_activations(g, xs, 8)
        seen = []
        spy = graph_module.calibrate_range
        monkeypatch.setattr(graph_module, "calibrate_range", lambda s: seen.append(list(s)) or spy(s))
        forward(g, xs, BitwidthConfig(q_f=8))
        weights = [n.params["w"] for n in g.nodes if n.kind in ("dense", "conv2d")]
        assert [len(s) for s in seen] == [1] * len(weights)
        for s, w in zip(seen, weights):
            assert s[0].tobytes() == w.reshape(-1, w.shape[-1]).tobytes()

    @pytest.mark.parametrize("case,want", [
        ("reference", [0, 3, 6, 9, 10, 11, 12]), ("binarize-dense", [0, 1]), ("binary_dense-dense", [0, 1]),
    ])
    def test_calibration_fixes_the_grid_of_the_input_and_each_grid_node_only(self, case, want, rng):
        g, xs = self._case(case, rng)
        assert grid_nodes(g) == want
        calibrate_activations(g, xs, 8)
        assert g.input_qparams.bits == 8
        assert [i for i, n in enumerate(g.nodes) if n.out_qparams is not None] == want
        outputs = {}
        forward(g, xs, FLOAT_CFG, collect=outputs)
        for i in want:
            lo, hi = calibrate_range([graph_module.as_float(outputs[i])])
            assert g.nodes[i].out_qparams == quant_params(lo, hi, 8, signed=False)

    def test_calibration_holds_no_activation_past_its_last_reader(self, rng):
        # calibration used to collect all 13 outputs of the reference model
        # before it read their ranges
        g = build_reference_model(input_shape=(12, 12, 1), channels=16, seed=0)
        xs = rng.uniform(-1.0, 1.0, size=(64, 12, 12, 1))
        calibrate_activations(g, xs, 8)
        tracemalloc.start()
        try:
            calibrate_activations(g, xs, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * xs.size * 16 * 8

    @pytest.mark.parametrize("drop,name", [(-1, "the graph input"), (0, r"node 0 \(binarize_0\)"),
                                           (1, r"node 1 \(dense_1\)")])
    def test_missing_grid_is_an_error_that_names_the_node(self, drop, name, rng):
        g, xs = self._case("binarize-dense", rng)
        calibrate_activations(g, xs, 8)
        if drop == -1:
            g.input_qparams = None
        else:
            g.nodes[drop].out_qparams = None
        with pytest.raises(GraphError, match=f"^{name} holds no 8-bit activation grid"):
            forward(g, xs, BitwidthConfig(q_f=8))
        forward(g, xs, FLOAT_CFG)  # a float forward reads no grid

    def test_uncalibrated_or_other_bits_is_an_error(self, rng):
        g, xs = self._case("reference", rng)
        lat, _ = forward(g, xs, FLOAT_CFG, stop_level=g.replay_level)
        with pytest.raises(GraphError, match="^the graph input holds no 8-bit"):
            forward(g, xs, BitwidthConfig(q_f=8))
        with pytest.raises(GraphError, match=r"^node 9 \(block3_bn\) holds no 8-bit"):
            forward(g, lat, BitwidthConfig(q_f=8), from_level=g.replay_level)
        calibrate_activations(g, xs, 16)
        with pytest.raises(GraphError, match=r"^node 9 \(block3_bn\) holds no 8-bit"):
            forward(g, lat, BitwidthConfig(q_f=8), from_level=g.replay_level)


class TestGraphStructure:
    def test_default_input_chains_previous_node(self):
        g = Graph((4,))
        g.add("prelu", params={"alpha": np.full(4, 0.1)})
        n1 = g.add("prelu", params={"alpha": np.full(4, 0.1)})
        assert g.nodes[n1].inputs == [0]

    def test_forward_reference_rejected(self):
        g = Graph((4,))
        with pytest.raises(GraphError):
            g.add("prelu", inputs=[3], params={"alpha": np.full(4, 0.1)})

    def test_unknown_kind_rejected(self):
        g = Graph((4,))
        with pytest.raises(GraphError):
            g.add("maxpool")

    @pytest.mark.parametrize("kind,kw", [
        ("conv2d", {"params": {"w": np.ones((3, 3, 2, 2)), "b": np.zeros(2)}}),
        ("add", {"inputs": [0]}),
        ("prelu", {}),
        ("batchnorm", {"params": {"gamma": np.ones(2)}}),
        ("binary_conv2d", {"spec": BinConvSpec(3, 3, 1, 1, 2, 2)}),
        ("binarize", {"inputs": [0, -1]}),
        ("global_avg_pool", {"spec": BinConvSpec(3, 3, 1, 1, 2, 2)}),
        ("batchnorm", {"params": {"gamma": np.ones(2), "beta": np.zeros(2), "running_mean": np.zeros(2),
                                  "running_var": np.array([1.0, -1e-3])}}),
        *[("batchnorm", {"params": {"gamma": np.ones(2), "beta": np.zeros(2), "running_mean": np.zeros(2),
                                    "running_var": np.ones(2)}, "eps": eps})
          for eps in (-1000.0, 0.0, np.nan, np.inf, "1e-5")],
    ], ids=["conv-without-spec", "add-one-input", "prelu-without-alpha", "batchnorm-only-gamma",
            "binary-conv-without-weights", "binarize-two-inputs", "pool-with-spec",
            "batchnorm-negative-running-var", "batchnorm-negative-eps", "batchnorm-zero-eps",
            "batchnorm-nan-eps", "batchnorm-infinite-eps", "batchnorm-string-eps"])
    def test_add_checks_the_node_against_its_kind(self, kind, kw):
        g = Graph((4, 4, 2))
        g.add("prelu", params={"alpha": np.full(2, 0.25)})
        with pytest.raises(GraphError, match=r"^node 1 \(bad\): "):
            g.add(kind, name="bad", **kw)
        assert len(g.nodes) == 1

    def test_add_takes_the_weight_bits_of_a_frozen_binary_layer(self):
        g = Graph((3,))
        wb = pack(np.array([[1, -1], [-1, -1], [1, 1]]))
        node = g.nodes[g.add("binary_dense", weight_bits=wb)]
        assert node.weight_bits is wb and node.params == {}
        assert infer_shapes(g)[0] == (2,)

    @pytest.mark.parametrize("kind,params", [
        ("dense", {"w": np.ones((3, 2)), "b": np.zeros(5)}),
        ("prelu", {"alpha": np.full(5, 0.25)}),
        ("dense", {"w": np.ones((3, 2, 1)), "b": np.zeros(2)}),
    ], ids=["dense-bias-5-for-2-outputs", "prelu-5-alphas-on-3-channels", "dense-weight-of-rank-3"])
    def test_infer_shapes_checks_parameter_shapes(self, kind, params):
        g = Graph((3,))
        g.add(kind, name="bad", params=params)
        with pytest.raises(GraphError, match=r"^node 0 \(bad\): "):
            infer_shapes(g)

    def test_bitwidth_validation(self):
        # each field takes None and exactly the widths BITWIDTHS lists for it
        for field, bits in ((f, b) for f in BITWIDTHS for b in [None, *range(65)]):
            if bits is None or bits in BITWIDTHS[field]:
                assert getattr(BitwidthConfig(**{field: bits}), field) == bits
            else:
                with pytest.raises(GraphError, match=rf"^{field} must be in \("):
                    BitwidthConfig(**{field: bits})
