"""The per-channel chain after a binary GEMM runs as one table over the GEMM's
exact counts: against a node-by-node forward, its outputs, packed signs,
backward caches and gradients are the same bytes, -0.0 included."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binreplay import bitpack
from binreplay import graph as G
from binreplay.bitpack import BinConvSpec, BitTensor
from binreplay.graph import BitwidthConfig, Graph, backward, forward
from binreplay.learner import ContinualConfig, build_reference_model, calibrate_activations, freeze_backbone
from binreplay.learner import initialize_bn_stats
from helpers import materialized, textbook_backward

GATE_BITS = {
    "8/16/4": BitwidthConfig(8, 16, 4),
    "16/8/1": BitwidthConfig(16, 8, 1),
    "float": BitwidthConfig.floating(),
    "8/8/8": BitwidthConfig(8, 8, 8),
    "32/32/32": BitwidthConfig(32, 32, 32),
    "8/16/16": BitwidthConfig(8, 16, 16),
}
CHANNELS = (1, 5, 8, 9, 63, 64, 65)


def node_by_node(graph, x, config, mode="infer", from_level=None):
    """Every node's output and the train cache, from _forward_node run on one
    node at a time, a binary GEMM's counts k - 2 * diff read as floats."""
    if from_level is None and config.q_f is not None:
        x = G._snap_activation(G.as_float(x), G._grid(graph, -1, config.q_f))
    level = -1 if from_level is None else from_level
    acts, cache = {level: x}, {}
    for idx in range(level + 1, len(graph.nodes)):
        node = graph.nodes[idx]
        packed = G.KINDS[node.kind].weight_bits
        ins = [acts[i] if packed else G.as_float(acts[i]) for i in node.inputs]
        y, c = G._forward_node(graph, idx, node, ins, config, mode == "train")
        acts[idx] = bitpack.counts(y, node.weight_bits.size // y.shape[-1]).astype(np.float64) if packed else y
        if c is not None:
            cache[idx] = c
    return acts, cache


def assert_same_bytes(got, want, what):
    """Equal type, dtype, shape and bytes, through tuples and packed signs."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want), what
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same_bytes(a, b, f"{what}[{i}]")
    elif isinstance(want, BitTensor):
        assert got == want, what
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype and got.shape == want.shape, what
        assert got.tobytes() == want.tobytes(), what
    else:
        assert got == want, what


def batchnorm_params(rng, c, k):
    """Means on the counts' own lattice, so x - mean is exactly 0 somewhere,
    zero variances, and signed zeros in gamma and beta."""
    return {
        "gamma": rng.choice([rng.normal(), 0.0, -0.0, -1.5], size=c),
        "beta": rng.choice([rng.normal(), 0.0, -0.0], size=c),
        "running_mean": np.where(rng.random(c) < 0.5, k - 2.0 * rng.integers(0, k + 1, size=c),
                                 rng.normal(0.0, np.sqrt(k), size=c)),
        "running_var": np.where(rng.random(c) < 0.2, 0.0, rng.uniform(0.0, k, size=c)),
    }


def chain_graph(rng, c, dense, ops, close, trainable):
    """sign -> binary GEMM (c -> c) -> ops -> close; an "add" adds the sign."""
    shape = (c,) if dense else (3, 3, c)
    g = Graph(shape)
    sign = g.add("binarize")
    latent = rng.uniform(-1.0, 1.0, size=(c, c) if dense else (3, 3, c, c))
    if dense:
        g.add("binary_dense", trainable=trainable, params={"latent": latent})
    else:
        g.add("binary_conv2d", trainable=trainable, params={"latent": latent}, spec=BinConvSpec(3, 3, 1, 1, c, c))
    k = latent.size // c
    for op in ops:
        if op == "batchnorm":
            g.add("batchnorm", trainable=trainable, params=batchnorm_params(rng, c, k),
                  eps=float(rng.choice([1e-5, 0.5])))
        elif op == "prelu":
            g.add("prelu", trainable=trainable, params={"alpha": rng.choice([rng.normal(), 0.0, 0.25], size=c)})
        else:
            g.add("add", inputs=(g.output_id, sign)[:: int(rng.choice([1, -1]))])
    if close:
        g.add(close)
    return g


def check_against_node_by_node(g, x, cfg, rng):
    """Forward in both modes, with collect, stop_level and from_level, and
    backward, each the same bytes as the node-by-node reference."""
    if cfg.q_f is not None:
        calibrate_activations(g, x, cfg.q_f)
    want, want_cache = node_by_node(g, x, cfg, mode="train")
    got, cache = forward(g, x, cfg, mode="infer")
    assert_same_bytes(got, want[g.output_id], "output")
    shown = {}
    forward(g, x, cfg, mode="infer", collect=shown)
    for idx in range(len(g.nodes)):
        assert_same_bytes(shown[idx], want[idx], f"node {idx} ({g.nodes[idx].kind})")
    stop = int(rng.integers(0, len(g.nodes)))
    # at stop_level a binary GEMM returns its exact counts as int32
    want_stop = want[stop].astype(np.int32) if G.KINDS[g.nodes[stop].kind].weight_bits else want[stop]
    assert_same_bytes(forward(g, x, cfg, stop_level=stop)[0], want_stop, f"stop_level {stop}")
    resumed, _ = forward(g, want[0], cfg, from_level=0)
    assert_same_bytes(resumed, want[g.output_id], "resumed at the sign")

    out, cache = forward(g, x, cfg, mode="train")
    assert sorted(cache) == sorted(want_cache)
    for idx, entry in cache.items():
        assert_same_bytes(materialized(entry), want_cache[idx], f"cache of node {idx} ({g.nodes[idx].kind})")
    direction = rng.normal(size=G.as_float(out).shape)
    got_p, got_a = backward(g, cache, direction, cfg, return_act_grads=True)
    want_p, want_a = backward(g, want_cache, direction, cfg, return_act_grads=True)
    assert sorted(got_p) == sorted(want_p) and sorted(got_a) == sorted(want_a)
    for idx, grads in want_p.items():
        assert sorted(got_p[idx]) == sorted(grads)
        for name, v in grads.items():
            assert_same_bytes(got_p[idx][name], v, f"node {idx} {name} gradient")
    for idx, v in want_a.items():
        assert_same_bytes(got_a[idx], v, f"gradient at node {idx}")


@st.composite
def chains(draw):
    dense = draw(st.booleans())
    closes = [None, "binarize"] if dense else [None, "binarize", "global_avg_pool"]
    return dict(
        c=draw(st.sampled_from(CHANNELS)),
        dense=dense,
        ops=draw(st.lists(st.sampled_from(["batchnorm", "prelu", "add"]), max_size=4)),
        close=draw(st.sampled_from(closes)),
        trainable=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def one_sample_blocks(check):
    """check run with every chain block one sample long, so that a 3-sample
    batch crosses block edges in every read, running sum and code."""
    def run(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(G, "GATHER_ROWS", 1)
            check(*args, **kwargs)
    return run


def random_chain_against_node_by_node(bits, case):
    rng = np.random.default_rng(case["seed"])
    g = chain_graph(rng, **{k: v for k, v in case.items() if k != "seed"})
    x = rng.normal(size=(3, *g.input_shape))
    check_against_node_by_node(g, x, GATE_BITS[bits], rng)


class TestTablesMatchNodeByNode:
    @pytest.mark.parametrize("bits", sorted(GATE_BITS))
    @given(case=chains())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_random_chain(self, bits, case):
        random_chain_against_node_by_node(bits, case)

    @pytest.mark.parametrize("bits", sorted(GATE_BITS))
    @given(case=chains())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_random_chain_in_one_sample_blocks(self, bits, case):
        one_sample_blocks(random_chain_against_node_by_node)(bits, case)

    @pytest.mark.parametrize("c", [128, 200, 255])
    def test_rows_of_counts_that_span_more_than_their_row_count(self, c, rng):
        # with k in [128, 255] the k + 1 rows fit in a byte, but k - counts
        # reaches 2k, which does not: row i differs in every bit from
        # channel i's weights, so its count there is -k
        g = chain_graph(rng, c, True, ["batchnorm", "prelu"], "binarize", True)
        x = np.concatenate([-G.as_float(g.nodes[1].weight_bits)[:, :3].T, rng.normal(size=(3, c))])
        check_against_node_by_node(g, x, GATE_BITS["8/16/4"], rng)


def _copied(gin):
    """An input gradient as _backward_node returns it, copied: None, float values or a (codes, scale) pair."""
    if isinstance(gin, tuple):
        return gin[0].copy(), gin[1]
    return None if gin is None else gin.copy()


def _record_backward_nodes(monkeypatch):
    """Each _backward_node call as (node id, node, the values of its g's pair,
    its cache entry, its input gradients, its parameter gradients, the bits it
    may snap its input gradient at), copied before backward snaps them."""
    seen = []
    run = G._backward_node

    def spy(idx, node, g, entry, config, need, snap=None):
        gins, pgrads = run(idx, node, g, entry, config, need, snap)
        seen.append((idx, node, G._values(*g), entry, [_copied(a) for a in gins],
                     {k: v.copy() for k, v in pgrads.items()}, snap))
        return gins, pgrads

    monkeypatch.setattr(G, "_backward_node", spy)
    return seen


def check_per_channel_against_textbook(seen):
    """Every prelu, batchnorm and binarize call in seen against
    textbook_backward on its materialized cache, an input gradient that the
    node snapped against grad_codes of the formula; returns how many."""
    checked = 0
    for idx, node, g, entry, gins, pgrads, snap in seen:
        if node.kind not in ("prelu", "batchnorm", "binarize"):
            continue
        want_in, want_p = textbook_backward(node, g, materialized(entry))
        if isinstance(gins[0], tuple):
            want_in = G.grad_codes(want_in, snap)
        assert_same_bytes(gins[0], want_in, f"input gradient of node {idx} ({node.kind})")
        assert sorted(pgrads) == (sorted(want_p) if node.trainable else [])
        for name, v in pgrads.items():
            assert_same_bytes(v, want_p[name], f"node {idx} {name} gradient")
        checked += 1
    return checked


class TestPerChannelBackwardIsTheTextbookFormula:
    """A per-channel kind's backward, on a chain's tables or off a chain, and
    a pooled gradient, the same bytes as the formulas written out on
    materialized caches and gradients."""

    WIDTHS = [*G.BITWIDTHS["q_b_nonbin"], None]

    @pytest.mark.parametrize("bits", WIDTHS)
    @given(case=chains())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_random_chain(self, bits, case):
        self._random_chain(bits, case)

    @pytest.mark.parametrize("bits", WIDTHS)
    @given(case=chains())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_random_chain_in_one_sample_blocks(self, bits, case):
        one_sample_blocks(self._random_chain)(bits, case)

    @staticmethod
    def _random_chain(bits, case):
        # float forward keeps -0.0 in the tables; alpha draws 0, and the
        # batchnorm parameters signed zeros
        rng = np.random.default_rng(case["seed"])
        g = chain_graph(rng, **{k: v for k, v in case.items() if k != "seed"})
        cfg = BitwidthConfig(q_f=None, q_b_nonbin=bits, q_b_bin=bits)
        out, cache = forward(g, rng.normal(size=(3, *g.input_shape)), cfg, mode="train")
        direction = rng.normal(size=G.as_float(out).shape)
        zeros = rng.random(direction.shape) < 0.2
        direction[zeros] = np.copysign(0.0, rng.normal(size=zeros.sum()))
        with pytest.MonkeyPatch.context() as mp:
            seen = _record_backward_nodes(mp)
            backward(g, cache, direction, cfg, return_act_grads=True)
        assert check_per_channel_against_textbook(seen) == sum(
            n.kind in ("prelu", "batchnorm", "binarize") for n in g.nodes)

    @pytest.mark.parametrize("bits", WIDTHS)
    @pytest.mark.parametrize("kind", ["prelu", "batchnorm", "binarize", "conv2d", "binary_conv2d"])
    @pytest.mark.parametrize("shape", [(3, 4, 4, 5), (87, 10, 10, 1)])
    def test_a_pooled_gradient_is_its_snapped_broadcast(self, shape, kind, bits, rng, monkeypatch):
        # at one channel and 8700 positions, numpy sums a broadcast in
        # another order than its copy
        n, h, w, c = shape
        spec = BinConvSpec(3, 3, 1, 1, c, c)
        params = {"prelu": {"alpha": np.resize([0.25, 0.0, -1.0, 0.25, 2.0], c)},
                  "batchnorm": batchnorm_params(rng, c, 9 * c),
                  "binarize": {},
                  "conv2d": {"w": rng.normal(size=(3, 3, c, c)), "b": rng.normal(size=c)},
                  "binary_conv2d": {"latent": rng.uniform(-1.0, 1.0, size=(3, 3, c, c))}}[kind]
        g = Graph((h, w, c))
        g.add(kind, trainable=bool(params), params=params, **({"spec": spec} if "conv" in kind else {}))
        g.add("global_avg_pool")
        cfg = BitwidthConfig(q_f=None, q_b_nonbin=bits, q_b_bin=bits)
        x = rng.normal(size=shape)
        out, cache = forward(g, x, cfg, mode="train")
        direction = rng.normal(size=out.shape) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        seen = _record_backward_nodes(monkeypatch)
        backward(g, cache, direction, cfg, return_act_grads=True)
        (got,) = [s[2] for s in seen if s[0] == 0]  # the values of node 0's pair
        pooled = np.broadcast_to(G.fake_quant(direction, bits)[:, None, None, :] / (h * w), shape).copy()
        assert_same_bytes(got, G.fake_quant(pooled, bits), "pooled gradient")
        assert got.strides[1:3] == (0, 0) and not got.flags.writeable  # still the n * c values
        check_per_channel_against_textbook(seen)


def _chains_tabulated(monkeypatch):
    """The chain of every table forward builds, in order."""
    seen = []
    tabulate = G._tabulate

    def spy(graph, gemm, chain, *args):
        seen.append(list(chain))
        return tabulate(graph, gemm, chain, *args)

    monkeypatch.setattr(G, "_tabulate", spy)
    return seen


def _stop_case(case, rng):
    c = 5
    bn = dict(params=batchnorm_params(rng, c, 9 * c))
    g = Graph((3, 3, c))
    first = g.add("prelu", params={"alpha": np.full(c, 0.25)})  # a float input
    sign = g.add("binarize")
    gemm = g.add("binary_conv2d", params={"latent": rng.uniform(-1.0, 1.0, size=(3, 3, c, c))},
                 spec=BinConvSpec(3, 3, 1, 1, c, c))
    norm = g.add("batchnorm", **bn)
    if case == "add-of-float":
        g.add("add", inputs=(norm, first))
    elif case == "sign-not-yet-computed":
        later = g.add("binarize", inputs=first)
        g.add("add", inputs=(norm, later))
    elif case == "second-reader":
        act = g.add("prelu", params={"alpha": np.full(c, 0.25)})
        g.add("add", inputs=(act, norm))
    elif case == "global-avg-pool":
        g.add("add", inputs=(norm, sign))
        g.add("global_avg_pool")
    elif case == "gemm":
        g.add("binary_conv2d", params={"latent": rng.uniform(-1.0, 1.0, size=(3, 3, c, c))},
              spec=BinConvSpec(3, 3, 1, 1, c, c))
        g.add("batchnorm", **bn)
    return g, gemm


class TestChainStops:
    @pytest.mark.parametrize("case,want", [
        ("add-of-float", [[3]]),
        ("sign-not-yet-computed", [[3]]),
        ("second-reader", [[3]]),
        ("global-avg-pool", [[3, 4]]),
        ("gemm", [[3], [5]]),
    ])
    @pytest.mark.parametrize("bits", ["float", "8/16/4"])
    def test_chain_stops_and_the_rest_runs_node_by_node(self, case, want, bits, rng, monkeypatch):
        g, _ = _stop_case(case, rng)
        seen = _chains_tabulated(monkeypatch)
        x = rng.normal(size=(4, 3, 3, 5))
        check_against_node_by_node(g, x, GATE_BITS[bits], rng)
        assert seen[-len(want):] == want

    def test_reference_model_chains(self, rng, monkeypatch):
        g = build_reference_model((6, 6, 1), channels=4, seed=0)
        seen = _chains_tabulated(monkeypatch)
        read = []
        run_node = G._forward_node
        monkeypatch.setattr(G, "_forward_node", lambda graph, idx, node, ins, *a: read.append(
            (node.name, [i.shape for i in ins])) or run_node(graph, idx, node, ins, *a))
        forward(g, rng.normal(size=(2, 6, 6, 1)), GATE_BITS["float"])
        names = [[g.nodes[i].name for i in chain] for chain in seen]
        assert names == [["block1_bn", "block1_sign"], ["block2_bn", "block2_sign"],
                         ["block3_bn", "residual_add", "head_act"]]
        # a chain node's code runs once, on its table: K + 1 = 37 counts per
        # channel, twice that after the residual add; never on an activation
        k = 3 * 3 * 4
        tables = {name: [[(k + 1, 4)]] for name in ("block1_bn", "block1_sign", "block2_bn", "block2_sign",
                                                     "block3_bn")}
        tables |= {"residual_add": [[(2 * k + 2, 4)] * 2], "head_act": [[(2 * k + 2, 4)]]}
        for name, want in tables.items():
            assert [shapes for n, shapes in read if n == name] == want, name


def _sign_gathers(monkeypatch):
    """(whether it read no table, its index type, its table's 0/1 bits) of each packed sign table gathered."""
    seen, reads, gather, read = [], [], G._Tabled.gather, G._Tabled.read
    monkeypatch.setattr(G._Tabled, "read", lambda t, *a: reads.append(t) or read(t, *a))

    def spy(t):
        before, out = len(reads), gather(t)
        if isinstance(t.table, BitTensor):
            seen.append((len(reads) == before, t.index.dtype, t.table.unpack01()))
        return out

    monkeypatch.setattr(G._Tabled, "gather", spy)
    return seen


def dense_chain(rng, k, c, ops):
    """sign -> binary_dense (k -> c) -> each (kind, params) of ops -> sign."""
    g = Graph((k,))
    g.add("binarize")
    g.add("binary_dense", params={"latent": rng.uniform(-1.0, 1.0, size=(k, c))})
    for kind, params in ops:
        g.add(kind, params=params)
    g.add("binarize")
    return g


class TestStepTables:
    """A bn -> sign chain's sign table steps once per channel in the row index, so it is gathered as one
    compare of the index with a threshold per channel, with the bytes of the node-by-node forward."""

    @pytest.mark.parametrize("gamma", ["rising", "falling", "flat"])
    @pytest.mark.parametrize("bits", ["float", "8/16/4"])
    def test_bn_sign_chain(self, gamma, bits, rng, monkeypatch):
        c, k = 9, 24
        bn = batchnorm_params(rng, c, k)
        bn["gamma"] = {"rising": -rng.uniform(0.5, 2.0, size=c), "falling": rng.uniform(0.5, 2.0, size=c),
                       "flat": rng.choice([0.0, -0.0], size=c)}[gamma]
        bn["beta"][:3] = [-0.5, 0.0, 0.5]  # with gamma 0, a column of zeros, of +-0 and of ones
        g = dense_chain(rng, k, c, [("batchnorm", bn)])
        seen = _sign_gathers(monkeypatch)
        check_against_node_by_node(g, rng.normal(size=(40, k)), GATE_BITS[bits], rng)
        assert seen and all(compared for compared, _, _ in seen)
        bits01 = seen[0][2]
        steps = (bits01.min(axis=0) != bits01.max(axis=0)).sum()
        assert steps == 0 if gamma == "flat" else steps > 0  # steps inside the table, and no step with gamma 0

    def test_thresholds_at_the_end_of_the_index_type(self, rng, monkeypatch):
        # 16 rows of 16 channels: the index ends at 255, a uint8's maximum, and the last channel's one set row
        # is the last, so its threshold is 255; channels 13 and 14 are all ones and all zeros
        k, c = 15, 16
        g = dense_chain(rng, k, c, [("batchnorm", {
            "gamma": np.r_[-np.ones(13), 1.0, 1.0, -1.0], "beta": np.zeros(c), "running_var": np.ones(c),
            "running_mean": np.r_[10.0 - 2.0 * np.arange(13), -100.0, 100.0, -14.0]})])
        w = G.as_float(g.nodes[1].weight_bits)[:, -1]
        x = np.concatenate([[-w, w], rng.normal(size=(20, k))])  # the last channel's counts -15 and 15
        seen = _sign_gathers(monkeypatch)
        check_against_node_by_node(g, x, GATE_BITS["float"], rng)
        compared, dtype, bits01 = seen[0]
        assert compared and dtype == np.uint8
        assert bits01[:, -1].tolist() == [0] * 15 + [1]
        assert bits01[:, 13].all() and not bits01[:, 14].any()

    @pytest.mark.parametrize("bits", ["float", "8/16/4"])
    def test_a_sign_after_prelu_of_negative_slope_reads_its_table(self, bits, rng, monkeypatch):
        # prelu(alpha < 0) folds the counts into a V, which a batchnorm of negative beta shifts below 0 about
        # its tip: its sign falls and rises again, which is no step, so the sign gathers through its table
        c, k = 6, 16
        g = dense_chain(rng, k, c, [("prelu", {"alpha": np.full(c, -0.5)}), ("batchnorm", {
            "gamma": np.ones(c), "beta": np.full(c, -2.0), "running_mean": np.zeros(c), "running_var": np.ones(c)})])
        seen = _sign_gathers(monkeypatch)
        check_against_node_by_node(g, rng.normal(size=(30, k)), GATE_BITS[bits], rng)
        assert seen and not any(compared for compared, _, _ in seen)


def _arrays(obj):
    """Every array a cache entry holds."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, BitTensor):
        yield obj.words
    elif isinstance(obj, (tuple, list)):
        for o in obj:
            yield from _arrays(o)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


def test_experience_step_caches_no_float_activation_above_block3_conv(monkeypatch):
    # the 80-row 8/16/4 step: x_hat and head_act's input, 2.95 MB each, were
    # most of a 6.4 MB cache; and features pools head_act's table per block,
    # so no chain node's output is gathered.  The cache holds 1,494,272 B,
    # half of it the chain's one 737,280 B index
    gathered, gather = [], G._Tabled.gather
    monkeypatch.setattr(G._Tabled, "gather", lambda t: gathered.append(t.table) or gather(t))
    outputs, tabulate = {}, G._tabulate

    def spy(*args):  # each chain node's (output, cache, ends the chain)
        stages = tabulate(*args)
        outputs.update(stages)
        return stages

    monkeypatch.setattr(G, "_tabulate", spy)
    rng = np.random.default_rng(0)
    cfg = ContinualConfig()
    g = build_reference_model((12, 12, 1), channels=32, seed=0)
    xs = rng.uniform(-1.0, 1.0, size=(64, 12, 12, 1))
    initialize_bn_stats(g, xs)
    calibrate_activations(g, xs, cfg.bitwidth.q_f)
    freeze_backbone(g, cfg)
    latents = bitpack.from01(rng.integers(0, 2, size=(cfg.b_n + cfg.b_r, 12, 12, 32)))
    gathered.clear()
    out, cache = forward(g, latents, cfg.bitwidth, mode="train", from_level=g.replay_level)
    assert gathered == []
    conv = next(i for i, n in enumerate(g.nodes) if n.name == "block3_conv")
    activation = latents.size
    for idx, entry in cache.items():
        if idx > conv:
            floats = [a for a in _arrays(entry) if a.dtype.kind == "f" and a.size >= activation]
            assert not floats, f"node {idx} ({g.nodes[idx].name}) caches a float activation"
    held = {id(a): a.nbytes for a in _arrays(list(cache.values()))}
    assert sum(held.values()) <= 1.5e6
    # each chain entry reads through the chain's one uint16 index and holds
    # only what the node's code left for backward, never its output table
    chained = {idx: entry for idx, entry in cache.items() if isinstance(entry, G._Tabled)}
    assert sorted(g.nodes[i].name for i in chained) == ["block3_bn", "head_act"]
    assert len({id(entry.index) for entry in chained.values()}) == 1
    assert next(iter(chained.values())).index.dtype == np.uint16
    for idx, entry in chained.items():
        own = outputs[idx][0].table
        assert not any(np.shares_memory(a, own) for a in _arrays(entry.table)), g.nodes[idx].name
    grads = backward(g, cache, rng.normal(size=out.shape), cfg.bitwidth, from_level=g.replay_level)
    assert sorted(g.nodes[i].name for i in grads) == ["block3_bn", "block3_conv", "head_act"]
