"""Shared oracles and gradient-check machinery for the test suite."""

import struct
import zlib

import numpy as np

from binreplay import graph as G
from binreplay.bitpack import BinConvSpec, pack
from binreplay.graph import BitwidthConfig, Graph, backward, forward

FLOAT_CFG = BitwidthConfig.floating()


def summed(body: bytes) -> bytes:
    """A version-2 checkpoint or replay-memory file: body, then the CRC32 of
    body, so a test that edits a file's body reaches the checks behind it."""
    return body + struct.pack("<I", zlib.crc32(body))


def naive_conv2d_pm1(x, w, stride, padding):
    """Nested-loop +-1 convolution oracle; padded positions count as -1."""
    n, h, wd, cin = x.shape
    kh, kw, _, cout = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)),
                constant_values=-1)
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oh, ow, cout), dtype=np.int64)
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                patch = xp[b, i * stride : i * stride + kh, j * stride : j * stride + kw, :]
                for o in range(cout):
                    out[b, i, j, o] = int(np.sum(patch * w[:, :, :, o]))
    return out


def naive_binary_conv_grads(x_pm1, w_pm1, g, stride, padding):
    """Loop oracle for binary-conv gradients (weight grad and input grad)."""
    n, h, wd, cin = x_pm1.shape
    kh, kw, _, cout = w_pm1.shape
    p = padding
    xp = np.pad(x_pm1, ((0, 0), (p, p), (p, p), (0, 0)), constant_values=-1.0)
    oh, ow = g.shape[1], g.shape[2]
    gw = np.zeros_like(w_pm1, dtype=np.float64)
    gx_p = np.zeros_like(xp, dtype=np.float64)
    for b in range(n):
        for i in range(oh):
            for j in range(ow):
                patch = xp[b, i * stride : i * stride + kh, j * stride : j * stride + kw, :]
                for o in range(cout):
                    gw[:, :, :, o] += patch * g[b, i, j, o]
                    gx_p[b, i * stride : i * stride + kh, j * stride : j * stride + kw, :] += (
                        w_pm1[:, :, :, o] * g[b, i, j, o]
                    )
    gx = gx_p[:, p : p + h, p : p + wd, :] if p else gx_p
    return gw, gx


def assert_within_column_sums(got, want, g):
    """got and want, (..., n), agree within 1e-12 * sum|g| of each of g's n
    columns: the bound for float64 sums of +-1 times g in any order."""
    bound = 1e-12 * np.abs(g).reshape(-1, g.shape[-1]).sum(axis=0)
    assert np.all(np.abs(got - want) <= bound)


def materialized(entry):
    """A train cache entry as a node-by-node forward leaves it: each (rows, C)
    table of a chain node's entry read at every element."""
    if not isinstance(entry, G._Tabled):
        return entry

    def read(a):  # a per-channel array stays as it is
        return G._Tabled(entry.index, a).gather() if isinstance(a, np.ndarray) and a.ndim == 2 else a

    return tuple(map(read, entry.table)) if isinstance(entry.table, tuple) else read(entry.table)


def textbook_backward(node, g, cache):
    """(input gradient, parameter gradients) of a prelu, batchnorm or
    binarize node, written out on its materialized cache and a materialized g."""
    g, axes, p = np.ascontiguousarray(g), tuple(range(g.ndim - 1)), node.params
    if node.kind == "prelu":
        x = cache
        return g * np.where(x >= 0, 1.0, p["alpha"]), {"alpha": np.sum(g * x * (x < 0), axis=axes)}
    if node.kind == "batchnorm":
        x_hat, inv_std = cache
        return (g * p["gamma"]) * inv_std, {"gamma": np.sum(g * x_hat, axis=axes), "beta": np.sum(g, axis=axes)}
    assert node.kind == "binarize"
    return g * (np.abs(cache) <= node.attrs.get("clip", 1.0)), {}


def graph_loss(g, x, direction):
    """Scalar probe loss sum(output * direction) in float mode."""
    out, _ = forward(g, x, FLOAT_CFG, mode="infer")
    return float(np.sum(out * direction))


def analytic_grads(g, x, direction):
    """(input_grad, {node: param grads}) from the engine's backward pass."""
    out, cache = forward(g, x, FLOAT_CFG, mode="train")
    pgrads, agrads = backward(g, cache, direction, FLOAT_CFG, return_act_grads=True)
    return agrads.get(-1), pgrads


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy()
        xp[i] += eps
        xm = x.copy()
        xm[i] -= eps
        g[i] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def rel_error(analytic, numeric):
    denom = max(float(np.abs(numeric).max()), 1e-8)
    return float(np.abs(analytic - numeric).max()) / denom


def make_layer_case(kind, rng):
    """Random single-layer graph for kind, plus an input avoiding the
    non-smooth points of prelu/binarize so finite differences are valid."""
    if kind in ("dense", "softmax_ce_head"):
        fin, fout, batch = (int(v) for v in rng.integers(2, 7, size=3))
        g = Graph((fin,))
        g.add(kind, trainable=True,
              params={"w": rng.normal(size=(fin, fout)), "b": rng.normal(size=fout)})
        x = rng.normal(size=(batch, fin))
    elif kind == "conv2d":
        cin, cout = (int(v) for v in rng.integers(1, 4, size=2))
        h = int(rng.integers(4, 7))
        spec = BinConvSpec(3, 3, 1, 1, cin, cout)
        g = Graph((h, h, cin))
        g.add(kind, trainable=True, spec=spec,
              params={"w": rng.normal(size=(3, 3, cin, cout)), "b": rng.normal(size=cout)})
        x = rng.normal(size=(2, h, h, cin))
    elif kind == "batchnorm":
        c = int(rng.integers(2, 6))
        g = Graph((4, 4, c))
        g.add(kind, trainable=True, params={
            "gamma": rng.normal(size=c), "beta": rng.normal(size=c),
            "running_mean": rng.normal(size=c), "running_var": rng.uniform(0.5, 2.0, size=c),
        })
        x = rng.normal(size=(2, 4, 4, c))
    elif kind == "prelu":
        c = int(rng.integers(2, 6))
        g = Graph((c,))
        g.add(kind, trainable=True, params={"alpha": rng.uniform(0.1, 0.5, size=c)})
        x = rng.normal(size=(3, c))
        x[np.abs(x) < 0.05] = 0.1  # stay clear of the kink
    elif kind == "global_avg_pool":
        c = int(rng.integers(2, 6))
        g = Graph((3, 5, c))
        g.add(kind)
        x = rng.normal(size=(2, 3, 5, c))
    elif kind == "add":
        c = int(rng.integers(2, 6))
        g = Graph((c,))
        n0 = g.add("prelu", trainable=True, params={"alpha": rng.uniform(0.1, 0.5, size=c)})
        g.add("add", inputs=(n0, -1))
        x = rng.normal(size=(3, c))
        x[np.abs(x) < 0.05] = 0.1
    elif kind == "concat":
        c = int(rng.integers(2, 6))
        g = Graph((c,))
        n0 = g.add("prelu", trainable=True, params={"alpha": rng.uniform(0.1, 0.5, size=c)})
        g.add("concat", inputs=(n0, -1))
        x = rng.normal(size=(3, c))
        x[np.abs(x) < 0.05] = 0.1
    else:
        raise ValueError(f"no finite-difference case for kind {kind!r}")
    shapes = infer_output_shape(g, x)
    direction = rng.normal(size=shapes)
    return g, x, direction


def infer_output_shape(g, x):
    out, _ = forward(g, x, FLOAT_CFG, mode="infer")
    return out.shape


def check_layer_gradients(kind, rng):
    """Max relative error of engine gradients vs central differences."""
    g, x, direction = make_layer_case(kind, rng)
    gin, pgrads = analytic_grads(g, x, direction)
    worst = rel_error(gin, numeric_grad(lambda v: graph_loss(g, v, direction), x))
    for idx, grads in pgrads.items():
        node = g.nodes[idx]
        for pname, ag in grads.items():
            base = node.params[pname]

            def f(v, idx=idx, pname=pname, base=base):
                node = g.nodes[idx]
                saved = node.params[pname]
                node.params[pname] = v
                try:
                    return graph_loss(g, x, direction)
                finally:
                    node.params[pname] = saved

            worst = max(worst, rel_error(ag, numeric_grad(f, base)))
    return worst


def random_binary_conv_case(rng, cin=None, padding=None):
    """A one-node binary-conv graph; cin and padding are drawn unless given."""
    n = int(rng.integers(1, 3))
    h = int(rng.integers(4, 8))
    cin_drawn, cout = (int(v) for v in rng.integers(1, 5, size=2))
    cin = cin_drawn if cin is None else cin
    stride = int(rng.integers(1, 3))
    padding_drawn = int(rng.integers(0, 2))
    padding = padding_drawn if padding is None else padding
    spec = BinConvSpec(3, 3, stride, padding, cin, cout)
    x = rng.choice([-1.0, 1.0], size=(n, h, h, cin))
    latent = rng.uniform(-1, 1, size=(3, 3, cin, cout))
    g = Graph((h, h, cin))
    g.add("binary_conv2d", trainable=True, spec=spec, params={"latent": latent})
    return g, x, spec, latent


def linear_probe_accuracy(train_x, train_y, test_x, test_y, ridge: float = 1e-2) -> float:
    """One-vs-all ridge regression accuracy; the synthetic data's learnability gate."""
    classes = int(max(train_y.max(), test_y.max())) + 1
    xtr = train_x.reshape(len(train_x), -1)
    xte = test_x.reshape(len(test_x), -1)
    xtr = np.hstack([xtr, np.ones((len(xtr), 1))])
    xte = np.hstack([xte, np.ones((len(xte), 1))])
    onehot = np.eye(classes)[train_y]
    gram = xtr.T @ xtr + ridge * np.eye(xtr.shape[1])
    w = np.linalg.solve(gram, xtr.T @ onehot)
    pred = np.argmax(xte @ w, axis=1)
    return float(np.mean(pred == test_y))
