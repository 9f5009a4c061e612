"""Layer graph with quantized forward and backward passes.

Forward precision is controlled by q_f (binary layers are always 1-bit),
backward precision by q_b, split between binary layers (q_b_bin) and
everything else (q_b_nonbin).  A bitwidth of None means float arithmetic.

Every gradient is snapped once, where it is made, at the backward bitwidth of
the node that made it, onto a dynamic per-tensor restricted symmetric grid that
a second snap leaves alone, and it travels as that grid's integer codes with
the grid's one scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import bitpack
from .bitpack import BinConvSpec, BitTensor
from .quant import (VALID_BITS, QuantError, QuantParams, calibrate_range, dequantize, is_number,
                    product_bound, quant_params, quantize, qmatmul)

# the widths each BitwidthConfig field may take besides None (float); q_f
# sets QuantParams grids
BITWIDTHS = {"q_f": VALID_BITS, "q_b_nonbin": (8, 16, 32), "q_b_bin": (1, 4, 8, 16, 32)}


@dataclass(frozen=True)
class Kind:
    """One row of KINDS: what a node of a layer kind takes and holds."""

    inputs: int | None = 1  # None: one or more
    trained: tuple[str, ...] = ()  # parameters backward trains
    stats: tuple[str, ...] = ()  # parameters nothing trains
    spec: bool = False  # takes a conv spec
    weight_bits: bool = False  # computes with weight bits; holds its latent unless frozen
    binary: bool = False  # exact +-1 or popcount output: gradients at q_b_bin, never snapped;
    # holds a grid only when a float GEMM reads it
    per_channel: bool = False  # maps each channel's value on its own: joins a binary GEMM's table


KINDS = {
    "dense": Kind(trained=("b", "w")),
    "conv2d": Kind(trained=("b", "w"), spec=True),
    "binary_dense": Kind(trained=("latent",), weight_bits=True, binary=True),
    "binary_conv2d": Kind(trained=("latent",), spec=True, weight_bits=True, binary=True),
    "binarize": Kind(binary=True, per_channel=True),
    "batchnorm": Kind(trained=("beta", "gamma"), stats=("running_mean", "running_var"), per_channel=True),
    "add": Kind(inputs=2, per_channel=True),  # when its other input is a packed sign
    "concat": Kind(inputs=None),
    "prelu": Kind(trained=("alpha",), per_channel=True),
    "global_avg_pool": Kind(),
    "softmax_ce_head": Kind(trained=("b", "w")),  # a dense layer that feeds the loss
}
BINARY_KINDS = tuple(k for k, row in KINDS.items() if row.weight_bits)
# layers that run as one patches-by-weights product: a dense layer is a 1x1 conv
GEMM_KINDS = ("dense", "conv2d", "softmax_ce_head", *BINARY_KINDS)
GATHER_ROWS = 2048  # positions per block of a chain's table reads


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class BitwidthConfig:
    """Bitwidths for forward and backward computation; None selects float."""

    q_f: int | None = 8
    q_b_nonbin: int | None = 16
    q_b_bin: int | None = 4

    def __post_init__(self):
        for name, allowed in BITWIDTHS.items():
            bits = getattr(self, name)
            if bits is not None and bits not in allowed:
                raise GraphError(f"{name} must be in {allowed} or float, got {bits}")

    @classmethod
    def floating(cls) -> "BitwidthConfig":
        return cls(q_f=None, q_b_nonbin=None, q_b_bin=None)


@dataclass
class LayerNode:
    kind: str
    name: str
    inputs: list[int]  # producer node ids; -1 refers to the graph input
    trainable: bool = False
    params: dict = field(default_factory=dict)  # name -> float ndarray
    attrs: dict = field(default_factory=dict)  # conv spec, eps, clip threshold ...
    out_qparams: QuantParams | None = None
    weight_bits: BitTensor | None = None  # effective weights of binary layers
    param_scales: dict = field(default_factory=dict)  # fixed-point grid per parameter

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GraphError(f"unknown layer kind {self.kind!r}")


def check_node(idx: int, node: LayerNode) -> None:
    """node, as node idx of a graph, against its kind's row of KINDS."""
    row = KINDS[node.kind]
    where = f"node {idx} ({node.name}): a {node.kind} node"
    if not all(-1 <= i < idx for i in node.inputs):
        raise GraphError(f"{where} takes inputs {node.inputs} that are not earlier nodes")
    if len(node.inputs) != (row.inputs or max(len(node.inputs), 1)):
        raise GraphError(f"{where} cannot take {len(node.inputs)} inputs")
    if row.spec != ("spec" in node.attrs):
        raise GraphError(f"{where} {'needs' if row.spec else 'takes no'} spec")
    # a binary layer holds its weight bits, and its latent unless frozen
    holds = [set(), set(row.trained)] if row.weight_bits else [{*row.trained, *row.stats}]
    if set(node.params) not in holds or row.weight_bits != (node.weight_bits is not None):
        raise GraphError(f"{where} cannot hold params {sorted(node.params)} "
                         f"{'with' if node.weight_bits is not None else 'without'} weight bits")
    if np.any(node.params.get("running_var", 0.0) < 0):
        raise GraphError(f"{where} holds a negative running_var")
    eps = node.attrs.get("eps", 1e-5)
    if node.kind == "batchnorm" and not (is_number(eps) and eps > 0):
        raise GraphError(f"{where} takes eps {eps!r}, not a finite number above 0")


class Graph:
    """Ordered DAG of layers; node inputs always reference earlier nodes."""

    def __init__(self, input_shape: tuple[int, ...]):
        self.input_shape = tuple(int(d) for d in input_shape)
        self.nodes: list[LayerNode] = []
        self.replay_level: int | None = None
        self.input_qparams: QuantParams | None = None

    def add(self, kind: str, inputs=None, name: str | None = None, trainable: bool = False,
            params: dict | None = None, weight_bits: BitTensor | None = None, **attrs) -> int:
        idx = len(self.nodes)
        if inputs is None:  # chain onto the previous node by default
            inputs = [idx - 1]
        inputs = [inputs] if isinstance(inputs, int) else list(inputs)
        params = {} if params is None else params
        if weight_bits is None and "latent" in params:  # computes with the signs of its latent
            weight_bits = bitpack.binarize(params["latent"])
        node = LayerNode(kind=kind, name=name or f"{kind}_{idx}", inputs=inputs,
                         trainable=trainable, params=params, attrs=attrs, weight_bits=weight_bits)
        check_node(idx, node)
        self.nodes.append(node)
        return idx

    @property
    def output_id(self) -> int:
        if not self.nodes:
            raise GraphError("empty graph")
        return len(self.nodes) - 1


# ---------------------------------------------------------------------------
# quantization helpers


def _snap(x: np.ndarray, scale: float, lo: int, hi: int, out=None) -> np.ndarray:
    """Nearest point of the grid scale * [lo, hi], into out (which may be x); out-of-range values saturate."""
    q = np.divide(x, scale, out=out)
    np.rint(q, out=q)
    np.clip(q, lo, hi, out=q)
    return np.multiply(q, scale, out=q)


def _held(x: np.ndarray) -> np.ndarray:
    """The values x holds: x, or the one slice of a broadcast that its zero strides repeat."""
    return x[tuple(slice(None) if s else slice(0, 1) for s in x.strides)] if 0 in x.strides else x


def _absmax(x: np.ndarray) -> float:
    return max(-float(x.min(initial=0.0)), float(x.max(initial=0.0)))


def _grid_scale(m: float, bits: int) -> float | None:
    """The scale of the bits-bit grid whose end is m; None where it is 0 or subnormal, too coarse a number
    for a grid that a second snap leaves alone."""
    scale = m / (2 ** (bits - 1) - 1)
    return scale if scale >= np.finfo(np.float64).tiny else None


def _code_type(bits: int) -> np.dtype:
    """int8, int16 or int32: the narrowest integer type for codes in +-(2**(bits-1) - 1)."""
    return np.min_scalar_type(1 - 2 ** (bits - 1))


def grad_codes(x: np.ndarray, bits: int | None) -> tuple[np.ndarray, float | None]:
    """x on a dynamic symmetric per-tensor grid of bits, which a second snap leaves alone: its integer codes in
    +-(2**(bits-1) - 1), as int8, int16 or int32, the narrowest type for bits, and the grid's one scale; at
    float, or for an all-zero x, x and None, and zeros and None where the scale is subnormal or 0.  A broadcast's
    codes are of the values it holds and stay broadcast.  No clip: on a grid whose end is x's max-abs, no code
    passes the end."""
    if bits is not None and bits < 2:
        raise GraphError(f"a gradient grid needs at least 2 bits, got {bits}")
    held = _held(x)
    m = 0.0 if bits is None else _absmax(held)
    if m == 0.0:
        return x, None
    scale = _grid_scale(m, bits)
    if scale is None:
        return np.zeros(x.shape), None
    codes = np.rint(np.divide(held, scale), out=np.empty(held.shape, _code_type(bits)), casting="unsafe")
    return (codes if codes.shape == x.shape else np.broadcast_to(codes, x.shape)), scale


def _values(codes: np.ndarray, scale: float | None) -> np.ndarray:
    """A gradient's values from its (codes, scale) pair: the codes times the scale, a broadcast kept
    broadcast, or the codes themselves, which are values, when scale is None."""
    if scale is None:
        return codes
    v = np.multiply(_held(codes), scale)
    return v if v.shape == codes.shape else np.broadcast_to(v, codes.shape)


def fake_quant(x: np.ndarray, bits: int | None) -> np.ndarray:
    """Quantize-dequantize with a dynamic symmetric per-tensor scale: the values of grad_codes."""
    return _values(*grad_codes(x, bits))


def snap_to_fixed_grid(x: np.ndarray, scale: float, bits: int, symmetric: bool = False) -> np.ndarray:
    hi = 2 ** (bits - 1) - 1
    return _snap(x, scale, -hi if symmetric else -(2 ** (bits - 1)), hi)


def f32_precision(x: np.ndarray) -> np.ndarray:
    """Round to float32 precision; parameters persist as f32 in checkpoints."""
    return x.astype(np.float32).astype(np.float64)


def param_grid_scale(p: np.ndarray, bits: int) -> float:
    """Fixed grid for a trainable parameter, with 2x headroom for growth."""
    m = max(2.0 * float(np.max(np.abs(p), initial=0.0)), 1e-3)
    return 2.0 * m / (2**bits - 1)


def latent_grid_scale(bits: int) -> float:
    """Grid for binary-layer latent weights, which live in [-1, 1]."""
    return 2.0 / (2**bits - 1)


def grid_nodes(graph: Graph) -> list[int]:
    """Nodes holding a calibrated grid, as the input does: every snapped node and every float GEMM's input."""
    read = {n.inputs[0] for n in graph.nodes if n.kind in GEMM_KINDS and not KINDS[n.kind].weight_bits}
    return [idx for idx, n in enumerate(graph.nodes) if not KINDS[n.kind].binary or idx in read]


def _grid(graph: Graph, src: int, bits: int) -> QuantParams:
    """The grid that calibration fixed for node src's output (-1: the input)."""
    p = graph.input_qparams if src == -1 else graph.nodes[src].out_qparams
    if p is None or p.bits != bits:
        what = "the graph input" if src == -1 else f"node {src} ({graph.nodes[src].name})"
        raise GraphError(f"{what} holds no {bits}-bit activation grid: calibrate at q_f={bits}")
    return p


def _check_level(graph: Graph, name: str, level: int | None, lo: int = -1) -> None:
    """Refuse a level that names no node from lo on (-1: the graph input); None names none."""
    if level is not None and not lo <= level < len(graph.nodes):
        raise GraphError(f"{name} {level} names no node in {lo}..{len(graph.nodes) - 1}")


def _snap_activation(y: np.ndarray, p: QuantParams, out=None) -> np.ndarray:
    """dequantize(quantize(y, p)), byte for byte, without the integer tensor; into out, which may be y."""
    if np.isnan(y).any():
        raise QuantError(f"NaN activation cannot be snapped to the {p.bits}-bit grid")
    q = _snap(y, p.scale, p.qmin - p.zero_point, p.qmax - p.zero_point, out=out)
    return np.add(q, 0.0, out=q)  # -0.0 + 0.0 is the +0.0 that the integer round trip gives


def _blocks(n: int, per: int, size: int = bitpack.GEMM_BLOCK) -> list[tuple[slice, slice]]:
    """n samples of per rows each as blocks of whole samples, each at most about size rows and within one
    sample of the others: (samples, rows) slice pairs.  No block ends in a short tail, which a BLAS may sum
    in another order than the same rows of a longer product."""
    count = max(1, -(-n // max(1, size // per)))
    edges = [n * i // count for i in range(count + 1)]
    return [(slice(a, b), slice(a * per, b * per)) for a, b in zip(edges, edges[1:])]


def _sum_blocks(shape: tuple) -> list[slice]:
    """The blocks of whole samples, of about GATHER_ROWS positions, over which _fold sums an array of shape
    per channel.  numpy adds one channel's values in sequence, but a single channel is one contiguous run,
    which it sums pairwise: then the array is one block."""
    return [s for s, _ in _blocks(shape[0], math.prod(shape[1:-1]), GATHER_ROWS)] if shape[-1] > 1 else [slice(None)]


def _fold(acc, part: np.ndarray) -> np.ndarray:
    """The per-channel sum of the blocks up to part, whose first position it writes: acc, the running sum of
    the blocks before part, is folded in there, so block by block (_sum_blocks) the sum keeps the order of
    numpy's over the whole array."""
    if acc is not None:
        part[(0,) * (part.ndim - 1)] += acc
    return part.sum(axis=tuple(range(part.ndim - 1)))


def _thresholds(s: float, b: np.ndarray, out_params: QuantParams, m: int) -> np.ndarray | None:
    """Per channel, the least integer product t in [-m, m] whose finish, t * s + b snapped onto out_params, is
    >= 0, or m + 1 where none is.  The finish is monotone in t, so its sign at any product in [-m, m] is
    that product >= the threshold.  Found by bisection, each probe of one (1, C) row finished as a block is;
    None where a value at either end of [-m, m], and so maybe any value between, is not finite."""
    def values(t):
        v = np.multiply(t, s)  # t's float64 values times s, as a block's exact products are
        v += b
        return v

    lo, hi = np.full((1, len(b)), -m), np.full((1, len(b)), m + 1)
    if not (np.isfinite(values(lo)).all() and np.isfinite(values(hi - 1)).all()):
        return None
    while (lo < hi).any():
        mid = (lo + hi) // 2
        up = (_snap_activation(values(mid), out_params) >= 0.0) | (lo == hi)  # a found threshold stays
        hi, lo = np.where(up, mid, hi), np.where(up, lo, mid + 1)
    return lo


def _quantized_gemm(parts, rows: int, in_params: QuantParams, w2d: np.ndarray, b: np.ndarray,
                    out_params: QuantParams, signs: bool = False):
    """Patch rows times w2d, both on in_params' bits, plus b, snapped onto out_params: one (rows, C) array,
    or with signs the BitTensor of its signs, for which no float output is built.  The weights are quantized
    once, and the patches per block that parts yields as (row slice, patch rows).  An 8- or 16-bit block's
    product is an exact integer sum, so each block is multiplied alone and finished as it is made; a 32-bit
    one is not, so its codes are gathered and multiplied as one product, summed as the whole batch's is, and
    its blocks are finished after it.  A block's finish is the scale multiply, the bias add and the snap, in
    place, then its signs; but the signs of an exact product are its compare with one threshold per channel
    (_thresholds), where those are found, and then no block is finished."""
    bits = in_params.bits
    wq = quantize(w2d, quant_params(*calibrate_range([w2d]), bits, signed=True))
    wide = bits > 8  # wider operands could overflow any integer accumulator: their codes multiply as float64
    wcodes = np.subtract(wq.data, wq.params.zero_point, dtype=np.float64) if wide else None
    whole, c, s = bits == 32, w2d.shape[1], in_params.scale * wq.params.scale
    codes = np.empty((rows, w2d.shape[0])) if whole else None
    y = np.empty((rows, c)) if whole or not signs else None
    bits01 = np.empty((rows, c), bool) if signs and not whole else None  # the signs' 0/1 array
    cut = _thresholds(s, b, out_params, product_bound(len(w2d), in_params, wq.params)) if bits01 is not None else None

    def finish(block, part):
        if wide:
            part *= s
        part += b
        snapped = _snap_activation(part, out_params, out=part)
        if signs:
            np.greater_equal(snapped, 0.0, out=bits01[block])
        elif snapped is not part:  # part is y's block: a snap that copies is written back
            part[...] = snapped

    blocks = []
    for block, patches in parts:
        xq = quantize(patches, in_params)
        blocks.append(block)
        if whole:
            np.subtract(xq.data, in_params.zero_point, dtype=np.float64, out=codes[block])
            continue
        if cut is not None and not wide:  # the exact integer product's signs
            np.greater_equal(qmatmul(xq, wq).data, cut, out=bits01[block])
            continue
        part = np.empty((block.stop - block.start, c)) if y is None else y[block]
        if wide:  # exact: sums of 16-bit products stay below 2**53
            np.matmul(np.subtract(xq.data, in_params.zero_point, dtype=np.float64), wcodes, out=part)
        else:  # qmatmul holds 8-bit operands to its 32-bit accumulator contract
            part[...] = dequantize(qmatmul(xq, wq))
        if cut is not None:
            np.greater_equal(part, cut, out=bits01[block])
        else:
            finish(block, part)
    if whole:
        np.matmul(codes, wcodes, out=y)
        del codes  # before the signs' array is made
        bits01 = np.empty((rows, c), bool) if signs else None
        for block in blocks:
            finish(block, y[block])
    return bitpack.from01(bits01) if signs else y


# ---------------------------------------------------------------------------
# standalone ops


def ste_backward(g_out: np.ndarray, cached_input: np.ndarray, clip_threshold: float = 1.0) -> np.ndarray:
    """Straight-through gradient of sign: identity inside the clip region, else a zero of g_out's sign."""
    if g_out.shape != cached_input.shape:
        raise GraphError(f"shape mismatch: {g_out.shape} vs {cached_input.shape}")
    return g_out * (np.abs(cached_input) <= clip_threshold)


def batchnorm_forward(x, gamma, beta, running_mean, running_var, eps=1e-5):
    """Inference-style normalization with frozen statistics."""
    if x.shape[-1] != gamma.shape[0]:
        raise GraphError(f"channel mismatch: input {x.shape[-1]} vs gamma {gamma.shape[0]}")
    inv_std = 1.0 / np.sqrt(running_var + eps)
    x_hat = (x - running_mean) * inv_std
    return gamma * x_hat + beta, (x_hat, inv_std)


def softmax_ce(logits: np.ndarray, one_hot: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits."""
    logits = np.atleast_2d(logits)
    one_hot = np.atleast_2d(one_hot)
    if logits.shape != one_hot.shape:
        raise GraphError(f"shape mismatch: logits {logits.shape} vs labels {one_hot.shape}")
    rows = one_hot.sum(axis=1)
    if not (np.all(rows == 1) and np.all(np.isin(one_hot, (0, 1)))):
        raise GraphError("labels must be one-hot")
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    b = logits.shape[0]
    loss = float(-np.sum(one_hot * (z - np.log(ez.sum(axis=1, keepdims=True)))) / b)
    grad = (p - one_hot) / b
    return loss, grad


# ---------------------------------------------------------------------------
# forward


def _gemm_shapes(idx, node, in_shape):
    """A GEMM layer's conv spec, its input shape as NHWC, and its output shape.

    A dense layer is a 1x1 convolution over a 1x1 image: its (k, n) weights
    already have the layout that reshape(-1, n) gives conv weights, and only
    its input and output are 2-D.
    """
    row = KINDS[node.kind]
    if row.spec:
        spec = node.attrs["spec"]
        if len(in_shape) != 4 or in_shape[3] != spec.in_channels:
            raise GraphError(f"node {idx} ({node.name}): input shape {in_shape} vs spec {spec}")
        n, h, wd, _ = in_shape
        return spec, in_shape, (n, *spec.out_hw(h, wd), spec.out_channels)
    w = (node.weight_bits if row.weight_bits else node.params["w"]).shape
    if len(in_shape) != 2 or len(w) != 2 or in_shape[1] != w[0]:
        raise GraphError(f"node {idx} ({node.name}): input shape {in_shape} vs weight {w}")
    k, out = w
    return BinConvSpec(1, 1, 1, 0, k, out), (in_shape[0], 1, 1, k), (in_shape[0], out)


def _forward_node(graph, idx, node, ins, config, want_cache, signs=False):
    """Node idx's output from its inputs ins, and its backward cache when want_cache.

    A binary GEMM's output is its mismatch counts diff (bitpack.bin_conv2d),
    of which forward forms the exact counts k - 2 * diff only where they are
    read.  Any other GEMM node works on _blocks of whole samples.  A quantized
    product is built, quantized and multiplied per block, from patches made
    per block in infer mode; train mode makes the patches once, as the weight
    gradient reads them whole.  Each block is finished in place, scaled,
    biased and snapped, as _quantized_gemm makes it; with signs, the output is
    the packed BitTensor of the snapped output's signs, which is never built
    whole; every other kind, and a float GEMM, ignores signs.
    """
    bits = config.q_f
    x = ins[0] if ins else None
    cache = None

    if node.kind in GEMM_KINDS:
        spec, shape4, out_shape = _gemm_shapes(idx, node, x.shape)
        if KINDS[node.kind].weight_bits:  # the patch operand: packed rows, or the float im2col
            x4 = bitpack.binarize(x).reshape(shape4)  # a sign's output is packed already
            operand = bitpack.conv_rows(x4, spec)
            wb = node.weight_bits.reshape((spec.kernel_h, spec.kernel_w, spec.in_channels, spec.out_channels))
            y = bitpack.bin_conv2d(x4, wb, spec, operand, mismatches=True)  # counts are k - 2 * y
        else:  # the float im2col: whole when train mode caches it or a float product reads it, else per block
            x4, wmat = x.reshape(shape4), node.params["w"].reshape(-1, spec.out_channels)
            operand = bitpack.patches(x4, spec) if want_cache or bits is None else None
            if bits is None:
                y = operand @ wmat
                y += node.params["b"]
            else:
                blocks = _blocks(len(x4), math.prod(out_shape[1:-1]))
                parts = ((rows, bitpack.patches(x4[samples], spec) if operand is None else operand[rows])
                         for samples, rows in blocks)
                y = _quantized_gemm(parts, blocks[-1][1].stop, _grid(graph, node.inputs[0], bits), wmat,
                                    node.params["b"], _grid(graph, idx, bits), signs)
        y = y.reshape(out_shape)
        cache = (x.shape, operand)
    elif node.kind == "binarize":  # x may be packed: its cache, the STE's input, is read as floats
        y = bitpack.binarize(x)
        cache = as_float(x) if want_cache else None
    elif node.kind == "batchnorm":
        p = node.params
        y, cache = batchnorm_forward(x, p["gamma"], p["beta"], p["running_mean"], p["running_var"],
                                     node.attrs.get("eps", 1e-5))
    elif node.kind == "add":
        a, b2 = ins
        if a.shape != b2.shape:
            raise GraphError(f"node {idx} ({node.name}): add shapes {a.shape} vs {b2.shape}")
        y = a + b2
    elif node.kind == "concat":
        y, cache = np.concatenate(ins, axis=-1), [t.shape[-1] for t in ins]
    elif node.kind == "prelu":
        alpha = node.params["alpha"]
        if x.shape[-1] != alpha.shape[0]:
            raise GraphError(f"node {idx} ({node.name}): channel mismatch {x.shape[-1]} vs {alpha.shape[0]}")
        y = np.where(x >= 0, x, alpha * x)
        cache = x
    elif node.kind == "global_avg_pool":  # x may be a chain end's _Tabled output
        if len(x.shape) != 4:
            raise GraphError(f"node {idx} ({node.name}): expects NHWC input, got shape {x.shape}")
        y = x.mean(axis=(1, 2))
        cache = x.shape
    else:  # pragma: no cover
        raise GraphError(f"node {idx}: unhandled kind {node.kind}")

    if bits is not None and not (KINDS[node.kind].binary or node.kind in GEMM_KINDS):  # y: its own fresh array
        y = _snap_activation(y, _grid(graph, idx, bits), out=y)
    return y, (cache if want_cache else None)


def as_float(a) -> np.ndarray:
    """a as a float64 array, as every layer kind that is not binary reads
    its inputs: a packed +-1 tensor is unpacked."""
    if isinstance(a, BitTensor):
        return a.unpack().astype(np.float64)
    return np.asarray(a, dtype=np.float64)


def _chain(graph: Graph, gemm: int, readers: dict, acts: dict, shape: tuple) -> list[int]:
    """The nodes after binary GEMM gemm that one table computes.

    Each is per channel and the only reader of the node before it, an add
    among them takes a packed sign of the GEMM's output shape that forward
    holds already, and a sign closes the chain.
    """
    chain, prev = [], gemm
    while graph.nodes[prev].kind != "binarize" and len(readers.get(prev, ())) == 1:
        idx = readers[prev][0]
        node = graph.nodes[idx]
        other = [acts.get(i) for i in node.inputs if i != prev]
        if not KINDS[node.kind].per_channel or (node.kind == "add" and not (
                isinstance(other[0], BitTensor) and other[0].shape == shape)):
            break
        chain.append(idx)
        prev = idx
    return chain


def _tabulate(graph, gemm, chain, diff, acts, config, want_cache):
    """Every chain node's own _forward_node run once on every value its input
    can take; returns {node: (output, cache or None, whether it ends the
    chain)}, each a _Tabled over the chain's one index.

    diff is the GEMM's mismatch counts, whose count is k - 2 * diff, so row j
    holds count k - 2j.  An add of a packed sign doubles the rows, and the
    sign's bit becomes the lowest bit of each row, so a table from before
    that add holds at row j what it held at row j >> 1: each such table is
    expanded to the last table's row count, so every table reads at one flat
    index, row * C + channel.  The index is computed in place, in the
    narrowest type that holds the last table's size: in diff itself when it
    has that type.
    """
    c = diff.shape[-1]
    k = graph.nodes[gemm].weight_bits.size // c
    rows = (k + 1) << sum(graph.nodes[i].kind == "add" for i in chain)
    code = diff.astype(np.min_scalar_type(rows * c - 1), copy=False)
    table = np.repeat(k - 2.0 * np.arange(k + 1), c).reshape(k + 1, c)
    stages, prev = {}, gemm
    for idx in chain:
        node = graph.nodes[idx]
        ins = [table]
        if node.kind == "add":
            slot = node.inputs.index(prev)
            code <<= 1
            code |= acts[node.inputs[1 - slot]].unpack01()
            table = np.repeat(table, 2, axis=0)
            signs = np.tile([[-1.0], [1.0]], (len(table) // 2, c))
            ins = [table, signs] if slot == 0 else [signs, table]
        table, cache = _forward_node(graph, idx, node, ins, config, want_cache)
        stages[idx] = (table, cache)
        prev = idx

    def full(a):  # a (rows, C) table of fewer rows, expanded; a tuple's tables each
        if isinstance(a, tuple):
            return tuple(map(full, a))
        short = isinstance(a, np.ndarray) and a.ndim == 2 and len(a) < rows
        return np.repeat(a, rows // len(a), axis=0) if short else a

    code *= c
    code += np.arange(c, dtype=code.dtype)
    return {i: (_Tabled(code, full(t)), None if cached is None else _Tabled(code, full(cached)), i == chain[-1])
            for i, (t, cached) in stages.items()}


@dataclass(frozen=True)
class _Tabled:
    """Values held as (rows, C) tables, read at each element through the chain's one flat index, row * C +
    channel, per block of whole samples of about GATHER_ROWS positions, so no intp index of the whole output is
    built.  As a chain node's output, table is its table, which forward gathers or global_avg_pool pools; as
    its backward cache, table is what the node's code left on the grid."""

    index: np.ndarray
    table: object

    @property
    def shape(self) -> tuple:
        return self.index.shape

    @property
    def blocks(self) -> list[slice]:
        return [s for s, _ in _blocks(len(self.index), math.prod(self.shape[1:-1]), GATHER_ROWS)]

    def read(self, samples: slice, *tables) -> list[np.ndarray]:
        """Each table's value at each element of samples, through one intp index that every table shares."""
        flat = self.index[samples].astype(np.intp)
        return [np.take(t, flat, mode="clip") for t in tables]  # "raise" copies through a buffer

    def gather(self):
        """The table's value, or packed sign, at every element.  A sign table whose every column is a step in
        the row index, as after a batchnorm, is one compare of the index with a threshold per channel, in the
        index's own type: a column rises at row t, or falls there (down), and its bit at index row * C + c is
        (index >= t * C + c) ^ down.  An all-ones column rises at 0 and an all-zeros one falls at 0."""
        packed = isinstance(self.table, BitTensor)
        src = self.table.unpack01() if packed else self.table
        if packed:
            rows, c = src.shape
            down = src[-1] == 0
            t = np.where(down, src.sum(axis=0), rows - src.sum(axis=0))
            if np.array_equal(src, (np.arange(rows)[:, None] >= t) ^ down):
                bits = np.greater_equal(self.index, (t * c + np.arange(c)).astype(self.index.dtype))
                return bitpack.from01(np.bitwise_xor(bits, down, out=bits))
        out = np.empty(self.shape, src.dtype)
        for s in self.blocks:
            out[s] = self.read(s, src)[0]
        return bitpack.from01(out) if packed else out

    def values(self, blocks=None):
        """The float64 values of each block of whole samples (default: self.blocks), one fresh array each."""
        table = as_float(self.table)
        return (self.read(s, table)[0] for s in (self.blocks if blocks is None else blocks))

    def mean(self, axis: tuple) -> np.ndarray:
        """The mean over axis of each block's values, equal to the gathered output's, which is never built."""
        return np.concatenate([v.mean(axis=axis) for v in self.values()])


def channel_moments(y) -> tuple[np.ndarray, np.ndarray]:
    """Each channel's mean and variance over all other axes of y, byte for byte np.mean's and np.var's of y as
    one float64 array, which is never built: y is summed per block of whole samples (_fold), first for the
    mean, then for the squared deviations from it.  y is an array, int32 counts among them, a packed sign or a
    chain node's _Tabled output."""
    y = y if isinstance(y, (np.ndarray, _Tabled)) else as_float(y)
    blocks, n = _sum_blocks(y.shape), math.prod(y.shape[:-1])

    def parts():  # fresh float64 blocks, which _fold writes
        return y.values(blocks) if isinstance(y, _Tabled) else (np.array(y[s], dtype=np.float64) for s in blocks)

    mean = reduce(_fold, parts(), None) / n
    return mean, reduce(_fold, (np.square(np.subtract(d, mean, out=d), out=d) for d in parts()), None) / n


def forward(graph: Graph, x, config: BitwidthConfig, mode: str = "infer",
            from_level: int | None = None, stop_level: int | None = None, collect=None):
    """Run the graph; returns (output, cache).

    In train mode the cache holds per-node inputs needed by backward, for
    nodes above from_level only.  from_level feeds x in as the output of
    that node (used to resume from stored latent activations).

    A quantized GEMM node works on blocks of whole samples, about
    bitpack.GEMM_BLOCK rows each, and a binary one on the XNOR kernel's row
    blocks (_forward_node).  A sign's output stays a packed BitTensor,
    which a binary kind (a binary GEMM or a sign) reads as it is and every
    other kind through as_float.  x may be one (the replay batch at
    from_level), and the output is one when the node returned is a sign.
    In infer mode a quantized GEMM whose one reader is a sign, and which
    nothing collects or stops at, hands the sign the packed signs of its
    snapped output, made block by block (_quantized_gemm), so its float
    output is never built.  Each activation is dropped after its last
    reader, and nothing of a node outlives the loop turn that ran it.

    A binary GEMM's output is an exact count, so the chain of per-channel
    nodes after it (_chain) is a function of each channel's count and the
    bits of the packed signs it adds: forward tabulates the chain once and
    gathers the chain's output, and each node's cache, from the tables.  The
    output of a node inside the chain is gathered from its own table only
    when it is stop_level or a plain dict collects it; a chain end that only
    global_avg_pool reads is read as per-sample means (_Tabled.mean).  The
    chain is indexed by the GEMM's mismatch counts (_tabulate), and its exact
    int32 counts are formed only where they are read: by a collect target,
    at stop_level, which returns them as they are, or as the float64 input of
    the next node when the GEMM has no chain.
    collect[idx] gets node idx's output before any later node runs; a binary
    GEMM's, before its chain is tabulated.  A plain dict collects every
    output as forward returns it: gathered, and a binary GEMM's counts as
    float64 (int32 at stop_level).  A collect target with a `reads` set gets
    only the outputs of the nodes it names, each as forward holds it: a chain
    node's _Tabled, a binary GEMM's exact int32 counts, a sign's BitTensor,
    or an array.
    """
    if mode not in ("train", "infer"):
        raise GraphError(f"mode must be train or infer, got {mode!r}")
    _check_level(graph, "from_level", from_level)
    level = -1 if from_level is None else from_level
    _check_level(graph, "stop_level", stop_level, level + 1)
    if from_level is None and config.q_f is not None:
        x = _snap_activation(as_float(x), _grid(graph, -1, config.q_f))
    acts: dict[int, object] = {level: x}
    readers: dict[int, list[int]] = {}
    for idx, node in enumerate(graph.nodes):
        for i in node.inputs:
            readers.setdefault(i, []).append(idx)
    cache: dict[int, object] = {}
    want_cache = mode == "train"
    reads = getattr(collect, "reads", None)
    tabled: dict[int, tuple] = {}  # chain node -> (its output, its cache or None, whether it ends the chain)
    for idx in range(level + 1, len(graph.nodes)):
        node = graph.nodes[idx]
        collected = collect is not None and (reads is None or idx in reads)
        whole = idx == stop_level or collected and reads is None  # wanted as one array or packed sign
        chain = diff = held = y = ins = None  # nothing of the last turn's node outlives its readers
        if idx in tabled:
            held, c, last = tabled.pop(idx)
        else:
            row = KINDS[node.kind]  # a binary kind reads a packed input as it is
            ins = [acts[i] if row.binary or isinstance(acts[i], _Tabled) else as_float(acts[i]) for i in node.inputs]
            # a quantized GEMM that only a sign reads hands it packed signs
            signs = not (want_cache or whole or collected) and [
                graph.nodes[r].kind for r in readers.get(idx, ())] == ["binarize"]
            held, c = _forward_node(graph, idx, node, ins, config, want_cache, signs)
            if row.weight_bits:  # held: mismatch counts, made into the exact counts only where something reads those
                diff, chain = held, _chain(graph, idx, readers, acts, held.shape)
                k = node.weight_bits.size // diff.shape[-1]
                held = bitpack.counts(diff, k) if collected or whole or not chain else None
        if collected and reads is not None:  # before the chain's tables read what collect may set (initialize_bn_stats)
            collect[idx] = held
        if isinstance(held, _Tabled):
            pooled = last and not whole and readers.get(idx) and all(
                graph.nodes[r].kind == "global_avg_pool" for r in readers[idx])
            y = held if pooled else held.gather() if whole or last else None
        elif diff is not None:  # the counts: returned at stop_level, tabulated, or read as floats
            y = held if idx == stop_level else held.astype(np.float64) if whole or not chain else None
        else:
            y = held
        if collected and reads is None:
            collect[idx] = y
        if want_cache and c is not None:
            cache[idx] = c
        if idx == stop_level:
            return y, cache
        if chain:
            tabled.update(_tabulate(graph, idx, chain, diff, acts, config, want_cache))
        for i in set(node.inputs):
            if readers[i][-1] == idx:
                del acts[i]
        acts[idx] = y
    return acts[graph.output_id], cache


# ---------------------------------------------------------------------------
# backward


def _node_backward_bits(node: LayerNode, config: BitwidthConfig) -> int | None:
    """q_b_bin for a binary kind, unless 1 bit freezes the binary weights:
    then, as for every other kind, q_b_nonbin."""
    return config.q_b_bin if KINDS[node.kind].binary and config.q_b_bin != 1 else config.q_b_nonbin


def _per_channel_backward(node, pair, entry, need_input_grad, snap):
    """([input gradient], parameter gradients) of a prelu, batchnorm or sign node from its output gradient's
    (codes, scale) pair, over blocks of whole samples of about GATHER_ROWS positions.

    At each element a block reads only what the node multiplies by: on a chain, from its _Tabled cache's
    (rows, C) tables, through one flat index per block that all of them share.  A parameter gradient is summed
    block by block with _fold, so it keeps the order of numpy's sum over the whole array.  With snap bits the
    input gradient is written as codes, and no float array of it is built: a first pass finds its max-abs and a
    second writes its codes, but a batchnorm's max-abs follows from the per-channel maxima of the codes it
    reads, so its codes are written in its one pass.  Without, each block's float values are written straight
    into the input gradient, and at float a block reads its output gradient's values in place.
    """
    codes, scale = pair
    p, shape = node.params, codes.shape
    want = need_input_grad[0]
    tabled = isinstance(entry, _Tabled)
    source, k = entry.table if tabled else entry, 1
    # product(g, tables, out) is the input gradient; derive(source) gives its tables first, then the ones
    # that terms, the parts of each parameter gradient's sum, read
    if node.kind == "prelu":
        product = lambda g, t, out: np.multiply(t[0], g, out=t[0] if out is None else out)  # noqa: E731
        derive = lambda x: [np.where(x >= 0, 1.0, p["alpha"]), *([x * (x < 0)] if node.trainable else [])]  # noqa: E731
        terms = {"alpha": lambda g, t: np.multiply(t[1], g, out=t[1])}
    elif node.kind == "batchnorm":
        (source, inv_std), k = source, 0

        def product(g, t, out):
            y = np.multiply(g, p["gamma"], out=out)
            return np.multiply(y, inv_std, out=y)
        derive = lambda x: [x] if node.trainable else []  # noqa: E731
        # gamma's part is written into its read of x_hat where that read is fresh: a table's, not a cache's
        terms = {"gamma": (lambda g, t: np.multiply(t[0], g, out=t[0])) if tabled else lambda g, t: g * t[0],
                 "beta": lambda g, t: g if scale is not None else np.array(g, order="C")}
    else:  # ste_backward
        product = lambda g, t, out: np.multiply(g, t[0], out=out)  # noqa: E731
        derive = lambda x: [np.abs(x) <= node.attrs.get("clip", 1.0)]  # noqa: E731
        terms = {}
    terms = terms if node.trainable else {}
    if tabled:
        tables = derive(source)
        take = lambda s, n: entry.read(s, *tables[:n])  # noqa: E731
    else:
        take = lambda s, n: derive(source[s])[:n]  # noqa: E731
    blocks = _sum_blocks(shape)

    def sweep(fn, n):  # fn(samples, g, tables) per block, g its values: fresh and C-ordered, or codes' own
        for s in blocks:
            fn(s, codes[s] if scale is None else np.multiply(codes[s], scale, order="C"), take(s, n))

    def grid(m):  # where the input gradient goes: (array, scale, whether blocks write it)
        scale = _grid_scale(m, snap) if m else None
        if m and scale is None:  # zeros, where the scale would be subnormal
            return np.zeros(shape), None, False
        return np.empty(shape, _code_type(snap) if scale else np.float64), scale, True

    sums, m = dict.fromkeys(terms), 0.0
    gin, out_scale, writes = (np.empty(shape), None, True) if want and snap is None else (None, None, False)
    if want and snap is not None and node.kind == "batchnorm":  # its grid is known before any pass
        top = np.abs(_held(codes)).max(axis=tuple(range(len(shape) - 1)), initial=0)
        gin, out_scale, writes = grid(_absmax(product(top if scale is None else top * scale, None, None)))

    def write(s, g, t, out):  # a block's input gradient into gin: its codes, or its values
        y = product(g, t, gin[s] if out_scale is None else out)
        if out_scale is not None:
            np.rint(np.divide(y, out_scale, out=y), out=gin[s], casting="unsafe")

    def first(s, g, t):  # the parameter-gradient sums, and the input gradient or its max-abs
        nonlocal m
        if writes:
            write(s, g, t, None)
        elif want and gin is None:
            m = max(m, _absmax(product(g, t, None)))
        for (name, acc), part in zip(sums.items(), [f(g, t) for f in terms.values()]):
            sums[name] = _fold(acc, part)

    if sums or writes or (want and gin is None):
        sweep(first, len(terms) + k)
    if want and gin is None:  # the second pass, on the grid the first one found
        gin, out_scale, writes = grid(m)
        if writes:
            sweep(lambda s, g, t: write(s, g, t, None if scale is None else g), k)
    return [gin if snap is None or not want else (gin, out_scale)], sums


def _backward_node(idx, node, pair, cache_entry, config, need_input_grad, snap=None):
    """Returns (input grads aligned with node.inputs, param grads) from the (codes, scale) pair of the node's
    output gradient.  An input gradient is None where it is not needed, a (codes, scale) pair where the node
    hands one on or snapped it itself, and otherwise float values for backward to snap.  A per-channel kind
    snaps its input gradient at snap bits when given (_per_channel_backward)."""
    if node.kind in ("prelu", "batchnorm", "binarize"):
        return _per_channel_backward(node, pair, cache_entry, need_input_grad, snap)
    pgrads, gins, (codes, scale) = {}, [None] * len(node.inputs), pair
    if node.kind in GEMM_KINDS:
        binary = KINDS[node.kind].weight_bits
        in_shape, operand = cache_entry
        spec, shape4, out_shape = _gemm_shapes(idx, node, in_shape)
        gmat = codes.reshape(-1, spec.out_channels)
        w = node.weight_bits if binary else node.params["w"]
        if not binary:
            gmat = _values(gmat, scale)
        if node.trainable and not (binary and config.q_b_bin == 1):  # 1 bit freezes weight bits
            gw = bitpack.rows_t(operand, spec, gmat, scale) if binary else operand.T @ gmat
            pgrads["latent" if binary else "w"] = gw.reshape(w.shape)
            if not binary:
                pgrads["b"] = gmat.sum(axis=0)
        if need_input_grad[0]:  # col2im of the patch gradient, built per block of whole samples
            wt = as_float(w).reshape(-1, spec.out_channels).T
            gin = np.empty(shape4)
            for samples, rows in _blocks(len(gin), math.prod(out_shape[1:-1]), bitpack.CODE_ROWS):
                part = gmat[rows] if not binary or scale is None else np.multiply(gmat[rows], scale)
                gin[samples] = bitpack.col2im(part @ wt, spec, gin[samples].shape)
            gins[0] = gin.reshape(in_shape)
    elif node.kind == "add":
        for slot in range(2):
            if need_input_grad[slot]:
                gins[slot] = pair
    elif node.kind == "concat":
        offs = np.cumsum([0] + cache_entry)
        for slot in range(len(cache_entry)):
            if need_input_grad[slot]:
                gins[slot] = (codes[..., offs[slot] : offs[slot + 1]], scale)
    elif node.kind == "global_avg_pool":
        n, h, wd, c = cache_entry
        if need_input_grad[0]:  # a read-only view of the n * c values
            gins[0] = np.broadcast_to(_values(codes, scale)[:, None, None, :] / (h * wd), (n, h, wd, c))
    else:  # pragma: no cover
        raise GraphError(f"node {idx}: unhandled kind {node.kind}")
    return gins, pgrads


def backward(graph: Graph, cache: dict, grad_at_head: np.ndarray, config: BitwidthConfig,
             from_level: int | None = None, return_act_grads: bool = False):
    """Backpropagate from the output node down to (but excluding) from_level.

    Returns {node_id: {param_name: grad}} for trainable layers, each snapped by
    fake_quant at its layer's backward bitwidth; with return_act_grads, also the
    values of each input gradient reached.  Every gradient travels as one
    grad_codes (codes, scale) pair, snapped once where it is made, at its
    maker's bitwidth: an add or a concat hands on its pair or a slice of it, a
    per-channel node snaps the input gradient it alone makes, other nodes'
    input gradients are snapped here, and two readers' gradients are summed
    afresh and snapped once.
    """
    _check_level(graph, "from_level", from_level)
    floor = from_level if from_level is not None else -1
    out_id = graph.output_id
    grads = {out_id: grad_codes(np.asarray(grad_at_head, dtype=np.float64), config.q_b_nonbin)}
    param_grads: dict[int, dict] = {}
    for idx in range(out_id, floor, -1):
        node = graph.nodes[idx]
        pair = grads.pop(idx, None)
        if pair is None:
            continue
        entry = cache.get(idx)
        if entry is None and node.kind != "add":
            raise GraphError(f"node {idx} ({node.name}): missing cache entry for backward")
        need = [(i > floor and i != -1) or return_act_grads for i in node.inputs]
        bits = _node_backward_bits(node, config)
        alone = node.inputs[0] not in grads  # a per-channel node's one input holds no other gradient yet
        gins, pgrads = _backward_node(idx, node, pair, entry, config, need, bits if alone else None)
        if pgrads:
            param_grads[idx] = {k: fake_quant(v, bits) for k, v in pgrads.items()}
        for src, gin in zip(node.inputs, gins):
            if gin is not None and src in grads:  # a second reader: the sum is made afresh
                grads[src] = grad_codes(np.add(_values(*grads[src]), _values(*gin) if isinstance(gin, tuple) else gin),
                                        bits)
            elif gin is not None:
                grads[src] = gin if isinstance(gin, tuple) else grad_codes(gin, bits)
    return (param_grads, {i: _values(*pair) for i, pair in grads.items()}) if return_act_grads else param_grads


# ---------------------------------------------------------------------------
# parameter update


def store_param(node: LayerNode, name: str, value: np.ndarray, config: BitwidthConfig) -> None:
    """Write a parameter in its on-device form.

    A binary layer's latent is clipped to [-1, 1], snapped to the q_b_bin
    grid and re-binarized into weight_bits.  Any other parameter snaps to a
    fixed q_b_nonbin grid, pinned by the first store from the value the node
    held before it.  Both persist at f32 precision, every zero as +0.0, the
    value that a checkpoint's code 0 reads back as.
    """
    if node.kind in BINARY_KINDS:
        value = np.clip(value, -1.0, 1.0)
        if config.q_b_bin is not None:
            value = snap_to_fixed_grid(value, latent_grid_scale(config.q_b_bin), config.q_b_bin,
                                       symmetric=True)
    elif config.q_b_nonbin is not None:
        if name not in node.param_scales:
            node.param_scales[name] = param_grid_scale(node.params.get(name, value), config.q_b_nonbin)
        value = snap_to_fixed_grid(value, node.param_scales[name], config.q_b_nonbin)
    value = f32_precision(value)
    node.params[name] = np.add(value, 0.0, out=value)  # -0.0 + 0.0 is +0.0
    if node.kind in BINARY_KINDS:
        node.weight_bits = bitpack.binarize(node.params[name])


def sgd_step(graph: Graph, param_grads: dict, learning_rate: float, config: BitwidthConfig) -> None:
    """Plain SGD on trainable layers, each result stored by store_param.

    With q_b_bin = 1 the binary weights are frozen and their update is a
    no-op: the 1-bit latent grid collapses to 0.
    """
    for idx, grads in param_grads.items():
        node = graph.nodes[idx]
        if not node.trainable:
            continue
        if node.kind in BINARY_KINDS and (config.q_b_bin == 1 or "latent" not in node.params):
            continue
        for pname, g in grads.items():
            store_param(node, pname, node.params[pname] - learning_rate * g, config)


# ---------------------------------------------------------------------------
# shape inference and MAC accounting


def infer_shapes(graph: Graph) -> dict[int, tuple[int, ...]]:
    """Per-sample output shape of every node (no batch axis); each node must
    fit its inputs, and its parameters the shapes its spec and channels give."""
    shapes: dict[int, tuple[int, ...]] = {-1: graph.input_shape}
    for idx, node in enumerate(graph.nodes):
        ins = [shapes[i] for i in node.inputs]
        if node.kind in GEMM_KINDS:
            shapes[idx] = _gemm_shapes(idx, node, (1, *ins[0]))[2][1:]
        elif node.kind == "global_avg_pool":
            shapes[idx] = (ins[0][-1],)
        elif node.kind == "concat":
            shapes[idx] = ins[0][:-1] + (sum(s[-1] for s in ins),)
        elif node.kind == "add":
            if ins[0] != ins[1]:
                raise GraphError(f"node {idx} ({node.name}): add shapes {ins[0]} vs {ins[1]}")
            shapes[idx] = ins[0]
        else:  # binarize, batchnorm, prelu are shape-preserving
            shapes[idx] = ins[0]
        c_in, c_out, spec = ins[0][-1], shapes[idx][-1], node.attrs.get("spec")
        w = (c_in, c_out) if spec is None else (spec.kernel_h, spec.kernel_w, c_in, c_out)
        for what, t in [*node.params.items(), ("weight bits", node.weight_bits)]:
            want = w if what in ("w", "latent", "weight bits") else (c_out,)
            if t is not None and t.shape != want:
                raise GraphError(f"node {idx} ({node.name}): {what} has shape {t.shape}, not {want}")
    return shapes


def _node_macs(idx: int, node: LayerNode, in_shape: tuple[int, ...]) -> int:
    """Per-sample MACs: every output value of a GEMM layer is one patch-by-weight dot."""
    if node.kind not in GEMM_KINDS:
        return 0
    spec, _, out_shape = _gemm_shapes(idx, node, (1, *in_shape))
    return math.prod(out_shape) * spec.kernel_h * spec.kernel_w * spec.in_channels


def mac_count(graph: Graph, mode: str = "forward", above_level: int | None = None) -> int:
    """Per-sample MAC count for one training-step pass.

    Forward counts one MAC per multiply-accumulate in dense/conv layers above
    above_level (all layers when None).  Backward counts the gradient
    propagation product plus the weight-gradient product for trainable layers,
    i.e. twice the layer's forward MACs; frozen layers contribute zero.
    """
    if mode not in ("forward", "backward"):
        raise GraphError(f"mode must be forward or backward, got {mode!r}")
    shapes = infer_shapes(graph)
    floor = above_level if above_level is not None else -1
    total = 0
    for idx in range(floor + 1, len(graph.nodes)):
        node = graph.nodes[idx]
        macs = _node_macs(idx, node, shapes[node.inputs[0]])
        if mode == "forward":
            total += macs
        elif node.trainable:
            total += 2 * macs
    return total
