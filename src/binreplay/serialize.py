"""Binary file formats: tensors, datasets, checkpoints, replay memory.

All multi-byte values are little-endian.  Writes go through a temp file in
the target directory followed by an atomic rename.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from contextlib import contextmanager

import numpy as np

from . import cwr as cwr_mod
from .bitpack import BitTensor
from .graph import BINARY_KINDS, LAYER_KINDS, BitwidthConfig, Graph, LayerNode
from .bitpack import BinConvSpec
from .quant import QuantParams, QuantizedTensor, STORAGE_DTYPE
from .replay import LatentSample, ReplayMemory

TENSOR_MAGIC = b"QTNS"
DATASET_MAGIC = b"BRDS"
CHECKPOINT_MAGIC = b"BRCK"
REPLAY_MAGIC = b"BRRM"
FORMAT_VERSION = 1

DTYPE_F32 = 0
DTYPE_I8 = 1
DTYPE_I16 = 2
DTYPE_I32 = 3
DTYPE_BITPACKED = 4

_INT_TAGS = {8: DTYPE_I8, 16: DTYPE_I16, 32: DTYPE_I32}
_UNSIGNED_DTYPE = {8: np.uint8, 16: np.uint16, 32: np.uint32}


def _storage_dtype(bits: int, signed: bool) -> np.dtype:
    base = STORAGE_DTYPE[bits] if signed else _UNSIGNED_DTYPE[bits]
    return np.dtype(base).newbyteorder("<")


class FormatError(ValueError):
    pass


@contextmanager
def atomic_write(path):
    """Write to a temp file next to path, then rename into place."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_exact(f, n: int) -> bytes:
    b = f.read(n)
    if len(b) != n:
        raise FormatError("truncated file")
    return b


def _bytes_left(f) -> int:
    pos = f.tell()
    end = f.seek(0, os.SEEK_END)
    f.seek(pos)
    return end - pos


def _read_sized(f, n: int, what: str) -> bytes:
    """n bytes whose count the file itself claims: checked against the rest
    of the file before anything that large is allocated."""
    left = _bytes_left(f)
    if n > left:
        raise FormatError(f"{what} claims {n} bytes; {left} remain in the file")
    return _read_exact(f, n)


def write_tensor(f, t) -> None:
    if isinstance(t, BitTensor):
        f.write(TENSOR_MAGIC)
        f.write(struct.pack("<BBB", FORMAT_VERSION, DTYPE_BITPACKED, len(t.shape)))
        f.write(struct.pack(f"<{len(t.shape)}I", *t.shape))
        f.write(struct.pack("<Q", t.size))
        f.write(np.ascontiguousarray(t.words, dtype="<u8").tobytes())
    elif isinstance(t, QuantizedTensor):
        tag = _INT_TAGS[t.params.bits]
        f.write(TENSOR_MAGIC)
        f.write(struct.pack("<BBB", FORMAT_VERSION, tag, t.data.ndim))
        f.write(struct.pack(f"<{t.data.ndim}I", *t.data.shape))
        f.write(struct.pack("<diB", t.params.scale, t.params.zero_point, t.params.bits))
        f.write(b"\x01" if t.params.signed else b"\x00")
        dt = _storage_dtype(t.params.bits, t.params.signed)
        f.write(np.ascontiguousarray(t.data.astype(dt)).tobytes())
    else:
        a = np.asarray(t, dtype="<f4")
        f.write(TENSOR_MAGIC)
        f.write(struct.pack("<BBB", FORMAT_VERSION, DTYPE_F32, a.ndim))
        f.write(struct.pack(f"<{a.ndim}I", *a.shape))
        f.write(np.ascontiguousarray(a).tobytes())


def read_tensor(f):
    magic = _read_exact(f, 4)
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad tensor magic {magic!r}")
    version, tag, rank = struct.unpack("<BBB", _read_exact(f, 3))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported tensor format version {version}")
    shape = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank)) if rank else ()
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    what = f"tensor record of shape {shape}"
    if tag == DTYPE_F32:
        data = np.frombuffer(_read_sized(f, 4 * count, what), dtype="<f4")
        return data.reshape(shape).astype(np.float64)
    if tag == DTYPE_BITPACKED:
        (n,) = struct.unpack("<Q", _read_exact(f, 8))
        if n != count:
            raise FormatError("bitpacked logical length disagrees with shape")
        n_words = -(-n // 64)
        words = np.frombuffer(_read_sized(f, 8 * n_words, what), dtype="<u8").astype(np.uint64)
        return BitTensor(shape=shape, words=words)
    if tag in (DTYPE_I8, DTYPE_I16, DTYPE_I32):
        scale, zp, bits = struct.unpack("<diB", _read_exact(f, 13))
        signed = _read_exact(f, 1) == b"\x01"
        dt = _storage_dtype(bits, signed)
        data = np.frombuffer(_read_sized(f, dt.itemsize * count, what), dtype=dt)
        params = QuantParams(bits=bits, scale=scale, zero_point=zp, signed=signed)
        return QuantizedTensor(data=data.reshape(shape).astype(np.int64), params=params)
    raise FormatError(f"unknown dtype tag {tag}")


# ---------------------------------------------------------------------------
# dataset files


def write_dataset(path, inputs: np.ndarray, labels: np.ndarray, class_count: int) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    if len(inputs) != len(labels):
        raise FormatError(f"{len(inputs)} inputs but {len(labels)} labels")
    if not 0 <= class_count < 2**16:
        raise FormatError(f"class count {class_count} does not fit the u16 header field")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= class_count:
        raise FormatError("labels outside [0, class_count)")
    shape = inputs.shape[1:]
    with atomic_write(path) as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<BIB", FORMAT_VERSION, len(inputs), len(shape)))
        f.write(struct.pack(f"<{len(shape)}I", *shape))
        f.write(struct.pack("<H", class_count))
        for x, y in zip(inputs, labels):
            write_tensor(f, x)
            f.write(struct.pack("<H", int(y)))


def read_dataset(path):
    with open(path, "rb") as f:
        if _read_exact(f, 4) != DATASET_MAGIC:
            raise FormatError(f"{path}: bad dataset magic")
        version, count, rank = struct.unpack("<BIB", _read_exact(f, 6))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported dataset version {version}")
        shape = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank))
        (class_count,) = struct.unpack("<H", _read_exact(f, 2))
        # each sample is an f32 tensor record and a u16 label: check the
        # header against the file before allocating what it claims
        need = count * (7 + 4 * rank + 4 * math.prod(shape) + 2)
        left = _bytes_left(f)
        if need > left:
            raise FormatError(f"{path}: header claims {count} samples of shape {shape}, "
                              f"which need at least {need} bytes; {left} remain")
        xs = np.empty((count,) + shape)
        ys = np.empty(count, dtype=np.int64)
        for i in range(count):
            x = read_tensor(f)
            if not isinstance(x, np.ndarray) or x.shape != shape:
                raise FormatError(f"{path}: sample {i} is not a float tensor of shape {shape}")
            xs[i] = x
            (ys[i],) = struct.unpack("<H", _read_exact(f, 2))
    return xs, ys, class_count


# ---------------------------------------------------------------------------
# replay memory files


def write_replay_memory(path, mem: ReplayMemory) -> None:
    with atomic_write(path) as f:
        f.write(REPLAY_MAGIC)
        f.write(struct.pack("<BIII", FORMAT_VERSION, mem.quota, mem.max_classes, len(mem.per_class)))
        for c in mem.classes:
            bucket = mem.per_class[c]
            f.write(struct.pack("<IQI", c, mem.seen_counts.get(c, 0), len(bucket)))
            for s in bucket:
                write_tensor(f, s.activation)


def read_replay_memory(path) -> ReplayMemory:
    with open(path, "rb") as f:
        if _read_exact(f, 4) != REPLAY_MAGIC:
            raise FormatError(f"{path}: bad replay-memory magic")
        version, quota, max_classes, n_classes = struct.unpack("<BIII", _read_exact(f, 13))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported replay-memory version {version}")
        mem = ReplayMemory(quota=quota, max_classes=max_classes)
        for _ in range(n_classes):
            c, seen, n = struct.unpack("<IQI", _read_exact(f, 16))
            mem.seen_counts[c] = seen
            mem.per_class[c] = [
                LatentSample(activation=read_tensor(f), label=c) for _ in range(n)
            ]
    return mem


# ---------------------------------------------------------------------------
# checkpoints


# descriptor value checks (JSON types; bool is not accepted as a number)
def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _bool(v) -> bool:
    return isinstance(v, bool)


def _str(v) -> bool:
    return isinstance(v, str)


def _dict(v) -> bool:
    return isinstance(v, dict)


def _optional(check):
    return lambda v: v is None or check(v)


def _list_of(check):
    return lambda v: isinstance(v, list) and all(check(x) for x in v)


def _attrs(v) -> bool:
    # the conv spec is checked as its own object; other attrs are numbers
    return isinstance(v, dict) and all(_number(x) for k, x in v.items() if k != "spec")


# descriptor objects: read_checkpoint accepts exactly these keys, with values
# that pass these checks
_QPARAMS = {"bits": _int, "scale": _number, "zero_point": _int, "signed": _bool}
_SPEC = dict.fromkeys(("kernel_h", "kernel_w", "stride", "padding", "in_channels", "out_channels"), _int)
_BITWIDTH = dict.fromkeys(("q_f", "q_b_nonbin", "q_b_bin"), _optional(_int))
_HEAD = {"feature_dim": _int, "max_classes": _int, "past_counts": _list_of(_int), "seen": _list_of(_int)}
# the parameters each layer kind reads, sorted as the writer lists them;
# binary layers read their weight bits and keep a latent copy unless frozen
_KIND_PARAMS = {
    "dense": ["b", "w"], "softmax_ce_head": ["b", "w"], "conv2d": ["b", "w"],
    "batchnorm": ["beta", "gamma", "running_mean", "running_var"], "prelu": ["alpha"],
}
_NODE = {
    "kind": lambda v: v in LAYER_KINDS, "name": _str, "inputs": _list_of(_int), "trainable": _bool,
    "attrs": _attrs,
    "param_names": _list_of(_str),
    "param_scales": lambda v: isinstance(v, dict) and all(_number(x) for x in v.values()),
    "out_qparams": _optional(_dict), "has_weight_bits": _bool,
}
_DESCRIPTOR = {
    "input_shape": _list_of(_int), "replay_level": _optional(_int), "input_qparams": _optional(_dict),
    "bitwidth": _dict, "nodes": _list_of(_dict), "head": _dict,
}


def _fields(d, schema: dict, where: str) -> dict:
    """d itself, if it is an object with exactly the schema's keys, each
    holding a value its check accepts."""
    if not isinstance(d, dict) or set(d) != set(schema):
        got = sorted(d) if isinstance(d, dict) else type(d).__name__
        raise FormatError(f"checkpoint {where}: expected keys {sorted(schema)}, got {got}")
    for key, check in schema.items():
        if not check(d[key]):
            raise FormatError(f"checkpoint {where}: {key} has an invalid value {d[key]!r:.60}")
    return d


def _qparams_to_json(p: QuantParams | None):
    if p is None:
        return None
    return {k: getattr(p, k) for k in _QPARAMS}


def _qparams_from_json(d, where: str):
    return None if d is None else QuantParams(**_fields(d, _QPARAMS, where))


def _spec_to_json(s: BinConvSpec):
    return {k: getattr(s, k) for k in _SPEC}


def _spec_from_json(d, where: str) -> BinConvSpec:
    fields = _fields(d, _SPEC, where)
    try:
        return BinConvSpec(**fields)
    except ValueError as e:  # kernel, stride, padding or channels out of range
        raise FormatError(f"checkpoint {where}: {e}") from None


def graph_descriptor(graph: Graph, bitwidth: BitwidthConfig) -> dict:
    nodes = []
    for node in graph.nodes:
        attrs = {k: (_spec_to_json(v) if k == "spec" else v) for k, v in node.attrs.items()}
        nodes.append({
            "kind": node.kind,
            "name": node.name,
            "inputs": node.inputs,
            "trainable": node.trainable,
            "attrs": attrs,
            "param_names": sorted(node.params),
            "param_scales": dict(node.param_scales),
            "out_qparams": _qparams_to_json(node.out_qparams),
            "has_weight_bits": node.weight_bits is not None,
        })
    return {
        "input_shape": list(graph.input_shape),
        "replay_level": graph.replay_level,
        "input_qparams": _qparams_to_json(graph.input_qparams),
        "bitwidth": {
            "q_f": bitwidth.q_f, "q_b_nonbin": bitwidth.q_b_nonbin, "q_b_bin": bitwidth.q_b_bin,
        },
        "nodes": nodes,
    }


def write_checkpoint(path, graph: Graph, bitwidth: BitwidthConfig, head) -> None:
    desc = graph_descriptor(graph, bitwidth)
    desc["head"] = {
        "feature_dim": head.feature_dim,
        "max_classes": head.max_classes,
        "past_counts": head.past_counts.tolist(),
        "seen": sorted(head.seen),
    }
    blob = json.dumps(desc, sort_keys=True).encode()
    with atomic_write(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<BI", FORMAT_VERSION, len(blob)))
        f.write(blob)
        for node in graph.nodes:
            for pname in sorted(node.params):
                write_tensor(f, node.params[pname])
            if node.weight_bits is not None:
                write_tensor(f, node.weight_bits)
        write_tensor(f, head.cw)


def read_checkpoint(path):
    with open(path, "rb") as f:
        if _read_exact(f, 4) != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic")
        version, blen = struct.unpack("<BI", _read_exact(f, 5))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        desc = _fields(json.loads(_read_sized(f, blen, "descriptor")), _DESCRIPTOR, "descriptor")
        graph = Graph(tuple(desc["input_shape"]))
        n_nodes = len(desc["nodes"])
        if desc["replay_level"] is not None and not 0 <= desc["replay_level"] < n_nodes:
            raise FormatError(f"checkpoint replay_level {desc['replay_level']} is not one of "
                              f"its {n_nodes} nodes")
        graph.replay_level = desc["replay_level"]
        graph.input_qparams = _qparams_from_json(desc["input_qparams"], "input_qparams")
        for i, nd in enumerate(desc["nodes"]):
            nd = _fields(nd, _NODE, f"node {i}")
            if not all(-1 <= j < i for j in nd["inputs"]):
                raise FormatError(f"checkpoint node {i}: inputs {nd['inputs']} are not earlier nodes")
            attrs = dict(nd["attrs"])
            is_conv = nd["kind"] in ("conv2d", "binary_conv2d")
            if is_conv != ("spec" in attrs):
                raise FormatError(f"checkpoint node {i}: a {nd['kind']} node "
                                  f"{'needs' if is_conv else 'takes no'} spec")
            if is_conv:
                attrs["spec"] = _spec_from_json(attrs["spec"], f"node {i} spec")
            binary = nd["kind"] in BINARY_KINDS
            allowed = ([], ["latent"]) if binary else (_KIND_PARAMS.get(nd["kind"], []),)
            if nd["has_weight_bits"] != binary or nd["param_names"] not in allowed:
                raise FormatError(f"checkpoint node {i}: a {nd['kind']} node cannot hold "
                                  f"params {nd['param_names']} with has_weight_bits "
                                  f"{nd['has_weight_bits']}")
            node = LayerNode(kind=nd["kind"], name=nd["name"], inputs=list(nd["inputs"]),
                             trainable=nd["trainable"], attrs=attrs)
            node.param_scales = dict(nd["param_scales"])
            node.out_qparams = _qparams_from_json(nd["out_qparams"], f"node {i} out_qparams")
            graph.nodes.append(node)
        for nd, node in zip(desc["nodes"], graph.nodes):
            for pname in nd["param_names"]:
                node.params[pname] = read_tensor(f)
            if nd["has_weight_bits"]:
                node.weight_bits = read_tensor(f)
        hd = _fields(desc["head"], _HEAD, "head")
        if len(hd["past_counts"]) != hd["max_classes"] or min(hd["past_counts"], default=0) < 0:
            raise FormatError(f"checkpoint head: past_counts must hold max_classes "
                              f"({hd['max_classes']}) counts >= 0")
        if not all(0 <= c < hd["max_classes"] for c in hd["seen"]):
            raise FormatError(f"checkpoint head: seen classes {hd['seen']} outside "
                              f"[0, {hd['max_classes']})")
        head = cwr_mod.init(hd["feature_dim"], hd["max_classes"])
        head.past_counts = np.asarray(hd["past_counts"], dtype=np.int64)
        head.seen = set(hd["seen"])
        head.cw = read_tensor(f)
    bw = BitwidthConfig(**_fields(desc["bitwidth"], _BITWIDTH, "bitwidth"))
    return graph, head, bw
