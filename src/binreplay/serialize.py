"""Binary file formats: tensors, datasets, checkpoints, replay memory.

Every file and every tensor record in it is framed the same way: a 4-byte
magic, the format-version byte, then little-endian header fields.  A file
holds nothing after its last record, except that a version-2 checkpoint or
replay memory ends in the CRC32 of every byte before it.  Writes go through a
temp file in the target directory followed by an atomic rename.

Version 2 stores state at the width the device computes with: a parameter
that store_param holds on a grid of at most 16 bits is a record of its i8 or
i16 codes, and each class of a replay memory is one bitpacked record of all
its latents.  Version-1 files still load.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import tempfile
import zlib
from contextlib import contextmanager

import numpy as np

from . import cwr as cwr_mod
from . import bitpack
from .bitpack import BinConvSpec, BitTensor
from .graph import (BINARY_KINDS, BITWIDTHS, BitwidthConfig, Graph, LayerNode, check_node, f32_precision,
                    infer_shapes, latent_grid_scale)
from .quant import QuantParams, QuantizedTensor, dequantize, is_number
from .replay import LatentSample, ReplayMemory

TENSOR_MAGIC = b"QTNS"
DATASET_MAGIC = b"BRDS"
CHECKPOINT_MAGIC = b"BRCK"
REPLAY_MAGIC = b"BRRM"
# the version each record is written at; a reader takes any version up to it
VERSIONS = {TENSOR_MAGIC: 1, DATASET_MAGIC: 1, CHECKPOINT_MAGIC: 2, REPLAY_MAGIC: 2}
CRC = struct.Struct("<I")  # the trailer of a version-2 file

DTYPE_F32 = 0
DTYPE_I8 = 1
DTYPE_I16 = 2
DTYPE_I32 = 3
DTYPE_BITPACKED = 4

_INT_TAGS = {8: DTYPE_I8, 16: DTYPE_I16, 32: DTYPE_I32}
_SIGNED_DTYPE = {8: np.int8, 16: np.int16, 32: np.int32}
_UNSIGNED_DTYPE = {8: np.uint8, 16: np.uint16, 32: np.uint32}


def _storage_dtype(bits: int, signed: bool) -> np.dtype:
    base = _SIGNED_DTYPE[bits] if signed else _UNSIGNED_DTYPE[bits]
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


@contextmanager
def _summed_write(path):
    """atomic_write of the bytes written to the buffer yielded, then their CRC32."""
    buf = io.BytesIO()
    yield buf
    with atomic_write(path) as f:
        f.write(buf.getbuffer())
        f.write(CRC.pack(zlib.crc32(buf.getbuffer())))


def _header(magic: bytes, fmt: str, *fields) -> bytes:
    """A record's magic and format-version byte, then its header fields."""
    return magic + struct.pack("<B" + fmt, VERSIONS[magic], *fields)


_RECORD_NAMES = {TENSOR_MAGIC: "tensor", DATASET_MAGIC: "dataset",
                 CHECKPOINT_MAGIC: "checkpoint", REPLAY_MAGIC: "replay-memory"}


class _Reader:
    """Fields and records of an open file, each read checked against the
    bytes the file has left (measured once, when the reader is made).  In a
    summed format, a file whose version byte is not 1 ends in a CRC32 trailer:
    it is checked first, and left out of the bytes the file has left."""

    def __init__(self, f, summed: bool = False):
        self.f = f
        pos = f.tell()
        self.left = f.seek(0, os.SEEK_END) - pos
        f.seek(pos)
        if summed and f.read(5)[4:] not in (b"", b"\x01"):  # a version-2 file: check its trailer first
            self.left -= CRC.size
            f.seek(pos)
            crc = 0
            for n in range(0, self.left, 1 << 20):
                crc = zlib.crc32(f.read(min(1 << 20, self.left - n)), crc)
            if f.read(CRC.size) != CRC.pack(crc):
                raise FormatError("the CRC32 trailer does not match the file's bytes")
        f.seek(pos)

    def take(self, n: int, what: str) -> bytes:
        """n bytes whose count the file itself claims: checked against the
        rest of the file before anything that large is allocated."""
        if n > self.left:
            raise FormatError(f"{what} claims {n} bytes; {self.left} remain in the file")
        self.left -= n
        return self.f.read(n)

    def unpack(self, fmt: str) -> tuple:
        s = struct.Struct("<" + fmt)
        if s.size > self.left:
            raise FormatError("truncated file")
        return s.unpack(self.take(s.size, fmt))

    def header(self, magic: bytes, fmt: str) -> list:
        """The format version and the header fields after it, magic and version checked."""
        name = _RECORD_NAMES[magic]
        got = self.unpack("4s")[0]
        if got != magic:
            raise FormatError(f"bad {name} magic {got!r}")
        version, *fields = self.unpack("B" + fmt)
        if not 1 <= version <= VERSIONS[magic]:
            raise FormatError(f"unsupported {name} format version {version}")
        return [version, *fields]


@contextmanager
def _reading(f, path=None, summed: bool = False):
    """A _Reader over f, which checks a summed format's CRC32 trailer before
    anything else is read.  A value read from f that fails any check, here or
    in the type it builds (QuantParams, BitwidthConfig, ReplayMemory, json,
    numpy ...), is a FormatError, naming the file at path if one is given;
    that file must end where the last record read from it does.  json
    raises RecursionError on a descriptor nested too deep."""
    try:
        r = _Reader(f, summed)
        yield r
        if path is not None and r.left:
            raise FormatError(f"{r.left} bytes after the last record")
    except (ValueError, RecursionError) as e:
        raise FormatError(f"{path}: {e}" if path is not None else str(e)) from e


def write_tensor(f, t) -> None:
    if isinstance(t, BitTensor):
        tag, shape, data = DTYPE_BITPACKED, t.shape, np.asarray(t.words, dtype="<u8")
        extra = struct.pack("<Q", t.size)
    elif isinstance(t, QuantizedTensor):
        p = t.params
        tag, shape = _INT_TAGS[p.bits], t.data.shape
        data = t.data.astype(_storage_dtype(p.bits, p.signed))
        extra = struct.pack("<diBB", p.scale, p.zero_point, p.bits, p.signed)
    else:
        data = np.asarray(t, dtype="<f4")
        tag, shape, extra = DTYPE_F32, data.shape, b""
    f.write(_header(TENSOR_MAGIC, f"BB{len(shape)}I", tag, len(shape), *shape) + extra)
    f.write(np.ascontiguousarray(data).tobytes())


def _read_record(r: _Reader):
    _, tag, rank = r.header(TENSOR_MAGIC, "BB")
    shape = r.unpack(f"{rank}I")
    count = math.prod(shape)
    what = f"tensor record of shape {shape}"
    if tag == DTYPE_F32:
        data = np.frombuffer(r.take(4 * count, what), dtype="<f4")
        return data.reshape(shape).astype(np.float64)
    if tag == DTYPE_BITPACKED:
        (n,) = r.unpack("Q")
        if n != count:
            raise FormatError("bitpacked logical length disagrees with shape")
        words = np.frombuffer(r.take(8 * -(-n // 64), what), dtype="<u8").astype(np.uint64)
        return BitTensor(shape=shape, words=words)
    if tag in (DTYPE_I8, DTYPE_I16, DTYPE_I32):
        scale, zp, bits, signed = r.unpack("diBB")
        params = QuantParams(bits=bits, scale=scale, zero_point=zp, signed=signed == 1)
        if _INT_TAGS[bits] != tag or signed > 1:
            raise FormatError(f"dtype tag {tag} disagrees with {bits}-bit params (signed byte {signed})")
        dt = _storage_dtype(bits, params.signed)
        data = np.frombuffer(r.take(dt.itemsize * count, what), dtype=dt)
        return QuantizedTensor(data=data.reshape(shape).astype(np.int64), params=params)
    raise FormatError(f"unknown dtype tag {tag}")


def _check_finite(x: np.ndarray, what: str) -> None:
    """Samples, parameters and head weights are finite: name the record
    that is not."""
    if not np.isfinite(x).all():
        raise FormatError(f"{what} holds a NaN or infinite value")


_KIND_NAMES = {np.ndarray: "float", BitTensor: "bitpacked"}


def _decoded(t: QuantizedTensor) -> np.ndarray:
    """The f32-precision values of a parameter's codes, as store_param holds them;
    one past float32's range reads as infinite, which _check_finite refuses."""
    with np.errstate(over="ignore"):
        return f32_precision(dequantize(t))


def _read_as(r: _Reader, kind: type, what: str, shape: tuple | None = None, codes: bool = False):
    """A tensor record that must decode to kind (np.ndarray for a finite
    float record, BitTensor for a bitpacked one), and have shape if one is
    given; with codes, a float may also be the record of its codes, as
    _param_record writes it."""
    t = _read_record(r)
    if codes and isinstance(t, QuantizedTensor) and t.params.signed and t.params.bits <= 16:
        t = _decoded(t)
    if not isinstance(t, kind) or shape is not None and t.shape != shape:
        raise FormatError(f"{what} is not a {_KIND_NAMES[kind]} tensor"
                          + ("" if shape is None else f" of shape {shape}"))
    if kind is np.ndarray:
        _check_finite(t, what)
    return t


def read_tensor(f):
    with _reading(f) as r:
        return _read_record(r)


# ---------------------------------------------------------------------------
# dataset files


MAX_CLASSES = 2**16 - 1  # a dataset header holds its class count as a u16
MAX_QUOTA = 2**32 - 1  # a replay-memory header holds its per-class quota as a u32
MAX_ROWS = 2**32 - 1  # a dataset header holds its row count as a u32


def write_dataset(path, inputs: np.ndarray, labels: np.ndarray, class_count: int) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    if len(inputs) > MAX_ROWS:
        raise FormatError(f"{len(inputs)} rows do not fit the u32 header field")
    if len(inputs) != len(labels):
        raise FormatError(f"{len(inputs)} inputs but {len(labels)} labels")
    if not 0 <= class_count <= MAX_CLASSES:
        raise FormatError(f"class count {class_count} does not fit the u16 header field")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= class_count:
        raise FormatError("labels outside [0, class_count)")
    for i, x in enumerate(inputs):
        _check_finite(x, f"sample {i}")
    shape = inputs.shape[1:]
    with atomic_write(path) as f:
        f.write(_header(DATASET_MAGIC, f"IB{len(shape)}IH", len(inputs), len(shape), *shape, class_count))
        for x, y in zip(inputs, labels):
            write_tensor(f, x)
            f.write(struct.pack("<H", int(y)))


def read_dataset(path):
    with open(path, "rb") as f, _reading(f, path) as r:
        _, count, rank = r.header(DATASET_MAGIC, "IB")
        shape = r.unpack(f"{rank}I")
        (class_count,) = r.unpack("H")
        # each sample is an f32 tensor record and a u16 label: check the
        # header against the file before allocating what it claims
        need = count * (7 + 4 * rank + 4 * math.prod(shape) + 2)
        if need > r.left:
            raise FormatError(f"header claims {count} samples of shape {shape}, "
                              f"which need at least {need} bytes; {r.left} remain")
        xs = np.empty((count,) + shape)
        ys = np.empty(count, dtype=np.int64)
        first = 0  # the records before it are read as one array, each field checked on its whole column
        if count:
            at = f.tell()
            recs = np.frombuffer(r.take(need, "the samples"), [
                ("magic", "S4"), ("version", "u1"), ("tag", "u1"), ("rank", "u1"), ("shape", "<u4", (rank,)),
                ("x", "<f4", shape), ("y", "<u2")])
            ok = ((recs["magic"] == TENSOR_MAGIC) & (recs["version"] >= 1)
                  & (recs["version"] <= VERSIONS[TENSOR_MAGIC]) & (recs["tag"] == DTYPE_F32)
                  & (recs["rank"] == rank) & (recs["shape"] == shape).all(axis=1)
                  & np.isfinite(recs["x"]).reshape(count, math.prod(shape)).all(axis=1))
            first = count if ok.all() else int(ok.argmin())
            xs[:first], ys[:first] = recs["x"][:first], recs["y"][:first]
            f.seek(at + first * recs.itemsize)  # the per-record reader names the first failing record's fault
            r.left += (count - first) * recs.itemsize
        for i in range(first, count):
            xs[i] = _read_as(r, np.ndarray, f"sample {i}", shape)
            (ys[i],) = r.unpack("H")
        if ys.max(initial=0) >= class_count:
            raise FormatError(f"labels outside [0, {class_count})")
    return xs, ys, class_count


# ---------------------------------------------------------------------------
# replay memory files


def write_replay_memory(path, mem: ReplayMemory) -> None:
    with _summed_write(path) as f:
        f.write(_header(REPLAY_MAGIC, "III", mem.quota, mem.max_classes, len(mem.per_class)))
        for c in mem.classes:
            bucket = mem.per_class[c]
            f.write(struct.pack("<IQI", c, mem.seen_counts.get(c, 0), len(bucket)))
            if bucket:  # one record of shape (count, *latent shape)
                write_tensor(f, bitpack.stack([s.activation for s in bucket]))


def read_replay_memory(path) -> ReplayMemory:
    """A replay memory of either version: version 1 holds one record per
    latent, version 2 one per class."""
    with open(path, "rb") as f, _reading(f, path, summed=True) as r:
        version, quota, max_classes, n_classes = r.header(REPLAY_MAGIC, "III")
        mem = ReplayMemory(quota=quota, max_classes=max_classes)
        shape = None  # every latent has the first one's shape
        for _ in range(n_classes):
            c, seen, n = r.unpack("IQI")
            if c >= max_classes or c in mem.per_class:
                raise FormatError(f"class {c} is listed twice or lies outside [0, {max_classes})")
            if n > min(quota, seen):
                raise FormatError(f"class {c} holds {n} latents: more than the quota {quota} "
                                  f"or its seen count {seen}")
            latents = []
            if version == 1:
                for _ in range(n):
                    latents.append(_read_as(r, BitTensor, f"class {c} latent", shape))
                    shape = latents[-1].shape
            elif n:
                stacked = _read_as(r, BitTensor, f"class {c} latents")
                if stacked.shape[:1] != (n,) or shape not in (None, stacked.shape[1:]):
                    raise FormatError(f"class {c} latents have shape {stacked.shape}: not {n} "
                                      f"latents of the memory's shape {shape}")
                latents, shape = bitpack.unstack(stacked), stacked.shape[1:]
            mem.seen_counts[c] = seen
            mem.per_class[c] = [LatentSample(activation=a, label=c) for a in latents]
    return mem


# ---------------------------------------------------------------------------
# checkpoints


# descriptor value checks (JSON types, no bools); integers fit the int64 numpy reads them as
def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and -2**63 <= v < 2**63


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
    return isinstance(v, dict) and all(is_number(x) for k, x in v.items() if k != "spec")


# descriptor objects: read_checkpoint accepts exactly these keys, with values
# that pass these checks
_QPARAMS = {"bits": _int, "scale": is_number, "zero_point": _int, "signed": _bool}
_SPEC = dict.fromkeys(("kernel_h", "kernel_w", "stride", "padding", "in_channels", "out_channels"), _int)
_BITWIDTH = dict.fromkeys(BITWIDTHS, _optional(_int))
_HEAD = {"feature_dim": _int, "max_classes": _int, "past_counts": _list_of(_int), "seen": _list_of(_int)}
_NODE = {
    "kind": _str, "name": _str, "inputs": _list_of(_int), "trainable": _bool,
    "attrs": _attrs,
    "param_names": _list_of(_str),
    "param_scales": lambda v: isinstance(v, dict) and all(is_number(x) for x in v.values()),
    "out_qparams": _optional(_dict), "has_weight_bits": _bool,
}
_DESCRIPTOR = {
    "input_shape": lambda v: _list_of(_int)(v) and v != [] and min(v) >= 1,
    "replay_level": _optional(_int), "input_qparams": _optional(_dict),
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


def _to_json(obj, schema: dict):
    """A descriptor object: obj's value for each of the schema's keys."""
    return None if obj is None else {k: getattr(obj, k) for k in schema}


def _qparams_from_json(d, where: str):
    return None if d is None else QuantParams(**_fields(d, _QPARAMS, where))


def graph_descriptor(graph: Graph, bitwidth: BitwidthConfig) -> dict:
    nodes = []
    for node in graph.nodes:
        attrs = {k: (_to_json(v, _SPEC) if k == "spec" else v) for k, v in node.attrs.items()}
        nodes.append({
            "kind": node.kind,
            "name": node.name,
            "inputs": node.inputs,
            "trainable": node.trainable,
            "attrs": attrs,
            "param_names": sorted(node.params),
            "param_scales": dict(node.param_scales),
            "out_qparams": _to_json(node.out_qparams, _QPARAMS),
            "has_weight_bits": node.weight_bits is not None,
        })
    return {
        "input_shape": list(graph.input_shape),
        "replay_level": graph.replay_level,
        "input_qparams": _to_json(graph.input_qparams, _QPARAMS),
        "bitwidth": _to_json(bitwidth, _BITWIDTH),
        "nodes": nodes,
    }


def _param_record(node: LayerNode, name: str, bitwidth: BitwidthConfig):
    """A parameter as the record of its codes, on the grid store_param holds
    it on, if that grid has at most 16 bits and the codes give back its bytes;
    else as it is, a float.  32-bit codes are not held: an f32 cannot give
    back the code of a 32-bit grid."""
    value = np.asarray(node.params[name], dtype=np.float64)
    binary = node.kind in BINARY_KINDS
    bits = bitwidth.q_b_bin if binary else bitwidth.q_b_nonbin
    if bits is None or bits > 16:
        return value
    scale = latent_grid_scale(bits) if binary else node.param_scales.get(name, 0.0)
    if not scale > 0:  # no grid pinned (a read checkpoint may hold any number)
        return value
    p = QuantParams(bits=8 if bits <= 8 else 16, scale=scale, zero_point=0, signed=True)
    codes = np.rint(value / scale)
    if not (p.qmin <= codes.min(initial=0) and codes.max(initial=0) <= p.qmax):
        return value
    t = QuantizedTensor(codes.astype(np.int64), p)
    return t if _decoded(t).tobytes() == value.tobytes() else value


def write_checkpoint(path, graph: Graph, bitwidth: BitwidthConfig, head) -> None:
    desc = graph_descriptor(graph, bitwidth)
    desc["head"] = {
        "feature_dim": head.feature_dim,
        "max_classes": head.max_classes,
        "past_counts": head.past_counts.tolist(),
        "seen": sorted(head.seen),
    }
    blob = json.dumps(desc, sort_keys=True).encode()
    with _summed_write(path) as f:
        f.write(_header(CHECKPOINT_MAGIC, "I", len(blob)) + blob)
        for i, node in enumerate(graph.nodes):
            for pname in sorted(node.params):
                _check_finite(node.params[pname], f"node {i} param {pname}")
                write_tensor(f, _param_record(node, pname, bitwidth))
            if node.weight_bits is not None:
                write_tensor(f, node.weight_bits)
        _check_finite(head.cw, "head cw")
        write_tensor(f, head.cw)


def read_checkpoint(path):
    """A checkpoint of either version; a version-2 parameter may be the
    record of its codes."""
    with open(path, "rb") as f, _reading(f, path, summed=True) as r:
        version, blen = r.header(CHECKPOINT_MAGIC, "I")
        desc = _fields(json.loads(r.take(blen, "descriptor")), _DESCRIPTOR, "descriptor")
        graph = Graph(tuple(desc["input_shape"]))
        n_nodes = len(desc["nodes"])
        if desc["replay_level"] is not None and not 0 <= desc["replay_level"] < n_nodes:
            raise FormatError(f"checkpoint replay_level {desc['replay_level']} is not one of "
                              f"its {n_nodes} nodes")
        graph.replay_level = desc["replay_level"]
        graph.input_qparams = _qparams_from_json(desc["input_qparams"], "input_qparams")
        for i, nd in enumerate(desc["nodes"]):
            nd = _fields(nd, _NODE, f"node {i}")
            attrs = dict(nd["attrs"])
            if "spec" in attrs:
                attrs["spec"] = BinConvSpec(**_fields(attrs["spec"], _SPEC, f"node {i} spec"))
            if nd["param_names"] != sorted(set(nd["param_names"])):  # as the writer lists them
                raise FormatError(f"checkpoint node {i}: params {nd['param_names']} out of order")
            node = LayerNode(kind=nd["kind"], name=nd["name"], inputs=list(nd["inputs"]),
                             trainable=nd["trainable"], attrs=attrs,
                             param_scales=dict(nd["param_scales"]),
                             out_qparams=_qparams_from_json(nd["out_qparams"], f"node {i} out_qparams"))
            for pname in nd["param_names"]:
                node.params[pname] = _read_as(r, np.ndarray, f"node {i} param {pname}", codes=version > 1)
            if nd["has_weight_bits"]:
                node.weight_bits = _read_as(r, BitTensor, f"node {i} weight bits")
            check_node(i, node)
            graph.nodes.append(node)
        hd = _fields(desc["head"], _HEAD, "head")
        if len(hd["past_counts"]) != hd["max_classes"] or min(hd["past_counts"], default=0) < 0:
            raise FormatError(f"checkpoint head: past_counts must hold max_classes "
                              f"({hd['max_classes']}) counts >= 0")
        if not all(0 <= c < hd["max_classes"] for c in hd["seen"]):
            raise FormatError(f"checkpoint head: seen classes {hd['seen']} outside "
                              f"[0, {hd['max_classes']})")
        # the record bounds feature_dim before init allocates by it
        cw = _read_as(r, np.ndarray, "head cw", (hd["max_classes"], hd["feature_dim"] + 1))
        head = cwr_mod.init(hd["feature_dim"], hd["max_classes"])
        head.past_counts = np.asarray(hd["past_counts"], dtype=np.int64)
        head.seen = set(hd["seen"])
        head.cw = cw
        bw = BitwidthConfig(**_fields(desc["bitwidth"], _BITWIDTH, "bitwidth"))
        out = infer_shapes(graph)[graph.output_id]
        if out != (hd["feature_dim"],):
            raise FormatError(f"checkpoint graph output {out} is not the head's "
                              f"{hd['feature_dim']} features")
    return graph, head, bw
