"""Bitpacked +-1 tensors and XNOR-popcount compute kernels.

Packing convention: the tensor is flattened row-major, bit i of the logical
tensor lives in word i // 64 at bit position i mod 64 (LSB-first).  Bit value
1 encodes +1, bit value 0 encodes -1.  Trailing pad bits of the last word are
always zero, so structural equality equals semantic equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORD_BITS = 64
GEMM_BLOCK = 2048  # rows per block of whole samples of the graph's quantized GEMM forward
# _xnor_gemm's block is at most XOR_WORDS // n rows for n output channels.  At
# n = 32 (36864 rows x 5 words, one 256-row eval batch; 2-core Xeon, numpy
# 2.4.6) blocks of 2816-4160 rows took 4.5-5.2 ms and blocks of 1536-2700
# rows 8.0-10.8 ms, where the broadcast XOR ran about 3x slower per element:
# 2**17 words (a 1 MiB XOR buffer) gives 4096 rows at n = 32.
XOR_WORDS = 2**17
CODE_ROWS, CODE_BITS = 512, 16  # rows_t: 512 * 2**15 = 2**24, float32's last exact integer


class BitShapeError(ValueError):
    pass


def _words(packed: np.ndarray) -> np.ndarray:
    """Bytes packed along the last axis as little-endian uint64 words, 0 bytes appended."""
    pad = -packed.shape[-1] % 8
    if pad:
        packed = np.concatenate([packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1)
    return np.ascontiguousarray(packed).view("<u8").astype(np.uint64, copy=False)


def _pack01(bits01: np.ndarray) -> np.ndarray:
    """Pack a flat 0/1 array into little-endian uint64 words (last axis packed); a bool array is packed as it is."""
    bits01 = bits01 if bits01.dtype == bool else bits01.astype(np.uint8, copy=False)
    return _words(np.packbits(bits01, axis=-1, bitorder="little"))


def _unpack01(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _pack01: recover the first n bits of each row as 0/1 uint8."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :n]


def popcount(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words)


@dataclass(frozen=True)
class BitTensor:
    shape: tuple[int, ...]
    words: np.ndarray = field(repr=False)  # uint64, 1-D, canonical (pad bits zero)

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        object.__setattr__(self, "words", np.asarray(self.words, dtype=np.uint64).ravel())
        n = self.size
        expected = -(-n // WORD_BITS)
        if self.words.shape[0] != expected:
            raise BitShapeError(f"{expected} words expected for {n} bits, got {self.words.shape[0]}")
        if n % WORD_BITS and self.words[-1] >> np.uint64(n % WORD_BITS):
            raise BitShapeError(f"pad bits past the last of {n} bits are set")

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def unpack01(self) -> np.ndarray:
        """Logical bits as a 0/1 uint8 array of self.shape."""
        return _unpack01(self.words, self.size).reshape(self.shape)

    def unpack(self) -> np.ndarray:
        """Logical values as a +-1 int8 array of self.shape."""
        return (self.unpack01().astype(np.int8) * 2) - 1

    def reshape(self, shape: tuple[int, ...]) -> "BitTensor":
        if math.prod(shape) != self.size:
            raise BitShapeError(f"cannot reshape {self.shape} to {shape}")
        return BitTensor(shape=tuple(shape), words=self.words)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitTensor):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.words, other.words)


def from01(bits01: np.ndarray) -> BitTensor:
    """Build a BitTensor from a 0/1 array (0 encodes -1)."""
    a = np.asarray(bits01)
    return BitTensor(shape=a.shape, words=_pack01(a.reshape(-1)))


def pack(values) -> BitTensor:
    """Pack a +-1 array into canonical bitpacked form."""
    a = np.asarray(values)
    if not np.all(np.isin(a, (-1, 1))):
        raise ValueError("pack expects values in {-1, +1}")
    return from01(a == 1)


def unpack(b: BitTensor) -> np.ndarray:
    return b.unpack()


def stack(tensors) -> BitTensor:
    """BitTensors of one shape stacked along a new leading axis, without
    unpacking them one by one."""
    shape = tensors[0].shape
    if any(t.shape != shape for t in tensors):
        raise BitShapeError("stack expects tensors of one shape")
    words = np.stack([t.words for t in tensors])
    size = tensors[0].size
    if size % WORD_BITS:  # each tensor ends in pad bits: repack without them
        words = _pack01(_unpack01(words, size).reshape(-1))
    return BitTensor(shape=(len(tensors),) + shape, words=words)


def unstack(t: BitTensor) -> list[BitTensor]:
    """The inverse of stack: t's rows, as views of one words array."""
    rows = _pack01(_unpack01(t.words, t.size).reshape(t.shape[0], -1))
    return [BitTensor(shape=t.shape[1:], words=w) for w in rows]


def binarize(x) -> BitTensor:
    """Sign binarization: bit set iff value >= 0 (ties at 0 go to +1)."""
    from .quant import QuantizedTensor  # local import to avoid a cycle

    if isinstance(x, QuantizedTensor):
        vals = x.data - x.params.zero_point
    elif isinstance(x, BitTensor):
        return x
    else:
        vals = np.asarray(x)
    return from01(vals >= 0)


def xnor_dot(a: BitTensor, b: BitTensor) -> int:
    """Sum of elementwise +-1 products, computed as n - 2*popcount(a XOR b)."""
    if a.size != b.size:
        raise BitShapeError(f"length mismatch: {a.size} vs {b.size}")
    return a.size - 2 * int(popcount(a.words ^ b.words).sum())


def _xnor_gemm(a_rows: np.ndarray, b_rows: np.ndarray, k: int) -> np.ndarray:
    """a_rows (m, W) vs b_rows (n, W) packed over a k-long inner axis -> the
    (m, n) mismatch counts diff = sum of popcount(a XOR b) over the W words,
    in a uint16 accumulator, or uint32 from k = 2**16 on.  Pad bits are zero
    in both operands and never count; the +-1 dot product is k - 2 * diff.

    Word-major: each block of rows of a is transposed into a (W, block) word
    buffer, and XOR, popcount and accumulate run over (n, block) buffers with
    the row axis innermost, one pass per packed word.  Every buffer is reused
    by every block, so extra memory is O(n * block), and no (m, n, W)
    intermediate or (W, m) copy of a is built.  The m rows are split evenly
    into blocks of at most XOR_WORDS // n rows.
    """
    m, w = a_rows.shape
    n = b_rows.shape[0]
    acc = np.uint16 if k < 2**16 else np.uint32
    out = np.empty((m, n), dtype=acc)
    count = max(1, -(-m // max(1, XOR_WORDS // n)))
    block = max(1, -(-m // count))
    words = np.empty((w, block), dtype=np.uint64)
    xor = np.empty((n, block), dtype=np.uint64)
    ones = np.empty((n, block), dtype=np.uint8)
    diff = np.empty((n, block), dtype=acc)
    for i in range(0, m, block):
        a = a_rows[i : i + block]
        t, x, c, d = words[:, : len(a)], xor[:, : len(a)], ones[:, : len(a)], diff[:, : len(a)]
        np.copyto(t, a.T)
        d[...] = 0
        for j in range(w):
            np.bitwise_xor(b_rows[:, j, None], t[j], out=x)
            np.add(d, np.bitwise_count(x, out=c), out=d)
        out[i : i + block] = d.T
    return out


def counts(diff: np.ndarray, k: int) -> np.ndarray:
    """The exact +-1 dot products k - 2 * diff of mismatch counts diff over a k-long inner axis, as int32."""
    out = np.multiply(diff, np.int32(-2), dtype=np.int32)
    out += k
    return out


def bin_matmul(a: BitTensor, w: BitTensor) -> np.ndarray:
    """Binary matrix product over +-1 semantics; exact int32 result.

    a has shape (m, k), w has shape (k, n): the 1x1 convolution of m 1x1
    images with k channels.
    """
    if len(a.shape) != 2 or len(w.shape) != 2:
        raise BitShapeError("bin_matmul expects 2-D operands")
    m, k = a.shape
    k2, n = w.shape
    if k != k2:
        raise BitShapeError(f"inner dimensions disagree: {a.shape} x {w.shape}")
    spec = BinConvSpec(1, 1, 1, 0, k, n)
    return bin_conv2d(a.reshape((m, 1, 1, k)), w.reshape((1, 1, k, n)), spec).reshape(m, n)


@dataclass(frozen=True)
class BinConvSpec:
    kernel_h: int
    kernel_w: int
    stride: int
    padding: int
    in_channels: int
    out_channels: int

    def __post_init__(self):
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise ValueError("kernel extents must be >= 1")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.padding < 0:
            raise ValueError("padding must be >= 0")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be >= 1")

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * self.padding - self.kernel_h) // self.stride + 1
        ow = (w + 2 * self.padding - self.kernel_w) // self.stride + 1
        if oh < 1 or ow < 1:
            raise BitShapeError(f"kernel {self.kernel_h}x{self.kernel_w} too large for input {h}x{w}")
        return oh, ow


def patches(x: np.ndarray, spec: BinConvSpec) -> np.ndarray:
    """im2col on an NHWC array, in x's dtype: one row per output position.

    Padded positions hold 0: bit 0, i.e. -1, for 0/1 bits, and 0.0 for
    float convs.
    """
    n, h, w, c = x.shape
    oh, ow = spec.out_hw(h, w)
    p, s = spec.padding, spec.stride
    if p:
        x = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    out = np.empty((n * oh * ow, spec.kernel_h * spec.kernel_w * c), dtype=x.dtype)
    cols = out.reshape(n, oh, ow, spec.kernel_h, spec.kernel_w, c)
    for i in range(spec.kernel_h):
        for j in range(spec.kernel_w):
            cols[:, :, :, i, j, :] = x[:, i : i + oh * s : s, j : j + ow * s : s, :]
    return out


def col2im(cols: np.ndarray, spec: BinConvSpec, shape: tuple[int, ...]) -> np.ndarray:
    """The adjoint of patches: each row of cols added back onto the window
    it was taken from, in an NHWC array of shape; padded positions drop."""
    n, h, w, c = shape
    oh, ow = spec.out_hw(h, w)
    p, s = spec.padding, spec.stride
    cols6 = cols.reshape(n, oh, ow, spec.kernel_h, spec.kernel_w, c)
    out = np.zeros((n, h + 2 * p, w + 2 * p, c))
    for i in range(spec.kernel_h):
        for j in range(spec.kernel_w):
            out[:, i : i + oh * s : s, j : j + ow * s : s, :] += cols6[:, :, :, i, j, :]
    return out[:, p : p + h, p : p + w, :]


def conv_rows(x: BitTensor, spec: BinConvSpec) -> np.ndarray:
    """Packed im2col of an NHWC BitTensor: (N*OH*OW, W) uint64 words.

    Row r holds output position r's patch, pixel by pixel: each pixel's
    in_channels bits packed LSB-first into whole bytes, the bits after the
    last channel 0.  Padded positions are 0 bytes, i.e. -1.  bin_conv2d packs
    the weights the same way, so pad bits never differ and k - 2 * diff with
    the true K stays exact.  With in_channels a multiple of 8 those bytes are
    the bytes of x's words already.  Each tap copies one element per pixel,
    its ceil(C / 8) bytes as one np.void, into zeroed rows of whole words.
    """
    n, h, w, c = x.shape
    if c % 8:
        pixels = np.packbits(x.unpack01(), axis=-1, bitorder="little")
    else:
        pixels = np.ascontiguousarray(x.words, dtype="<u8").view(np.uint8)[: x.size // 8].reshape(n, h, w, c // 8)
    size = pixels.shape[-1]
    voids = pixels.view(f"V{size}")[..., 0]
    p, s = spec.padding, spec.stride
    if p:
        voids = np.pad(voids, ((0, 0), (p, p), (p, p)))
    oh, ow = spec.out_hw(h, w)
    kh, kw = spec.kernel_h, spec.kernel_w
    rows = np.zeros((n, oh, ow, -(-kh * kw * size // 8) * 8), dtype=np.uint8)
    taps = rows[..., : kh * kw * size].view(f"V{size}").reshape(n, oh, ow, kh, kw)
    for i in range(kh):
        for j in range(kw):
            taps[:, :, :, i, j] = voids[:, i : i + oh * s : s, j : j + ow * s : s]
    return rows.reshape(n * oh * ow, -1).view("<u8").astype(np.uint64, copy=False)


def _rows01(rows: np.ndarray, spec: BinConvSpec) -> np.ndarray:
    """conv_rows words as the 0/1 uint8 (N*OH*OW, K) patch matrix, without the pad bits."""
    taps, c = spec.kernel_h * spec.kernel_w, spec.in_channels
    width = -(-c // 8) * 8
    bits = _unpack01(rows, taps * width).reshape(len(rows), taps, width)[:, :, :c]
    return bits.reshape(len(rows), taps * c)


def rows_t(rows: np.ndarray, spec: BinConvSpec, g: np.ndarray, scale: float | None = None) -> np.ndarray:
    """(2 * B01 - 1).T @ g for the 0/1 patch matrix B01 of conv_rows words,
    times scale once when given.  Per chunk of CODE_ROWS rows, B01 and ones
    times g, in one float type, are added into float64: exact in any order for
    integer codes of at most CODE_BITS bits, which each chunk casts to float32,
    or of 32 bits, cast to float64.  A float g is used as it is."""
    acc = np.zeros((spec.kernel_h * spec.kernel_w * spec.in_channels, g.shape[1]))
    colsum = np.zeros(g.shape[1])
    dtype = g.dtype if g.dtype.kind == "f" else np.float32 if g.dtype.itemsize * 8 <= CODE_BITS else np.float64
    for i in range(0, len(rows), CODE_ROWS):
        chunk = g[i : i + CODE_ROWS].astype(dtype, copy=False)
        acc += _rows01(rows[i : i + CODE_ROWS], spec).astype(dtype).T @ chunk
        colsum += np.ones(len(chunk), dtype=dtype) @ chunk
    acc = 2 * acc - colsum
    return acc if scale is None else acc * scale


def bin_conv2d(x: BitTensor, w: BitTensor, spec: BinConvSpec, rows: np.ndarray | None = None,
               mismatches: bool = False) -> np.ndarray:
    """Binary 2-D convolution (NHWC x KHWIO) via im2col + XNOR gemm.

    Padded positions contribute -1.  Returns exact int32 counts of shape
    (N, OH, OW, out_channels); every element lies in [-K, K] with
    K = kernel_h * kernel_w * in_channels.  rows, when given, is
    conv_rows(x, spec), which a caller that keeps it need not compute twice.
    With mismatches, returns the kernel's mismatch counts diff instead, in
    its uint16 or uint32 accumulator type: the counts are K - 2 * diff.
    """
    if len(x.shape) != 4:
        raise BitShapeError(f"input must be NHWC, got shape {x.shape}")
    if x.shape[3] != spec.in_channels:
        raise BitShapeError(f"input channels {x.shape[3]} != spec {spec.in_channels}")
    expected_w = (spec.kernel_h, spec.kernel_w, spec.in_channels, spec.out_channels)
    if w.shape != expected_w:
        raise BitShapeError(f"weight shape {w.shape} != spec {expected_w}")
    n, h, wd, _ = x.shape
    oh, ow = spec.out_hw(h, wd)
    k = spec.kernel_h * spec.kernel_w * spec.in_channels
    if rows is None:
        rows = conv_rows(x, spec)
    # one row per output channel, in the layout of conv_rows
    w_bytes = np.packbits(np.moveaxis(w.unpack01(), 3, 0), axis=-1, bitorder="little")
    w_cols = _words(w_bytes.reshape(spec.out_channels, -1))
    diff = _xnor_gemm(rows, w_cols, k).reshape(n, oh, ow, spec.out_channels)
    return diff if mismatches else counts(diff, k)
