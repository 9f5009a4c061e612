"""Fixed-point tensor representation and quantization primitives.

Activations use an unsigned affine scheme (scale + zero point), weights and
gradients a signed symmetric one (zero point pinned to 0).  All rounding is
round-half-to-even for reproducibility across platforms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

VALID_BITS = (8, 16, 32)


def is_number(v) -> bool:
    """Whether v, read from a config or file, is an int or float (not a bool) that float64 holds."""
    # a float takes the cheap test, as QuantParams calls this per GEMM; an int compares exactly
    return (math.isfinite(v) if isinstance(v, float)
            else isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max)


class QuantError(ValueError):
    pass


class OverflowRiskError(QuantError):
    """Raised at construction time when a qmatmul could overflow its accumulator."""


@dataclass(frozen=True)
class QuantParams:
    bits: int
    scale: float
    zero_point: int
    signed: bool

    def __post_init__(self):
        if self.bits not in VALID_BITS:
            raise QuantError(f"bits must be one of {VALID_BITS}, got {self.bits}")
        if not (is_number(self.scale) and self.scale > 0):
            raise QuantError(f"scale must be positive and finite, got {self.scale}")
        if self.signed and self.zero_point != 0:
            raise QuantError("signed quantization requires zero_point = 0")
        if not self.signed and not (0 <= self.zero_point <= 2**self.bits - 1):
            raise QuantError(f"unsigned zero_point {self.zero_point} outside [0, {2**self.bits - 1}]")

    @property
    def qmin(self) -> int:
        return -(2 ** (self.bits - 1)) if self.signed else 0

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1 if self.signed else 2**self.bits - 1


@dataclass(frozen=True)
class QuantizedTensor:
    data: np.ndarray  # integer values, always held as int64 in memory
    params: QuantParams

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.int64))
        lo, hi = int(self.data.min(initial=0)), int(self.data.max(initial=0))
        if lo < self.params.qmin or hi > self.params.qmax:
            raise QuantError(
                f"stored values [{lo}, {hi}] do not fit {self.params.bits}-bit "
                f"range [{self.params.qmin}, {self.params.qmax}]"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


def calibrate_range(samples: Iterable[np.ndarray]) -> tuple[float, float]:
    """Observed global min/max over a stream of float tensors.

    A degenerate range (min == max) is widened by +-0.5 so the derived scale
    is never zero.
    """
    lo = math.inf
    hi = -math.inf
    seen = False
    for s in samples:
        a = np.asarray(s, dtype=np.float64)
        if a.size == 0:
            continue
        if not np.all(np.isfinite(a)):
            raise QuantError("calibration data contains non-finite values")
        seen = True
        lo = min(lo, float(a.min()))
        hi = max(hi, float(a.max()))
    if not seen:
        raise QuantError("no calibration data")
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def quant_params(lo: float, hi: float, bits: int, signed: bool) -> QuantParams:
    """Derive scale/zero-point for range [lo, hi].

    Signed mode symmetrizes the range to [-m, m] with m = max(|lo|, |hi|);
    unsigned mode uses an affine zero point so lo maps near integer 0.
    """
    if not lo < hi:
        raise QuantError(f"invalid range: min {lo} >= max {hi}")
    levels = 2**bits - 1
    if signed:
        m = max(abs(lo), abs(hi))
        return QuantParams(bits=bits, scale=2.0 * m / levels, zero_point=0, signed=True)
    scale = (hi - lo) / levels
    zp = int(np.clip(np.rint(-lo / scale), 0, levels))
    return QuantParams(bits=bits, scale=scale, zero_point=zp, signed=False)


def quantize(x: np.ndarray, p: QuantParams) -> QuantizedTensor:
    """Map float values onto the integer grid; out-of-range values saturate."""
    q = np.array(x, dtype=np.float64)  # the one float64 buffer: scaled, rounded, shifted, clipped in place
    q /= p.scale
    np.rint(q, out=q)
    q += p.zero_point
    np.clip(q, p.qmin, p.qmax, out=q)
    return QuantizedTensor(data=q.astype(np.int64), params=p)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    out = np.subtract(q.data, q.params.zero_point, dtype=np.float64)  # exact: codes fit 2**53
    out *= q.params.scale
    return out


def _fixed_point_multiplier(ratio: float) -> tuple[int, int]:
    """Express a positive real ratio as (mantissa, right_shift) with a 31-bit mantissa."""
    if ratio <= 0:
        raise QuantError(f"scale ratio must be positive, got {ratio}")
    frac, exp = math.frexp(ratio)  # ratio = frac * 2**exp, 0.5 <= frac < 1
    mant = round(frac * (1 << 31))
    shift = 31 - exp
    if mant == 1 << 31:  # frac rounded up to 1.0
        mant >>= 1
        shift -= 1
    return mant, shift


def requantize(q: QuantizedTensor, target: QuantParams) -> QuantizedTensor:
    """Re-express q on the target grid using only integer arithmetic.

    The scale ratio is applied as a 32-bit fixed-point multiplier followed by
    a rounding right shift, matching what an integer-only device would run.
    """
    if q.params == target:
        return QuantizedTensor(data=q.data.copy(), params=target)
    mant, shift = _fixed_point_multiplier(q.params.scale / target.scale)
    centered = q.data - q.params.zero_point
    prod = centered * mant  # |centered| < 2^32, mant < 2^31: fits int64
    if shift > 0:
        out = (prod + (1 << (shift - 1))) >> shift
    else:
        out = prod << (-shift)
    out = np.clip(out + target.zero_point, target.qmin, target.qmax)
    return QuantizedTensor(data=out, params=target)


def product_bound(inner_dim: int, a: QuantParams, b: QuantParams) -> int:
    """The largest |sum| over inner_dim of products of a's and b's centred codes."""
    amax = max(abs(a.qmin - a.zero_point), abs(a.qmax - a.zero_point))
    bmax = max(abs(b.qmin - b.zero_point), abs(b.qmax - b.zero_point))
    return inner_dim * amax * bmax


def check_matmul_headroom(inner_dim: int, a: QuantParams, b: QuantParams) -> None:
    """Raise if a matmul over inner_dim could overflow a 32-bit accumulator."""
    if product_bound(inner_dim, a, b) >= 2**31:
        raise OverflowRiskError(
            f"inner dim {inner_dim} with {a.bits}x{b.bits}-bit operands "
            "can overflow the 32-bit accumulator"
        )


def qmatmul(a: QuantizedTensor, b: QuantizedTensor) -> QuantizedTensor:
    """Integer matrix product with 32-bit accumulation.

    Output is a signed 32-bit tensor whose scale is the product of the input
    scales; callers requantize to whatever grid they need.  The headroom check
    holds every partial sum below 2**31, so one float64 BLAS product of the
    centred codes is exact in any summation order, and equals the int64 one.
    """
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise QuantError("qmatmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise QuantError(f"inner dimensions disagree: {a.shape} x {b.shape}")
    check_matmul_headroom(a.shape[1], a.params, b.params)
    acc = (np.subtract(a.data, a.params.zero_point, dtype=np.float64)
           @ np.subtract(b.data, b.params.zero_point, dtype=np.float64)).astype(np.int64)
    out_params = QuantParams(
        bits=32, scale=a.params.scale * b.params.scale, zero_point=0, signed=True
    )
    return QuantizedTensor(data=acc, params=out_params)
