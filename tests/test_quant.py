"""Quantization primitives: grids, round trips, integer-only requantize, qmatmul."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binreplay.quant import (
    OverflowRiskError,
    QuantError,
    QuantParams,
    QuantizedTensor,
    calibrate_range,
    check_matmul_headroom,
    dequantize,
    is_number,
    qmatmul,
    quant_params,
    quantize,
    requantize,
)


class TestQuantParams:
    def test_signed_zero_point_pinned(self):
        p = quant_params(-3.0, 5.0, 8, signed=True)
        assert p.zero_point == 0
        assert p.qmin == -128 and p.qmax == 127

    def test_signed_nonzero_zero_point_rejected(self):
        with pytest.raises(QuantError):
            QuantParams(bits=8, scale=0.1, zero_point=3, signed=True)

    def test_unsigned_range(self):
        p = quant_params(-1.0, 1.0, 8, signed=False)
        assert p.qmin == 0 and p.qmax == 255
        assert 0 <= p.zero_point <= 255

    def test_scale_formula(self):
        # scale = (max - min) / (2^q - 1)
        p = quant_params(0.0, 2.0, 8, signed=False)
        assert p.scale == pytest.approx(2.0 / 255)
        p16 = quant_params(-4.0, 4.0, 16, signed=False)
        assert p16.scale == pytest.approx(8.0 / 65535)

    def test_invalid_bits(self):
        with pytest.raises(QuantError):
            QuantParams(bits=7, scale=0.1, zero_point=0, signed=True)

    def test_invalid_range(self):
        with pytest.raises(QuantError):
            quant_params(1.0, 1.0, 8, signed=False)

    @pytest.mark.parametrize("scale", [0, -1.0, float("nan"), float("inf"), 10**400, True, "1"],
                             ids=["zero", "negative", "nan", "inf", "10**400", "bool", "str"])
    def test_invalid_scale(self, scale):
        with pytest.raises(QuantError):
            QuantParams(bits=8, scale=scale, zero_point=0, signed=True)

    def test_example_scale_2_over_255(self):
        p = QuantParams(bits=8, scale=2 / 255, zero_point=0, signed=True)
        q = QuantizedTensor(data=np.array([127]), params=p)
        assert dequantize(q)[0] == pytest.approx(127 * 2 / 255)


class TestIsNumber:
    # a number that float64 holds, compared exactly for ints of any size
    @pytest.mark.parametrize("v", [0, -3, 5e-324, 1e308, -1.7976931348623157e308,
                                   2**1024 - 2**971, np.float64(0.5)],
                             ids=["0", "-3", "5e-324", "1e308", "-float64-max", "float64-max-int",
                                  "np.float64"])
    def test_number(self, v):
        assert is_number(v)

    @pytest.mark.parametrize("v", [True, False, None, "1", [1], float("nan"), float("inf"),
                                   -float("inf"), 2**1024, -(10**400), 2**1024 - 2**971 + 1],
                             ids=["true", "false", "none", "str", "list", "nan", "inf", "-inf",
                                  "2**1024", "-10**400", "float64-max-int+1"])
    def test_not_a_number(self, v):
        assert not is_number(v)


class TestCalibrateRange:
    def test_observed_min_max(self):
        lo, hi = calibrate_range([np.array([1.0, -2.0]), np.array([0.5, 3.0])])
        assert (lo, hi) == (-2.0, 3.0)

    def test_degenerate_range_widened(self):
        lo, hi = calibrate_range([np.full(4, 1.25)])
        assert (lo, hi) == (0.75, 1.75)

    def test_empty_rejected(self):
        with pytest.raises(QuantError):
            calibrate_range([])

    def test_nonfinite_rejected(self):
        with pytest.raises(QuantError):
            calibrate_range([np.array([1.0, np.nan])])


class TestRoundTrip:
    @pytest.mark.parametrize("bits", [8, 16, 32])
    @pytest.mark.parametrize("signed", [False, True])
    def test_error_bounded_by_half_scale(self, bits, signed, rng):
        x = rng.uniform(-5.0, 3.0, size=100_000)
        lo, hi = calibrate_range([x])
        p = quant_params(lo, hi, bits, signed=signed)
        err = np.abs(dequantize(quantize(x, p)) - x)
        assert err.max() <= p.scale / 2 + 1e-12

    def test_out_of_range_saturates(self):
        p = quant_params(-1.0, 1.0, 8, signed=True)
        q = quantize(np.array([-50.0, 50.0]), p)
        assert q.data.min() == p.qmin and q.data.max() == p.qmax

    def test_round_half_to_even(self):
        p = QuantParams(bits=8, scale=1.0, zero_point=0, signed=True)
        q = quantize(np.array([0.5, 1.5, 2.5, -0.5]), p)
        assert q.data.tolist() == [0, 2, 2, 0]

    @pytest.mark.parametrize("bits", [8, 16, 32])
    @pytest.mark.parametrize("signed", [False, True])
    def test_bytes_are_the_written_out_formulas(self, bits, signed, rng):
        # quantize and dequantize work in one float64 buffer each, in place; on
        # the power-of-two grid the half steps are exact and round to even
        for p in (quant_params(-1.5, 2.0, bits, signed=signed),
                  QuantParams(bits, 2.0**-4, 0 if signed else 2 ** (bits - 1), signed)):
            s, z = p.scale, p.zero_point
            x = np.concatenate([rng.uniform(-3.0, 3.0, size=500), (np.arange(-8, 9) + 0.5) * s,
                                [0.0, -0.0, -5e-324, -s / 2, s / 2, 1e12, -1e12, np.inf, -np.inf]])
            before = x.tobytes()
            q = quantize(x, p)
            assert x.tobytes() == before
            want = np.clip(np.rint(x / s) + z, p.qmin, p.qmax).astype(np.int64)
            assert q.data.tobytes() == want.tobytes()
            assert q.data.min() == p.qmin and q.data.max() == p.qmax  # saturated at both ends
            back = dequantize(q)
            assert back.tobytes() == ((q.data - z) * s).tobytes()
            assert not np.any(np.signbit(back) & (back == 0))  # -0.0 comes back as +0.0

    @given(st.floats(-100, 100), st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_quantize_monotone(self, a, b):
        p = quant_params(-100.0, 100.0, 8, signed=True)
        qa = quantize(np.array([a]), p).data[0]
        qb = quantize(np.array([b]), p).data[0]
        if a <= b:
            assert qa <= qb


class TestQuantizedTensor:
    def test_range_validation(self):
        p = QuantParams(bits=8, scale=0.1, zero_point=0, signed=True)
        with pytest.raises(QuantError):
            QuantizedTensor(data=np.array([200]), params=p)

    def test_storage_is_int64(self):
        p = QuantParams(bits=8, scale=0.1, zero_point=0, signed=True)
        q = QuantizedTensor(data=np.array([1, -2], dtype=np.int8), params=p)
        assert q.data.dtype == np.int64


class TestRequantize:
    def _float_reference(self, q, target):
        x = dequantize(q)
        return quantize(x, target)

    @pytest.mark.parametrize("bits_in,bits_out", [(8, 8), (8, 16), (16, 8), (32, 16)])
    def test_integer_path_matches_float_path(self, bits_in, bits_out, rng):
        x = rng.uniform(-4.0, 4.0, size=5000)
        src = quant_params(-4.0, 4.0, bits_in, signed=True)
        dst = quant_params(-2.0, 6.0, bits_out, signed=False)
        q = quantize(x, src)
        got = requantize(q, dst)
        want = self._float_reference(q, dst)
        # integer-only arithmetic may land one grid step away from the
        # float reference at exact rounding boundaries
        assert np.abs(got.data - want.data).max() <= 1

    def test_same_params_is_copy(self):
        p = quant_params(-1.0, 1.0, 8, signed=True)
        q = quantize(np.array([0.5]), p)
        r = requantize(q, p)
        assert np.array_equal(r.data, q.data)
        assert r.data is not q.data


class TestQMatmul:
    def test_matches_float_oracle(self, rng):
        for _ in range(20):
            m, k, n = rng.integers(1, 16, size=3)
            a = rng.uniform(-2, 2, size=(m, k))
            b = rng.uniform(-1, 1, size=(k, n))
            pa = quant_params(-2.0, 2.0, 8, signed=False)
            pb = quant_params(-1.0, 1.0, 8, signed=True)
            qa, qb = quantize(a, pa), quantize(b, pb)
            out = qmatmul(qa, qb)
            # a float64 BLAS product, exact below 2**53: the int64 product's bytes
            assert out.data.dtype == np.int64
            assert out.data.tobytes() == ((qa.data - pa.zero_point) @ qb.data).tobytes()
            want = dequantize(qa) @ dequantize(qb)
            assert out.params.bits == 32 and out.params.signed
            np.testing.assert_allclose(dequantize(out), want, rtol=0, atol=1e-12)

    def test_bytes_at_the_headroom_edge(self):
        # unsigned 8 bits with zero point 0 times signed 8 bits: 65793 * 255 * 128 < 2**31,
        # the largest inner dim check_matmul_headroom accepts, every code at qmin or qmax
        pa = QuantParams(bits=8, scale=1.0, zero_point=0, signed=False)
        pb = QuantParams(bits=8, scale=1.0, zero_point=0, signed=True)
        k = 65793
        with pytest.raises(OverflowRiskError):
            check_matmul_headroom(k + 1, pa, pb)
        a = np.repeat([[pa.qmax], [pa.qmin], [pa.qmax]], k, axis=1)
        a[2, ::2] = pa.qmin
        b = np.repeat([[pb.qmin, pb.qmax]], k, axis=0)
        qa, qb = QuantizedTensor(a, pa), QuantizedTensor(b, pb)
        out = qmatmul(qa, qb)
        want = a @ b
        assert want[0].tolist() == [-k * 255 * 128, k * 255 * 127]
        assert out.data.dtype == np.int64 and out.data.tobytes() == want.tobytes()

    def test_accumulator_headroom_guard(self):
        pa = quant_params(-1.0, 1.0, 16, signed=True)
        pb = quant_params(-1.0, 1.0, 16, signed=True)
        with pytest.raises(OverflowRiskError):
            check_matmul_headroom(4, pa, pb)

    def test_8bit_operands_fit(self):
        pa = quant_params(-1.0, 1.0, 8, signed=True)
        check_matmul_headroom(65000, pa, pa)  # 65000 * 128 * 128 < 2^31

    def test_shape_errors(self):
        p = quant_params(-1.0, 1.0, 8, signed=True)
        a = quantize(np.zeros((2, 3)), p)
        b = quantize(np.zeros((4, 2)), p)
        with pytest.raises(QuantError):
            qmatmul(a, b)
