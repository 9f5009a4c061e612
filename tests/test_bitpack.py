"""Bitpacked tensors and XNOR-popcount kernels against independent oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binreplay import bitpack
from binreplay.bitpack import (
    BinConvSpec,
    BitShapeError,
    BitTensor,
    bin_conv2d,
    bin_matmul,
    binarize,
    col2im,
    conv_rows,
    from01,
    pack,
    patches,
    popcount,
    rows_t,
    stack,
    unstack,
    unpack,
    xnor_dot,
)
from binreplay.graph import BITWIDTHS
from binreplay.quant import QuantParams, QuantizedTensor
from helpers import assert_within_column_sums, naive_conv2d_pm1


class TestPackUnpack:
    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, values):
        a = np.array(values, dtype=np.int8)
        assert np.array_equal(unpack(pack(a)), a)

    def test_multidimensional_round_trip(self, rng):
        a = rng.choice([-1, 1], size=(3, 5, 7)).astype(np.int8)
        b = pack(a)
        assert b.shape == (3, 5, 7)
        assert np.array_equal(b.unpack(), a)

    def test_pack_rejects_non_pm1(self):
        with pytest.raises(ValueError):
            pack(np.array([1, 0, -1]))

    def test_pad_bits_canonically_zero(self, rng):
        # equality must be structural: same logical bits => same words
        a = rng.choice([-1, 1], size=70).astype(np.int8)
        t1 = pack(a)
        assert int(t1.words[-1] >> np.uint64(6)) == 0
        assert pack(a) == t1
        words = t1.words.copy()
        words[-1] |= np.uint64(1) << np.uint64(63)  # poke a pad bit
        with pytest.raises(BitShapeError, match="pad bits"):
            BitTensor(t1.shape, words)
        with pytest.raises(BitShapeError, match="pad bits"):  # it would count in xnor_dot
            BitTensor((3,), [0b1000])
        assert BitTensor((64,), [1 << 63]).unpack()[-1] == 1  # a full word has no pad bits

    def test_word_count_validation(self):
        with pytest.raises(BitShapeError):
            BitTensor(shape=(65,), words=np.zeros(1, dtype=np.uint64))

    def test_reshape(self):
        t = from01(np.arange(12) % 2)
        r = t.reshape((3, 4))
        assert r.shape == (3, 4)
        assert np.array_equal(r.unpack01().ravel(), t.unpack01())
        with pytest.raises(BitShapeError):
            t.reshape((5, 3))

    def test_popcount(self):
        assert popcount(np.array([0xFF, 0x0, 0b1011], dtype=np.uint64)).tolist() == [8, 0, 3]

    @pytest.mark.parametrize("shape", [(2, 4, 8), (3, 5, 7)])  # whole words / pad bits
    def test_stack_matches_per_tensor_unpack(self, shape, rng):
        parts = [pack(rng.choice([-1, 1], size=shape)) for _ in range(5)]
        stacked = stack(parts)
        assert stacked.shape == (5,) + shape
        assert np.array_equal(stacked.unpack(), np.stack([t.unpack() for t in parts]))
        assert stacked == pack(stacked.unpack())  # canonical: pad bits zero
        assert unstack(stacked) == parts
        with pytest.raises(BitShapeError):
            stack([parts[0], parts[1].reshape(shape[::-1])])


class TestBinarize:
    def test_sign_with_ties_positive(self):
        t = binarize(np.array([-0.5, 0.0, 2.0, -3.0]))
        assert t.unpack().tolist() == [-1, 1, 1, -1]

    def test_quantized_tensor_uses_zero_point(self):
        p = QuantParams(bits=8, scale=0.1, zero_point=100, signed=False)
        q = QuantizedTensor(data=np.array([99, 100, 150]), params=p)
        assert binarize(q).unpack().tolist() == [-1, 1, 1]

    def test_bit_tensor_passthrough(self):
        t = pack(np.array([1, -1]))
        assert binarize(t) is t

    def test_a_bool_array_is_packed_without_a_copy(self, rng):
        # one eval batch of the stem's signs: its 1.18 MB bool array was copied to uint8 before packing
        x = rng.normal(size=(256, 12, 12, 32))
        tracemalloc.start()
        try:
            binarize(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    @pytest.mark.parametrize("shape", [(7,), (3, 64), (2, 5, 13)])
    def test_from01_packs_bool_uint8_and_int64_alike(self, shape, rng):
        bits = rng.integers(0, 2, size=shape)
        want = from01(bits.astype(np.uint8))
        assert from01(bits.astype(bool)) == want and from01(bits) == want
        assert want.unpack01().tolist() == bits.tolist()


class TestXnorDot:
    def test_matches_float_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 200))
            a = rng.choice([-1, 1], size=n)
            b = rng.choice([-1, 1], size=n)
            assert xnor_dot(pack(a), pack(b)) == int(a @ b)

    @given(st.integers(1, 128), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_parity(self, n, seed):
        # sum of n values in {-1, +1} always has the parity of n
        r = np.random.default_rng(seed)
        a, b = r.choice([-1, 1], size=(2, n))
        assert (xnor_dot(pack(a), pack(b)) - n) % 2 == 0

    def test_length_mismatch(self):
        with pytest.raises(BitShapeError):
            xnor_dot(pack(np.ones(3)), pack(np.ones(4)))


class TestBinMatmul:
    def test_matches_float_oracle(self, rng):
        # random small shapes, then inner lengths at and across word
        # boundaries: several packed words, and a partial last word
        shapes = [tuple(int(v) for v in rng.integers(1, 33, size=3)) for _ in range(50)]
        shapes += [(int(rng.integers(1, 33)), k, int(rng.integers(1, 33)))
                   for k in (63, 64, 65, 128, 129, 288)]
        for m, k, n in shapes:
            a = rng.choice([-1, 1], size=(m, k))
            w = rng.choice([-1, 1], size=(k, n))
            got = bin_matmul(pack(a), pack(w))
            assert got.dtype == np.int32
            assert np.array_equal(got, a @ w)

    def test_inner_dim_mismatch(self):
        with pytest.raises(BitShapeError):
            bin_matmul(pack(np.ones((2, 3))), pack(np.ones((4, 2))))

    def test_row_blocks_and_a_partial_last_block(self, rng, monkeypatch):
        # at most 35 // 5 = 7 rows per kernel block: 29 rows are split evenly
        # into 5 blocks, of 6, 6, 6, 6 and 5 rows
        monkeypatch.setattr(bitpack, "XOR_WORDS", 35)
        a = rng.choice([-1, 1], size=(29, 130))
        w = rng.choice([-1, 1], size=(130, 5))
        assert np.array_equal(bin_matmul(pack(a), pack(w)), a @ w)

    def test_popcounts_past_16_bits_do_not_wrap(self):
        # K = 70000 differing bits per dot: a 16-bit accumulator would wrap
        k = 70000
        got = bin_matmul(pack(np.ones((2, k))), pack(-np.ones((k, 3))))
        assert np.array_equal(got, np.full((2, 3), -k))


def _packed_rows(rng, m, k):
    """m random rows of k bits as whole uint64 words, the pad bits of the last word 0."""
    return bitpack._pack01(rng.integers(0, 2, size=(m, k)))


def _mismatch_oracle(a, b):
    """(m, n) sums of popcount(a XOR b) over the words, from the (m, n, W) broadcast, a few rows at a time."""
    return np.concatenate([popcount(a[i : i + 256, None, :] ^ b[None, :, :]).sum(axis=-1, dtype=np.int64)
                           for i in range(0, len(a), 256)] or [np.zeros((0, len(b)), np.int64)])


class TestWordMajorGemm:
    """_xnor_gemm's mismatch counts against the (m, n, W) broadcast-popcount
    oracle, at and across the kernel's block edges."""

    @pytest.mark.parametrize("n", [1, 3, 32, 65])
    @pytest.mark.parametrize("words", [1, 2, 3, 4, 5, 6])
    def test_matches_the_broadcast_oracle(self, words, n, rng, monkeypatch):
        # at most 97 // n rows per block (one row at n = 65); k ends in a partial last word
        monkeypatch.setattr(bitpack, "XOR_WORDS", 97)
        block = max(1, 97 // n)
        k = 64 * words - int(rng.integers(1, 64))
        b = _packed_rows(rng, n, k)
        for m in (1, block - 1, block, block + 1, 3 * block + 2, 7 * block):
            a = _packed_rows(rng, m, k)
            got = bitpack._xnor_gemm(a, b, k)
            assert got.dtype == np.uint16 and got.shape == (m, n)
            assert np.array_equal(got, _mismatch_oracle(a, b)), m

    @pytest.mark.parametrize("n", [32, 65])
    def test_at_the_block_rule(self, n, rng):
        # the kernel's own block: 4096 rows at n = 32, 2016 at n = 65
        block = bitpack.XOR_WORDS // n
        k = 288
        b = _packed_rows(rng, n, k)
        for m in (block - 1, block + 1, 3 * block + 5):
            a = _packed_rows(rng, m, k)
            assert np.array_equal(bitpack._xnor_gemm(a, b, k), _mismatch_oracle(a, b)), m

    def test_accumulator_is_uint32_from_2_to_the_16(self, rng):
        a, b = _packed_rows(rng, 3, 2**16), _packed_rows(rng, 2, 2**16)
        got = bitpack._xnor_gemm(a, b, 2**16)
        assert got.dtype == np.uint32 and np.array_equal(got, _mismatch_oracle(a, b))

    def test_bin_conv2d_mismatches_are_the_counts_source(self, rng):
        x = pack(rng.choice([-1, 1], size=(2, 5, 6, 9)))
        w = pack(rng.choice([-1, 1], size=(3, 3, 9, 4)))
        spec = BinConvSpec(3, 3, 1, 1, 9, 4)
        diff = bin_conv2d(x, w, spec, mismatches=True)
        assert diff.dtype == np.uint16 and diff.shape == (2, 5, 6, 4)
        got = bin_conv2d(x, w, spec)
        assert got.dtype == np.int32
        assert np.array_equal(got, 81 - 2 * diff.astype(np.int64))
        assert np.array_equal(bitpack.counts(diff, 81), got)


class TestBinConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
    def test_matches_nested_loop_oracle(self, stride, padding, rng):
        for _ in range(10):
            n = int(rng.integers(1, 3))
            h, wd = (int(v) for v in rng.integers(4, 9, size=2))
            cin, cout = (int(v) for v in rng.integers(1, 5, size=2))
            kh, kw = (int(v) for v in rng.integers(1, 4, size=2))
            x = rng.choice([-1, 1], size=(n, h, wd, cin))
            w = rng.choice([-1, 1], size=(kh, kw, cin, cout))
            spec = BinConvSpec(kh, kw, stride, padding, cin, cout)
            got = bin_conv2d(pack(x), pack(w), spec)
            assert np.array_equal(got, naive_conv2d_pm1(x, w, stride, padding))
        # the reference block shape: 3x3, 32 -> 32 channels, K = 288 over 5 words
        x = rng.choice([-1, 1], size=(2, 6, 7, 32))
        w = rng.choice([-1, 1], size=(3, 3, 32, 32))
        got = bin_conv2d(pack(x), pack(w), BinConvSpec(3, 3, stride, padding, 32, 32))
        assert np.array_equal(got, naive_conv2d_pm1(x, w, stride, padding))

    def test_1x1_kernel_is_per_pixel_dot(self, rng):
        x = rng.choice([-1, 1], size=(2, 5, 5, 8))
        w = rng.choice([-1, 1], size=(1, 1, 8, 3))
        spec = BinConvSpec(1, 1, 1, 0, 8, 3)
        got = bin_conv2d(pack(x), pack(w), spec)
        want = np.einsum("nhwc,co->nhwo", x, w[0, 0])
        assert np.array_equal(got, want)

    def test_output_bounds(self, rng):
        spec = BinConvSpec(3, 3, 1, 1, 4, 6)
        x = rng.choice([-1, 1], size=(2, 8, 8, 4))
        w = rng.choice([-1, 1], size=(3, 3, 4, 6))
        out = bin_conv2d(pack(x), pack(w), spec)
        k = 3 * 3 * 4
        assert out.min() >= -k and out.max() <= k

    def test_shape_validation(self):
        spec = BinConvSpec(3, 3, 1, 1, 4, 6)
        with pytest.raises(BitShapeError):
            bin_conv2d(pack(np.ones((2, 8, 8, 3))), pack(np.ones((3, 3, 4, 6))), spec)
        with pytest.raises(BitShapeError):
            bin_conv2d(pack(np.ones((2, 8, 8, 4))), pack(np.ones((3, 3, 3, 6))), spec)

    @pytest.mark.parametrize("dtype,pad", [(np.uint8, 0), (np.float64, 0.0)])
    def test_patches_match_window_oracle(self, dtype, pad, rng):
        # padded positions hold zero, in x's dtype
        x = rng.integers(1, 5, size=(2, 4, 5, 3)).astype(dtype)
        spec = BinConvSpec(3, 3, 2, 1, 3, 1)
        cols = patches(x, spec)
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)), constant_values=pad)
        want = np.stack([padded[b, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3, :].ravel()
                         for b in range(2) for i in range(2) for j in range(3)])
        assert cols.dtype == dtype
        assert np.array_equal(cols, want)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("channels", [1, 3, 5])
    def test_col2im_is_the_adjoint_of_patches(self, stride, padding, channels, rng):
        # <patches(x), G> == <x, col2im(G)> for every x and G
        x = rng.normal(size=(2, 5, 6, channels))
        spec = BinConvSpec(3, 2, stride, padding, channels, 1)
        cols = patches(x, spec)
        g = rng.normal(size=cols.shape)
        back = col2im(g, spec, x.shape)
        assert back.shape == x.shape
        np.testing.assert_allclose(np.sum(cols * g), np.sum(x * back), rtol=1e-12)

    @pytest.mark.parametrize("channels,padding", [(3, 1), (5, 0), (8, 1)])
    def test_rows_pm1_are_the_pm1_patches(self, channels, padding, rng):
        # K = 27, 45, 72: no multiple of 64, so each packed row ends in pad bits
        x = from01(rng.integers(0, 2, size=(2, 5, 4, channels)))
        spec = BinConvSpec(3, 3, 1, padding, channels, 2)
        rows = conv_rows(x, spec)
        got = rows_t(rows, spec, np.eye(len(rows)))
        want = 2.0 * patches(x.unpack01(), spec) - 1
        assert got.dtype == np.float64
        assert np.array_equal(got, want.T)

    @pytest.mark.parametrize("channels", [1, 5, 8, 9, 63, 64, 65])
    def test_conv_rows_hold_each_pixels_channels_in_whole_bytes(self, channels, rng):
        # bit oracle: tap t, channel ch of a row sits at bit t * 8 * ceil(C / 8) + ch;
        # padded positions, the bits after a pixel's last channel and after
        # the last tap are 0
        x01 = rng.integers(0, 2, size=(2, 4, 3, channels))
        spec = BinConvSpec(3, 3, 2, 1, channels, 1)
        rows = conv_rows(from01(x01), spec)
        width = -(-channels // 8) * 8
        assert rows.dtype == np.uint64 and rows.shape == (2 * 2 * 2, -(-9 * width // 64))
        want = np.zeros((len(rows), rows.shape[1] * 64), dtype=np.uint8)
        for r, (b, oi, oj) in enumerate(np.ndindex(2, 2, 2)):
            for t, (ki, kj) in enumerate(np.ndindex(3, 3)):
                i, j = 2 * oi - 1 + ki, 2 * oj - 1 + kj
                if 0 <= i < 4 and 0 <= j < 3:
                    want[r, t * width : t * width + channels] = x01[b, i, j]
        got = np.unpackbits(rows.astype("<u8").view(np.uint8), axis=-1, bitorder="little")
        assert np.array_equal(got, want)
        pm1 = rows_t(rows, spec, np.eye(len(rows))).T
        assert pm1.dtype == np.float64
        assert np.array_equal(pm1, 2.0 * want.reshape(len(rows), -1)[:, : 9 * width]
                              .reshape(len(rows), 9, width)[:, :, :channels].reshape(len(rows), -1) - 1)

    @pytest.mark.parametrize("channels", [5, 8, 24, 32, 40, 41, 56])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_conv_rows_are_the_words_of_the_packed_channel_bytes(self, channels, stride, padding, rng):
        # with C % 8 == 0 the bytes are read from x's words, and the rows are
        # built at whole-word width; any C gives the words of the packbits
        # path, pixels of 1 to 7 bytes (5 to 56 channels) among them
        x = from01(rng.integers(0, 2, size=(3, 7, 6, channels)))
        spec = BinConvSpec(3, 3, stride, padding, channels, 2)
        want = bitpack._words(patches(np.packbits(x.unpack01(), axis=-1, bitorder="little"), spec))
        got = conv_rows(x, spec)
        assert got.dtype == want.dtype == np.uint64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("channels", [1, 5, 8, 9, 63, 64, 65])
    def test_channel_widths_match_the_loop_oracle(self, channels, rng):
        x = rng.choice([-1, 1], size=(2, 4, 3, channels))
        w = rng.choice([-1, 1], size=(3, 3, channels, 3))
        got = bin_conv2d(pack(x), pack(w), BinConvSpec(3, 3, 1, 1, channels, 3))
        assert np.array_equal(got, naive_conv2d_pm1(x, w, 1, 1))

    def test_kernel_too_large(self):
        spec = BinConvSpec(9, 9, 1, 0, 1, 1)
        with pytest.raises(BitShapeError):
            spec.out_hw(4, 4)


# every width a gradient can be quantized to: integer codes of up to
# CODE_BITS bits are multiplied as float32, wider ones as float64
CODE_WIDTHS = sorted({b for widths in BITWIDTHS.values() for b in widths})


class TestRowsTimesCodes:
    """The binary weight gradient from packed rows: on integer codes it equals
    the int64 oracle 2 * B01.T @ C - colsum(C), times the scale, bit for bit;
    on a float gradient the +-1 patch product, to float64 rounding."""

    SCALE = 0.37  # no power of two: the product is rounded once

    @staticmethod
    def _rows(rng, channels, stride, padding, count, ones=False):
        """count packed patch rows of a 3x3 conv, and the same rows as 0/1."""
        spec = BinConvSpec(3, 3, stride, padding, channels, 2)
        oh, ow = spec.out_hw(9, 9)
        n = -(-count // (oh * ow))
        shape = (n, 9, 9, channels)
        x = from01(np.ones(shape, dtype=np.uint8) if ones else rng.integers(0, 2, size=shape))
        return spec, conv_rows(x, spec)[:count], patches(x.unpack01(), spec)[:count].astype(np.int64)

    @staticmethod
    def _codes(rng, bits, count, n):
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        codes = rng.integers(lo, hi, size=(count, n), endpoint=True)
        codes[0], codes[-1] = lo, hi
        return codes

    def _check(self, spec, rows, b01, codes, bits):
        want = (2 * (b01.T @ codes) - codes.sum(axis=0)).astype(np.float64) * self.SCALE
        dtype = np.float32 if bits <= bitpack.CODE_BITS else np.float64
        got = rows_t(rows, spec, codes.astype(dtype), self.SCALE)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        # as a gradient hands them on: in the narrowest integer type for bits
        narrow = codes.astype(np.min_scalar_type(-(2 ** (bits - 1))))
        assert rows_t(rows, spec, narrow, self.SCALE).tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, 511, 512, 513, 11520])
    @pytest.mark.parametrize("channels", [1, 5, 64, 65])
    def test_matches_the_int64_oracle(self, channels, count, rng):
        for stride, padding in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            spec, rows, b01 = self._rows(rng, channels, stride, padding, count)
            for bits in CODE_WIDTHS:
                self._check(spec, rows, b01, self._codes(rng, bits, count, spec.out_channels), bits)

    @pytest.mark.parametrize("bits", CODE_WIDTHS)
    def test_a_chunk_of_extreme_codes_is_exact(self, bits, rng):
        # all bits 1 and every code at an end of the grid: a full chunk sums
        # to 512 * -2**15 = -2**24 at 16 bits, the end of float32's integers
        spec, rows, b01 = self._rows(rng, 8, 1, 0, 3 * bitpack.CODE_ROWS + 1, ones=True)
        for code in (-(2 ** (bits - 1)), 2 ** (bits - 1) - 1):
            self._check(spec, rows, b01, np.full((len(rows), spec.out_channels), code), bits)

    def test_is_the_pm1_product(self, rng):
        # on a float gradient, float64 chunks sum in another order than one
        # product: within 1e-12 * sum|g| per column
        for channels, count in [(1, 1), (1, 11520), (65, 1), (65, 513), (65, 11520)]:
            spec, rows, b01 = self._rows(rng, channels, 2, 1, count)
            g = rng.normal(size=(count, spec.out_channels)) * 10.0 ** rng.integers(-3, 4, size=(count, 1))
            got = rows_t(rows, spec, g)
            assert got.dtype == np.float64
            assert_within_column_sums(got, (2.0 * b01 - 1).T @ g, g)
            assert rows_t(rows, spec, g, self.SCALE).tobytes() == (got * self.SCALE).tobytes()
