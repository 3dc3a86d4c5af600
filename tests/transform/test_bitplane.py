"""Tests for the bit-plane transposition stage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transform.bitplane import BitPlaneTransform
from repro.transform.celltype import CellType
from repro.transform.ebdi import EbdiCodec
from tests.transform.bitplane_reference import ReferenceBitPlane


@pytest.fixture
def transform():
    return BitPlaneTransform(word_bytes=8, line_bytes=64)


class TestBitPlaneTransform:
    def test_base_word_untouched(self, transform):
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 2**64, size=(16, 8), dtype=np.uint64)
        out = transform.apply(lines)
        np.testing.assert_array_equal(out[:, 0], lines[:, 0])

    def test_zero_deltas_stay_zero(self, transform):
        lines = np.zeros((4, 8), dtype=np.uint64)
        lines[:, 0] = 0xABCDEF
        out = transform.apply(lines)
        assert not out[:, 1:].any()

    def test_all_ones_stay_all_ones(self, transform):
        lines = np.full((2, 8), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        out = transform.apply(lines)
        assert (out == np.uint64(0xFFFFFFFFFFFFFFFF)).all()

    def test_roundtrip(self, transform):
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 2**64, size=(128, 8), dtype=np.uint64)
        np.testing.assert_array_equal(transform.invert(transform.apply(lines)), lines)

    def test_popcount_preserved(self, transform):
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 2**64, size=(32, 8), dtype=np.uint64)
        out = transform.apply(lines)

        def popcount(arr):
            return int(np.unpackbits(np.ascontiguousarray(arr).view(np.uint8)).sum())

        assert popcount(out) == popcount(lines)

    def test_plane_layout(self, transform):
        """Bit j of delta word w must land at flat position j*7 + w."""
        lines = np.zeros((1, 8), dtype=np.uint64)
        w, j = 3, 10  # delta word index 3 == line word 4
        lines[0, 1 + w] = np.uint64(1) << np.uint64(j)
        out = transform.apply(lines)
        flat = j * 7 + w
        out_word, out_bit = 1 + flat // 64, flat % 64
        expected = np.zeros((1, 8), dtype=np.uint64)
        expected[0, out_word] = np.uint64(1) << np.uint64(out_bit)
        np.testing.assert_array_equal(out, expected)

    def test_narrow_deltas_concentrate_in_low_words(self, transform):
        """Deltas below 2^9 leave words 2..7 entirely zero (7*9=63 bits)."""
        rng = np.random.default_rng(7)
        lines = np.zeros((64, 8), dtype=np.uint64)
        lines[:, 0] = rng.integers(0, 2**64, size=64, dtype=np.uint64)
        lines[:, 1:] = rng.integers(0, 2**9, size=(64, 7), dtype=np.uint64)
        out = transform.apply(lines)
        assert not out[:, 2:].any()
        assert out[:, 1].any()

    def test_after_ebdi_zero_biased_lines_have_discharged_words(self, transform):
        """The EBDI + bit-plane pipeline leaves >= 6 of 8 words zero for
        lines with byte-sized value locality."""
        ebdi = EbdiCodec()
        rng = np.random.default_rng(11)
        base = rng.integers(0, 2**63, size=(100, 1), dtype=np.uint64)
        jitter = rng.integers(0, 128, size=(100, 8), dtype=np.uint64)
        lines = base + jitter
        out = transform.apply(ebdi.encode(lines, CellType.TRUE))
        zero_words = (out == 0).sum(axis=1)
        assert (zero_words >= 6).all()

    def test_rejects_bad_shape(self, transform):
        with pytest.raises(ValueError, match="expected shape"):
            transform.apply(np.zeros((2, 9), dtype=np.uint64))

    def test_rejects_bad_dtype(self, transform):
        with pytest.raises(TypeError, match="expected dtype"):
            transform.apply(np.zeros((2, 8), dtype=np.int64))

    def test_word_size_4(self):
        t = BitPlaneTransform(word_bytes=4, line_bytes=64)
        rng = np.random.default_rng(13)
        lines = rng.integers(0, 2**32, size=(32, 16), dtype=np.uint32)
        np.testing.assert_array_equal(t.invert(t.apply(lines)), lines)

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                    min_size=8, max_size=8))
    def test_roundtrip_property(self, words):
        t = BitPlaneTransform()
        lines = np.array([words], dtype=np.uint64)
        np.testing.assert_array_equal(t.invert(t.apply(lines)), lines)


WORD_SIZES = (2, 4, 8)
LINE_KINDS = ("random", "zeros", "ones", "narrow")


def make_lines(word_bytes, kinds, seed):
    """One line per entry of ``kinds``: random words, all zeros, all
    ones, or a random base with deltas a few bits wide."""
    dtype = np.dtype(f"u{word_bytes}")
    words = 64 // word_bytes
    top = np.iinfo(dtype).max
    rng = np.random.default_rng(seed)
    lines = np.empty((len(kinds), words), dtype=dtype)
    for i, kind in enumerate(kinds):
        if kind == "random":
            lines[i] = rng.integers(0, top, size=words, dtype=dtype, endpoint=True)
        elif kind == "zeros":
            lines[i] = 0
        elif kind == "ones":
            lines[i] = top
        else:
            width = int(rng.integers(1, word_bytes * 8 // 2 + 1))
            base = rng.integers(0, top, dtype=dtype, endpoint=True)
            lines[i] = base + rng.integers(0, 2**width, size=words).astype(dtype)
    return lines


class TestAgainstReference:
    """The table-driven transpose equals the per-bit gather it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(word_bytes=st.sampled_from(WORD_SIZES),
           kinds=st.lists(st.sampled_from(LINE_KINDS), min_size=0, max_size=70),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_apply_and_invert_match_reference(self, word_bytes, kinds, seed):
        lines = make_lines(word_bytes, kinds, seed)
        fast = BitPlaneTransform(word_bytes=word_bytes)
        ref = ReferenceBitPlane(word_bytes=word_bytes)
        applied = fast.apply(lines)
        np.testing.assert_array_equal(applied, ref.apply(lines))
        assert applied.shape == lines.shape and applied.dtype == lines.dtype
        np.testing.assert_array_equal(fast.invert(lines), ref.invert(lines))
        np.testing.assert_array_equal(fast.invert(applied), lines)

    @pytest.mark.parametrize("word_bytes", WORD_SIZES)
    def test_every_single_bit_lands_where_reference_puts_it(self, word_bytes):
        fast = BitPlaneTransform(word_bytes=word_bytes)
        ref = ReferenceBitPlane(word_bytes=word_bytes)
        words = 64 // word_bytes
        lines = np.zeros((words * word_bytes * 8, words), dtype=fast.dtype)
        flat = lines.view(np.uint8).reshape(len(lines), 64)
        for k in range(len(lines)):
            flat[k, k // 8] = 1 << (k % 8)
        np.testing.assert_array_equal(fast.apply(lines), ref.apply(lines))
        np.testing.assert_array_equal(fast.invert(lines), ref.invert(lines))

    def test_large_batch_crosses_lookup_blocks(self):
        lines = make_lines(8, ["random"] * 2500, seed=17)
        fast, ref = BitPlaneTransform(), ReferenceBitPlane()
        np.testing.assert_array_equal(fast.apply(lines), ref.apply(lines))
        np.testing.assert_array_equal(fast.invert(lines), ref.invert(lines))

    def test_non_contiguous_input(self):
        lines = make_lines(8, ["random"] * 12, seed=3)
        view = np.asfortranarray(lines)[::2]
        np.testing.assert_array_equal(
            BitPlaneTransform().apply(view), ReferenceBitPlane().apply(view))


class TestWordMajorAgainstReference:
    """``apply_word_major`` (the bulk encoder's bit-plane step; a SWAR
    kernel for 8-byte words) equals the per-bit gather oracle."""

    @staticmethod
    def apply_word_major(word_bytes, lines, spare_lines=0):
        """Run the kernel on ``lines`` laid out word-major in a buffer
        ``spare_lines`` wider, so its rows are strided."""
        fast = BitPlaneTransform(word_bytes=word_bytes)
        buffer = np.zeros((fast.words_per_line, len(lines) + spare_lines),
                          dtype=fast.dtype)
        words = buffer[:, :len(lines)]
        words[...] = lines.T
        fast.apply_word_major(words)
        assert not buffer[:, len(lines):].any()
        return words.T

    @pytest.mark.parametrize("word_bytes", WORD_SIZES)
    def test_every_single_bit(self, word_bytes):
        words = 64 // word_bytes
        lines = np.zeros((words * word_bytes * 8, words), dtype=f"u{word_bytes}")
        flat = lines.view(np.uint8).reshape(len(lines), 64)
        for k in range(len(lines)):
            flat[k, k // 8] = 1 << (k % 8)
        np.testing.assert_array_equal(
            self.apply_word_major(word_bytes, lines),
            ReferenceBitPlane(word_bytes=word_bytes).apply(lines))

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                                   min_size=8, max_size=8),
                          min_size=1, max_size=40),
           spare_lines=st.integers(min_value=0, max_value=5))
    def test_random_words(self, lines, spare_lines):
        lines = np.array(lines, dtype=np.uint64)
        np.testing.assert_array_equal(
            self.apply_word_major(8, lines, spare_lines),
            ReferenceBitPlane().apply(lines))


class TestEmptyBatch:
    @pytest.mark.parametrize("word_bytes", WORD_SIZES)
    def test_apply_and_invert_accept_zero_lines(self, word_bytes):
        t = BitPlaneTransform(word_bytes=word_bytes)
        empty = np.zeros((0, t.words_per_line), dtype=t.dtype)
        for out in (t.apply(empty), t.invert(empty)):
            assert out.shape == empty.shape and out.dtype == empty.dtype
