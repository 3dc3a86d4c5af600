"""Tests for the composed value-transformation codec."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.transform import codec as codec_module
from repro.transform.celltype import CellTypeLayout, CellTypePredictor
from repro.transform.codec import StageSelection, ValueTransformCodec


def make_codec(stages=StageSelection.full(), interleave=16, num_rows=256,
               error_rate=0.0, seed=0):
    layout = CellTypeLayout(interleave=interleave)
    rng = np.random.default_rng(seed)
    predictor = CellTypePredictor.from_layout(layout, num_rows, error_rate, rng)
    return ValueTransformCodec(predictor, stages=stages), layout


class TestStageSelection:
    def test_full_enables_everything(self):
        s = StageSelection.full()
        assert s.ebdi and s.bitplane and s.rotation and s.celltype_aware

    def test_none_disables_everything(self):
        s = StageSelection.none()
        assert not (s.ebdi or s.bitplane or s.rotation or s.celltype_aware)


class TestValueTransformCodec:
    @pytest.mark.parametrize("row", [0, 1, 15, 16, 17, 255])
    def test_roundtrip_random_lines(self, row):
        codec, _ = make_codec()
        rng = np.random.default_rng(row)
        lines = rng.integers(0, 2**64, size=(64, 8), dtype=np.uint64)
        chips = codec.encode_row(lines, row)
        np.testing.assert_array_equal(codec.decode_row(chips, row), lines)

    def test_zero_lines_store_discharged_true_row(self):
        """A zero page on a true-cell row stores as all-zero bits."""
        codec, layout = make_codec()
        row = 0
        assert layout.cell_type(row).value == 0
        lines = np.zeros((64, 8), dtype=np.uint64)
        chips = codec.encode_row(lines, row)
        assert not chips.any()

    def test_zero_lines_store_discharged_anti_row(self):
        """A zero page on an anti-cell row stores as all-one bits."""
        codec, layout = make_codec()
        row = 16  # first anti block with interleave=16
        assert layout.cell_type(row).value == 1
        lines = np.zeros((64, 8), dtype=np.uint64)
        chips = codec.encode_row(lines, row)
        assert (chips == np.uint64(0xFFFFFFFFFFFFFFFF)).all()

    def test_without_celltype_awareness_anti_rows_charge(self):
        codec, _ = make_codec(stages=StageSelection(celltype_aware=False))
        lines = np.zeros((64, 8), dtype=np.uint64)
        chips = codec.encode_row(lines, 16)  # anti row
        assert not chips.any()  # stored zeros == charged anti cells

    def test_narrow_value_lines_leave_most_chips_discharged(self):
        """Value-local lines put all non-zero data on 2 of 8 chips."""
        codec, _ = make_codec()
        rng = np.random.default_rng(4)
        base = rng.integers(0, 2**62, size=(64, 1), dtype=np.uint64)
        lines = base + rng.integers(0, 256, size=(64, 8), dtype=np.uint64)
        row = 0  # true-cell row
        chips = codec.encode_row(lines, row)
        discharged_chips = [int(c) for c in range(8) if not chips[c].any()]
        assert len(discharged_chips) == 6

    def test_roundtrip_under_misprediction(self):
        """A wrong cell-type table must never corrupt data."""
        codec, layout = make_codec(error_rate=0.5, seed=3)
        assert codec.predictor.accuracy(layout) < 1.0
        rng = np.random.default_rng(8)
        lines = rng.integers(0, 2**64, size=(32, 8), dtype=np.uint64)
        for row in range(0, 256, 17):
            chips = codec.encode_row(lines, row)
            np.testing.assert_array_equal(codec.decode_row(chips, row), lines)

    @pytest.mark.parametrize(
        "stages",
        [
            StageSelection.none(),
            StageSelection(ebdi=True, bitplane=False, rotation=False, celltype_aware=False),
            StageSelection(ebdi=True, bitplane=True, rotation=False, celltype_aware=False),
            StageSelection(ebdi=True, bitplane=True, rotation=True, celltype_aware=False),
            StageSelection.full(),
        ],
    )
    def test_roundtrip_all_stage_subsets(self, stages):
        codec, _ = make_codec(stages=stages)
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 2**64, size=(16, 8), dtype=np.uint64)
        for row in (0, 3, 16, 21):
            chips = codec.encode_row(lines, row)
            np.testing.assert_array_equal(codec.decode_row(chips, row), lines)

    def test_transform_untransform_roundtrip(self):
        codec, _ = make_codec()
        rng = np.random.default_rng(6)
        lines = rng.integers(0, 2**64, size=(16, 8), dtype=np.uint64)
        for row in (0, 16):
            enc = codec.transform_lines(lines, row)
            np.testing.assert_array_equal(codec.untransform_lines(enc, row), lines)

    @settings(max_examples=25, deadline=None)
    @given(
        row=st.integers(min_value=0, max_value=255),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_roundtrip_property(self, row, seed):
        codec, _ = make_codec()
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, 2**64, size=(4, 8), dtype=np.uint64)
        chips = codec.encode_row(lines, row)
        np.testing.assert_array_equal(codec.decode_row(chips, row), lines)


STAGE_SUBSETS = (
    StageSelection.full(),
    StageSelection(rotation=False),
    StageSelection(celltype_aware=False),
    StageSelection(bitplane=False),
)


class TestBulkRows:
    """``encode_rows``/``decode_rows`` equal a per-row loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        word_bytes=st.sampled_from((2, 4, 8)),
        stages=st.sampled_from(STAGE_SUBSETS),
        rows=st.lists(st.integers(min_value=0, max_value=255), max_size=6),
        lines_per_row=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    # rows 0 and 16 are a true-cell and an anti-cell row
    @example(word_bytes=8, stages=StageSelection.full(), rows=[0, 16],
             lines_per_row=4, seed=9)
    def test_bulk_equals_per_row_loop(self, word_bytes, stages, rows,
                                      lines_per_row, seed):
        layout = CellTypeLayout(interleave=16)  # rows 16..31 are anti-cell
        codec = ValueTransformCodec(
            CellTypePredictor.from_layout(layout, 256),
            word_bytes=word_bytes, stages=stages)
        words = 64 // word_bytes
        rng = np.random.default_rng(seed)
        lines = rng.integers(0, np.iinfo(codec.dtype).max, endpoint=True,
                             size=(len(rows), lines_per_row, words),
                             dtype=codec.dtype)
        row_indices = np.array(rows, dtype=np.int64)
        encoded = codec.encode_rows(lines, row_indices)
        assert encoded.shape == (len(rows), 8, lines_per_row, words // 8)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(
                encoded[i], codec.encode_row(lines[i], row))
            np.testing.assert_array_equal(
                codec.decode_row(encoded[i], row), lines[i])
        np.testing.assert_array_equal(
            codec.decode_rows(encoded, row_indices), lines)


def strided_rows(codec, n_rows, lines_per_row, seed):
    """Full-range lines as a non-contiguous view (every other line)."""
    rng = np.random.default_rng(seed)
    words = 64 // codec.word_bytes
    backing = rng.integers(0, np.iinfo(codec.dtype).max, endpoint=True,
                           size=(n_rows, 2 * lines_per_row, words),
                           dtype=codec.dtype)
    lines = backing[:, ::2]
    assert not lines.flags.c_contiguous
    return lines


def assert_bulk_equals_per_row_loop(codec, lines, row_indices):
    encoded = codec.encode_rows(lines, row_indices)
    for i, row in enumerate(row_indices):
        np.testing.assert_array_equal(
            encoded[i], codec.encode_row(lines[i], int(row)))
    np.testing.assert_array_equal(codec.decode_rows(encoded, row_indices), lines)


class TestBulkBlocks:
    """``encode_rows`` runs block by block; rows spanning several blocks,
    a partial last block and strided input equal the per-row loop."""

    # every rotation (7 is coprime with 8), and with interleave 16 both
    # true-cell (0..15, 32..47) and anti-cell (16..31, 48..63) rows
    ROWS = np.arange(40) * 7 % 64

    @pytest.mark.parametrize("word_bytes", (2, 4, 8))
    @pytest.mark.parametrize("stages", STAGE_SUBSETS)
    def test_small_blocks(self, monkeypatch, word_bytes, stages):
        # 3 lines per row in 21-line blocks: five blocks of 7 rows and a
        # last one of 5
        monkeypatch.setattr(codec_module, "_BLOCK_LINES", 21)
        codec = ValueTransformCodec(
            CellTypePredictor.from_layout(CellTypeLayout(interleave=16), 64),
            word_bytes=word_bytes, stages=stages)
        assert set(self.ROWS % 8) == set(range(8))
        anti = codec.predictor.predict_anti(self.ROWS)
        assert anti.any() and not anti.all()
        lines = strided_rows(codec, len(self.ROWS), 3, seed=word_bytes)
        assert_bulk_equals_per_row_loop(codec, lines, self.ROWS)

    def test_default_block_size(self):
        """One full block of 64-line rows plus a 3-row partial block."""
        codec, _ = make_codec()
        n_rows = codec_module._BLOCK_LINES // 64 + 3
        rows = np.arange(n_rows) * 7 % 256
        lines = strided_rows(codec, n_rows, 64, seed=1)
        assert_bulk_equals_per_row_loop(codec, lines, rows)


class TestEmptyBatches:
    """Zero lines (or rows) give correctly shaped empty results."""

    def test_transform_lines(self):
        codec, _ = make_codec()
        empty = np.zeros((0, 8), dtype=np.uint64)
        for row in (0, 16):
            enc = codec.transform_lines(empty, row)
            assert enc.shape == (0, 8) and enc.dtype == np.uint64
            assert codec.untransform_lines(enc, row).shape == (0, 8)

    def test_transform_lines_many(self):
        codec, _ = make_codec()
        empty = np.zeros((0, 8), dtype=np.uint64)
        (enc,) = codec.transform_lines_many([empty], [16])
        assert enc.shape == (0, 8)
        (dec,) = codec.untransform_lines_many([enc], [16])
        assert dec.shape == (0, 8)

    def test_encode_row(self):
        codec, _ = make_codec()
        chips = codec.encode_row(np.zeros((0, 8), dtype=np.uint64), 17)
        assert chips.shape == (8, 0, 1) and chips.dtype == np.uint64
        assert codec.decode_row(chips, 17).shape == (0, 8)

    def test_encode_rows_zero_rows(self):
        codec, _ = make_codec()
        rows = np.zeros(0, dtype=np.int64)
        encoded = codec.encode_rows(np.zeros((0, 64, 8), dtype=np.uint64), rows)
        assert encoded.shape == (0, 8, 64, 1)
        assert codec.decode_rows(encoded, rows).shape == (0, 64, 8)

    def test_encode_rows_zero_lines_per_row(self):
        codec, _ = make_codec()
        rows = np.array([1, 16, 17])
        encoded = codec.encode_rows(np.zeros((3, 0, 8), dtype=np.uint64), rows)
        assert encoded.shape == (3, 8, 0, 1)
        assert codec.decode_rows(encoded, rows).shape == (3, 0, 8)
