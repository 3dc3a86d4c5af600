"""Composed value-transformation codec (paper Fig. 9).

:class:`ValueTransformCodec` chains the three pipeline stages — EBDI,
bit-plane transposition and data rotation — together with the cell-type
predictor, converting between logical cacheline contents and the bit
image actually stored across the chips of a rank.

Stage order on the write path (LLC eviction -> DRAM):

1. EBDI base-delta conversion with the true-cell zigzag code.
2. Bit-plane transposition of the delta words.
3. Complementing of the whole line when the target row is predicted to
   be an anti-cell row (equivalent to the paper's per-stage anti-cell
   encodings, since complementing commutes with both bit permutations).
4. Data rotation: word-to-chip assignment rotated by the row index.

Reads apply the exact inverse, using the *same* cell-type prediction,
so the round trip is exact even under misprediction (paper Sec. V-B).

:class:`StageSelection` switches stages off individually, which is what
the stage-contribution and cell-type ablation experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.transform.bitplane import BitPlaneTransform
from repro.transform.celltype import CellType, CellTypePredictor
from repro.transform.ebdi import EbdiCodec
from repro.transform.rotation import RotationMapper

# Lines per fused block of :meth:`ValueTransformCodec.encode_rows`: the
# word-major block (512 KB at 8 words per line) and the bit-plane
# kernel's scratch of the same size stay in a 2 MB L2 cache.
_BLOCK_LINES = 8192


@dataclass(frozen=True)
class StageSelection:
    """Which pipeline stages are active.

    ``ebdi``
        Base-delta conversion with the zigzag delta code.
    ``bitplane``
        Bit-plane transposition of the delta words.
    ``rotation``
        Per-row rotation of the word-to-chip assignment.
    ``celltype_aware``
        Complement lines stored in predicted anti-cell rows.  With this
        off, zero data in anti-cell rows stays charged and cannot be
        skipped.
    """

    ebdi: bool = True
    bitplane: bool = True
    rotation: bool = True
    celltype_aware: bool = True

    @classmethod
    def none(cls) -> "StageSelection":
        """Raw storage: values go to DRAM untouched (conventional system)."""
        return cls(ebdi=False, bitplane=False, rotation=False, celltype_aware=False)

    @classmethod
    def full(cls) -> "StageSelection":
        """The complete ZERO-REFRESH pipeline."""
        return cls()


class ValueTransformCodec:
    """Round-trip codec between cachelines and per-chip stored words.

    Parameters
    ----------
    predictor:
        Cell-type predictions per row, shared by encode and decode.
    num_chips, word_bytes, line_bytes:
        Rank and line geometry (defaults follow Table II).
    stages:
        Active pipeline stages; defaults to the full pipeline.
    """

    def __init__(
        self,
        predictor: CellTypePredictor,
        num_chips: int = 8,
        word_bytes: int = 8,
        line_bytes: int = 64,
        stages: Optional[StageSelection] = None,
    ):
        if stages is None:
            stages = StageSelection.full()
        self.predictor = predictor
        self.stages = stages
        self.ebdi = EbdiCodec(word_bytes, line_bytes)
        self.bitplane = BitPlaneTransform(word_bytes, line_bytes)
        self.rotation = RotationMapper(
            num_chips, word_bytes, line_bytes, rotate=stages.rotation
        )
        self.word_bytes = word_bytes
        self.line_bytes = line_bytes
        self.num_chips = num_chips
        self.dtype = self.ebdi.dtype

    # ------------------------------------------------------------------
    def transform_lines(self, lines: np.ndarray, row_index: int) -> np.ndarray:
        """Apply the per-line stages (EBDI, bit-plane, complement) only.

        Returns the transformed lines *before* chip distribution; useful
        for content analysis and tests.
        """
        out = lines
        if self.stages.ebdi:
            out = self.ebdi.encode(out, CellType.TRUE)
        if self.stages.bitplane:
            out = self.bitplane.apply(out)
        if self._store_complemented(row_index):
            out = np.invert(out)
        return out

    def untransform_lines(self, encoded: np.ndarray, row_index: int) -> np.ndarray:
        """Invert :meth:`transform_lines`."""
        out = encoded
        if self._store_complemented(row_index):
            out = np.invert(out)
        if self.stages.bitplane:
            out = self.bitplane.invert(out)
        if self.stages.ebdi:
            out = self.ebdi.decode(out, CellType.TRUE)
        return out

    # ------------------------------------------------------------------
    # grouped interface (vectorised over many independent requests)
    # ------------------------------------------------------------------
    def transform_lines_many(
        self, line_groups: "list[np.ndarray]", row_indices: "list[int]"
    ) -> "list[np.ndarray]":
        """Vectorised :meth:`transform_lines` over several line groups.

        ``line_groups[i]`` is a ``(n_i, words_per_line)`` array bound
        for row ``row_indices[i]``.  The row-independent stages (EBDI,
        bit-plane) run in one pass over the concatenation of every
        group — this is the micro-batching fast path of the serving
        layer — and the per-row anti-cell complement is then applied
        group by group, so each returned group is bit-identical to
        ``transform_lines(line_groups[i], row_indices[i])``.
        """
        if not line_groups:
            return []
        counts = [len(group) for group in line_groups]
        flat = np.concatenate(line_groups, axis=0)
        if self.stages.ebdi:
            flat = self.ebdi.encode(flat, CellType.TRUE)
        if self.stages.bitplane:
            flat = self.bitplane.apply(flat)
        out = []
        offset = 0
        for count, row_index in zip(counts, row_indices):
            group = flat[offset:offset + count]
            if self._store_complemented(row_index):
                group = np.invert(group)
            out.append(group)
            offset += count
        return out

    def untransform_lines_many(
        self, encoded_groups: "list[np.ndarray]", row_indices: "list[int]"
    ) -> "list[np.ndarray]":
        """Invert :meth:`transform_lines_many` (grouped decode path)."""
        if not encoded_groups:
            return []
        counts = [len(group) for group in encoded_groups]
        prepared = [
            np.invert(group) if self._store_complemented(row_index) else group
            for group, row_index in zip(encoded_groups, row_indices)
        ]
        flat = np.concatenate(prepared, axis=0)
        if self.stages.bitplane:
            flat = self.bitplane.invert(flat)
        if self.stages.ebdi:
            flat = self.ebdi.decode(flat, CellType.TRUE)
        out = []
        offset = 0
        for count in counts:
            out.append(flat[offset:offset + count])
            offset += count
        return out

    # ------------------------------------------------------------------
    def encode_row(self, lines: np.ndarray, row_index: int) -> np.ndarray:
        """Encode a logical row's lines into per-chip stored words.

        ``lines`` has shape ``(n_lines, words_per_line)``; returns shape
        ``(num_chips, n_lines, words_per_chip)`` of stored (bus-level)
        words, ready to be written into chip row ``row_index``.
        """
        return self.rotation.scatter(self.transform_lines(lines, row_index), row_index)

    def decode_row(self, chip_data: np.ndarray, row_index: int) -> np.ndarray:
        """Invert :meth:`encode_row`, recovering the original lines."""
        return self.untransform_lines(
            self.rotation.gather(chip_data, row_index), row_index
        )

    # ------------------------------------------------------------------
    # bulk interface (vectorised over many rows)
    # ------------------------------------------------------------------
    def encode_rows(self, lines: np.ndarray, row_indices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode_row` over many logical rows.

        ``lines`` has shape ``(n_rows, lines_per_row, words_per_line)``
        and ``row_indices`` the matching row numbers.  Returns shape
        ``(n_rows, num_chips, lines_per_row, words_per_chip)`` — the
        layout banks store rows in.

        This is the bulk path population takes.  It is one fused pass
        over blocks of whole rows, about ``_BLOCK_LINES`` lines each.
        Each block is copied once into a reused *word-major* buffer (row
        ``w`` holds word ``w`` of every line of the block), where EBDI,
        the bit-plane transpose and the anti-cell complement run in
        place, each step a uint64 op over contiguous lines.  The
        rotation then writes the block straight into its slice of the
        output, so blocks stay cache-resident and no full-size temporary
        is kept besides the output.  The result is bit-identical to a
        per-row :meth:`encode_row` loop.

        Word-major blocks let the bit-plane stage run its SWAR kernel on
        8-byte words: ~110 ns/line on an 8192-line block against ~500
        for the byte tables (2-vCPU Xeon host).  The kernel's ~55 numpy
        calls cost the same on any batch, though (one line: ~49 µs
        against ~9 µs), so the per-line entry points
        (:meth:`transform_lines`, :meth:`transform_lines_many`) and
        :meth:`decode_rows` keep the tables, and so do 2- and 4-byte
        words here, which the 8x8 kernel does not cover.
        """
        lines = np.asarray(lines)
        row_indices = np.asarray(row_indices)
        n_rows, lines_per_row, words = lines.shape
        out = np.empty(
            (n_rows, self.num_chips, lines_per_row, self.rotation.words_per_chip),
            dtype=self.dtype,
        )
        if out.size == 0:
            return out
        rows_per_block = max(1, min(n_rows, _BLOCK_LINES // lines_per_row))
        block = np.empty((words, rows_per_block * lines_per_row), dtype=self.dtype)
        block_rows = block.reshape(words, rows_per_block, lines_per_row)
        masks = None
        if self.stages.celltype_aware:
            # all-ones for rows stored complemented, zero otherwise
            masks = np.where(self.predictor.predict_anti(row_indices),
                             np.iinfo(self.dtype).max, 0).astype(self.dtype)
        for start in range(0, n_rows, rows_per_block):
            stop = min(start + rows_per_block, n_rows)
            count = stop - start
            flat = block[:, :count * lines_per_row]  # (words, lines)
            by_row = block_rows[:, :count]  # (words, rows, lines_per_row)
            by_row[...] = lines[start:stop].transpose(2, 0, 1)
            if self.stages.ebdi:
                self.ebdi.encode_word_major(flat)
            if self.stages.bitplane:
                self.bitplane.apply_word_major(flat)
            if masks is not None and masks[start:stop].any():
                by_row ^= masks[start:stop, None]
            self.rotation.scatter_word_major(by_row, row_indices[start:stop],
                                             out[start:stop])
        return out

    def decode_rows(self, chip_data: np.ndarray, row_indices: np.ndarray) -> np.ndarray:
        """Invert :meth:`encode_rows`."""
        chip_data = np.asarray(chip_data)
        row_indices = np.asarray(row_indices)
        n_rows, _, lines_per_row, _ = chip_data.shape
        words = self.rotation.words_per_line
        gathered = np.empty((n_rows, lines_per_row, words), dtype=self.dtype)
        rotations = row_indices % self.num_chips
        for rot in np.unique(rotations):
            idx = np.flatnonzero(rotations == rot)
            lines = np.empty((len(idx), lines_per_row, words), dtype=self.dtype)
            lines[:, :, self.rotation.slot_table[rot]] = (
                chip_data[idx].transpose(0, 2, 1, 3)
            )
            gathered[idx] = lines
        if self.stages.celltype_aware:
            anti = self.predictor.predict_anti(row_indices)
            if anti.any():
                gathered[anti] = np.invert(gathered[anti])
        flat = gathered.reshape(n_rows * lines_per_row, words)
        if self.stages.bitplane:
            flat = self.bitplane.invert(flat)
        if self.stages.ebdi:
            flat = self.ebdi.decode(flat, CellType.TRUE)
        return flat.reshape(n_rows, lines_per_row, words)

    # ------------------------------------------------------------------
    def _store_complemented(self, row_index: int) -> bool:
        """Whether lines bound for ``row_index`` are stored complemented."""
        return (
            self.stages.celltype_aware
            and self.predictor.predict(row_index) is CellType.ANTI
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ValueTransformCodec(chips={self.num_chips}, "
            f"word_bytes={self.word_bytes}, line_bytes={self.line_bytes}, "
            f"stages={self.stages})"
        )
