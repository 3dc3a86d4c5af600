"""Data-rotation stage of ZERO-REFRESH (paper Sec. V-D, Figs. 9b and 13).

A rank spreads each cacheline over its chips.  Two re-mappings happen in
this stage:

1. **Byte-to-chip remapping (Fig. 13).**  The stock DDRx burst stripes
   each 8-byte beat one byte per chip, which would scatter the base and
   delta words of a transformed line over every chip.  ZERO-REFRESH
   instead re-gathers whole words onto single chips, so a chip stores
   either a base word, a delta word, or a fully-discharged word.  In
   this model that remapping is embodied directly: the unit of
   chip assignment is the EBDI word.

2. **Rotation (Fig. 9b).**  Word ``w`` of every cacheline in logical row
   ``R`` is assigned to chip ``(R + w) mod num_chips``.  Thus a chip's
   physical row ``R`` holds a *single word position* — chip ``j`` stores
   word ``(j - R) mod num_chips`` of each line in the row.  Combined
   with the staggered per-chip refresh counters of
   :mod:`repro.dram.refresh` (Fig. 8), every refresh group then covers
   one word position of many cachelines: all base words refresh
   together, all delta words together, and — crucially — all discharged
   words together, making those groups skippable.

When a line has more words than the rank has chips (e.g. 4-byte EBDI
words on an 8-chip rank give 16 words), each chip receives
``words_per_line / num_chips`` words per line; the rotation acts on word
indices modulo the chip count, preserving the homogeneity property per
chip row.
"""

from __future__ import annotations

import numpy as np

from repro.transform.ebdi import word_dtype


class RotationMapper:
    """Maps transformed cachelines onto the chips of a rank and back.

    Parameters
    ----------
    num_chips:
        Data chips per rank (8 in the paper's configuration).
    word_bytes, line_bytes:
        EBDI word and cacheline geometry; ``words_per_line`` must be a
        multiple of ``num_chips`` (or equal to it).
    rotate:
        Set ``False`` to disable the rotation (ablation): every row then
        uses the identity word-to-chip assignment and refresh groups mix
        base, delta and discharged words.
    """

    def __init__(
        self,
        num_chips: int = 8,
        word_bytes: int = 8,
        line_bytes: int = 64,
        rotate: bool = True,
    ):
        if num_chips < 1:
            raise ValueError("num_chips must be positive")
        words_per_line = line_bytes // word_bytes
        if line_bytes % word_bytes != 0:
            raise ValueError(
                f"line size {line_bytes} is not a multiple of word size {word_bytes}"
            )
        if words_per_line % num_chips != 0:
            raise ValueError(
                f"{words_per_line} words per line cannot be spread evenly "
                f"over {num_chips} chips"
            )
        self.num_chips = num_chips
        self.word_bytes = word_bytes
        self.line_bytes = line_bytes
        self.words_per_line = words_per_line
        self.words_per_chip = words_per_line // num_chips
        self.rotate = rotate
        self.dtype = word_dtype(word_bytes)
        # slot_table[row % num_chips, chip] == words_of_chip(chip, row)
        self.slot_table = np.stack([
            np.stack([self.words_of_chip(chip, rot) for chip in range(num_chips)])
            for rot in range(num_chips)
        ])  # (rotations, chips, words_per_chip)

    # ------------------------------------------------------------------
    def rotation_amount(self, row_index: int) -> int:
        """Chip rotation applied to word positions of logical row ``row_index``."""
        return row_index % self.num_chips if self.rotate else 0

    def chip_of_word(self, word: int, row_index: int) -> int:
        """Chip that stores word position ``word`` of lines in ``row_index``."""
        return (word + self.rotation_amount(row_index)) % self.num_chips

    def words_of_chip(self, chip: int, row_index: int) -> np.ndarray:
        """Word positions that chip ``chip`` stores for ``row_index`` (ascending)."""
        words = np.arange(self.words_per_line)
        mask = (words + self.rotation_amount(row_index)) % self.num_chips == chip
        return words[mask]

    # ------------------------------------------------------------------
    def scatter(self, lines: np.ndarray, row_index: int) -> np.ndarray:
        """Distribute a logical row's lines onto chips.

        ``lines`` has shape ``(n_lines, words_per_line)``; the result
        has shape ``(num_chips, n_lines, words_per_chip)`` where
        ``result[j]`` is the data chip ``j`` stores in its physical row,
        in (line, word-slot) order.
        """
        lines = self._check(lines)
        slots = self.slot_table[row_index % self.num_chips]
        return np.ascontiguousarray(lines[:, slots].transpose(1, 0, 2))

    def scatter_word_major(self, words: np.ndarray, row_indices: np.ndarray,
                           out: np.ndarray) -> None:
        """Distribute word-major rows onto chips, into ``out``.

        ``words`` has shape ``(words_per_line, n_rows, n_lines)``:
        ``words[w, r]`` is word ``w`` of every line of logical row
        ``row_indices[r]``.  ``out`` has shape ``(n_rows, num_chips,
        n_lines, words_per_chip)`` and receives ``scatter`` of each row.
        """
        rows = np.arange(words.shape[1])
        for word, row_words in enumerate(words):
            # word-major rows make each word position one scatter
            chips = self.chip_of_word(word, row_indices)
            out[rows, chips, :, word // self.num_chips] = row_words

    def gather(self, chip_data: np.ndarray, row_index: int) -> np.ndarray:
        """Invert :meth:`scatter`: rebuild lines from per-chip row data."""
        chip_data = np.asarray(chip_data)
        expected = (self.num_chips, chip_data.shape[1], self.words_per_chip)
        if chip_data.ndim != 3 or chip_data.shape != expected:
            raise ValueError(
                f"expected chip data of shape {expected}, got {chip_data.shape}"
            )
        n_lines = chip_data.shape[1]
        lines = np.empty((n_lines, self.words_per_line), dtype=self.dtype)
        lines[:, self.slot_table[row_index % self.num_chips]] = (
            chip_data.transpose(1, 0, 2)
        )
        return lines

    # ------------------------------------------------------------------
    def _check(self, lines: np.ndarray) -> np.ndarray:
        lines = np.asarray(lines)
        if lines.ndim != 2 or lines.shape[1] != self.words_per_line:
            raise ValueError(
                f"expected shape (n, {self.words_per_line}), got {lines.shape}"
            )
        if lines.dtype != self.dtype:
            raise TypeError(f"expected dtype {self.dtype}, got {lines.dtype}")
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RotationMapper(num_chips={self.num_chips}, "
            f"word_bytes={self.word_bytes}, line_bytes={self.line_bytes}, "
            f"rotate={self.rotate})"
        )
