"""Bit-plane transposition stage of ZERO-REFRESH (paper Sec. V-C).

After the EBDI stage every delta word carries a small coded value: its
low-order bits are data, its high-order bits are discharged bits.  The
discharged bits are *not* contiguous across the line, though — each word
contributes its own little run.  The bit-plane stage (motivated by BPC
compression, Kim et al. ISCA 2016) transposes the delta bits so that the
*planes* — bit position j of every delta word — become contiguous.

Concretely, with D delta words of B bits each, the 448-bit (D=7, B=64)
delta region is re-laid-out plane-major::

    position j*D + w   <-   bit j of delta word w

Low-order planes (j small) hold the data of every delta; high-order
planes are entirely discharged.  After re-slicing the stream back into
B-bit words, the non-discharged content is concentrated in the
lowest-order word(s) of the line, and every remaining word consists of
discharged bits only — exactly what the data-rotation stage needs.

The transform is a fixed bit permutation, hence trivially invertible and
oblivious to the true/anti complement applied by the EBDI stage
(complementing commutes with permuting).

Implementation: byte k of every delta word holds planes 8k..8k+7, and
after the transpose those planes fill exactly D output bytes (bits
8kD .. 8kD+8D-1).  The permutation therefore splits into ``word_bytes``
independent *chunks* of D bytes, all permuted by the same map: input
byte w, bit i (plane 8k+i of word w) goes to chunk bit i*D + w.  One
256-entry table per input byte gives that byte's contribution to its
chunk as ``ceil(D/8)`` uint64 lanes, so a chunk is the OR of D table
lookups and no line is ever unpacked to single bits.  :meth:`invert`
runs the same lookups with tables built for the inverse map.

Bulk encoding (:meth:`BitPlaneTransform.apply_word_major`, called by
:meth:`repro.transform.codec.ValueTransformCodec.encode_rows`) works on a
*word-major* block instead: row ``w`` holds word ``w`` of every line, so
every step is one uint64 op over a contiguous run of lines.  For 8-byte
words (D = 7) the permutation is then pure SWAR arithmetic (Hacker's
Delight Sec. 7-3):

1. an 8x8 *byte* transpose across the eight words of each line (three
   masked swap stages), after which word ``k`` holds byte ``k`` of
   every word — the input bytes of chunk ``k``;
2. an 8x8 *bit* transpose inside each of those words, putting bit ``i``
   of byte ``k`` of line word ``v`` at bit ``8i + v``;
3. a three-stage compress that drops the base word's bit ``8i`` from
   every byte, leaving chunk ``k`` in the low 56 bits: bit ``7i + w`` is
   bit ``i`` of byte ``k`` of delta word ``w`` (line word ``w + 1``);
4. a shift-pack of the eight 56-bit chunks into the seven delta words.

That is ~55 numpy calls whatever the number of lines, where the tables
cost 7 gathers per chunk, so the SWAR kernel wins only when one call
covers many lines.  Measured per call on a 2-vCPU Xeon host: one line
takes ~49 µs against ~9 µs for the tables, the two break even near 256
lines, and an 8192-line block runs at ~110 ns/line against ~500.
Hence the split by entry point: the bulk row encoder uses the kernel,
while :meth:`apply` and :meth:`invert` — and with them the per-line,
serving, write and decode paths — stay on the tables.  2- and 4-byte
words (the word-size ablation) have 15 or 31 delta words, which the 8x8
kernel does not cover; :meth:`apply_word_major` runs them through the
tables.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.transform.ebdi import word_dtype

# Lines per table-lookup block: keeps the (D, block, word_bytes, lanes)
# lookup result cache-resident on large batches.
_BLOCK_LINES = 512

_U64 = np.uint64
# Word-major SWAR kernel constants (8-byte words, 8 words per line).
# Byte transpose: (row distance, shift, mask) of each masked swap stage.
_BYTE_SWAPS = (
    (4, _U64(32), _U64(0x00000000FFFFFFFF)),
    (2, _U64(16), _U64(0x0000FFFF0000FFFF)),
    (1, _U64(8), _U64(0x00FF00FF00FF00FF)),
)
# In-word 8x8 bit transpose: (shift, mask) of each delta-swap stage.
_BIT_SWAPS = (
    (_U64(7), _U64(0x00AA00AA00AA00AA)),
    (_U64(14), _U64(0x0000CCCC0000CCCC)),
    (_U64(28), _U64(0x00000000F0F0F0F0)),
)
# Compress 8 x 7 bits to 56: (low shift, low mask, high shift, high
# mask) per stage; the first stage's shifts also drop the base bit.
_COMPRESS = (
    (_U64(1), _U64(0x007F007F007F007F), _U64(2), _U64(0x3F803F803F803F80)),
    (_U64(0), _U64(0x00003FFF00003FFF), _U64(2), _U64(0x0FFFC0000FFFC000)),
    (_U64(0), _U64(0x000000000FFFFFFF), _U64(4), _U64(0x00FFFFFFF0000000)),
)
# Shift-pack: delta word m is chunk m >> 8m | chunk m+1 << 56-8m.
_PACK_SHIFTS = (np.arange(7, dtype=np.uint64) * _U64(8))[:, None]


def _byte_tables(chunk_map: np.ndarray, lanes: int) -> np.ndarray:
    """Lookup tables for a bit permutation of one D-byte chunk.

    ``chunk_map[8*m + b]`` is the chunk bit that bit ``b`` of input byte
    ``m`` moves to.  Returns a ``(D*256, lanes)`` uint64 array whose row
    ``m*256 + v`` is the chunk image of input byte ``m`` holding ``v``;
    the images of distinct bytes never overlap, so OR-ing them composes
    the permuted chunk.
    """
    dest = chunk_map.reshape(-1, 8)  # (D, 8)
    set_bits = (np.arange(256, dtype=np.uint64)[:, None]
                >> np.arange(8, dtype=np.uint64)) & np.uint64(1)  # (256, 8)
    tables = np.zeros((len(dest), 256, lanes), dtype=np.uint64)
    for lane in range(lanes):
        weights = np.where(
            dest // 64 == lane,
            np.uint64(1) << (dest % 64).astype(np.uint64),
            np.uint64(0),
        )  # (D, 8): the lane bit each input bit sets, if any
        tables[:, :, lane] = (set_bits[None] * weights[:, None, :]).sum(
            axis=2, dtype=np.uint64
        )
    return tables.reshape(-1, lanes)


class BitPlaneTransform:
    """Transpose delta-word bit planes within cachelines.

    Parameters mirror :class:`repro.transform.ebdi.EbdiCodec`: the line
    is ``words_per_line`` words of ``word_bytes`` bytes, and word 0 (the
    EBDI base) is left untouched.
    """

    def __init__(self, word_bytes: int = 8, line_bytes: int = 64):
        if sys.byteorder != "little":  # pragma: no cover - platform guard
            raise RuntimeError("BitPlaneTransform requires a little-endian host")
        if line_bytes % word_bytes != 0:
            raise ValueError(
                f"line size {line_bytes} is not a multiple of word size {word_bytes}"
            )
        self.word_bytes = word_bytes
        self.line_bytes = line_bytes
        self.words_per_line = line_bytes // word_bytes
        self.delta_words = self.words_per_line - 1
        if self.delta_words < 1:
            raise ValueError("need at least one delta word")
        self.dtype = word_dtype(word_bytes)
        d = self.delta_words
        lanes = -(-d // 8)  # uint64 lanes holding one 8*D-bit chunk
        word, bit = np.divmod(np.arange(8 * d), 8)
        forward = bit * d + word  # chunk bit of (input byte word, bit)
        self._forward_tables = _byte_tables(forward, lanes)
        self._inverse_tables = _byte_tables(np.argsort(forward), lanes)
        self._table_offsets = (np.arange(d, dtype=np.intp) * 256)[:, None, None]
        self._swar = word_bytes == 8 and d == 7

    # ------------------------------------------------------------------
    def apply(self, lines: np.ndarray) -> np.ndarray:
        """Return lines with delta bit planes transposed (base untouched)."""
        lines = self._check(lines)
        n, d, wb = len(lines), self.delta_words, self.word_bytes
        # chunk k's input byte w is byte k of delta word w (byte views of
        # the whole contiguous arrays, sliced after the base word)
        chunk_bytes = lines.view(np.uint8)[:, wb:].reshape(n, d, wb).transpose(1, 0, 2)
        chunks = self._permute_chunks(chunk_bytes, self._forward_tables)
        out = np.empty_like(lines)
        out[:, 0] = lines[:, 0]
        # chunk k fills delta bytes k*D .. k*D+D-1
        out.view(np.uint8)[:, wb:].reshape(n, wb, d)[...] = chunks[:, :, :d]
        return out

    def invert(self, lines: np.ndarray) -> np.ndarray:
        """Invert :meth:`apply`."""
        lines = self._check(lines)
        n, d, wb = len(lines), self.delta_words, self.word_bytes
        chunk_bytes = lines.view(np.uint8)[:, wb:].reshape(n, wb, d).transpose(2, 0, 1)
        chunks = self._permute_chunks(chunk_bytes, self._inverse_tables)
        out = np.empty_like(lines)
        out[:, 0] = lines[:, 0]
        # byte w of restored chunk k is byte k of delta word w
        out.view(np.uint8)[:, wb:].reshape(n, d, wb)[...] = (
            chunks[:, :, :d].transpose(0, 2, 1)
        )
        return out

    def apply_word_major(self, words: np.ndarray) -> None:
        """:meth:`apply` in place on a word-major block of lines.

        ``words`` has shape ``(words_per_line, n)`` and this transform's
        dtype; row ``w`` holds word ``w`` of each of ``n`` lines.  Each
        row must be contiguous, but rows may lie any distance apart.
        The base row is left untouched.
        """
        if self._swar:
            self._swar_apply(words)
        else:
            words[...] = self.apply(words.T).T

    # ------------------------------------------------------------------
    def _swar_apply(self, words: np.ndarray) -> None:
        """The 8-byte-word SWAR kernel (see the module docstring)."""
        n = words.shape[1]
        base = words[0].copy()
        # Reused by every step: a fresh temporary per step this size
        # pays page faults (measured ~1.8x slower on 4096 lines).
        scratch = np.empty((8, n), dtype=np.uint64)
        for step, shift, mask in _BYTE_SWAPS:
            # word w (in a) trades its high bytes for the low bytes of
            # word w + step (in b)
            pairs = words.reshape(4 // step, 2, step, n)
            a, b = pairs[:, 0], pairs[:, 1]
            t = np.right_shift(a, shift, out=scratch[:4].reshape(a.shape))
            t ^= b
            t &= mask
            b ^= t
            t <<= shift
            a ^= t
        t = scratch
        for shift, mask in _BIT_SWAPS:
            np.right_shift(words, shift, out=t)
            t ^= words
            t &= mask
            words ^= t
            t <<= shift
            words ^= t
        for low_shift, low_mask, high_shift, high_mask in _COMPRESS:
            np.right_shift(words, high_shift, out=t)
            t &= high_mask
            if low_shift:
                words >>= low_shift
            words &= low_mask
            words |= t
        np.left_shift(words[1:], _U64(56) - _PACK_SHIFTS, out=t[1:])
        words[:7] >>= _PACK_SHIFTS
        t[1:] |= words[:7]
        words[1:] = t[1:]
        words[0] = base

    def _permute_chunks(self, chunk_bytes: np.ndarray, tables: np.ndarray) -> np.ndarray:
        """Permute every chunk through ``tables``.

        ``chunk_bytes`` is a ``(D, n, word_bytes)`` uint8 view whose
        ``[m, i, k]`` is input byte ``m`` of chunk ``k`` of line ``i``;
        returns ``(n, word_bytes, 8*lanes)`` uint8 whose first D bytes
        along the last axis are each permuted chunk.
        """
        n = chunk_bytes.shape[1]
        if n <= _BLOCK_LINES:  # one block: spare small calls the slicing
            return self._lookup(chunk_bytes, tables).view(np.uint8)
        chunks = np.empty((n, self.word_bytes, tables.shape[1]), dtype=np.uint64)
        for start in range(0, n, _BLOCK_LINES):
            stop = start + _BLOCK_LINES
            self._lookup(chunk_bytes[:, start:stop], tables, out=chunks[start:stop])
        return chunks.view(np.uint8)

    def _lookup(self, chunk_bytes: np.ndarray, tables: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """OR of the D table images of each chunk's input bytes."""
        rows = chunk_bytes + self._table_offsets
        return np.bitwise_or.reduce(tables.take(rows, axis=0), axis=0, out=out)

    def _check(self, lines: np.ndarray) -> np.ndarray:
        lines = np.asarray(lines)
        if lines.ndim != 2 or lines.shape[1] != self.words_per_line:
            raise ValueError(
                f"expected shape (n, {self.words_per_line}), got {lines.shape}"
            )
        if lines.dtype != self.dtype:
            raise TypeError(f"expected dtype {self.dtype}, got {lines.dtype}")
        return np.ascontiguousarray(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BitPlaneTransform(word_bytes={self.word_bytes}, "
            f"line_bytes={self.line_bytes})"
        )
