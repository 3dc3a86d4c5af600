"""Test-only reference for the bit-plane stage: the per-bit gather.

Every line is unpacked to one byte per bit, those bits are gathered
through a ``D*B``-entry plane-major permutation, and the result is
packed again.  It is slow but transparently follows the definition
``position j*D + w <- bit j of delta word w``, which makes it the
oracle the table-driven :class:`repro.transform.bitplane.BitPlaneTransform`
is checked against.
"""

from __future__ import annotations

import numpy as np

from repro.transform.ebdi import word_dtype


class ReferenceBitPlane:
    """Per-bit gather implementation of the bit-plane transpose."""

    def __init__(self, word_bytes: int = 8, line_bytes: int = 64):
        self.words_per_line = line_bytes // word_bytes
        self.delta_words = self.words_per_line - 1
        self.word_bits = word_bytes * 8
        self.dtype = word_dtype(word_bytes)
        self._forward_perm, self._inverse_perm = self._build_permutations()

    def _build_permutations(self) -> tuple:
        """Precompute the plane-major permutation and its inverse.

        With ``np.unpackbits(..., bitorder='little')`` on the
        little-endian byte view, flat position ``w*B + j`` is bit ``j``
        of delta word ``w``; the forward permutation gathers plane j of
        all words into consecutive positions.
        """
        d, b = self.delta_words, self.word_bits
        planes, words = np.meshgrid(np.arange(b), np.arange(d), indexing="ij")
        forward = (words * b + planes).ravel()  # out[j*D + w] = in[w*B + j]
        inverse = np.empty_like(forward)
        inverse[forward] = np.arange(d * b)
        return forward, inverse

    def apply(self, lines: np.ndarray) -> np.ndarray:
        return self._permute(lines, self._forward_perm)

    def invert(self, lines: np.ndarray) -> np.ndarray:
        return self._permute(lines, self._inverse_perm)

    def _permute(self, lines: np.ndarray, perm: np.ndarray) -> np.ndarray:
        lines = np.asarray(lines)
        deltas = np.ascontiguousarray(lines[:, 1:])
        # explicit delta byte count: reshape(len(lines), -1) fails on 0 lines
        raw = deltas.view(np.uint8).reshape(len(lines), self.delta_words * self.word_bits // 8)
        bits = np.unpackbits(raw, axis=1, bitorder="little")
        shuffled = bits[:, perm]
        packed = np.ascontiguousarray(np.packbits(shuffled, axis=1, bitorder="little"))
        out = np.empty_like(lines)
        out[:, 0] = lines[:, 0]
        out[:, 1:] = packed.view(self.dtype).reshape(len(lines), self.delta_words)
        return out
