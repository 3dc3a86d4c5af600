"""Isolated calls into each value-transform stage, bulk and small.

``bulk`` is one call over 16384 lines, the shape population encodes
with; ``small`` is one call over 8 lines, the shape a serve
micro-batch encodes with.  For the whole codec the two sizes use the
entry point each path really calls: ``encode_rows``/``decode_rows`` in
bulk and ``transform_lines_many``/``untransform_lines_many`` small.
Every call's output is checked by inverting it.
"""

from __future__ import annotations

import time

import numpy as np

from common import mixed_lines, median, rng_for

BULK_LINES = 16384
SMALL_LINES = 8
LINES_PER_ROW = 64
SERVE_ROWS = 4096
SERVE_INTERLEAVE = 512


def make_codec(num_rows: int = SERVE_ROWS, interleave: int = SERVE_INTERLEAVE):
    """The codec ``repro-serve`` builds with its default geometry."""
    from repro.transform.celltype import CellTypeLayout, CellTypePredictor
    from repro.transform.codec import ValueTransformCodec

    predictor = CellTypePredictor.from_layout(
        CellTypeLayout(interleave=interleave), num_rows=num_rows)
    return ValueTransformCodec(predictor)


def _time_call(fn, budget_s: float, min_calls: int) -> float:
    """Median seconds per call over at least ``min_calls`` calls and
    ``budget_s`` seconds."""
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_calls or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return median(samples)


def _stage_pairs(codec, lines, rows):
    """(stage, encode fn, decode fn given the encoded value) triples."""
    from repro.transform.celltype import CellType

    n = len(lines)
    row = int(rows[0])
    per_row = min(n, LINES_PER_ROW)
    row_block = lines.reshape(-1, per_row, lines.shape[1])
    block_rows = rows[: len(row_block)]
    return (
        ("ebdi",
         lambda: codec.ebdi.encode(lines, CellType.TRUE),
         lambda enc: codec.ebdi.decode(enc, CellType.TRUE)),
        ("bitplane",
         lambda: codec.bitplane.apply(lines),
         codec.bitplane.invert),
        ("rotation",
         lambda: codec.rotation.scatter(lines, row),
         lambda enc: codec.rotation.gather(enc, row)),
        ("codec",
         (lambda: codec.encode_rows(row_block, block_rows)) if n > SMALL_LINES
         else (lambda: codec.transform_lines_many([lines], [row])),
         (lambda enc: codec.decode_rows(enc, block_rows)) if n > SMALL_LINES
         else (lambda enc: codec.untransform_lines_many(enc, [row]))),
    )


def measure(seed: int, *, tiny: bool = False, budget_s: float = 0.12):
    """``(metrics, attempted, failed)`` for every stage, direction and
    size; ``metrics`` maps ``transform.<stage>.<dir>.<size>_ns_per_line``
    to ``(nanoseconds per line, "ns/line")``."""
    bulk_lines = 1024 if tiny else BULK_LINES
    codec = make_codec()
    rng = rng_for(seed, "codec-calls")
    metrics = {}
    attempted = failed = 0
    for size, n in (("bulk", bulk_lines), ("small", SMALL_LINES)):
        lines = mixed_lines(n, rng)
        rows = rng.integers(0, SERVE_ROWS, size=max(1, n // LINES_PER_ROW))
        for stage, encode, decode in _stage_pairs(codec, lines, rows):
            encoded = encode()
            decoded = decode(encoded)
            if isinstance(decoded, list):
                decoded = decoded[0]
            attempted += 1
            if not np.array_equal(np.asarray(decoded).reshape(lines.shape),
                                  lines):
                failed += 1
            min_calls = 3 if size == "bulk" else 50
            enc_s = _time_call(encode, budget_s, min_calls)
            dec_s = _time_call(lambda: decode(encoded), budget_s, min_calls)
            metrics[f"transform.{stage}.encode.{size}_ns_per_line"] = (
                enc_s / n * 1e9, "ns/line")
            metrics[f"transform.{stage}.decode.{size}_ns_per_line"] = (
                dec_s / n * 1e9, "ns/line")
    return metrics, attempted, failed
