"""Microbenchmarks: value-transformation codec throughput.

Not a paper artifact, but the practical cost of simulating it — useful
when sizing full-scale runs.  The bit-plane cases time that stage alone
at the bulk (16384 lines) and serve-sized (8 lines) batch shapes::

    pytest benchmarks/test_bench_codec_throughput.py -k bitplane --benchmark-only
"""

import numpy as np
import pytest

from repro.transform.celltype import CellTypeLayout, CellTypePredictor
from repro.transform.codec import ValueTransformCodec


@pytest.fixture(scope="module")
def codec():
    layout = CellTypeLayout(interleave=64)
    predictor = CellTypePredictor.from_layout(layout, 4096)
    return ValueTransformCodec(predictor)


@pytest.fixture(scope="module")
def rows_data():
    rng = np.random.default_rng(0)
    return rng.integers(0, 2**64, size=(512, 64, 8), dtype=np.uint64)


def test_bulk_encode_throughput(benchmark, codec, rows_data):
    rows = np.arange(len(rows_data))
    result = benchmark(codec.encode_rows, rows_data, rows)
    assert result.shape == (512, 8, 64, 1)


def test_bulk_decode_throughput(benchmark, codec, rows_data):
    rows = np.arange(len(rows_data))
    encoded = codec.encode_rows(rows_data, rows)
    result = benchmark(codec.decode_rows, encoded, rows)
    assert (result == rows_data).all()


def test_single_line_roundtrip_latency(benchmark, codec):
    rng = np.random.default_rng(1)
    line = rng.integers(0, 2**64, size=(1, 8), dtype=np.uint64)

    def roundtrip():
        return codec.decode_row(codec.encode_row(line, 5), 5)

    result = benchmark(roundtrip)
    assert (result == line).all()


@pytest.fixture(scope="module", params=[16384, 8], ids=["bulk16384", "small8"])
def bitplane_lines(request):
    rng = np.random.default_rng(2)
    return rng.integers(0, 2**64, size=(request.param, 8), dtype=np.uint64)


def test_bitplane_apply(benchmark, codec, bitplane_lines):
    result = benchmark(codec.bitplane.apply, bitplane_lines)
    assert (codec.bitplane.invert(result) == bitplane_lines).all()


def test_bitplane_invert(benchmark, codec, bitplane_lines):
    encoded = codec.bitplane.apply(bitplane_lines)
    result = benchmark(codec.bitplane.invert, encoded)
    assert (result == bitplane_lines).all()
