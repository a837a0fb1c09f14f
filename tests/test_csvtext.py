"""The CSV writer of `predict`'s dumps gives the bytes
``np.savetxt(path, a, delimiter=",", fmt="%.6g")`` writes, for any float64
or float32 array of any 2-D shape, through its numpy kernel and through the
`%` path it takes for small arrays."""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from msa_forge import _csvtext

# derandomized, so every run draws the same examples; no example database
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=100)

SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12)

# the values whose text is hardest to get right: ties at the seventh digit,
# rounding into the next decade, the fixed/exponent borders, far exponents
NAMED = [999999.5, 1234565.0, 9.999995, 0.0001, 9.99999e-05, 1e16, 1e-300, 5e-324,
         1.7976931348623157e308, 999999.4999999999, 99999.95, 0.5, 2.5, 1e-17, 1e-18,
         9.999999999999999e-18, 1e22, 1e27, 9.999995e27, 1e28, 123456.5, 0.00012345650000000001]


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csvtext") / "a.csv"


def savetxt_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.savetxt(buf, array, delimiter=",", fmt="%.6g")
    return buf.getvalue()


def written(path, array, kernel: bool) -> bytes:
    """write_csv's bytes; kernel=True sends even a small array through the
    numpy kernel, kernel=False through the `%` path."""
    threshold = 1 if kernel else array.size + 1
    with mock.patch.object(_csvtext, "_MIN_KERNEL_VALUES", threshold):
        _csvtext.write_csv(path, array)
    return path.read_bytes()


def assert_savetxt_bytes(path, array) -> None:
    want = savetxt_bytes(array)
    assert written(path, array, kernel=True) == want
    assert written(path, array, kernel=False) == want


@PROFILE
@given(hnp.arrays(np.float64, SHAPES, elements=st.floats()))
def test_any_float64(out_path, array):
    assert_savetxt_bytes(out_path, array)


@PROFILE
@given(hnp.arrays(np.uint64, SHAPES))
def test_any_float64_bit_pattern(out_path, bits):
    assert_savetxt_bytes(out_path, bits.view(np.float64))


@PROFILE
@given(hnp.arrays(np.float32, SHAPES, elements=st.floats(width=32)))
def test_any_float32(out_path, array):
    assert_savetxt_bytes(out_path, array)


@PROFILE
@given(hnp.arrays(np.float64, SHAPES,
                  elements=st.tuples(st.floats(-1e7, 1e7), st.integers(0, 7))
                  .map(lambda v: round(*v))))
def test_values_rounded_to_few_decimals(out_path, array):
    assert_savetxt_bytes(out_path, array)


@pytest.mark.parametrize("shape", [(0, 3), (0, 1), (1, 1), (1, 9), (9, 1), (3, 0)])
def test_edge_shapes(out_path, shape):
    array = np.random.default_rng(0).normal(size=shape) * 1e3
    assert_savetxt_bytes(out_path, array)
    assert_savetxt_bytes(out_path, array.astype(np.float32))


@pytest.mark.parametrize("value", NAMED)
def test_named_value(out_path, value):
    with np.errstate(over="ignore"):     # the largest double's upper neighbour is inf
        row = np.array([[value, -value, np.nextafter(value, 0), np.nextafter(value, np.inf)]])
    assert_savetxt_bytes(out_path, row)
    assert_savetxt_bytes(out_path, row.T)


def test_zeros_and_non_finite(out_path):
    row = np.array([[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0]])
    assert savetxt_bytes(row) == b"0,-0,nan,nan,inf,-inf,1\n"
    assert_savetxt_bytes(out_path, row)


def test_blocks_split_rows_and_leave_a_partial_block(out_path):
    rng = np.random.default_rng(1)
    array = rng.lognormal(0.0, 6.0, size=(53, 7)) * rng.choice([-1.0, 1.0], size=(53, 7))
    with mock.patch.object(_csvtext, "_BLOCK_VALUES", 64):
        assert_savetxt_bytes(out_path, array)
    # wider than a block: one row per block
    with mock.patch.object(_csvtext, "_BLOCK_VALUES", 4):
        assert_savetxt_bytes(out_path, array)


def test_spectrogram_sized_dump(out_path):
    """A dump of several default-size blocks, as a 3 s clip's spectrogram."""
    rng = np.random.default_rng(2)
    spec = np.abs(rng.normal(size=(298, 257)) * 10.0 ** rng.uniform(-7, 2, size=(298, 1)))
    assert spec.size > 2 * _csvtext._BLOCK_VALUES
    _csvtext.write_csv(out_path, spec)
    assert out_path.read_bytes() == savetxt_bytes(spec)
