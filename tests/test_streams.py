"""Keyed-stream reproducibility: the whole package rests on these."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginisim.streams import (
    BLOCK,
    TAG_INIT,
    TAG_STEP,
    block_uniforms,
    indexed_uniforms,
    uniforms_from_raw,
)


def test_block_uniforms_deterministic():
    a = block_uniforms(42, TAG_STEP, 3, 0, 1000)
    b = block_uniforms(42, TAG_STEP, 3, 0, 1000)
    np.testing.assert_array_equal(a, b)


def test_uniforms_strictly_inside_unit_interval():
    u = indexed_uniforms(1, TAG_STEP, 0, 100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    # mean of U(0,1) within 5 standard errors
    se = 1.0 / np.sqrt(12.0 * u.size)
    assert abs(u.mean() - 0.5) < 5.0 * se


def test_uniforms_from_raw_endpoints():
    # extreme raw words must stay strictly inside (0, 1): the top cell
    # must not round up to 1.0, or inverse CDFs would return inf
    raw = np.array([0, 2**64 - 1], dtype=np.uint64)
    u = uniforms_from_raw(raw)
    assert u[0] == 2.0**-53
    assert u[1] == 1.0 - 2.0**-53
    assert 0.0 < u[0] and u[1] < 1.0


def test_indexed_equals_per_block_concatenation():
    n = BLOCK + 904
    whole = indexed_uniforms(7, TAG_STEP, 5, n)
    first = block_uniforms(7, TAG_STEP, 5, 0, BLOCK)
    second = block_uniforms(7, TAG_STEP, 5, 1, n - BLOCK)
    np.testing.assert_array_equal(whole, np.concatenate([first, second]))


def test_key_components_separate_streams():
    base = block_uniforms(5, TAG_STEP, 2, 1, 256)
    assert not np.array_equal(base, block_uniforms(6, TAG_STEP, 2, 1, 256))
    assert not np.array_equal(base, block_uniforms(5, TAG_INIT, 2, 1, 256))
    assert not np.array_equal(base, block_uniforms(5, TAG_STEP, 3, 1, 256))
    assert not np.array_equal(base, block_uniforms(5, TAG_STEP, 2, 2, 256))


def test_block_index_range_checked():
    with pytest.raises(ValueError, match="outside keyable range"):
        block_uniforms(0, TAG_STEP, 0, 1 << 24, 8)
    with pytest.raises(ValueError, match="nonnegative"):
        block_uniforms(0, TAG_STEP, -1, 0, 8)
