"""Keyed-stream reproducibility: the whole package rests on these."""

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ginisim.streams import (
    BLOCK,
    TAG_INIT,
    TAG_STEP,
    TAG_TRIALS,
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
    # the in-place conversion equals the allocating formula word for word,
    # on the edge words and on random ones
    edges = np.array([0, 1, 2**12 - 1, 2**12, 2**63, 2**64 - 1], dtype=np.uint64)
    words = np.concatenate([edges, np.random.default_rng(3).integers(
        0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)])
    expected = ((words >> np.uint64(12)) + 0.5) * 2.0**-52
    assert uniforms_from_raw(words.copy()).tobytes() == expected.tobytes()


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


# Each of these was once masked into range and aliased an in-range key:
# seed 2**64 drew seed 0's uniforms, seed -1 those of 2**64 - 1, step
# 2**32 those of step 0 and tag 256 those of tag 0.
@pytest.mark.parametrize("seed, tag, step, field", [
    (2**64, TAG_STEP, 0, "master_seed"),
    (-1, TAG_STEP, 0, "master_seed"),
    (0, 256, 0, "tag"),
    (0, TAG_STEP, 2**32, "step index"),
], ids=["seed-2**64", "seed-minus-1", "tag-256", "step-2**32"])
def test_out_of_range_key_fields_are_rejected(seed, tag, step, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        indexed_uniforms(seed, tag, step, 5)
    with pytest.raises(ValueError, match=f"^{field} "):
        block_uniforms(seed, tag, step, 0, 5)


def test_key_field_range_ends_are_keyable():
    top = indexed_uniforms(2**64 - 1, 255, 2**32 - 1, 5)
    assert top.shape == (5,) and 0.0 < top.min() and top.max() < 1.0
    assert not np.array_equal(top, indexed_uniforms(0, 0, 0, 5))


# sha256 of indexed_uniforms(seed, tag, step, n).tobytes(), recorded from
# the one-generator-per-block implementation; any change to the keys, the
# block layout or the lattice shows up here.
GOLDEN_UNIFORMS = {
    (42, TAG_STEP, 7): [
        "3b5cab3ef1f84d8587423eb78049a91efde397b797d4123f5de7772ed9f2bae9",
        "0d4e896d72b2973d1533544f7aca6f0d7e2bf6cf36a0726b3f4025bb44f1da0d",
        "efb74803e0528edee946d51a6ebcac2c1deb085281e4ae5a78159257a18b72a0",
        "4b1ef374cf95136d8f5876c3d02a5b6e4825bdcd7dbdacf83dcf4a48f2f1cf0d",
        "f0f6b95197470a3268cce2a4fab27490c85b3adf008637e759d5352ed31557a0",
    ],
    (2**64 - 1, TAG_TRIALS, 12345): [
        "fd6b1cae4e6d018e4ed8d06bfba1606151c34d0a99325fd84e2248893816183f",
        "22022d090ba44bdd9934d6b6b6e8586ff2969ebd4ee07daf5d3848ef88508212",
        "fde030da026814beab977714edf0229d6ad21d93805c7acb97fceb0250bda0a6",
        "9c8c5db4f0db7e51831b6870bdb928f2f5c7bef6c614d72bd945104e69cbf900",
        "f6e8b45d21d5541206d6e28051e062863ff49344cb969f9a4cd0a33809ae4b57",
    ],
}


@pytest.mark.parametrize("key", sorted(GOLDEN_UNIFORMS))
def test_indexed_uniforms_golden_bytes(key):
    sizes = (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17)
    got = [hashlib.sha256(indexed_uniforms(*key, n).tobytes()).hexdigest() for n in sizes]
    assert got == GOLDEN_UNIFORMS[key]


def test_first_block_offset_draws_the_tail_of_the_whole():
    # a lane that starts at block b draws the whole draw's agents from b*BLOCK on
    n = 5 * BLOCK + 3
    whole = indexed_uniforms(11, TAG_STEP, 2, n)
    for b in (1, 2, 5):
        tail = indexed_uniforms(11, TAG_STEP, 2, n - b * BLOCK, first_block=b)
        assert tail.tobytes() == whole[b * BLOCK:].tobytes()


def test_rekeyed_generator_matches_fresh_blocks():
    # every block of a long draw equals a freshly keyed generator's block
    n = 5 * BLOCK + 3
    whole = indexed_uniforms(11, TAG_STEP, 2, n)
    for b, lo in enumerate(range(0, n, BLOCK)):
        hi = min(lo + BLOCK, n)
        np.testing.assert_array_equal(whole[lo:hi], block_uniforms(11, TAG_STEP, 2, b, hi - lo))


def _draws(seed):
    return [indexed_uniforms(seed, TAG_STEP, t, 3 * BLOCK + 17).tobytes() for t in range(40)]


def test_concurrent_threads_draw_the_serial_bytes():
    # each thread re-keys its own generator: two threads drawing at once
    # must not disturb each other's streams
    serial = {seed: _draws(seed) for seed in (1, 2)}
    got = {}
    start = threading.Barrier(2)

    def work(seed):
        start.wait()
        got[seed] = _draws(seed)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in (1, 2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert got == serial


def test_no_generator_is_constructed_per_call(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    counts = []

    def work():  # a fresh thread: its first call builds its generator
        for n in (5, 3 * BLOCK + 1):
            before = len(built)
            indexed_uniforms(9, TAG_STEP, 0, n)
            counts.append(len(built) - before)

    th = threading.Thread(target=work)
    th.start()
    th.join()
    assert counts == [1, 0]
