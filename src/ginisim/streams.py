"""Counter-based random streams for reproducible parallel simulation.

Every random number consumed anywhere in the simulator is a pure function
of ``(master_seed, purpose_tag, step_index, block_index)``.  Agents are
grouped into fixed-size blocks and each block gets its own Philox key,
so any partition of a population update into blocks gives bit-identical
output.  `indexed_uniforms` keeps one Philox per thread and re-keys it
for every block (counter 0, empty buffer), which yields exactly the
words of a fresh generator under that block's key: the keys and the
contract are those of one generator per block, and no generator is
constructed per call.  One call, such as one lane of `dynamics.step`, fills
its blocks serially: a pool per block cost more than the fill it spread.

The uniform variates produced here are strictly inside (0, 1), which lets
callers push them through inverse CDFs without guarding against log(0).
"""

from __future__ import annotations

import threading

import numpy as np

_MASK64 = (1 << 64) - 1

# Agents i in [k*BLOCK, (k+1)*BLOCK) share the Philox key of block k.
# This constant is part of the reproducibility contract: changing it
# silently changes every trajectory, so don't.
BLOCK = 4096

# Purpose tags keep independent uses of randomness on disjoint keys even
# when they share a step index.  Each tag has one owner, which draws
# under the run's own master seed unless noted:
TAG_STEP = 0         # dynamics: transition draws, sequence = time step
TAG_INIT = 1         # dynamics: random initial conditions, sequence 0
TAG_PROBE = 2        # verify-bounds: its leak estimate, always at seed 0,
                     # sequence 0
TAG_CALIBRATION = 3  # Gamma's calibration, for every run and verify-integrals:
                     # sequence 0 transitions, 1 input mass, 2 output mass
TAG_PAIRS = 4        # ensemble gap: pair indices i (0) and j (1)
TAG_TRIALS = 5       # extremal minimality: sequence i for trial i

_TAG_BITS = 56
_STEP_BITS = 24

_ZEROS4 = np.zeros(4, dtype=np.uint64)  # Philox counter and buffer at rest
_ZEROS4.flags.writeable = False

_local = threading.local()  # .philox: this thread's generator, re-keyed per block


def _key(master_seed: int, tag: int, step: int, block: int) -> np.ndarray:
    """The Philox key of one block of one (seed, tag, step) stream.

    Each field must fit its bits of the key: a value outside its range
    would alias a stream inside it, so it is rejected, never masked.
    """
    if block < 0 or block >= (1 << _STEP_BITS):
        raise ValueError(f"block index {block} outside keyable range")
    if not 0 <= step < (1 << (_TAG_BITS - _STEP_BITS)):
        raise ValueError(f"step index {step} must be nonnegative and below 2**32")
    if not 0 <= tag < (1 << (64 - _TAG_BITS)):
        raise ValueError(f"tag {tag} must be nonnegative and below 256")
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master_seed {master_seed} must be nonnegative and below 2**64")
    lane = (tag << _TAG_BITS) | (step << _STEP_BITS) | block
    return np.array([master_seed, lane], dtype=np.uint64)


def uniforms_from_raw(raw: np.ndarray) -> np.ndarray:
    """Map raw uint64 words to uniforms in place; returns the float64 view.

    ``raw`` is consumed: its buffer holds the result.
    """
    # 52-bit lattice shifted by half a cell: every value (k + 0.5) * 2^-52
    # is exactly representable, so the result lies in [2^-53, 1 - 2^-53]
    # and never touches 0 or 1.  (The 53-bit variant rounds its top cell
    # up to exactly 1.0, which would poison inverse-CDF sampling.)  The
    # exponent bits of 1.0 make the view 1 + k*2^-52, from which
    # subtracting 1 - 2^-53 is exact (Sterbenz).
    raw >>= np.uint64(12)
    raw |= np.uint64(0x3FF0000000000000)
    u = raw.view(np.float64)
    u -= 1.0 - 2.0**-53
    return u


def block_uniforms(master_seed: int, tag: int, step: int, block: int, n: int) -> np.ndarray:
    """Uniform(0,1) draws for one block, independent of all other blocks.

    Builds a fresh generator under the block's key: the reference that
    `indexed_uniforms`' re-keyed generator must match.
    """
    bg = np.random.Philox(key=_key(master_seed, tag, step, block))
    return uniforms_from_raw(bg.random_raw(n))


def indexed_uniforms(master_seed: int, tag: int, step: int, n: int,
                     first_block: int = 0) -> np.ndarray:
    """One uniform per index first_block*BLOCK + 0..n-1, from per-block streams.

    ``step`` is the time step for simulation draws and the sequence index
    for diagnostics, which may consume several independent batches.
    ``first_block`` lets a lane of a step draw its own blocks only.
    """
    raw = np.empty(n, dtype=np.uint64)
    bg = getattr(_local, "philox", None)
    if bg is None:
        bg = _local.philox = np.random.Philox(0)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        key = _key(master_seed, tag, step, first_block + lo // BLOCK)
        # the state of a fresh np.random.Philox(key=key)
        bg.state = {"bit_generator": "Philox", "state": {"counter": _ZEROS4, "key": key},
                    "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        raw[lo:hi] = bg.random_raw(hi - lo)
    return uniforms_from_raw(raw)
