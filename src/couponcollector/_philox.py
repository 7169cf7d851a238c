"""Counter-based Philox4x64-10 random streams, one per trial.

The simulation's randomness contract (documented constants; changing any
of them is a breaking change):

- Generator: Philox4x64 with 10 rounds, ``numpy.random.Philox``.
- Key: ``(seed, 0)`` where ``seed`` is the user's 64-bit seed.
- Stream for trial ``t``: the word sequence emitted by
  ``numpy.random.Philox(key=seed, counter=[0, 0, t, 0])``.
- Word j of a stream becomes a uniform double via
  ``(word >> 11) * 2.0**-53`` (numpy's standard conversion).
- A group draw of d uniforms consumes stream positions
  ``[draw_index * d, (draw_index + 1) * d)``.

The uniforms come from numpy's own C Philox and ``Generator.random``,
which applies that conversion. A stream is addressed by its counter, so
any span of any trial's stream is read without generating what precedes it.
"""

import numpy as np


def uniform_span(seed: int, trials: np.ndarray, first: int, count: int) -> np.ndarray:
    """Uniform doubles at stream positions [first, first + count) per trial.

    numpy's Philox increments its counter before producing a block, so a
    generator set to counter (b, 0, t, 0) next emits block b of trial t's
    stream. One generator is pointed at each trial in turn and fills that
    trial's row from the start of the block holding position ``first``.
    Returns shape (len(trials), count).
    """
    first_block = first >> 2
    offset = first - 4 * first_block
    ids = np.asarray(trials, dtype=np.uint64).tolist()
    rows = np.empty((len(ids), offset + count))
    bit_gen = np.random.Philox(key=seed)
    generator = np.random.Generator(bit_gen)
    counter = [first_block, 0, 0, 0]
    # numpy's documented state layout; the setter runs once per trial and
    # reads plain lists faster than the arrays ``bit_gen.state`` returns
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": [seed, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for row, trial in zip(rows, ids):
        counter[2] = trial
        bit_gen.state = state
        generator.random(out=row)
    return rows[:, offset:]
