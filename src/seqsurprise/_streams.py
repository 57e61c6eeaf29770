"""The seeded random streams behind every draw: the lottery's bulletins,
picks and Monte-Carlo estimate, and the sampling expectation template.

Only :func:`generator` imports numpy, so a module that merely validates a
seed can import this one without loading it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .costmodel import _check_int

if TYPE_CHECKING:
    import numpy as np


def check_seed(seed: int) -> None:
    # numpy's SeedSequence rejects a negative entropy without naming it
    _check_int(seed, "seed", 0)


def generator(seed: int, *spawn_key: int) -> np.random.Generator:
    """PCG64 seeded by ``seed`` and ``spawn_key``.

    A lottery subject's stream has the key ``(subject,)``; without a key
    this is the stream of ``SeedSequence(seed)``.
    """
    check_seed(seed)
    import numpy as np
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(seed, spawn_key=spawn_key)))
