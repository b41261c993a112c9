"""Derivation of independent random streams from a single experiment seed.

Every source of randomness in the simulator is a numpy Generator built from a
SeedSequence whose entropy is ``[seed, stream_tag, *path]``.  Streams derived
this way are independent of each other and of execution order, which is what
makes whole experiments bit-reproducible.
"""

import numpy as np

# Stream tags.  Keep these stable: changing one silently reseeds every
# experiment that uses the affected stream.
STREAM_MODEL_INIT = 1
STREAM_SELECTION = 2
# 3 was a metadata stream that nothing drew from; keep it unused.
STREAM_CLIENT_UPDATE = 4
STREAM_PARTITION = 5
STREAM_IMBALANCE = 6
STREAM_FIXTURE = 7


def derive_rng(seed: int, stream: int, *path: int) -> np.random.Generator:
    """Return a Generator for (seed, stream, *path), independent of call order."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, stream, *path]))
