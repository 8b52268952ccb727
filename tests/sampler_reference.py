"""Reference oracle for the gradient sampler: the plain acceptance test and draws.

A gradient is accepted when ``np.linalg.det`` and ``np.linalg.cond``, both
computed on every draw, pass it, and a generator keeps its own candidate
loop.  Tests compare the package's sampler and its gradient pool against it;
nothing in the package uses it.
"""

import numpy as np

SAMPLER_BATCHES = 200


def accepted(Fs, sampler):
    """``|det F| >= det_min`` and ``cond_2(F) <= cond_max`` for each of ``Fs (n,3,3)``."""
    return ((np.abs(np.linalg.det(Fs)) >= sampler.det_min)
            & (np.linalg.cond(Fs) <= sampler.cond_max))


def sample_gradients(rng, count, sampler):
    """``count`` accepted gradients from one generator, in draw order: ``(count, 3, 3)``."""
    size = max(8, 2 * count)
    kept = []
    for _ in range(SAMPLER_BATCHES):
        batch = rng.standard_normal((size, 3, 3))
        kept.extend(batch[accepted(batch, sampler)])
        if len(kept) >= count:
            return np.stack(kept[:count])
    raise RuntimeError("gradient sampler failed to find acceptable samples")
