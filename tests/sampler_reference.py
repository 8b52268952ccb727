"""Reference oracle for the gradient sampler: the plain acceptance test and draws.

A gradient is accepted when ``np.linalg.det`` and ``np.linalg.cond`` pass it,
each generator keeps its own candidate loop, and the points of a cloud are
drawn one after the other, exactly as matdist sampled before its condition
test was bounded and its draws batched.  Tests compare the package's
sampler against it; nothing in the package uses it.
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


def draws(rngs, points, count, sampler):
    """One :func:`sample_gradients` call per point, point after point, generator after
    generator: ``(len(rngs), points, count, 3, 3)``."""
    return np.stack([[sample_gradients(rng, count, sampler) for _ in range(points)]
                     for rng in rngs])


def install(monkeypatch, distribution):
    """Make ``distribution`` sample through this oracle for the rest of a test."""
    monkeypatch.setattr(distribution, "_accepted", accepted)
    monkeypatch.setattr(distribution, "sample_gradients", sample_gradients)
    monkeypatch.setattr(distribution, "_draws", lambda rngs, points, counts, sampler: [
        draws(rngs, points, count, sampler) for count in counts])
