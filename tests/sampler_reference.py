"""Reference oracle for the gradient sampler: the plain acceptance test and draws.

A gradient is accepted when ``np.linalg.det`` and ``np.linalg.cond`` pass it,
each generator keeps its own candidate loop, and a ``germ1`` cloud is drawn
one point after the other, exactly as matdist sampled before its condition
test was bounded and its cloud draws batched.  Tests compare the package's
sampler against it; nothing in the package uses it.
"""

import numpy as np

SAMPLER_BATCHES = 200


def accepted(Fs, sampler):
    """``|det F| >= det_min`` and ``cond_2(F) <= cond_max`` for each of ``Fs (n,3,3)``."""
    return ((np.abs(np.linalg.det(Fs)) >= sampler.det_min)
            & (np.linalg.cond(Fs) <= sampler.cond_max))


def sample_many(rngs, count, sampler):
    """``count`` accepted gradients from each generator: ``(len(rngs), count, 3, 3)``."""
    size = max(8, 2 * count)
    kept = [[] for _ in rngs]
    have = [0] * len(rngs)
    short = list(range(len(rngs)))
    for _ in range(SAMPLER_BATCHES):
        batch = np.stack([rngs[i].standard_normal((size, 3, 3)) for i in short])
        keep = accepted(batch.reshape(-1, 3, 3), sampler).reshape(len(short), size)
        still_short = []
        for j, i in enumerate(short):
            kept[i].append(batch[j][keep[j]])
            have[i] += int(keep[j].sum())
            if have[i] < count:
                still_short.append(i)
        short = still_short
        if not short:
            return np.stack([np.concatenate(parts)[:count] for parts in kept])
    raise RuntimeError("gradient sampler failed to find acceptable samples")


def sample_gradients(rng, count, sampler):
    return sample_many([rng], count, sampler)[0]


def cloud_draws(rng, points, count, sampler):
    """One :func:`sample_gradients` call per cloud point, in order: ``(points, count, 3, 3)``."""
    return np.stack([sample_gradients(rng, count, sampler) for _ in range(points)])


def install(monkeypatch, distribution):
    """Make ``distribution`` sample through this oracle for the rest of a test."""
    monkeypatch.setattr(distribution, "_accepted", accepted)
    monkeypatch.setattr(distribution, "_sample_many", sample_many)
    monkeypatch.setattr(distribution, "_cloud_draws", cloud_draws)
