"""Reference oracle for the material-frame admissibility block.

A model's block at a jet ``(X, F)`` is ``(dim, 12)``: ``dW/dX``, then the
derivative of ``W`` along ``F -> F (I + t E_ab)``.  This module builds it
the way matdist did before models returned it: from the pair
``(dW/dX (m,dim,3), dW/dF (m,dim,9))``, contracting ``dW/dF`` with ``F``.
The pairs are the old closed forms of the built-in models.  Tests compare
the package's blocks against it; nothing in the package uses it.
"""

import numpy as np

from matdist.response import builtin


def contract(dWdX, dWdF, Fs):
    """The block from a pair: ``(m, dim, 12)``, with ``sum_j dW/dF_jb F_ja`` at ``3 + 3a + b``."""
    m, d = dWdX.shape[:2]
    BP = np.einsum("kcji,kjl->kcli", dWdF.reshape(m, d, 3, 3), Fs)
    return np.concatenate([dWdX, BP.reshape(m, d, 9)], axis=2)


def example1_pair(model, Xs, Fs):
    impl = model.aux["impl"]
    m = len(Fs)
    f = impl.stiffness(Xs[:, 0])
    fp = impl.stiffness_rate(Xs[:, 0])
    C = np.einsum("kji,kjl->kil", Fs, Fs)
    dWdX = np.zeros((m, 9, 3))
    dWdX[:, :, 0] = fp[:, None] * (C - np.eye(3)).reshape(m, 9)
    eye = np.eye(3)
    t1 = np.einsum("jm,kli->kjilm", eye, Fs)
    t2 = np.einsum("im,klj->kjilm", eye, Fs)
    return dWdX, f[:, None, None] * (t1 + t2).reshape(m, 9, 9)


def _cofactors(Fs):
    return np.linalg.det(Fs)[:, None, None] * np.linalg.inv(Fs).transpose(0, 2, 1)


def example2_pair(model, Xs, Fs):
    core = model.aux["core"]
    m = len(Fs)
    e = core.director(Xs)
    Gu = core.gdiag * np.einsum("kij,kj->ki", Fs, e)
    dWdX = np.zeros((m, 2, 3))
    dWdX[:, 0] = 2.0 * np.einsum("kji,kj->ki", Fs, Gu) + 2.0 * Xs
    dWdF = np.empty((m, 2, 9))
    dWdF[:, 0] = 2.0 * np.einsum("ki,kj->kij", Gu, e).reshape(m, 9)
    dWdF[:, 1] = _cofactors(Fs).reshape(m, 9)
    return dWdX, dWdF


def det_cal_pair(model, Xs, Fs):
    m = len(Fs)
    return np.zeros((m, 1, 3)), _cofactors(Fs).reshape(m, 1, 9)


def identity_cal_pair(model, Xs, Fs):
    m = len(Fs)
    return np.zeros((m, 9, 3)), np.broadcast_to(np.eye(9), (m, 9, 9)).copy()


PAIRS = {"example1": example1_pair, "example2": example2_pair, "det_cal": det_cal_pair,
         "identity_cal": identity_cal_pair}


def block(model, Xs, Fs):
    """The reference block ``(m, dim, 12)`` at lanes ``Xs (m,3)``, ``Fs (m,3,3)``.

    A built-in takes the old closed form of its name.  The shipped ``.mdl``
    sources carry the built-ins' names and responses, so a parsed one takes
    the built-in's.
    """
    Xs = np.asarray(Xs, dtype=float)
    Fs = np.asarray(Fs, dtype=float)
    source = builtin(model.name) if "model_def" in model.aux else model
    return contract(*PAIRS[model.name](source, Xs, Fs), Fs)
