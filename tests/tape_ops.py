"""Tape ops that only the tests use, each one node built on ``diffcore._node``.

The program's tape needs none of them: the fused GRU node applies its gates
in plain numpy. The per-step GRU oracle (``conftest._gru_cell``) and the
random primitive draws in ``test_diffcore`` need sigmoid, tanh, a difference
and scalar reductions, so these record nodes with hand-written backwards the
way ``diffcore``'s primitives do, and ``finite_diff_check`` sweeps them
through the same tape.
"""

import numpy as np

from shredkit import diffcore as dc


def sigmoid(a):
    out = 1.0 / (1.0 + np.exp(-a.data))
    return dc._node("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a):
    out = np.tanh(a.data)
    return dc._node("tanh", out, (a,), lambda g: (g * (1.0 - out * out),))


def sub(a, b):
    """``a - b``; either side may be a plain number or array."""
    a, b = dc._as_tensor(a), dc._as_tensor(b)
    dc._require_same_shape("sub", a, b)
    return dc._node("sub", a.data - b.data, (a, b),
                    lambda g: (dc._unbroadcast(g, a.shape), dc._unbroadcast(-g, b.shape)))


def total(a):
    """The sum of every entry, as a scalar node."""
    return dc._node("sum", np.asarray(a.data.sum()), (a,),
                    lambda g: (np.broadcast_to(g, a.shape).copy(),))


def mean(a):
    """The mean of every entry, as a scalar node."""
    n = a.size
    return dc._node("mean", np.asarray(a.data.mean()), (a,),
                    lambda g: (np.broadcast_to(g / n, a.shape).copy(),))
