"""Bit-for-bit comparison of arrays, shared by the test modules."""

import numpy as np


def same_bits(a, b) -> bool:
    """True when ``a`` and ``b`` have the same shape, dtype and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
