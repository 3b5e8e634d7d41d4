"""Bit-for-bit comparison of arrays, shared by the test modules."""

import numpy as np


def same_bits(a, b) -> bool:
    """True when ``a`` and ``b`` have the same shape, dtype and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


# the numpy build every bit pin was recorded on
PINNED_ON = "numpy 2.4.6 / OpenBLAS 0.3.31"


def build_note() -> str:
    """The numpy and BLAS/LAPACK build running now, beside the one the pins were recorded on.

    A DYNAMIC_ARCH OpenBLAS picks its kernels for the CPU it runs on, so the
    same wheel can move bits from one machine to another.
    """
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    libs = "; ".join(
        f"{lib}: {deps[lib].get('name')} {deps[lib].get('version')} ({deps[lib].get('openblas configuration', 'no configuration')})"
        for lib in ("blas", "lapack")
        if lib in deps
    )
    return f"digest mismatch on numpy {np.__version__}, {libs}; the pins were recorded on {PINNED_ON}"
