"""Bit-for-bit comparison of arrays, the references the tests hold the package to, and the rate layer's spies."""

import ctypes
from pathlib import Path

import numpy as np

import cogia.rates


def same_bits(a, b) -> bool:
    """True when ``a`` and ``b`` have the same shape, dtype and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def spy_on_solves(monkeypatch) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Record the budget rows and the lane axes of each rate solve (``cogia.rates._solve``), which still runs."""
    calls = []
    real = cogia.rates._solve

    def spy(cells, rows, lanes):
        calls.append((rows, lanes))
        return real(cells, rows, lanes)

    monkeypatch.setattr(cogia.rates, "_solve", spy)
    return calls


def spy_on_assemblies(monkeypatch) -> list[int]:
    """Record the cell count of each allocation assembly (``cogia.rates._allocations``), which still runs."""
    calls = []
    real = cogia.rates._allocations
    monkeypatch.setattr(cogia.rates, "_allocations", lambda cells, solved: calls.append(len(cells)) or real(cells, solved))
    return calls


def fresh_philox(seed: int, stream: int) -> np.random.Generator:
    """A generator on a newly constructed ``Philox(key=(seed, stream))``: the stream layout's reference."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def policy_rank(s: np.ndarray, tol: float) -> np.ndarray:
    """Numerical rank per lane: the count of singular values (last axis) above ``tol`` times the largest."""
    s = np.asarray(s)
    return np.count_nonzero(s > tol * s.max(axis=-1, initial=0.0)[..., None], axis=-1)


# the numpy build and kernels every bit pin was recorded on
PINNED_ON = "numpy 2.4.6 / OpenBLAS 0.3.31, core SkylakeX, log1p dispatch X86_V4"


def openblas_core() -> str:
    """The core whose kernels the bundled OpenBLAS runs, or ``unknown``.

    The build string names only the DYNAMIC_ARCH build target; the running
    core is picked at load time from the CPU (or ``OPENBLAS_CORETYPE``).
    """
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def log1p_dispatch() -> str:
    """The SIMD target numpy's float64 ``log1p`` loop runs on, or ``unknown`` before numpy 2.1."""
    try:
        (info,) = np.lib.introspect.opt_func_info("log1p", "float64")["log1p"].values()
    except AttributeError:
        return "unknown"
    return info["current"]


def build_note() -> str:
    """The numpy and BLAS/LAPACK build and kernels running now, beside the build the pins were recorded on.

    A DYNAMIC_ARCH OpenBLAS picks its kernels for the CPU it runs on, and
    numpy dispatches its loops the same way, so the same wheel can move
    bits from one machine to another.
    """
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    libs = "; ".join(
        f"{lib}: {deps[lib].get('name')} {deps[lib].get('version')} ({deps[lib].get('openblas configuration', 'no configuration')})"
        for lib in ("blas", "lapack")
        if lib in deps
    )
    return (
        f"digest mismatch on numpy {np.__version__}, {libs}; running OpenBLAS core {openblas_core()}, "
        f"numpy log1p dispatch {log1p_dispatch()}; the pins were recorded on {PINNED_ON}"
    )
