"""Deterministic dense linear-algebra kernel.

Null-space bases, orthogonal complements, SVD factorizations,
minimum-norm right solves and the full-column-rank predicate, all
sharing a single rank-tolerance policy: every rank decision in the
package goes through :func:`rank_under_policy`, and this is the only
module that calls ``numpy.linalg.svd``.  Matrices are plain real float64
``numpy.ndarray`` values; all functions are pure and return freshly
allocated arrays.

Orthonormal factors follow one sign convention, applied by one routine:
the first nonzero entry of each column is made positive (for
``svd_factor`` the convention is applied to the left factor and each
right-factor column flips with its left-factor column).  This keeps
regression output byte-stable across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoComplement, RankDeficient

__all__ = [
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "null_space_basis",
    "orth_complement_vector",
    "min_norm_right_solve",
    "svd_factor",
    "rank_under_policy",
    "full_column_rank",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Shared numerical thresholds.

    rank_tol: singular values below ``rank_tol * largest`` count as zero.
    zero_tol: absolute threshold for residuals that should vanish.
    """

    rank_tol: float = 1e-9
    zero_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not 0.0 < self.rank_tol < 1.0:
            raise ValueError(f"rank_tol must lie in (0, 1), got {self.rank_tol}")
        if not 0.0 < self.zero_tol < 1.0:
            raise ValueError(f"zero_tol must lie in (0, 1), got {self.zero_tol}")


DEFAULT_POLICY = TolerancePolicy()


def _as_matrix(A, name: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _fix_column_signs(B: np.ndarray) -> np.ndarray:
    """Flip columns so the first nonzero entry of each is positive."""
    for j in range(B.shape[1]):
        col = B[:, j]
        nz = np.flatnonzero(col)
        if nz.size and col[nz[0]] < 0.0:
            B[:, j] = -col
    return B


def rank_under_policy(s: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Numerical rank from a nonincreasing singular-value vector."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > pol.rank_tol * s[0]))


def full_column_rank(M: np.ndarray, pol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True when the columns of ``M`` are independent under the policy.

    A matrix with no columns has full column rank.
    """
    if M.shape[1] == 0:
        return True
    return rank_under_policy(np.linalg.svd(M, compute_uv=False), pol) == M.shape[1]


def null_space_basis(A, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Orthonormal basis of the null space of ``A``.

    Returns an n x k matrix (k = nullity, possibly 0) with orthonormal
    columns annihilated by ``A``.  Columns are ordered by ascending
    associated singular value (directions with no singular value count as
    zero) and sign-fixed.  ``A`` may have zero rows, in which case the
    basis spans all of R^n.
    """
    A = _as_matrix(A)
    m, n = A.shape
    if m == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    rank = rank_under_policy(s, pol)
    if rank == n:
        return np.zeros((n, 0))
    sv = np.zeros(n)
    sv[: s.size] = s
    null_idx = np.arange(rank, n)
    order = null_idx[np.argsort(sv[null_idx], kind="stable")]
    return _fix_column_signs(vt[order].T.copy())


def orth_complement_vector(S, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Unit vector orthogonal to every row of ``S``.

    Deterministic: the first column of ``null_space_basis(S)``.  Raises
    NoComplement when the rows of ``S`` already span the full space.
    """
    B = null_space_basis(S, pol)
    if B.shape[1] == 0:
        S = np.asarray(S)
        raise NoComplement(
            f"rows of a {S.shape[0]}x{S.shape[1]} matrix leave no orthogonal direction"
        )
    return B[:, 0].copy()


def min_norm_right_solve(A, b, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Minimum-norm solution of ``A x = b`` for a fat full-row-rank ``A``.

    Equals ``A.T @ inv(A @ A.T) @ b``; computed through the SVD for
    stability.  ``b`` may be a vector or a matrix of stacked right-hand
    sides.  Raises RankDeficient when the row rank of ``A`` is below its
    row count under the policy.
    """
    A = _as_matrix(A)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if b.shape[0] != m:
        raise ValueError(f"rhs has leading dimension {b.shape[0]}, expected {m}")
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    if m > n or rank_under_policy(s, pol) < m:
        raise RankDeficient(f"matrix of shape {m}x{n} has row rank below {m}")
    coeffs = u.T @ b
    if b.ndim == 1:
        return vt.T @ (coeffs / s)
    return vt.T @ (coeffs / s[:, None])


def svd_factor(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``A = Phi @ diag(gamma) @ Psi.T`` with fixed signs.

    gamma is nonincreasing and nonnegative; Phi and Psi have orthonormal
    columns.  The sign convention (first nonzero entry positive) is
    applied to the columns of Phi, with the matching Psi column flipped to
    preserve the product.
    """
    A = _as_matrix(A)
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    # Phi columns are unit vectors, so the first nonzero entry of each
    # stacked column lies in Phi and the Psi column flips with it
    B = _fix_column_signs(np.vstack([u, vt.T]))
    return B[: u.shape[0]], s, B[u.shape[0] :]
