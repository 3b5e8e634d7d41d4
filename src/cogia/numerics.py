"""Deterministic dense linear-algebra kernel.

Null-space bases, orthogonal complements, zero-forcing columns, SVD
factorizations, minimum-norm right solves and the full-column-rank
predicate.  The package makes every rank decision at one threshold,
:data:`RANK_TOL`, and judges every residual that should vanish against
another, :data:`ZERO_TOL`.  Rank decisions on singular values go through
:func:`rank_under_policy`, and this is the only module that calls
``numpy.linalg.svd``.  Matrices are real float64 ``numpy.ndarray``
values; all functions are pure and return freshly allocated arrays.

Orthonormal factors follow one sign convention, applied by one routine:
the first nonzero entry of each column is made positive (for
``svd_factor`` the convention is applied to the left factor and each
right-factor column flips with its left-factor column).  This keeps
regression output byte-stable across reruns.

Stacked matrices
----------------
Every function takes one matrix ``(rows, cols)`` or a stack
``(..., rows, cols)`` whose leading axes are *lanes*: independent
problems solved together, one per channel draw.  One matrix is the
plain 2-D case of the same code.  Lane ``i`` of a stacked result equals,
bit for bit, the result for lane ``i`` alone: numpy's stacked
``linalg.svd`` and ``@`` work matrix by matrix, and :func:`lane_norm`
forms each lane's norm as the same dot product ``numpy.linalg.norm``
uses.

Rank decisions follow one rule: only a shape refuses, with
RankDeficient or NoComplement, which carry no lane mask.  Any rank loss
a shape allows is a measure-zero accident of the draw, in one lane or
all (one matrix included): DegenerateChannel, with a *lane mask* (a
boolean array over the leading axes) in its ``lanes`` attribute.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateChannel, NoComplement, RankDeficient

__all__ = [
    "RANK_TOL",
    "ZERO_TOL",
    "null_space_basis",
    "orth_complement_vector",
    "min_norm_right_solve",
    "zero_forcing_columns",
    "svd_factor",
    "rank_under_policy",
    "full_column_rank",
    "matrix_transpose",
    "lane_norm",
]


# singular values at or below RANK_TOL times the largest count as zero
RANK_TOL = 1e-9
# residuals that should vanish count as zero at or below ZERO_TOL
ZERO_TOL = 1e-9


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim < 2:
        raise ValueError(f"matrix must be 2-D or a stack of 2-D matrices, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")
    return A


def matrix_transpose(A: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack (a view)."""
    return A.swapaxes(-1, -2)


def lane_norm(x: np.ndarray, core_ndim: int = 2) -> np.ndarray:
    """2-norm of the entries of each lane's last ``core_ndim`` axes.

    Frobenius norm of each matrix (``core_ndim=2``) or norm of each vector
    (``core_ndim=1``), bit for bit ``numpy.linalg.norm`` of that lane alone:
    the square root of the dot product of its C-ordered entries.  One
    matrix (or vector) gives a scalar.
    """
    f = np.ascontiguousarray(x).reshape(x.shape[: x.ndim - core_ndim] + (-1,))
    return np.sqrt(f[..., None, :] @ f[..., :, None])[..., 0, 0]


def _fix_column_signs(B: np.ndarray) -> np.ndarray:
    """Flip columns in place so the first nonzero entry of each is positive."""
    first = np.argmax(B != 0.0, axis=-2)
    lead = np.take_along_axis(B, first[..., None, :], axis=-2)
    np.negative(B, out=B, where=lead < 0.0)
    return B


def rank_under_policy(s: np.ndarray) -> np.ndarray:
    """Numerical rank from nonincreasing singular values (last axis), per lane."""
    s = np.asarray(s)
    # ndarray.sum without its Python-level wrapper
    return np.add.reduce(s > RANK_TOL * s[..., :1], axis=-1)


def _common_rank(rank: np.ndarray) -> int:
    """The rank every lane shares; lanes below the best lane's are degenerate."""
    if rank.ndim == 0:
        return int(rank)
    top = int(rank.max())
    low = rank < top
    if low.any():
        raise DegenerateChannel(f"numerical rank falls below {top} in {np.count_nonzero(low)} lane(s)", lanes=low)
    return top


def full_column_rank(M: np.ndarray) -> np.ndarray:
    """Per lane: True when the columns of ``M`` are independent at RANK_TOL.

    A matrix with no columns has full column rank.
    """
    M = np.asarray(M)
    if M.shape[-1] == 0:
        return np.ones(M.shape[:-2], dtype=bool)
    return rank_under_policy(np.linalg.svd(M, compute_uv=False)) == M.shape[-1]


def null_space_basis(A) -> np.ndarray:
    """Orthonormal basis of the null space of ``A``.

    Returns an n x k matrix (k = nullity, possibly 0) with orthonormal
    columns annihilated by ``A``, per lane for a stack.  Columns are
    ordered by ascending associated singular value (directions with no
    singular value count as zero) and sign-fixed.  ``A`` may have zero
    rows, in which case the basis spans all of R^n.  Lanes of a stack
    must share the nullity: lanes of lower rank than the others raise
    DegenerateChannel.
    """
    A = _as_matrix(A)
    lead, (m, n) = A.shape[:-2], A.shape[-2:]
    if m == 0:
        return np.broadcast_to(np.eye(n), lead + (n, n)).copy()
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    rank = _common_rank(rank_under_policy(s))
    if rank == n:
        return np.zeros(lead + (n, 0))
    rows = vt[..., rank:, :]
    if s[..., rank:].any():
        # nonzero singular values below the tolerance come after the zeros
        sv = np.zeros(lead + (n,))
        sv[..., : s.shape[-1]] = s
        order = rank + np.argsort(sv[..., rank:], axis=-1, kind="stable")
        rows = np.take_along_axis(vt, order[..., :, None], axis=-2)
    return _fix_column_signs(matrix_transpose(rows).copy())


def orth_complement_vector(S) -> np.ndarray:
    """Unit vector orthogonal to every row of ``S`` (per lane for a stack).

    Deterministic: the first column of ``null_space_basis(S)``.  Raises
    NoComplement when the rows of ``S`` already span the full space.
    """
    B = null_space_basis(S)
    if B.shape[-1] == 0:
        m, n = np.shape(S)[-2:]
        raise NoComplement(f"rows of a {m}x{n} matrix leave no orthogonal direction")
    return B[..., :, 0].copy()


def min_norm_right_solve(A, b) -> np.ndarray:
    """Minimum-norm solution of ``A x = b`` for a fat full-row-rank ``A``.

    Equals ``A.T @ inv(A @ A.T) @ b``; computed through the SVD for
    stability.  ``b`` may be a vector or a matrix of stacked right-hand
    sides (with the lane axes of ``A`` in front).  Raises RankDeficient
    when ``A`` has more rows than columns, and DegenerateChannel with the
    mask of the lanes whose row rank at RANK_TOL is below the row count.
    """
    A = _as_matrix(A)
    b = np.asarray(b, dtype=float)
    m, n = A.shape[-2:]
    vector = b.ndim == A.ndim - 1
    rows = b.shape[-1] if vector else b.shape[-2]
    if rows != m:
        raise ValueError(f"rhs has leading dimension {rows}, expected {m}")
    if m > n:
        raise RankDeficient(f"matrix of shape {m}x{n} has row rank below {m}")
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    low = rank_under_policy(s) < m
    if low.any():
        raise DegenerateChannel(f"{m}x{n} matrix has row rank below {m} in {np.count_nonzero(low)} lane(s)", lanes=low)
    coeffs = matrix_transpose(u) @ (b[..., None] if vector else b)
    x = matrix_transpose(vt) @ (coeffs / s[..., :, None])
    return x[..., 0] if vector else x


def zero_forcing_columns(targets, avoid, name: str) -> np.ndarray:
    """Unit zero-forcing columns, one per row of ``targets`` (d x n).

    Column g is target row g projected onto the orthogonal complement of
    the other rows of ``B = [targets; avoid]`` (m x n), normalized.  It is
    column g of B's pseudo-inverse ``P`` (one thin SVD), refined once
    against its eps * cond(B) leak: ``X -= P @ R``, ``R = B @ X`` with
    each ``R[g, g]`` zeroed.  Per lane, a rank below the best lane's or a
    lost stream (``RANK_TOL * |t_g| * |x_g| >= 1``, or row g in the span
    of the other rows) raises DegenerateChannel, or NoComplement when
    those rows fill all n dimensions.  ``name`` names the user in messages.
    """
    B = _as_matrix(np.concatenate([targets, avoid], axis=-2))
    d, (m, n) = np.shape(targets)[-2], B.shape[-2:]
    if d == 0:
        return np.zeros(B.shape[:-2] + (n, 0))
    u, s, vt = np.linalg.svd(B, full_matrices=False)
    r = _common_rank(rank_under_policy(s))
    if r < m:
        # e_g partly outside the range of B: row g is in the span of the others
        spanned = 1.0 - np.add.reduce(np.square(u[..., :d, :r]), axis=-1) > RANK_TOL
        first = spanned.argmax()  # flat index of the first spanned stream, if any
        if r == n and spanned.flat[first]:
            raise NoComplement(f"avoid space for stream {first % d + 1} of {name} fills all {n} dimensions")
    P = matrix_transpose(vt[..., :r, :]) @ matrix_transpose(u[..., :r] / s[..., None, :r])
    R = B @ P[..., :d]
    # each R[g, g]: every (d+1)-th entry of R's first d rows, flattened
    R.reshape(R.shape[:-2] + (-1,))[..., : d * d : d + 1] = 0.0
    X = P[..., :d] - P @ R
    norms = lane_norm(matrix_transpose(X), 1)
    lost = RANK_TOL * lane_norm(B[..., :d, :], 1) * norms >= 1.0
    if r < m:
        lost |= spanned
    if lost.any():
        g = np.argmax(lost.reshape(-1, d).any(axis=0))
        raise DegenerateChannel(f"stream {g + 1} of {name} has no gain in its zero-forcing space", lanes=lost.any(-1))
    return X / norms[..., None, :]


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
    m = u.shape[-2]
    B = _fix_column_signs(np.concatenate([u, matrix_transpose(vt)], axis=-2))
    return B[..., :m, :], s, B[..., m:, :]
