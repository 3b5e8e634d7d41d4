"""Deterministic dense linear-algebra kernel.

Null-space bases, orthogonal complements, zero-forcing columns, SVD
factorizations, minimum-norm right solves and the full-column-rank
predicate.  The package makes every rank decision at one threshold,
:data:`RANK_TOL`, and judges every residual that should vanish against
another, :data:`ZERO_TOL`.  A matrix's rank counts its singular values
above RANK_TOL times the largest; they are nonincreasing, so it has
every rank their count allows exactly when the last is above RANK_TOL
times the first, the one comparison each kernel and
``full_column_rank`` make.  This is the only module that calls
``numpy.linalg.svd``.  Matrices are real float64 ``numpy.ndarray``
values; all functions are pure and return freshly allocated arrays.

Null-space bases follow one sign convention: the first nonzero entry of
each column is made positive.  Row k of the column's signs weighs 2^-k,
more than all later rows together, so the weighted sum has the sign of
the first nonzero entry.  This keeps regression output byte-stable
across reruns.  ``svd_factor`` returns LAPACK's factors unchanged: no
output reads the sign of one of its columns.

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
    "full_column_rank",
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
    # ndarray.all without its Python-level wrapper
    if not np.logical_and.reduce(np.isfinite(A), axis=None):
        raise ValueError("matrix contains non-finite entries")
    return A


def lane_norm(x: np.ndarray, core_ndim: int = 2) -> np.ndarray:
    """2-norm of the entries of each lane's last ``core_ndim`` axes.

    Frobenius norm of each matrix (``core_ndim=2``) or norm of each vector
    (``core_ndim=1``), bit for bit ``numpy.linalg.norm`` of that lane alone:
    the square root of the dot product of its C-ordered entries.  One
    matrix (or vector) gives a scalar.
    """
    f = np.ascontiguousarray(x).reshape(x.shape[: x.ndim - core_ndim] + (-1,))
    return np.sqrt(np.vecdot(f, f))


# 2^-k for rows k < 53: any sum of +-2^-k over them is exact in float64
_LEAD_WEIGHTS = np.ldexp(1.0, -np.arange(53))


def _fix_column_signs(B: np.ndarray) -> np.ndarray:
    """Flip columns in place so the first nonzero entry of each is positive (module docstring)."""
    S, k = np.sign(B), len(_LEAD_WEIGHTS)
    lead = _LEAD_WEIGHTS[: B.shape[-2]] @ S[..., :k, :]
    for start in range(k, B.shape[-2], k):
        block = S[..., start : start + k, :]
        lead = np.where(lead == 0.0, _LEAD_WEIGHTS[: block.shape[-2]] @ block, lead)
    np.negative(B, out=B, where=(lead < 0.0)[..., None, :])
    return B


def _rank_lost(s: np.ndarray) -> np.ndarray:
    """Per lane: fewer than ``s.shape[-1]`` of ``s`` exceed RANK_TOL times the first; one matrix gives numpy scalars."""
    return (s.T[-1] <= RANK_TOL * s.T[0]).T


def _require_rank(s: np.ndarray, what: str) -> None:
    """Raise DegenerateChannel for the lanes, each judged alone, whose rank is below ``len(s) = min(m, n)``."""
    if s.shape[-1]:
        low = _rank_lost(s)
        # one matrix's mask is a numpy bool, tested without a reduction
        if low if low.ndim == 0 else low.any():
            raise DegenerateChannel(f"{what} below {s.shape[-1]} in {np.count_nonzero(low)} lane(s)", lanes=low)


def full_column_rank(M: np.ndarray) -> np.ndarray:
    """Per lane: True when the columns of ``M`` are independent at RANK_TOL (no columns are; more than rows are not)."""
    M = np.asarray(M)
    m, n = M.shape[-2:]
    if n == 0 or n > m:
        return np.full(M.shape[:-2], n == 0)
    return ~_rank_lost(np.linalg.svd(M, compute_uv=False))


def _zero_diagonal(M: np.ndarray) -> np.ndarray:
    """Zero each lane's diagonal in place through a flat reshape, a view since callers pass fresh C-ordered arrays."""
    rows, cols = M.shape[-2:]
    M.reshape(M.shape[:-2] + (rows * cols,))[..., : min(rows, cols) * (cols + 1) : cols + 1] = 0.0
    return M


def null_space_basis(A) -> np.ndarray:
    """Orthonormal basis of the null space of ``A``.

    Returns an n x k matrix (k = nullity, possibly 0) with orthonormal
    columns annihilated by ``A``, per lane for a stack.  Columns are
    the right singular vectors beyond the first ``min(m, n)``, in order,
    sign-fixed: k = n - min(m, n).  ``A`` may have zero rows, in which
    case the basis spans all of R^n.  A lane whose rank at RANK_TOL falls
    below ``min(m, n)``, the rank its shape allows, raises
    DegenerateChannel with the mask of those lanes.
    """
    A = _as_matrix(A)
    m, n = A.shape[-2:]
    # with no rows, vt is the identity: the basis spans all of R^n
    _, s, vt = np.linalg.svd(A, full_matrices=True)
    _require_rank(s, f"{m}x{n} matrix has rank")
    return _fix_column_signs(vt[..., min(m, n) :, :].mT.copy())


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
    _require_rank(s, f"{m}x{n} matrix has row rank")
    coeffs = u.mT @ (b[..., None] if vector else b)
    x = vt.mT @ (coeffs / s[..., :, None])
    return x[..., 0] if vector else x


def zero_forcing_columns(targets, avoid, name: str) -> np.ndarray:
    """Unit zero-forcing columns, one per row of ``targets`` (d x n).

    Column g is target row g projected onto the orthogonal complement of
    the other rows of ``B = [targets; avoid]`` (m x n), normalized.  It is
    column g of B's pseudo-inverse ``P`` (one thin SVD), refined once
    against its eps * cond(B) leak: ``X -= P @ R``, ``R = B @ X`` with
    each ``R[g, g]`` zeroed.  A lane whose rank falls below ``min(m, n)``,
    the rank its shape allows, raises DegenerateChannel with the mask of
    those lanes.  No stream of a lane that passes loses its gain: ``|t_g|
    <= s_max`` and ``|x_g|`` is at most about ``1 / s_min``, so the rank
    rule ``s_min > RANK_TOL * s_max`` keeps ``RANK_TOL * |t_g| * |x_g|`` below 1.
    When ``m > n`` and a target row lies in the span of the other rows,
    which then fill all n dimensions, it raises NoComplement.  ``name``
    names the user in messages.
    """
    B = _as_matrix(np.concatenate([targets, avoid], axis=-2))
    d, (m, n) = np.asarray(targets).shape[-2], B.shape[-2:]
    if d == 0:
        return np.zeros(B.shape[:-2] + (n, 0))
    u, s, vt = np.linalg.svd(B, full_matrices=False)
    _require_rank(s, f"zero-forcing rows of {name} have rank")
    if n < m:
        # e_g partly outside the range of B: row g is in the span of the others
        spanned = 1.0 - np.add.reduce(np.square(u[..., :d, :]), axis=-1) > RANK_TOL
        first = spanned.argmax()  # flat index of the first spanned stream, if any
        if spanned.flat[first]:
            raise NoComplement(f"avoid space for stream {first % d + 1} of {name} fills all {n} dimensions")
    P = vt.mT @ (u / s[..., None, :]).mT
    R = _zero_diagonal(B @ P[..., :d])
    X = P[..., :d] - P @ R
    return X / lane_norm(X.mT, 1)[..., None, :]


def svd_factor(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``A = Phi @ diag(gamma) @ Psi.T``, LAPACK's factors as they come.

    gamma is nonincreasing and nonnegative; Phi and Psi have orthonormal
    columns.  No sign convention is applied: the rate layer reads Psi only
    through products in which each column appears twice (``Psi diag(q)
    Psi^T`` and the traced weights ``|V Psi|^2``), so a column's sign
    cancels to the bit.
    """
    u, s, vt = np.linalg.svd(_as_matrix(A), full_matrices=False)
    return u, s, vt.mT
