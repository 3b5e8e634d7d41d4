"""Water-filling power allocation and achievable sum rates.

Per cell, the rate problem maximizes ``(1/2) sum_i log2 det(I +
(1/sigma_i^2) E_i Q^i E_i^T)`` over source covariances Q^i subject to
``(1/2) sum_i tr(V_i Q^i V_i^T) <= Q_av``, where E_i is the
post-combining effective channel of user i.  The solution diagonalizes
each E_i by SVD and fills power over the stream costs
``sigma^2 / gamma_l^2`` with one common water level per cell:

    q_l = max(0, lam - sigma_i^2 / gamma_l^2)

(the positive-part clamp is required for a valid power allocation).  The
traced transmit power ``sum_l w_l (lam - c_l)^+`` is piecewise linear in
the water level, so ``lam`` comes in closed form from the sorted stream
costs (Palomar & Fonollosa, IEEE TSP 53(2), 2005), in one step and
with no search.  The weights ``w_l`` are the exact traced powers of the
precoder directions, so the solve stays correct when precoder columns
are not orthonormal.  One :class:`CellAllocation` records each cell
solve: the cell-level numbers (water level, budget, traced power, KKT
gap) once, and each user's powers and covariance in group order.  A
cell's channels are factored, water-filled and turned into a sum rate
in one call per stack of draws; a user's log-det term is formed over the
streams the solve powered, ``sum_l log2(1 + gamma_l^2 q_l / sigma^2)``.
The transmit power spent on correction vectors is not charged to either
cell's constraint, mirroring the rate problem's trace term exactly; it
is reported separately so the modeling gap stays visible.

Every array, and every number of a result, may carry leading lane axes
(one lane per channel draw, as in :mod:`cogia.numerics`); lane ``t`` of a
stacked result is bit for bit the result for lane ``t`` alone.  Each
lane's costs are sorted on their own, dead streams last with infinite
cost and zero weight, masked out of the prefix sums so that no
``0 * inf`` forms.  A 1-D array of budgets is one more leading axis, in
front of the lanes: the costs of a stack are sorted once, and the stack
is water-filled once for all budgets.

Rates are in bits per (real) channel use, keeping the 1/2 prefactor.  A
cell whose water level, KKT gap or rate overflows float64 is refused
(ScenarioError naming the cell and budget), with no RuntimeWarning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alignment import EffectiveChannels, PrecoderReceiverSet, draw_system, effective_channels, lane_chunks
from .dof import closed_form_feasible
from .errors import InfeasibleAlloc, ScenarioError
from .numerics import RANK_TOL, matrix_transpose, svd_factor
from .scenario import NetworkDims, NoiseAndPower, StreamAlloc, derive_seed

__all__ = [
    "StreamGroup",
    "CellAllocation",
    "CellRateResult",
    "RatePoint",
    "waterfill_cell",
    "kkt_violation",
    "pcell_sum_rate",
    "scell_sum_rate",
    "rate_region_sweep",
]

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class StreamGroup:
    """One user's streams entering a joint water-filling solve.

    gammas: singular values of the user's effective channel.
    sigma2: the user's noise variance.
    V:      precoder whose traced power is charged to the budget.
    Psi:    right singular vectors pairing streams with Q directions.
    """

    gammas: np.ndarray
    sigma2: float
    V: np.ndarray
    Psi: np.ndarray


@dataclass(frozen=True)
class CellAllocation:
    """One cell's joint water-filling solve: one water level shared by its users.

    Every number is per budget and per lane (see the module docstring),
    ``budget`` included.  ``achieved_constraint`` is the traced power of
    the solve under the 1/2 trace convention, directly comparable to
    ``budget``.  ``per_stream_power`` and ``Q`` hold one entry per group
    (served user), in group order.  ``kkt_gap`` is :func:`kkt_violation`
    of the solve.
    """

    water_level: float
    budget: float
    achieved_constraint: float
    no_positive_gain: bool
    kkt_gap: float
    per_stream_power: tuple[np.ndarray, ...]
    Q: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class CellRateResult:
    """Sum rate of one cell plus the allocation that achieves it (per lane)."""

    sum_rate: float
    allocation: CellAllocation
    uncharged_correction_power: float = 0.0


@dataclass(frozen=True)
class RatePoint:
    """Averaged (R_P, R_S) for one (budget, split) pair of a sweep."""

    R_P: float
    R_S: float
    Qav: float
    alloc: StreamAlloc
    R_P_stderr: float = 0.0
    R_S_stderr: float = 0.0
    trials: int = 1


def waterfill_cell(
    groups: list[StreamGroup] | tuple[StreamGroup, ...],
    budget: float | np.ndarray,
) -> CellAllocation:
    """Joint water-filling across all groups, per budget and per lane.

    ``budget`` is the cell budget under the 1/2 trace convention: the
    common water level ``lam`` solves ``(1/2) sum_i tr(V_i Q^i(lam)
    V_i^T) = budget``, in closed form from the sorted stream costs, so
    the traced power meets the budget to rounding.  Streams whose
    singular value is at or below ``numerics.RANK_TOL`` times the group's
    largest get zero power.  ``lam`` is 0 when the budget is 0, no stream
    is alive, or every alive stream has zero traced weight.  A 1-D
    ``budget`` puts a budget axis in front of the lane axes of every
    field of the result; entry ``b`` is bit for bit the solve under
    ``budget[b]`` alone.
    """
    budget = np.asarray(budget, dtype=float)
    if budget.ndim > 1 or not all(0.0 <= b < math.inf for b in budget.flat):
        raise ValueError(f"budget must be finite and nonnegative, a float or a 1-D array, got {budget}")
    costs = [_stream_costs(grp.gammas, grp.sigma2) for grp in groups]
    weights = []
    for grp, cost in zip(groups, costs):
        VPsi = grp.V @ grp.Psi
        weights.append(np.where(np.isinf(cost), 0.0, np.einsum("...ij,...ij->...j", VPsi, VPsi)))
    lanes = np.broadcast_shapes(*(cost.shape[:-1] for cost in costs))
    c = np.concatenate([np.zeros(lanes + (0,)), *costs], axis=-1)
    w = np.concatenate([np.zeros(lanes + (0,)), *weights], axis=-1)
    shaped = np.add.outer(budget, np.zeros(lanes))  # the budget axis (if any) in front of the lanes
    # a dead stream has zero weight, so a positive weight is a live one
    solve = (w > 0.0).any(axis=-1) & (shaped > 0.0)
    no_gain = np.zeros(solve.shape, dtype=bool) | ~np.isfinite(c).any(axis=-1)  # one per budget
    lam = np.zeros(solve.shape)
    if solve.any():
        # per lane: the live costs in ascending order, then the dead ones,
        # whose cost is masked to 0 in the prefix sums; the weights follow
        # the costs' stable order (a stable sort of the costs: the default
        # kind pages in numpy's SIMD quicksort, 0.25 MB of resident memory)
        w = np.take_along_axis(w, np.argsort(c, axis=-1, kind="stable"), -1)
        c = np.sort(c, axis=-1, kind="stable")
        live = np.isfinite(c)
        c = np.where(live, c, 0.0)
        W, S = np.cumsum(w, axis=-1), np.cumsum(w * c, axis=-1)
        # last live prefix whose top cost lies below the water level (W and
        # S never decrease, so their largest qualifying entries are theirs);
        # the first positive weight always qualifies, so W_k > 0 where we solve
        level = 2.0 * shaped  # the plain-trace power the 1/2 convention allows
        below_level = live & (W * c - S < level[..., None])
        W_k, S_k = (np.where(below_level, X, 0.0).max(axis=-1) for X in (W, S))
        lam = np.where(solve, (level + S_k) / np.where(solve, W_k, 1.0), 0.0)

    powers, Qs = [], []
    achieved = np.zeros(solve.shape)
    for grp, cost in zip(groups, costs):
        q = np.maximum(0.0, lam[..., None] - cost)
        Q = (grp.Psi * q[..., None, :]) @ matrix_transpose(grp.Psi)
        achieved = achieved + np.einsum("...ij,...ij->...", grp.V @ Q, grp.V)
        powers.append(q)
        Qs.append(Q)
    achieved = 0.5 * achieved
    return CellAllocation(
        water_level=lam[()],
        budget=shaped[()],
        achieved_constraint=achieved[()],
        no_positive_gain=no_gain[()],
        kkt_gap=_kkt_gap(lam, powers, costs, achieved, shaped),
        per_stream_power=tuple(powers),
        Q=tuple(Qs),
    )


def _stream_costs(gammas, sigma2: float) -> np.ndarray:
    """Stream costs ``sigma2 / gamma^2`` (last axis); infinite for dead streams.

    A stream is dead when its gamma is at or below RANK_TOL times the
    group's largest; every gamma of an all-zero group is dead.
    """
    g = np.asarray(gammas, dtype=float)
    alive = g > RANK_TOL * g.max(axis=-1, keepdims=True, initial=0.0)
    return np.where(alive, sigma2 / np.where(alive, g, 1.0) ** 2, np.inf)


def _kkt_gap(lam, powers, costs, achieved, budget) -> np.ndarray:
    """KKT gap of a cell solve at water level ``lam``, from every user's powers and costs."""
    lam = np.asarray(lam)
    worst = np.zeros(lam.shape)
    for q, cost in zip(powers, costs):
        # a dead stream (infinite cost) gets no power and contributes 0
        gaps = np.where(q > 0.0, np.abs(q - (lam[..., None] - cost)), np.maximum(0.0, lam[..., None] - cost))
        worst = np.maximum(worst, gaps.max(axis=-1, initial=0.0))
    spent = lam > 0.0
    # stationarity relative to a positive water level, so the gap does not scale with the budget
    worst = worst / np.where(spent, lam, 1.0)
    unspent = np.abs(achieved - budget) / np.where(spent, budget, 1.0)
    return np.where(spent, np.maximum(worst, unspent), worst)[()]


def kkt_violation(cell: CellAllocation, groups: list[StreamGroup] | tuple[StreamGroup, ...]) -> np.ndarray:
    """Largest violation of the water-filling optimality conditions, per budget and per lane.

    ``groups`` are the groups ``cell`` was solved for, in the same order.
    Active streams must sit exactly at ``lam - sigma2/gamma^2``; inactive
    streams must have cost at or above the water level; both residuals
    are measured relative to ``lam`` when it is positive.  A positive
    water level must also spend the whole budget, measured as
    ``|achieved_constraint - budget| / budget``.  Dead streams (gamma at
    or below ``numerics.RANK_TOL`` times the group's largest gamma) are
    skipped, as the solve skips them.  The result has the shape of
    ``cell.water_level``: a float for one draw under one budget.
    """
    costs = [_stream_costs(grp.gammas, grp.sigma2) for grp in groups]
    return _kkt_gap(cell.water_level, cell.per_stream_power, costs, cell.achieved_constraint, cell.budget)


def _cell_rate(
    cell: str,
    effectives: list[np.ndarray],
    precoders: list[np.ndarray],
    sigma2s: list[float],
    budget: float | np.ndarray,
) -> tuple[np.ndarray, CellAllocation]:
    """One cell solve: factor each served user's channel stack, water-fill, and sum the stream rates."""
    served = [(E, V, s2) for E, V, s2 in zip(effectives, precoders, sigma2s) if E.shape[-1]]
    if not served:
        budgets = np.add.outer(budget, np.zeros(effectives[0].shape[:-2]))
        zero = np.zeros_like(budgets)[()]
        return zero, CellAllocation(zero, budgets[()], zero, np.ones_like(budgets, dtype=bool)[()], zero, (), ())
    factors = [svd_factor(E) for E, _, _ in served]
    groups = [StreamGroup(gammas, s2, V, Psi) for (_, V, s2), (_, gammas, Psi) in zip(served, factors)]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, without a warning
        alloc = waterfill_cell(groups, budget)
        streams = zip(groups, alloc.per_stream_power)
        nats = sum(np.add.reduce(np.log1p(grp.gammas**2 * q / grp.sigma2), axis=-1) for grp, q in streams)
    finite = np.isfinite(alloc.water_level) & np.isfinite(alloc.kkt_gap) & np.isfinite(nats)
    if not finite.all():
        budget = float(np.asarray(alloc.budget)[~finite].min())
        raise ScenarioError(f"the {cell} cell's rate problem overflows float64 at budget {budget!r}")
    return 0.5 * nats / _LOG2, alloc


def pcell_sum_rate(prs: PrecoderReceiverSet, eff: EffectiveChannels, noise: NoiseAndPower) -> CellRateResult:
    """Primary-cell water-filling sum rate (joint over both users), per lane."""
    rate, alloc = _cell_rate(
        "primary", [eff.D_P1, eff.D_P2], [prs.V_P1, prs.V_P2], [noise.sigma2_P1, noise.sigma2_P2], noise.Qav_P
    )
    correction = np.zeros(eff.D_P1.shape[:-2])
    # Vbar_Pi has one column per stream of P_i, so the served users keep theirs
    for Vbar, Q in zip([Vbar for Vbar in (prs.Vbar_P1, prs.Vbar_P2) if Vbar.shape[-1]], alloc.Q):
        correction = correction + 0.5 * np.einsum("...ij,...ij->...", Vbar @ Q, Vbar)
    return CellRateResult(sum_rate=rate, allocation=alloc, uncharged_correction_power=correction[()])


def scell_sum_rate(prs: PrecoderReceiverSet, eff: EffectiveChannels, noise: NoiseAndPower) -> CellRateResult:
    """Secondary-cell sum rate, per lane; interference-free by the ideal-DPC model."""
    rate, alloc = _cell_rate(
        "secondary", [eff.D_S1, eff.D_S2], [prs.V_S1, prs.V_S2], [noise.sigma2_S1, noise.sigma2_S2], noise.Qav_S
    )
    return CellRateResult(sum_rate=rate, allocation=alloc)


def rate_region_sweep(
    dims: NetworkDims,
    splits: list[StreamAlloc] | tuple[StreamAlloc, ...],
    budgets: list[tuple[float, float]] | tuple[tuple[float, float], ...],
    trials: int,
    seed: int,
    sigma2s: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0),
) -> list[RatePoint]:
    """Monte Carlo (R_P, R_S) averages over channel draws.

    One RatePoint per (split, budget) pair, ordered by split then budget.
    The draws of a split are built in stacks of at most
    ``alignment.LANE_CHUNK`` lanes, shared across budgets, so rates are
    monotone in the budget draw by draw.  Each stack is factored once and
    each of its cells water-filled once, with the budgets as a leading
    axis.  ``budgets`` entries are (Qav_P, Qav_S) pairs; ``RatePoint.Qav``
    reports the primary budget.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for qav_p, qav_s in budgets:
        # the noise and budget checks, once per budget and before any draw
        NoiseAndPower(*sigma2s, Qav_P=qav_p, Qav_S=qav_s)
    splits = list(splits)
    for split in splits:
        if split.total == 0:
            raise ScenarioError("a rate sweep split must carry at least one stream")
        verdict = closed_form_feasible(dims, split)
        if not verdict.feasible:
            reasons = "; ".join(str(v) for v in verdict.violated)
            raise InfeasibleAlloc(f"split {split.as_tuple()} infeasible for dims {dims.as_tuple()}: {reasons}")

    cell_budgets = np.array(budgets, dtype=float).T  # the Qav_P row, then the Qav_S row
    points: list[RatePoint] = []
    for s_idx, split in enumerate(splits):
        samples = np.zeros((len(budgets), trials, 2))
        seeds = [derive_seed(seed, s_idx, t) for t in range(trials)]
        for part in lane_chunks(trials):
            ch, prs = draw_system(dims, split, seeds[part])
            eff = effective_channels(ch, prs)
            cells = (
                ("primary", [eff.D_P1, eff.D_P2], [prs.V_P1, prs.V_P2], sigma2s[:2]),
                ("secondary", [eff.D_S1, eff.D_S2], [prs.V_S1, prs.V_S2], sigma2s[2:]),
            )
            for c_idx, (cell, qav) in enumerate(zip(cells, cell_budgets)):
                samples[:, part, c_idx] = _cell_rate(*cell, qav)[0]
        means = samples.mean(axis=1)
        stderrs = samples.std(axis=1, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros_like(means)
        for (qav_p, _qav_s), mean, stderr in zip(budgets, means, stderrs):
            points.append(
                RatePoint(
                    R_P=float(mean[0]),
                    R_S=float(mean[1]),
                    Qav=qav_p,
                    alloc=split,
                    R_P_stderr=float(stderr[0]),
                    R_S_stderr=float(stderr[1]),
                    trials=trials,
                )
            )
    return points
