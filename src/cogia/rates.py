"""Water-filling power allocation and achievable sum rates.

Per cell, the rate problem maximizes ``(1/2) sum_i log2 det(I +
(1/sigma_i^2) E_i Q^i E_i^T)`` over source covariances Q^i subject to
``(1/2) sum_i tr(V_i Q^i V_i^T) <= Q_av``, where E_i is the
post-combining effective channel of user i.  The solution diagonalizes
each E_i by SVD and fills power over the stream costs
``sigma^2 / gamma_l^2`` with one common water level per cell:

    q_l = max(0, lam - sigma_i^2 / gamma_l^2)

(the positive-part clamp is required for a valid power allocation).  The
water level is found by monotone bisection on the exact traced transmit
power, which stays correct when precoder columns are not orthonormal.
The transmit power spent on correction vectors is not charged to either
cell's constraint, mirroring the rate problem's trace term exactly; it
is reported separately so the modeling gap stays visible.

Rates are in bits per (real) channel use, keeping the 1/2 prefactor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alignment import EffectiveChannels, PrecoderReceiverSet, draw_system, effective_channels
from .dof import closed_form_feasible
from .errors import InfeasibleAlloc, ScenarioError
from .numerics import DEFAULT_POLICY, TolerancePolicy, svd_factor
from .scenario import NetworkDims, NoiseAndPower, StreamAlloc, derive_seed

__all__ = [
    "StreamGroup",
    "WaterfillResult",
    "CellAllocation",
    "CellRateResult",
    "RatePoint",
    "waterfill",
    "waterfill_cell",
    "kkt_violation",
    "pcell_sum_rate",
    "scell_sum_rate",
    "rate_region_sweep",
]

_BISECT_REL_TOL = 1e-8
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
class WaterfillResult:
    """Power allocation for one user.

    ``achieved_constraint`` is the traced power of the whole solve this
    user took part in (shared across users of a cell), so it is directly
    comparable to the budget.
    """

    water_level: float
    per_stream_power: np.ndarray
    Q: np.ndarray
    achieved_constraint: float
    no_positive_gain: bool = False


@dataclass(frozen=True)
class CellAllocation:
    """Joint allocation for one cell: shared water level, per-user results."""

    water_level: float
    users: tuple[WaterfillResult, ...]
    achieved_constraint: float
    no_positive_gain: bool = False


@dataclass(frozen=True)
class CellRateResult:
    """Sum rate of one cell plus the allocation that achieves it."""

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
    budget: float,
    pol: TolerancePolicy = DEFAULT_POLICY,
    trace_prefactor: float = 0.5,
) -> CellAllocation:
    """Joint water-filling across all groups under one budget.

    The common water level ``lam`` solves
    ``trace_prefactor * sum_i tr(V_i Q^i(lam) V_i^T) = budget`` by
    bisection; streams whose singular value falls below ``rank_tol``
    times the group's largest get zero power.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    costs: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    alive_any = False
    for grp in groups:
        g = np.asarray(grp.gammas, dtype=float)
        gmax = g.max() if g.size else 0.0
        alive = g > pol.rank_tol * gmax if gmax > 0.0 else np.zeros(g.shape, dtype=bool)
        alive_any = alive_any or bool(alive.any())
        cost = np.full(g.shape, np.inf)
        cost[alive] = grp.sigma2 / g[alive] ** 2
        VPsi = grp.V @ grp.Psi
        w = np.einsum("ij,ij->j", VPsi, VPsi)
        w[~alive] = 0.0
        costs.append(cost)
        weights.append(w)

    def traced_power(lam: float) -> float:
        total = 0.0
        for c, w in zip(costs, weights):
            q = np.maximum(0.0, lam - c)
            q[~np.isfinite(c)] = 0.0
            total += float(w @ q)
        return trace_prefactor * total

    if not alive_any or budget == 0.0:
        lam = 0.0
    else:
        finite_costs = np.concatenate([c[np.isfinite(c)] for c in costs])
        n_streams = sum(len(c) for c in costs)
        hi = float(finite_costs.max()) + budget * max(n_streams, 1)
        grown = False
        for _ in range(200):
            if traced_power(hi) >= budget:
                grown = True
                break
            hi *= 2.0
        if not grown:
            # every active stream has zero traced weight; nothing to allocate
            lam = 0.0
        else:
            lo = 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                if traced_power(mid) < budget:
                    lo = mid
                else:
                    hi = mid
            lam = hi

    allocations = []
    achieved = 0.0
    for grp, c in zip(groups, costs):
        q = np.maximum(0.0, lam - c)
        q[~np.isfinite(c)] = 0.0
        Q = (grp.Psi * q) @ grp.Psi.T
        VQ = grp.V @ Q
        achieved += float(np.einsum("ij,ij->", VQ, grp.V))
        allocations.append((q, Q))
    achieved *= trace_prefactor
    users = tuple(
        WaterfillResult(
            water_level=lam,
            per_stream_power=q,
            Q=Q,
            achieved_constraint=achieved,
            no_positive_gain=not alive_any,
        )
        for q, Q in allocations
    )
    return CellAllocation(
        water_level=lam,
        users=users,
        achieved_constraint=achieved,
        no_positive_gain=not alive_any,
    )


def waterfill(
    gammas,
    sigma2: float,
    V,
    Psi,
    budget: float,
    pol: TolerancePolicy = DEFAULT_POLICY,
    trace_prefactor: float = 1.0,
) -> WaterfillResult:
    """Single-user water-filling; constraint ``tr(V Q V^T) <= budget``.

    The stand-alone form charges the plain trace (no cell prefactor);
    cell-level solves go through :func:`waterfill_cell`.
    """
    group = StreamGroup(
        gammas=np.asarray(gammas, dtype=float),
        sigma2=float(sigma2),
        V=np.asarray(V, dtype=float),
        Psi=np.asarray(Psi, dtype=float),
    )
    cell = waterfill_cell([group], budget, pol, trace_prefactor=trace_prefactor)
    return cell.users[0]


def kkt_violation(result: WaterfillResult, gammas, sigma2: float) -> float:
    """Largest violation of the water-filling optimality conditions.

    Active streams must sit exactly at ``lam - sigma2/gamma^2``; inactive
    streams must have cost at or above the water level.  Dead streams
    (gamma == 0) are skipped.
    """
    g = np.asarray(gammas, dtype=float)
    worst = 0.0
    for q, gamma in zip(result.per_stream_power, g):
        if gamma <= 0.0:
            continue
        cost = sigma2 / gamma**2
        if q > 0.0:
            worst = max(worst, abs(q - (result.water_level - cost)))
        else:
            worst = max(worst, max(0.0, result.water_level - cost))
    return worst


def _user_rate(E: np.ndarray, Q: np.ndarray, sigma2: float) -> float:
    if E.shape[1] == 0:
        return 0.0
    M = np.eye(E.shape[0]) + (E @ Q @ E.T) / sigma2
    sign, logdet = np.linalg.slogdet(M)
    if sign <= 0:
        raise ArithmeticError("rate determinant is not positive definite")
    return 0.5 * logdet / _LOG2


def _cell_rate(
    effectives: list[np.ndarray],
    precoders: list[np.ndarray],
    sigma2s: list[float],
    budget: float,
    pol: TolerancePolicy,
) -> tuple[float, CellAllocation]:
    groups = []
    served = []
    for E, V, s2 in zip(effectives, precoders, sigma2s):
        if E.shape[1] == 0:
            continue
        _, gammas, Psi = svd_factor(E)
        groups.append(StreamGroup(gammas=gammas, sigma2=s2, V=V, Psi=Psi))
        served.append((E, s2))
    if not groups:
        return 0.0, CellAllocation(0.0, (), 0.0, no_positive_gain=True)
    alloc = waterfill_cell(groups, budget, pol, trace_prefactor=0.5)
    rate = 0.0
    for (E, s2), res in zip(served, alloc.users):
        rate += _user_rate(E, res.Q, s2)
    return rate, alloc


def pcell_sum_rate(
    prs: PrecoderReceiverSet,
    eff: EffectiveChannels,
    noise: NoiseAndPower,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CellRateResult:
    """Primary-cell water-filling sum rate (joint over both users)."""
    E1 = prs.U_P1.T @ eff.G_P1
    E2 = prs.U_P2.T @ eff.G_P2
    rate, alloc = _cell_rate(
        [E1, E2],
        [prs.V_P1, prs.V_P2],
        [noise.sigma2_P1, noise.sigma2_P2],
        noise.Qav_P,
        pol,
    )
    correction = 0.0
    idx = 0
    for E, Vbar in ((E1, prs.Vbar_P1), (E2, prs.Vbar_P2)):
        if E.shape[1] == 0:
            continue
        Q = alloc.users[idx].Q
        VbQ = Vbar @ Q
        correction += 0.5 * float(np.einsum("ij,ij->", VbQ, Vbar))
        idx += 1
    return CellRateResult(sum_rate=rate, allocation=alloc, uncharged_correction_power=correction)


def scell_sum_rate(
    prs: PrecoderReceiverSet,
    eff: EffectiveChannels,
    noise: NoiseAndPower,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CellRateResult:
    """Secondary-cell sum rate; interference-free by the ideal-DPC model."""
    rate, alloc = _cell_rate(
        [eff.D_S1, eff.D_S2],
        [prs.V_S1, prs.V_S2],
        [noise.sigma2_S1, noise.sigma2_S2],
        noise.Qav_S,
        pol,
    )
    return CellRateResult(sum_rate=rate, allocation=alloc)


def rate_region_sweep(
    dims: NetworkDims,
    splits: list[StreamAlloc] | tuple[StreamAlloc, ...],
    budgets: list[tuple[float, float]] | tuple[tuple[float, float], ...],
    trials: int,
    seed: int,
    sigma2s: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0),
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> list[RatePoint]:
    """Monte Carlo (R_P, R_S) averages over channel draws.

    One RatePoint per (split, budget) pair, ordered by split then budget.
    Channel draws are shared across budgets within a split, so rates are
    monotone in the budget draw by draw.  ``budgets`` entries are
    (Qav_P, Qav_S) pairs; ``RatePoint.Qav`` reports the primary budget.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    splits = list(splits)
    for split in splits:
        if split.total == 0:
            raise ScenarioError("a rate sweep split must carry at least one stream")
        verdict = closed_form_feasible(dims, split)
        if not verdict.feasible:
            reasons = "; ".join(str(v) for v in verdict.violated)
            raise InfeasibleAlloc(f"split {split.as_tuple()} infeasible for dims {dims.as_tuple()}: {reasons}")

    points: list[RatePoint] = []
    for s_idx, split in enumerate(splits):
        samples = np.zeros((len(budgets), trials, 2))
        for t in range(trials):
            ch, prs = draw_system(dims, split, derive_seed(seed, s_idx, t), pol)
            eff = effective_channels(ch, prs)
            for b_idx, (qav_p, qav_s) in enumerate(budgets):
                noise = NoiseAndPower(
                    sigma2_P1=sigma2s[0],
                    sigma2_P2=sigma2s[1],
                    sigma2_S1=sigma2s[2],
                    sigma2_S2=sigma2s[3],
                    Qav_P=qav_p,
                    Qav_S=qav_s,
                )
                rp = pcell_sum_rate(prs, eff, noise, pol)
                rs = scell_sum_rate(prs, eff, noise, pol)
                samples[b_idx, t, 0] = rp.sum_rate
                samples[b_idx, t, 1] = rs.sum_rate
        for b_idx, (qav_p, _qav_s) in enumerate(budgets):
            mean = samples[b_idx].mean(axis=0)
            if trials > 1:
                stderr = samples[b_idx].std(axis=0, ddof=1) / math.sqrt(trials)
            else:
                stderr = np.zeros(2)
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
