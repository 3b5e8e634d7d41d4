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
are not orthonormal.  A cell is solved on one stream vector, its users'
streams end to end; where a caller reads more than the rates, one
:class:`CellAllocation` records the solve: the cell-level numbers once,
and each user's powers (a view of that vector) and covariance in group
order (the sweep forms none).  The powers are the clamp above
itself, so stationarity holds by construction: the solve's KKT gap is
its budget residual, and :func:`kkt_violation` forms both halves.  A
cell's channels are factored, water-filled and turned into a sum rate
in one call per stack of draws; a user's log-det term is formed over the
streams the solve powered, ``sum_l log2(1 + gamma_l^2 q_l / sigma^2)``.
The factors carry no sign convention: Psi is read only through ``Psi
diag(q) Psi^T`` and the traced weights ``|V Psi|^2``, where signs cancel.
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

Several cells on the same lanes are solved as one: a cell axis in front
of the lanes, one budget row per cell, each cell's stream vector padded
to the longest with dead streams.  The padding moves no bit of any cell:
the stable sort puts it last, it adds zero weight to the prefix sums,
it is never live, and its power is ``max(0, lam - inf) = 0``.  A cell
with no served user is all padding.  One ``log1p`` forms every cell's
log-det terms on the stacked streams, each user's summed by its slice.  Both commands rate whole cell
pairs in such a solve: :func:`cell_sum_rates` rates both cells of a draw
or a stack in one solve (``cogia verify``), and :func:`rate_region_sweep`
rates every cell of every split in one solve per stack of draws (``cogia
rates``).  :func:`waterfill_cell` is the one-cell case, and
:func:`pcell_sum_rate` and :func:`scell_sum_rate` are entries 0 and 1 of
:func:`cell_sum_rates`: public API that no command runs.

Rates are in bits per (real) channel use, keeping the 1/2 prefactor.  A
cell is refused (ScenarioError naming the cell and budget, and in a sweep
its split), with no RuntimeWarning, where :func:`cell_sum_rates` finds its
water level, KKT gap or rate, or :func:`rate_region_sweep` its water level
or rate, overflowing float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import starmap

import numpy as np

from .alignment import EffectiveChannels, PrecoderReceiverSet, draw_trials, effective_channels
from .dof import require_feasible
from .errors import ScenarioError
from .numerics import RANK_TOL, svd_factor
from .scenario import NetworkDims, NoiseAndPower, StreamAlloc, _integer, derive_seed

__all__ = [
    "StreamGroup",
    "CellAllocation",
    "CellRateResult",
    "RatePoint",
    "waterfill_cell",
    "kkt_violation",
    "cell_sum_rates",
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
    (served user), in group order; the powers are views of one array.
    ``kkt_gap`` is the budget-residual half of :func:`kkt_violation`, 0
    where the water level is 0 and nan where it is not finite; on the
    solve's own powers the stationarity half reads 0, so the two agree.
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
    ``budget[b]`` alone.  This is the one-cell case of the cell-stacked
    solve that both commands run (see the module docstring); no command
    calls it.
    """
    budget = np.asarray(budget)
    # a bool or a string would otherwise convert to a number
    if budget.dtype.kind not in "iuf" or budget.ndim > 1 or not all(0.0 <= b < math.inf for b in budget.flat):
        raise ValueError(f"budget must be finite and nonnegative, a float or a 1-D array, got {budget}")
    return _allocations([groups], _solve([groups], budget.astype(float)[None], _lanes(groups)))[0][0]


def _solve(cells, rows: np.ndarray, lanes: tuple[int, ...]) -> tuple:
    """The solve of every cell at once: ``cells[i]`` is cell i's groups, ``rows[i]`` its budget or 1-D budgets.

    Every array has the cell axis first, then the budget axis (if any), then the lanes, so cell i's
    result is entry i.  Returns the water levels, the budgets on those axes, the stream powers and costs
    (last axis), each cell's group slices, and each cell's log-det sum in nats (one log1p over every
    stream, each user's streams summed by its slice, in group order).  No covariance, traced power or
    KKT gap is formed: :func:`_allocations` forms them, for the callers that read them.
    """
    cost, w, spans, g, sigma2 = _stream_vectors(cells, lanes)
    shaped = rows.reshape(rows.shape + (1,) * len(lanes)) + np.zeros(lanes)
    # a stream array's shape with the rows' budget axis (if any) behind the cell axis
    wide = cost.shape[:1] + (1,) * (rows.ndim - 1) + cost.shape[1:]
    # a dead stream has zero weight, so a positive weight is a live one
    solve = (w > 0.0).any(axis=-1).reshape(wide[:-1]) & (shaped > 0.0)
    lam = np.zeros(solve.shape)
    if solve.any():
        # per cell and lane, one row each: the live costs in ascending
        # order, then the dead ones, whose cost is masked to 0 in the prefix
        # sums; the weights follow the costs' stable order (a stable sort of
        # the costs: the default kind pages in numpy's SIMD quicksort, 0.25
        # MB of resident memory), both gathered through one flat index
        n = cost.shape[-1]
        order = np.argsort(cost.reshape(-1, n), axis=-1, kind="stable")
        order += np.arange(0, cost.size, n)[:, None]
        c, w = cost.reshape(-1)[order], w.reshape(-1)[order]
        live = np.isfinite(c)
        c = np.where(live, c, 0.0)
        W, S = np.cumsum(w, axis=-1), np.cumsum(w * c, axis=-1)
        # last live prefix whose top cost lies below the water level (W and
        # S never decrease, so their largest qualifying entries are theirs);
        # the first positive weight always qualifies, so W_k > 0 where we solve
        level = 2.0 * shaped  # the plain-trace power the 1/2 convention allows
        live, W, S, top = (X.reshape(wide) for X in (live, W, S, W * c - S))
        below_level = live & (top < level[..., None])
        W_k, S_k = (np.where(below_level, X, 0.0).max(axis=-1) for X in (W, S))
        lam = np.where(solve, (level + S_k) / np.where(solve, W_k, 1.0), 0.0)

    cost = cost.reshape(wide)
    q = np.maximum(0.0, lam[..., None] - cost)
    # log1p(gamma^2 q / sigma^2) per stream, 0 over the padding (gamma and power 0, sigma^2 1); an
    # overflow shows in the nats, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        stream_nats = np.log1p(g.reshape(wide) ** 2 * q / sigma2.reshape(wide))
    nats = np.zeros(solve.shape)
    for i, cell_spans in enumerate(spans):
        for span in cell_spans:
            nats[i] += np.add.reduce(stream_nats[i][..., span], axis=-1)
    return lam, shaped, q, cost, spans, nats


def _allocations(cells, solved: tuple) -> tuple[list[CellAllocation], np.ndarray]:
    """The allocation assembly of a :func:`_solve` of ``cells``: one CellAllocation per cell, then the KKT gaps.

    Each user's covariance and each cell's traced power, KKT gap and no-gain flag are formed here alone.
    """
    lam, shaped, q, cost, spans, _ = solved
    # one per budget
    no_gain = np.zeros(lam.shape, dtype=bool) | ~np.isfinite(cost).any(axis=-1)
    powers, Qs, achieved = [], [], np.zeros(lam.shape)
    for i, (groups, cell_spans) in enumerate(zip(cells, spans)):
        powers.append(tuple(q[i][..., span] for span in cell_spans))
        Qs.append(tuple((grp.Psi * p[..., None, :]) @ grp.Psi.mT for grp, p in zip(groups, powers[i])))
        for grp, Q in zip(groups, Qs[i]):
            achieved[i] += np.einsum("...ij,...ij->...", grp.V @ Q, grp.V)
    achieved *= 0.5
    spent = lam > 0.0
    unspent = np.abs(achieved - shaped) / np.where(spent, shaped, 1.0)
    # lam - lam is 0, or nan where the water level is not finite
    kkt_gap = np.where(spent, unspent, 0.0) + (lam - lam)
    # entry i of a 1-D field is a float, of a wider one a view
    return [CellAllocation(*cell) for cell in zip(lam, shaped, achieved, no_gain, kkt_gap, powers, Qs)], kkt_gap


def _lanes(groups) -> tuple[int, ...]:
    """The lane axes of a cell's groups: those of its first group's gammas, none if it has no group."""
    return next((np.shape(grp.gammas)[:-1] for grp in groups), ())


def _stream_vectors(cells, lanes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, list, np.ndarray, np.ndarray]:
    """Each cell's streams end to end (last axis), one cell per entry of a leading cell axis.

    Returns the costs ``sigma2 / gamma^2``, the traced weights, each cell's group slices, and each
    stream's gamma and noise variance.  A stream at or below RANK_TOL times its group's largest gamma is
    dead: infinite cost, zero weight.  A cell shorter than the longest is padded with dead streams (gamma
    0 at floor 0, noise variance 1), which sort last and take no power.
    """
    spans = []
    for groups in cells:
        spans.append([])
        end = 0
        for grp in groups:
            start, end = end, end + np.shape(grp.gammas)[-1]
            spans[-1].append(slice(start, end))
    n = max((cell_spans[-1].stop for cell_spans in spans if cell_spans), default=0)
    shape = (len(cells),) + lanes + (n,)
    g, floor, w, sigma2 = np.zeros(shape), np.zeros(shape), np.empty(shape), np.ones(shape)
    for c, (groups, cell_spans) in enumerate(zip(cells, spans)):
        for grp, span in zip(groups, cell_spans):
            x = np.asarray(grp.gammas, dtype=float)
            g[c, ..., span], sigma2[c, ..., span] = x, grp.sigma2
            floor[c, ..., span] = RANK_TOL * x.max(axis=-1, keepdims=True, initial=0.0)
            VPsi = grp.V @ grp.Psi
            np.einsum("...ij,...ij->...j", VPsi, VPsi, out=w[c, ..., span])
    alive = g > floor
    cost = np.where(alive, sigma2 / np.where(alive, g, 1.0) ** 2, np.inf)
    return cost, np.where(np.isinf(cost), 0.0, w), spans, g, sigma2


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
    ``cell.water_level``: a float for one draw under one budget.  Both
    halves are formed here, so this certifies the solve's own powers.
    """
    lam = np.asarray(cell.water_level)
    q = np.concatenate([np.zeros(lam.shape + (0,)), *cell.per_stream_power], axis=-1)
    x = lam[..., None] - _stream_vectors([groups], _lanes(groups))[0][0]
    # a dead stream (infinite cost) gets no power and contributes 0
    worst = np.where(q > 0.0, np.abs(q - x), np.maximum(0.0, x)).max(axis=-1, initial=0.0)
    spent = lam > 0.0
    # stationarity relative to a positive water level, so the gap does not scale with the budget
    worst = worst / np.where(spent, lam, 1.0)
    unspent = np.abs(cell.achieved_constraint - cell.budget) / np.where(spent, cell.budget, 1.0)
    return np.where(spent, np.maximum(worst, unspent), worst)[()]


def _cell_rates(cells, rows: np.ndarray) -> tuple[list, tuple, np.ndarray]:
    """Factor each served user's channel stack and solve every cell: the groups, the solve, the rates in bits.

    ``cells`` holds ``(name, where, effectives, precoders, variances)`` per cell, all on the same lanes,
    and ``rows[i]`` is cell i's budget or 1-D budgets.  The caller refuses an overflow, over what it reads:
    :func:`cell_sum_rates` a water level, KKT gap or rate, and :func:`rate_region_sweep` a water level or rate.
    """
    groups = [[] for _ in cells]
    for cell_groups, (_, _, effectives, precoders, variances) in zip(groups, cells):
        for E, V, s2 in zip(effectives, precoders, variances):
            if E.shape[-1]:
                _, gammas, Psi = svd_factor(E)
                cell_groups.append(StreamGroup(gammas, s2, V, Psi))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by the caller, without a warning
        solved = _solve(groups, rows, cells[0][2][0].shape[:-2])
    return groups, solved, 0.5 * solved[-1] / _LOG2


def _refuse_overflow(cells, solved: tuple, *more: np.ndarray) -> None:
    """Refuse the first cell whose water level, rate or any of ``more`` is not finite, at its smallest such budget."""
    lam, shaped, *_, nats = solved
    finite = np.logical_and.reduce([np.isfinite(x) for x in (lam, nats, *more)])
    if not finite.all():
        failed = ~finite
        i = int(failed.reshape(len(cells), -1).any(axis=-1).argmax())
        name, where = cells[i][:2]
        budget = float(np.asarray(shaped[i])[failed[i]].min())
        raise ScenarioError(f"the {name} cell's rate problem overflows float64 at budget {budget!r}{where}")


def cell_sum_rates(
    prs: PrecoderReceiverSet, eff: EffectiveChannels, noise: NoiseAndPower
) -> tuple[CellRateResult, CellRateResult]:
    """The primary and the secondary cell's water-filling sum rates, per lane, from one solve.

    Each cell is water-filled jointly over both of its users, under its
    own budget (``noise.Qav_P``, ``noise.Qav_S``); the secondary cell is
    interference-free by the ideal-DPC model.  Only the primary result
    carries an ``uncharged_correction_power``.  A water level, KKT gap
    or rate that overflows is refused, the primary cell's first; :func:`pcell_sum_rate`
    and :func:`scell_sum_rate` are this call's two entries.
    """
    cells = _cells(prs, eff, noise)
    groups, solved, (rate_P, rate_S) = _cell_rates(cells, np.array([noise.Qav_P, noise.Qav_S], dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, without a warning
        (alloc_P, alloc_S), kkt_gap = _allocations(groups, solved)
    _refuse_overflow(cells, solved, kkt_gap)
    correction = np.zeros(eff.D_P1.shape[:-2])
    # Vbar_Pi has one column per stream of P_i, so the served users keep theirs
    for Vbar, Q in zip([Vbar for Vbar in (prs.Vbar_P1, prs.Vbar_P2) if Vbar.shape[-1]], alloc_P.Q):
        correction = correction + 0.5 * np.einsum("...ij,...ij->...", Vbar @ Q, Vbar)
    primary = CellRateResult(sum_rate=rate_P, allocation=alloc_P, uncharged_correction_power=correction[()])
    return primary, CellRateResult(sum_rate=rate_S, allocation=alloc_S)


def pcell_sum_rate(prs: PrecoderReceiverSet, eff: EffectiveChannels, noise: NoiseAndPower) -> CellRateResult:
    """Primary-cell sum rate, per lane: entry 0 of :func:`cell_sum_rates`; no command calls it."""
    return cell_sum_rates(prs, eff, noise)[0]


def scell_sum_rate(prs: PrecoderReceiverSet, eff: EffectiveChannels, noise: NoiseAndPower) -> CellRateResult:
    """Secondary-cell sum rate, per lane: entry 1 of :func:`cell_sum_rates`; no command calls it."""
    return cell_sum_rates(prs, eff, noise)[1]


def rate_region_sweep(
    dims: NetworkDims,
    splits: list[StreamAlloc] | tuple[StreamAlloc, ...],
    budgets: list[tuple[float, float]] | tuple[tuple[float, float], ...],
    trials: int,
    seed: int,
    noise: NoiseAndPower = NoiseAndPower(),
) -> list[RatePoint]:
    """Monte Carlo (R_P, R_S) averages over channel draws.

    One RatePoint per (split, budget) pair, ordered by split then budget.
    Split ``s`` draws trial ``t`` from ``derive_seed(seed, s, t)``, in the
    bounded stacks of :func:`cogia.alignment.draw_trials`, shared across
    budgets, so rates are monotone in the budget draw by draw.  For each
    run of lanes, every split's stack is drawn and kept only as its cells'
    effective channels and precoders; each served user is then factored
    once, and all ``2 * len(splits)`` cells are water-filled in one solve,
    with the budgets as a leading axis; no CellAllocation is formed.  A
    water level or rate that overflows is refused for the first failing
    cell in split order, primary before secondary, at its own smallest
    failing budget, and the message names the cell's split.
    Every split's means and standard errors are taken in one pass over
    the trial axis.  The users' noise variances are ``noise``'s; each
    ``budgets`` entry is a (Qav_P, Qav_S) tuple or list pair that replaces
    ``noise``'s own budgets, checked by the record's rule (any other entry
    is a ScenarioError), and ``RatePoint.Qav``
    reports the primary budget.  An empty ``budgets`` returns ``[]``
    after the checks, before any draw.
    """
    _integer(trials, "trials", 1, error=ValueError)
    budgets, splits = list(budgets), list(splits)  # read once: an iterator would be spent by the checks
    for i, entry in enumerate(budgets):  # the budget checks, before any draw
        if not isinstance(entry, (tuple, list)) or len(entry) != 2:
            raise ScenarioError(f"budgets[{i}] must be a (Qav_P, Qav_S) pair, got {entry!r}")
        replace(noise, Qav_P=entry[0], Qav_S=entry[1])
    for split in splits:
        if split.total == 0:
            raise ScenarioError("a rate sweep split must carry at least one stream")
        require_feasible(dims, split)
    if not budgets:  # no point to rate, so nothing is drawn
        return []

    # every split's Qav_P row, then its Qav_S row: one budget row per cell, in split order
    rows = np.tile(np.array(budgets, dtype=float).T, (len(splits), 1))
    samples = np.zeros((len(splits), len(budgets), trials, 2))

    def cut(s, split):
        # split s draws trial t from derive_seed(seed, s, t); a stack is cut to its cells as it is drawn,
        # so no ChannelSet is held through a solve
        where = f" in split {split.as_tuple()}"
        for part, ch, prs in draw_trials(dims, split, derive_seed(seed, s), trials):
            yield part, _cells(prs, effective_channels(ch, prs), noise, where)

    for run in zip(*starmap(cut, enumerate(splits))):
        part = run[0][0]
        cells = [cell for _, split_cells in run for cell in split_cells]
        _, solved, rates = _cell_rates(cells, rows)
        _refuse_overflow(cells, solved)
        samples[:, :, part] = np.moveaxis(rates.reshape(len(splits), 2, *rates.shape[1:]), 1, -1)  # cell axis last
    # every split's means and standard errors over the trial axis at once
    means = samples.mean(axis=2)
    stderrs = samples.std(axis=2, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros_like(means)
    return [
        RatePoint(R_P, R_S, Qav=qav_p, alloc=split, R_P_stderr=se_P, R_S_stderr=se_S, trials=trials)
        for split, split_means, split_stderrs in zip(splits, means.tolist(), stderrs.tolist())
        for (qav_p, _qav_s), (R_P, R_S), (se_P, se_S) in zip(budgets, split_means, split_stderrs)
    ]


def _cells(prs: PrecoderReceiverSet, eff: EffectiveChannels, noise: NoiseAndPower, where: str = "") -> tuple:
    """Each cell's name, ``where`` (its overflow message's end), effective channels, precoders and noise variances."""
    return (
        ("primary", where, [eff.D_P1, eff.D_P2], [prs.V_P1, prs.V_P2], (noise.sigma2_P1, noise.sigma2_P2)),
        ("secondary", where, [eff.D_S1, eff.D_S2], [prs.V_S1, prs.V_S2], (noise.sigma2_S1, noise.sigma2_S2)),
    )
