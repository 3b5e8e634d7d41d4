"""Feasibility of stream allocations and achievable DoF regions.

Feasibility is decided two independent ways:

* :func:`closed_form_feasible` evaluates the analytic predicate: the
  secondary antenna-difference bound, the secondary receive bound, the
  primary antenna bound, the zero-forcing receiver dimension count, and
  the right-inverse condition for correction vectors.
* :func:`constructive_check` actually draws channels and runs the full
  construction, declaring a tuple feasible only when every trial cancels
  all interference to numerical precision and every effective channel
  has full column rank.

The oracle never restates the predicate: it finds infeasibility by the
construction failing.  A failure a shape forces (NoComplement,
RankDeficient) repeats on every draw and settles the tuple on the first;
any other rank loss is a measure-zero accident (DegenerateChannel) that
:func:`cogia.alignment.draw_system`, the package's one redraw loop,
redraws.
The first trial is built alone, as a probe that settles every
structural failure; then all trials, the first included, are built as
one stack, which gets one interference report and one rank test per
effective channel.

The closed form carries no bound not validated by the constructive
oracle; the maximum sum-DoF constants quoted elsewhere in the literature
are deliberately not asserted here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .alignment import PrecoderReceiverSet, draw_system, interference_report
from .errors import CogiaError, GridTooLarge, NoComplement, RankDeficient
from .numerics import ZERO_TOL, full_column_rank
from .scenario import ChannelSet, NetworkDims, StreamAlloc, derive_seed

__all__ = [
    "Violation",
    "FeasibilityVerdict",
    "DofRegion",
    "closed_form_feasible",
    "constructive_check",
    "enumerate_region",
    "grid_tuples",
    "projected_frontier",
]


@dataclass(frozen=True, slots=True)
class Violation:
    """One violated feasibility condition."""

    condition: str
    detail: str
    origin: str  # "structural" | "derived" | "constructive"
    stage: str | None = None  # the construction stage a refusal came from, else None

    def __str__(self) -> str:
        return f"{self.condition} [{self.origin}]: {self.detail}"


@dataclass(frozen=True, slots=True)
class FeasibilityVerdict:
    feasible: bool
    violated: tuple[Violation, ...] = ()

    def __post_init__(self) -> None:
        if self.feasible != (len(self.violated) == 0):
            raise ValueError(f"feasible={self.feasible} contradicts {len(self.violated)} violations")


@dataclass(frozen=True)
class DofRegion:
    """Feasible allocation tuples for one antenna quartet."""

    dims: NetworkDims
    points: tuple[StreamAlloc, ...]
    frontier: tuple[StreamAlloc, ...]


def closed_form_feasible(dims: NetworkDims, d: StreamAlloc) -> FeasibilityVerdict:
    """Analytic feasibility predicate for (dims, d).

    Conditions (i) d_Sj <= M_S - N_S and (ii) d_Sj <= N_S bound the
    secondary cell; (iii) d_Pi <= M_P bounds the primary transmit side;
    (iv) N_P >= d_Pi + d_S1 + d_S2 (for served primary users) is the
    zero-forcing receiver dimension count and (v) M_S >= N_P whenever
    corrections are needed is the right-inverse requirement.  (iv) and
    (v) are labeled as derived from the construction.
    """
    M_P, M_S, N_P, N_S = dims.M_P, dims.M_S, dims.N_P, dims.N_S
    d_S1, d_S2 = d.d_S1, d.d_S2
    v: list[Violation] = []
    headroom = max(M_S - N_S, 0)
    for name, d_j in (("d_S1", d_S1), ("d_S2", d_S2)):
        if d_j > headroom:
            v.append(Violation(f"{name} <= M_S - N_S", f"{d_j} > {M_S} - {N_S} = {M_S - N_S}", "structural"))
        if d_j > N_S:
            v.append(Violation(f"{name} <= N_S", f"{d_j} > {N_S}", "structural"))
    for name, d_i in (("d_P1", d.d_P1), ("d_P2", d.d_P2)):
        if d_i > M_P:
            v.append(Violation(f"{name} <= M_P", f"{d_i} > {M_P}", "structural"))
        if d_i >= 1 and N_P < d_i + d_S1 + d_S2:
            v.append(Violation(f"N_P >= {name} + d_S1 + d_S2", f"{N_P} < {d_i} + {d_S1} + {d_S2}", "derived"))
    Z = dims.Z
    # corrections are needed when a primary user has streams beyond Z
    if max(d.d_P1, d.d_P2) > Z and M_S < N_P:
        v.append(Violation("M_S >= N_P when d_Pi > Z", f"{M_S} < {N_P} with Z = {Z}", "derived"))
    return FeasibilityVerdict(not v, tuple(v))


def constructive_check(
    dims: NetworkDims,
    d: StreamAlloc,
    trials: int = 20,
    seed: int = 0,
) -> FeasibilityVerdict:
    """Feasibility by running the full construction on random channels.

    Trial ``t`` builds through ``draw_system`` with the trial seed
    ``derive_seed(seed, t)``.  A structural failure (NoComplement,
    RankDeficient) marks the tuple infeasible; it applies to every trial,
    so the verdict names trial 0.  Otherwise every trial must finish with
    worst-case residual interference at or below ``numerics.ZERO_TOL``
    and full-column-rank effective channels, and the verdict names the
    first trial in index order that does not.  A trial whose draws stay
    degenerate through the retry budget raises TooManyDegenerateDraws.

    Trial 0 is first built alone as a probe: on a generic draw it settles
    every structural failure at the cost of one build, before any other
    trial seed is derived.  All T trials, trial 0 included, are then
    built as one stack (lane ``t`` is trial ``t``) and verified in one
    pass: one interference report and one rank test per effective
    channel.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    try:
        draw_system(dims, d, derive_seed(seed, 0))
        ch, prs = draw_system(dims, d, [derive_seed(seed, t) for t in range(trials)])
    except (NoComplement, RankDeficient) as exc:
        return _verdict(_refusal(exc))
    return _verdict(_first_failure(ch, prs))


def _verdict(violation: Violation | None) -> FeasibilityVerdict:
    return FeasibilityVerdict(True) if violation is None else FeasibilityVerdict(False, (violation,))


def _refusal(exc: CogiaError) -> Violation:
    return Violation("construction succeeds", f"trial 0: {type(exc).__name__}: {exc}", "constructive", exc.stage)


def _first_failure(ch: ChannelSet, prs: PrecoderReceiverSet) -> Violation | None:
    """The violation of the first trial (lane) whose construction leaks or loses rank, or None."""
    report = interference_report(ch, prs)
    eff = report.eff
    deficient = {
        name: ~full_column_rank(M)
        for M, name in ((eff.D_P1, "P1"), (eff.D_P2, "P2"), (eff.D_S1, "S1"), (eff.D_S2, "S2"))
    }
    worst = report.worst_case
    leaky = worst > ZERO_TOL
    failing = np.flatnonzero(leaky | np.any(list(deficient.values()), axis=0))
    if failing.size == 0:
        return None
    t = failing[0]
    if leaky[t]:
        return Violation("residual interference <= ZERO_TOL", f"trial {t}: worst_case = {worst[t]:.3e}", "constructive")
    return Violation(
        "effective channels have full column rank",
        f"trial {t}: rank-deficient at {', '.join(name for name, bad in deficient.items() if bad[t])}",
        "constructive",
    )


def grid_tuples(dims: NetworkDims) -> Iterator[StreamAlloc]:
    """All allocation tuples with d_Pi <= M_P and d_Sj <= M_S, lexicographic."""
    for d_P1 in range(dims.M_P + 1):
        for d_P2 in range(dims.M_P + 1):
            for d_S1 in range(dims.M_S + 1):
                for d_S2 in range(dims.M_S + 1):
                    yield StreamAlloc(d_P1, d_P2, d_S1, d_S2)


def grid_size(dims: NetworkDims) -> int:
    return (dims.M_P + 1) ** 2 * (dims.M_S + 1) ** 2


def _compute_frontier(points: list[StreamAlloc]) -> tuple[StreamAlloc, ...]:
    if not points:
        return ()
    arr = np.array([p.as_tuple() for p in points], dtype=np.int64)
    n = len(points)
    dominated = np.zeros(n, dtype=bool)
    chunk = 512
    for start in range(0, n, chunk):
        block = arr[start : start + chunk]  # (b, 4)
        ge = (arr[:, None, :] >= block[None, :, :]).all(axis=2)  # (n, b)
        gt = (arr[:, None, :] > block[None, :, :]).any(axis=2)
        dominated[start : start + chunk] = (ge & gt).any(axis=0)
    return tuple(p for p, dom in zip(points, dominated) if not dom)


def enumerate_region(
    dims: NetworkDims,
    mode: Literal["closed_form", "constructive"] = "closed_form",
    seed: int = 0,
    trials: int = 20,
    cap: int = 10_000,
) -> DofRegion:
    """Enumerate the achievable DoF region over the full tuple grid."""
    size = grid_size(dims)
    if size > cap:
        raise GridTooLarge(f"grid has {size} tuples, cap is {cap}")
    if mode not in ("closed_form", "constructive"):
        raise ValueError(f"unknown mode {mode!r}")
    points: list[StreamAlloc] = []
    for alloc in grid_tuples(dims):
        if mode == "closed_form":
            ok = closed_form_feasible(dims, alloc).feasible
        else:
            ok = constructive_check(dims, alloc, trials=trials, seed=derive_seed(seed, *alloc.as_tuple())).feasible
        if ok:
            points.append(alloc)
    return DofRegion(dims=dims, points=tuple(points), frontier=_compute_frontier(points))


def projected_frontier(region: DofRegion) -> list[tuple[int, int]]:
    """(d_S1+d_S2, max d_P1+d_P2) pairs for plotting the region projection."""
    best: dict[int, int] = {}
    for p in region.points:
        ds = p.d_S1 + p.d_S2
        dp = p.d_P1 + p.d_P2
        if dp >= best.get(ds, -1):
            best[ds] = dp
    return sorted(best.items())
