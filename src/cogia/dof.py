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
redraws.  The trials are built in the bounded stacks of
:func:`cogia.alignment.draw_trials`, after a trial-0 probe when the
closed form expects a refusal (see :func:`constructive_check`); the
closed form only orders this work, and every verdict comes from the
construction.

:func:`require_feasible` is the one closed-form refusal of a run: ``cogia
verify`` and :func:`cogia.rates.rate_region_sweep` call it before any
draw, and it raises InfeasibleAlloc naming every violated condition.

The closed form carries no bound not validated by the constructive
oracle; the maximum sum-DoF constants quoted elsewhere in the literature
are deliberately not asserted here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .alignment import PrecoderReceiverSet, draw_system, draw_trials, interference_report
from .errors import GridTooLarge, InfeasibleAlloc, NoComplement, RankDeficient
from .numerics import ZERO_TOL, full_column_rank
from .scenario import DEFAULT_GRID_CAP, ChannelSet, NetworkDims, StreamAlloc, _integer, derive_seed

__all__ = [
    "Violation",
    "FeasibilityVerdict",
    "DofRegion",
    "closed_form_feasible",
    "require_feasible",
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


def _violations(dims: NetworkDims, d: StreamAlloc) -> list[tuple[str, str, int]]:
    """The violated closed-form conditions of (dims, d), in report order.

    Each entry is a condition family, ``"i"`` to ``"v"`` as in
    :func:`closed_form_feasible`, the stream count it bounds and that
    count's value (``""`` and 0 for (v)).  No text is built, so asking
    whether the list is empty stays cheap.
    """
    M_S, N_S, N_P = dims.M_S, dims.N_S, dims.N_P
    d_P1, d_P2, d_S1, d_S2 = d.d_P1, d.d_P2, d.d_S1, d.d_S2
    headroom = max(M_S - N_S, 0)
    v: list[tuple[str, str, int]] = []
    for name, d_j in (("d_S1", d_S1), ("d_S2", d_S2)):
        if d_j > headroom:
            v.append(("i", name, d_j))
        if d_j > N_S:
            v.append(("ii", name, d_j))
    for name, d_i in (("d_P1", d_P1), ("d_P2", d_P2)):
        if d_i > dims.M_P:
            v.append(("iii", name, d_i))
        if d_i and N_P < d_i + d_S1 + d_S2:
            v.append(("iv", name, d_i))
    # corrections are needed when a primary user has streams beyond Z
    if M_S < N_P and max(d_P1, d_P2) > dims.Z:
        v.append(("v", "", 0))
    return v


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
    v: list[Violation] = []
    for family, name, n in _violations(dims, d):
        if family == "i":
            v.append(Violation(f"{name} <= M_S - N_S", f"{n} > {M_S} - {N_S} = {M_S - N_S}", "structural"))
        elif family == "ii":
            v.append(Violation(f"{name} <= N_S", f"{n} > {N_S}", "structural"))
        elif family == "iii":
            v.append(Violation(f"{name} <= M_P", f"{n} > {M_P}", "structural"))
        elif family == "iv":
            v.append(Violation(f"N_P >= {name} + d_S1 + d_S2", f"{N_P} < {n} + {d.d_S1} + {d.d_S2}", "derived"))
        else:  # "v"
            v.append(Violation("M_S >= N_P when d_Pi > Z", f"{M_S} < {N_P} with Z = {dims.Z}", "derived"))
    return FeasibilityVerdict(not v, tuple(v))


def require_feasible(dims: NetworkDims, d: StreamAlloc) -> None:
    """Raise InfeasibleAlloc, naming every violated condition, unless (dims, d) passes the closed form."""
    verdict = closed_form_feasible(dims, d)
    if not verdict.feasible:
        reasons = "; ".join(str(v) for v in verdict.violated)
        raise InfeasibleAlloc(f"allocation {d.as_tuple()} infeasible for dims {dims.as_tuple()}: {reasons}")


def constructive_check(
    dims: NetworkDims,
    d: StreamAlloc,
    trials: int = 20,
    seed: int = 0,
) -> FeasibilityVerdict:
    """Feasibility by running the full construction on random channels.

    Trial ``t`` is built from the trial seed ``derive_seed(seed, t)``, in
    the bounded stacks of :func:`cogia.alignment.draw_trials`, and each
    stack is verified in one pass: one interference report and one rank
    test per effective channel.  A structural failure (NoComplement,
    RankDeficient) marks the tuple infeasible; it applies to every trial,
    so the verdict names trial 0.  Otherwise every trial must finish with
    worst-case residual interference at or below ``numerics.ZERO_TOL``
    and full-column-rank effective channels, and the verdict names the
    first trial in index order that does not.  Every stack is drawn, so a
    trial whose draws stay degenerate through the retry budget raises
    TooManyDegenerateDraws whatever the other trials read.

    A tuple that violates a closed-form condition first builds trial 0
    alone as a probe, which on a generic draw settles every structural
    failure at the cost of one build, before any other trial seed is
    derived.  The condition only decides whether the probe runs: a
    structural failure repeats in every lane, so the first stack refuses
    with the same trial-0 text and stage as the probe.  The probe derives
    trial 0's seed itself, beside :func:`cogia.alignment.draw_trials`,
    because one 2-D draw refuses faster than a one-lane stack.
    """
    _integer(trials, "trials", 1, error=ValueError)
    violated: tuple[Violation, ...] = ()
    try:
        if _violations(dims, d):
            # a refusal expected: one draw settles it before any other trial seed is derived
            draw_system(dims, d, derive_seed(seed, 0))
        for part, ch, prs in draw_trials(dims, d, seed, trials):
            violated = violated or _first_failure(ch, prs, part.start)
    except (NoComplement, RankDeficient) as exc:
        detail = f"trial 0: {type(exc).__name__}: {exc}"
        violated = (Violation("construction succeeds", detail, "constructive", exc.stage),)
    return FeasibilityVerdict(not violated, violated)


def _first_failure(ch: ChannelSet, prs: PrecoderReceiverSet, start: int) -> tuple[Violation, ...]:
    """The violation of the first trial that leaks or loses rank, as a 1-tuple, or (); lane 0 is trial ``start``."""
    report = interference_report(ch, prs)
    eff = report.eff
    deficient = {
        name: ~full_column_rank(M)
        for M, name in ((eff.D_P1, "P1"), (eff.D_P2, "P2"), (eff.D_S1, "S1"), (eff.D_S2, "S2"))
    }
    worst = report.worst_case
    leaky = worst > ZERO_TOL
    failing = np.flatnonzero(leaky | deficient["P1"] | deficient["P2"] | deficient["S1"] | deficient["S2"])
    if failing.size == 0:
        return ()
    t = failing[0]
    if leaky[t]:
        detail = f"trial {start + t}: worst_case = {worst[t]:.3e}"
        return (Violation("residual interference <= ZERO_TOL", detail, "constructive"),)
    detail = f"trial {start + t}: rank-deficient at {', '.join(name for name, bad in deficient.items() if bad[t])}"
    return (Violation("effective channels have full column rank", detail, "constructive"),)


def grid_tuples(dims: NetworkDims) -> Iterator[StreamAlloc]:
    """All allocation tuples with d_Pi <= M_P and d_Sj <= M_S, lexicographic.

    No tuple of the grid violates condition (iii), d_Pi <= M_P, so the
    predicate/oracle agreement over it (acceptance criterion 3) never
    reaches that condition or the primary-precoder refusal it maps to.
    """
    for d_P1 in range(dims.M_P + 1):
        for d_P2 in range(dims.M_P + 1):
            for d_S1 in range(dims.M_S + 1):
                for d_S2 in range(dims.M_S + 1):
                    yield StreamAlloc(d_P1, d_P2, d_S1, d_S2)


def grid_size(dims: NetworkDims) -> int:
    return (dims.M_P + 1) ** 2 * (dims.M_S + 1) ** 2


def _compute_frontier(points: list[StreamAlloc]) -> tuple[StreamAlloc, ...]:
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
    cap: int = DEFAULT_GRID_CAP,
) -> DofRegion:
    """Enumerate the achievable DoF region over the full tuple grid; ``mode``, then ``cap``, is checked first."""
    if mode not in ("closed_form", "constructive"):
        raise ValueError(f"unknown mode {mode!r}")
    cap = _integer(cap, "cap", 1, error=ValueError)
    size = grid_size(dims)
    if size > cap:
        raise GridTooLarge(f"grid has {size} tuples, cap is {cap}")
    points: list[StreamAlloc] = []
    for alloc in grid_tuples(dims):
        if mode == "closed_form":
            ok = not _violations(dims, alloc)
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
