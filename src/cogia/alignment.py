"""Precoder, correction and combiner construction for the two-cell network.

Transmit side
-------------
* Primary precoders: the first ``Z = (M_P - N_P)^+`` columns of V_P1
  (resp. V_P2) are taken from an orthonormal null-space basis of the
  other primary user's channel, so those streams cause no cross-user
  interference at all.  Any remaining columns are isotropic random unit
  vectors.
* Correction matrices: for each primary stream beyond the first Z, the
  secondary BS transmits a correction vector that cancels the stream at
  the non-intended primary user.  The correction for stream l of P1 is
  the minimum-norm solution of ``Hp_P2 @ vbar = -H_P2 @ v_l``, which is
  exactly the right-pseudo-inverse form of the effective-channel
  expression the receive equation produces.
* Secondary precoders: stream g of S_j zero-forces the other secondary
  user's full channel and the first d_Sj rows of its own channel but
  row g, and keeps the most gain on row g.

Receive side
------------
* Primary combiners: per stream, a unit vector orthogonal to every other
  desired effective column and to all secondary-stream interference
  columns, keeping the most gain on the stream's own effective column
  (a matched filter when there is nothing to avoid).  Combiner columns
  of a multi-stream user are unit-norm but generally not mutually
  orthogonal: the zero-forcing constraints pin their directions.
* Secondary combiners: the alignment above lands stream g of S_j on
  receive coordinate g, so the combiner is simply the selector of the
  first d_Sj receive coordinates and the effective secondary channel is
  diagonal.

The secondary precoders and the primary combiners both come from
:func:`numerics.zero_forcing_columns`, one thin SVD per user.

The secondary data streams are dirty-paper encoded against the known
primary-induced interference; the model here is ideal presubtraction, so
secondary decoding sees only the diagonal effective channel plus noise.

Stage order and failures
------------------------
:func:`build_all` and :func:`draw_system` run the public stages in
order: :func:`build_secondary_receivers` (the selector combiners),
:func:`build_secondary_precoders` aligned to them (it reads only H_S1
and H_S2), :func:`build_primary_precoders`, :func:`build_corrections`
and :func:`build_primary_receivers`.  No stage checks the allocation
against the antenna counts; the construction itself refuses what the
network cannot carry, by a formed matrix's shape alone: RankDeficient
for more columns than rows (selectors, primary precoders) or rows than
columns (corrections), NoComplement for zero-forcing rows that fill
every dimension.  Every other rank loss is a measure-zero accident of
the draw, DegenerateChannel, which :func:`draw_system` redraws, one
channel draw per lane and attempt.  An error a stage raises carries its
``stage``: ``selectors``, ``secondary``, ``primary_precoders``,
``corrections`` or ``primary_receivers``.

Stacked draws
-------------
Every stage takes the channels of one draw (2-D matrices) or of a
stack of draws (a leading lane axis, one lane per draw) and returns
arrays with the same leading axes: one draw is the plain 2-D case of the
same code, and lane ``i`` of a stacked build is bit for bit the build of
draw ``i`` alone.  A rank loss in one lane or all (one draw included)
is DegenerateChannel, with a *lane mask* (a boolean array over the lane
axes) in its ``lanes`` attribute, and :func:`draw_system` redraws those
lanes.  NoComplement and RankDeficient come from shapes, which every
lane shares, and carry no mask.  The stages raise at the first check
any lane fails, so a build either returns every lane or none.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CogiaError, DegenerateChannel, RankDeficient, TooManyDegenerateDraws
from .numerics import (
    lane_norm,
    min_norm_right_solve,
    null_space_basis,
    zero_forcing_columns,
)
from .scenario import (
    CHANNEL_ORDER,
    MAX_ANTENNAS,
    PRECODER_STREAM_P1,
    PRECODER_STREAM_P2,
    ChannelSet,
    NetworkDims,
    StreamAlloc,
    _channel_set,
    _checked_seeds,
    _draw_channels,
    _thread_streams,
    derive_seed,
)

__all__ = [
    "PrecoderReceiverSet",
    "EffectiveChannels",
    "InterferenceReport",
    "build_primary_precoders",
    "build_corrections",
    "build_secondary_precoders",
    "build_primary_receivers",
    "build_secondary_receivers",
    "build_all",
    "draw_system",
    "MAX_DEGENERATE_RETRIES",
    "effective_channels",
    "interference_report",
]

MAX_DEGENERATE_RETRIES = 10
# the most lanes a long run builds and evaluates at once: it bounds memory,
# and lanes are independent, so the split does not change any bit
LANE_CHUNK = 256


@dataclass(frozen=True)
class PrecoderReceiverSet:
    """All transmit precoders, corrections and receive combiners.

    Shapes: V_Pi is M_P x d_Pi, Vbar_Pi is M_S x d_Pi (columns 1..Z are
    zero), V_Sj is M_S x d_Sj, U_Pi is N_P x d_Pi, U_Sj is N_S x d_Sj,
    each behind the lane axes of the channels it was built for.
    """

    V_P1: np.ndarray
    V_P2: np.ndarray
    Vbar_P1: np.ndarray
    Vbar_P2: np.ndarray
    V_S1: np.ndarray
    V_S2: np.ndarray
    U_P1: np.ndarray
    U_P2: np.ndarray
    U_S1: np.ndarray
    U_S2: np.ndarray


@dataclass(frozen=True)
class EffectiveChannels:
    """End-to-end channels seen by each stream after the construction.

    G_Pi (N_P x d_Pi): column l is the vector multiplying the l-th data
    symbol of P_i at its receiver (direct channel plus correction path).
    D_Pi = U_Pi.T @ G_Pi (d_Pi x d_Pi) is the post-combining primary
    channel; its off-diagonal entries vanish when the combiners
    zero-force.  D_Sj = U_Sj.T @ H_Sj @ V_Sj (d_Sj x d_Sj) is the
    post-combining secondary channel, diagonal by construction; it is
    formed from the d_Sj rows of H_Sj that the selector U_Sj picks.
    """

    G_P1: np.ndarray
    G_P2: np.ndarray
    D_P1: np.ndarray
    D_P2: np.ndarray
    D_S1: np.ndarray
    D_S2: np.ndarray


@dataclass(frozen=True)
class InterferenceReport:
    """Relative residual interference norms, one entry per leakage path.

    Every entry is a Frobenius norm divided by the Frobenius norm of the
    channel it travels through, so a perfect construction reports values
    at numerical-noise level regardless of channel scale.  Entries are
    floats for one draw and arrays over the lanes for a stack.  ``eff``
    holds the effective channels the report measured.
    """

    entries: dict[str, float]
    worst_case: float
    eff: EffectiveChannels


def _unit_columns(M: np.ndarray) -> np.ndarray:
    # np.linalg.norm's own formula for a real axis norm, without its wrapper; the mask is formed only to raise
    norms = np.sqrt(np.add.reduce(M * M, axis=-2))
    if not np.logical_and.reduce(norms, axis=None):
        raise DegenerateChannel("drawn precoder column has zero norm", lanes=(norms == 0.0).any(axis=-1))
    return M / norms[..., None, :]


def build_primary_precoders(
    ch: ChannelSet,
    d: StreamAlloc,
    seed: int | list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Primary precoders V_P1, V_P2.

    First min(Z, d_Pi) columns from the null space of the other user's
    channel; the rest are random isotropic unit columns from the seed's
    reserved substreams.  ``seed`` holds one seed per lane of ``ch`` (a
    list, or an integer for one draw).
    """
    dims = ch.dims
    Z = dims.Z
    lanes = ch.H_P1.shape[:-2]
    if lanes != ((len(seed),) if isinstance(seed, list) else ()):
        raise ValueError(f"need one seed per lane of the channels, {lanes}, got {seed!r}")
    _checked_seeds(seed)
    streams = _thread_streams()

    def one_user(d_i: int, avoid_channel: np.ndarray, stream_id: int, user: str) -> np.ndarray:
        if d_i == 0:
            return np.zeros(lanes + (dims.M_P, 0))
        n_null = min(Z, d_i)
        parts = []
        if n_null:
            # the null space of an N_P x M_P channel has at least Z dimensions
            parts.append(null_space_basis(avoid_channel)[..., :n_null])
        if d_i > n_null:
            # columns a draw makes dependent lose a stream at the primary receivers, which redraw that lane
            parts.append(_unit_columns(streams.normal(seed, stream_id, (dims.M_P, d_i - n_null))))
        V = np.concatenate(parts, axis=-1)
        # more columns than rows is a shortfall every draw repeats
        if V.shape[-1] > V.shape[-2]:
            raise RankDeficient(f"V_{user} is {V.shape[-2]}x{V.shape[-1]}: its columns cannot be independent")
        return V

    V_P1 = one_user(d.d_P1, ch.H_P2, PRECODER_STREAM_P1, "P1")
    V_P2 = one_user(d.d_P2, ch.H_P1, PRECODER_STREAM_P2, "P2")
    return V_P1, V_P2


def build_corrections(
    ch: ChannelSet,
    V_P1: np.ndarray,
    V_P2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Secondary correction matrices Vbar_P1, Vbar_P2.

    Column l is zero for l <= Z = ``ch.dims.Z``; beyond that it solves
    ``Hp_other @ vbar_l = -H_other @ v_l`` (minimum-norm), so the stream
    vanishes at the non-intended primary user.  Raises RankDeficient when
    ``Hp_other`` has more rows than columns, so no right inverse exists.
    """
    M_S, Z = ch.dims.M_S, ch.dims.Z

    def corrections(V: np.ndarray, H_other: np.ndarray, Hp_other: np.ndarray) -> np.ndarray:
        Vbar = np.zeros(V.shape[:-2] + (M_S, V.shape[-1]))
        corrected = V[..., Z:]
        if corrected.shape[-1]:
            Vbar[..., Z:] = min_norm_right_solve(Hp_other, -(H_other @ corrected))
        return Vbar

    Vbar_P1 = corrections(V_P1, ch.H_P2, ch.Hp_P2)
    Vbar_P2 = corrections(V_P2, ch.H_P1, ch.Hp_P1)
    return Vbar_P1, Vbar_P2


def build_secondary_precoders(
    H_S1: np.ndarray, H_S2: np.ndarray, U_S1: np.ndarray, U_S2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Secondary precoders V_S1, V_S2 implementing the stacked-space alignment.

    Stream g of S_j zero-forces the other secondary user's whole channel
    and the rows U_Sj selects for S_j's other streams.
    """
    # U_Sj.T @ H_Sj selects the first d_Sj rows of H_Sj: read them directly
    V_S1 = zero_forcing_columns(H_S1[..., : U_S1.shape[1], :], H_S2, "S1")
    V_S2 = zero_forcing_columns(H_S2[..., : U_S2.shape[1], :], H_S1, "S2")
    return V_S1, V_S2


def _primary_effective(
    ch: ChannelSet,
    V_P1: np.ndarray,
    V_P2: np.ndarray,
    Vbar_P1: np.ndarray,
    Vbar_P2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    G_P1 = ch.H_P1 @ V_P1 + ch.Hp_P1 @ Vbar_P1
    G_P2 = ch.H_P2 @ V_P2 + ch.Hp_P2 @ Vbar_P2
    return G_P1, G_P2


def build_primary_receivers(
    ch: ChannelSet,
    V_P1: np.ndarray,
    V_P2: np.ndarray,
    Vbar_P1: np.ndarray,
    Vbar_P2: np.ndarray,
    V_S1: np.ndarray,
    V_S2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing combiners U_P1, U_P2.

    Stream l's combiner zero-forces the user's other desired effective
    columns and every secondary interference column, keeping the most
    gain on its own effective column.
    """
    G_P1, G_P2 = _primary_effective(ch, V_P1, V_P2, Vbar_P1, Vbar_P2)
    V_S = np.concatenate([V_S1, V_S2], axis=-1)
    # rows to avoid: the secondary streams as seen at the primary user
    U_P1 = zero_forcing_columns(G_P1.mT, (ch.Hp_P1 @ V_S).mT, "P1")
    U_P2 = zero_forcing_columns(G_P2.mT, (ch.Hp_P2 @ V_S).mT, "P2")
    return U_P1, U_P2


@functools.lru_cache(maxsize=(MAX_ANTENNAS + 1) ** 2)
def _selector(n_rx: int, d_j: int) -> np.ndarray:
    """Read-only ``np.eye(n_rx, d_j)``; the cache holds every shape up to MAX_ANTENNAS."""
    U = np.eye(n_rx, d_j)
    U.flags.writeable = False
    return U


def build_secondary_receivers(n_rx: int, d: StreamAlloc) -> tuple[np.ndarray, np.ndarray]:
    """Selector combiners U_S1, U_S2: the first d_Sj of n_rx receive coordinates.

    The arrays are read-only and shared by every call with the same shapes.
    """
    U_S1, U_S2 = _selector(n_rx, d.d_S1), _selector(n_rx, d.d_S2)
    for U, user in ((U_S1, "S1"), (U_S2, "S2")):
        if U.shape[1] > U.shape[0]:
            raise RankDeficient(f"selector U_{user} is {U.shape[0]}x{U.shape[1]}: too few receive coordinates")
    return U_S1, U_S2


def _stage(name: str, build, *args):
    """Run one construction stage; a CogiaError it raises carries ``stage = name``."""
    try:
        return build(*args)
    except CogiaError as exc:
        exc.stage = name
        raise


def _build_primary(
    ch: ChannelSet,
    d: StreamAlloc,
    seed: int | list[int],
    U_S1: np.ndarray,
    U_S2: np.ndarray,
    V_S1: np.ndarray,
    V_S2: np.ndarray,
) -> PrecoderReceiverSet:
    """The primary stages on top of the finished secondary ones, and the frozen set."""
    lanes = ch.H_P1.shape[:-2]
    V_P1, V_P2 = _stage("primary_precoders", build_primary_precoders, ch, d, seed)
    Vbar_P1, Vbar_P2 = _stage("corrections", build_corrections, ch, V_P1, V_P2)
    U_P1, U_P2 = _stage("primary_receivers", build_primary_receivers, ch, V_P1, V_P2, Vbar_P1, Vbar_P2, V_S1, V_S2)
    arrays = dict(V_P1=V_P1, V_P2=V_P2, Vbar_P1=Vbar_P1, Vbar_P2=Vbar_P2, V_S1=V_S1, V_S2=V_S2, U_P1=U_P1, U_P2=U_P2)
    # each lane reads the cached selector: np.broadcast_to's zero-stride view, without its nditer
    for name, U in (("U_S1", U_S1), ("U_S2", U_S2)):
        arrays[name] = np.ndarray(lanes + U.shape, U.dtype, U, 0, (0,) * len(lanes) + U.strides)
    for a in arrays.values():
        a.flags.writeable = False
    return PrecoderReceiverSet(**arrays)


def build_all(ch: ChannelSet, d: StreamAlloc, seed: int | list[int]) -> PrecoderReceiverSet:
    """Run the full construction and return the frozen precoder/receiver set.

    ``ch`` holds one draw or a stack of draws; ``seed`` holds one seed
    per lane (a list, or an integer for one draw).  The selectors U_Sj
    are the same for every lane.
    """
    U_S1, U_S2 = _stage("selectors", build_secondary_receivers, ch.dims.N_S, d)
    V_S1, V_S2 = _stage("secondary", build_secondary_precoders, ch.H_S1, ch.H_S2, U_S1, U_S2)
    return _build_primary(ch, d, seed, U_S1, U_S2, V_S1, V_S2)


def draw_system(dims: NetworkDims, alloc: StreamAlloc, seeds: int | list[int]) -> tuple[ChannelSet, PrecoderReceiverSet]:
    """Draw channels and build, redrawing degenerate draws.

    ``seeds`` is one trial seed, which gives 2-D arrays, or a non-empty
    list of trial seeds, which gives one lane per seed along a leading
    axis; lane ``i`` is bit for bit the result for ``seeds[i]`` alone.
    Attempt ``a`` of a lane draws from ``derive_seed(seed, a)``.  The
    stages are those of :func:`build_all`.  The selectors run once the
    seeds are checked and before any seed is derived, so a structural
    failure of the selectors derives no seed and draws nothing.  Each
    attempt then makes exactly one channel draw per lane, all six
    matrices from one call (see :mod:`cogia.scenario`); H_S1 and H_S2
    come first in it, and the other four matrices and the ChannelSet are
    cut only once the secondary alignment passes.  Structural failures
    propagate from the first attempt.  When a stage reports degenerate
    lanes, those lanes move to their next attempt's seed and the whole
    stack is drawn and built again; the other lanes keep their seeds, and
    since a lane's draw is keyed by its seed alone, they draw the same
    bits.  A lane whose MAX_DEGENERATE_RETRIES attempts were all
    degenerate raises TooManyDegenerateDraws.
    Every draw comes from the calling thread's one Philox instance.
    """
    _checked_seeds(seeds)
    U_S1, U_S2 = _stage("selectors", build_secondary_receivers, dims.N_S, alloc)
    single = not isinstance(seeds, list)
    trial_seeds = [seeds] if single else seeds
    attempts = np.zeros(len(trial_seeds), dtype=int)
    draw_seeds = [derive_seed(s, 0) for s in trial_seeds]
    while True:
        lane_seeds = draw_seeds[0] if single else draw_seeds
        try:
            H_S1, H_S2, buf = _draw_channels(dims, lane_seeds)
            V_S1, V_S2 = _stage("secondary", build_secondary_precoders, H_S1, H_S2, U_S1, U_S2)
            ch = _channel_set(dims, H_S1, H_S2, buf)
            return ch, _build_primary(ch, alloc, lane_seeds, U_S1, U_S2, V_S1, V_S2)
        except DegenerateChannel as exc:
            redraw = np.flatnonzero(exc.lanes)
            attempts[redraw] += 1
            if attempts.max() >= MAX_DEGENERATE_RETRIES:
                raise TooManyDegenerateDraws(
                    f"{MAX_DEGENERATE_RETRIES} degenerate draws in a row for dims {dims.as_tuple()}"
                ) from exc
            for i in redraw:
                draw_seeds[i] = derive_seed(trial_seeds[i], int(attempts[i]))


def draw_trials(dims: NetworkDims, alloc: StreamAlloc, seed: int, trials: int):
    """Build trial ``t`` of ``range(trials)`` by :func:`draw_system` from ``derive_seed(seed, t)``.

    Yields ``(part, ch, prs)`` per stack of at most LANE_CHUNK trials, lane ``i`` being trial
    ``part.start + i``; lanes are independent, so the split changes no bit.
    """
    for start in range(0, trials, LANE_CHUNK):
        part = slice(start, min(start + LANE_CHUNK, trials))
        # no name holds a stack while the caller works on it
        yield (part, *draw_system(dims, alloc, [derive_seed(seed, t) for t in range(start, part.stop)]))


def effective_channels(ch: ChannelSet, prs: PrecoderReceiverSet) -> EffectiveChannels:
    """End-to-end effective channels for all four users."""
    G_P1, G_P2 = _primary_effective(ch, prs.V_P1, prs.V_P2, prs.Vbar_P1, prs.Vbar_P2)
    return EffectiveChannels(
        G_P1=G_P1,
        G_P2=G_P2,
        D_P1=prs.U_P1.mT @ G_P1,
        D_P2=prs.U_P2.mT @ G_P2,
        # U_Sj.T @ H_Sj selects the first d_Sj rows of H_Sj
        D_S1=ch.H_S1[..., : prs.U_S1.shape[-1], :] @ prs.V_S1,
        D_S2=ch.H_S2[..., : prs.U_S2.shape[-1], :] @ prs.V_S2,
    )


def _offdiag(M: np.ndarray) -> np.ndarray:
    out = M.copy()
    rows, cols = M.shape[-2:]
    # each diagonal entry: every (cols+1)-th entry of the flattened copy
    out.reshape(M.shape[:-2] + (rows * cols,))[..., : min(rows, cols) * (cols + 1) : cols + 1] = 0.0
    return out


def interference_report(ch: ChannelSet, prs: PrecoderReceiverSet) -> InterferenceReport:
    """Measure every residual interference path of the construction.

    Categories: primary intra-cell leakage after corrections, secondary
    intra-cell leakage, post-combining inter-cell leakage at the primary
    users, and post-combining cross-stream leakage among each user's own
    desired streams.  The effective channels are formed here once and
    returned in the report.  Each channel's norm is taken once, and the
    ten ratios and ``worst_case`` are formed together, per lane; an
    entry whose channel has zero norm reports the residual norm itself.
    """
    eff = effective_channels(ch, prs)
    V_S = np.concatenate([prs.V_S1, prs.V_S2], axis=-1)
    # entry: (residual, the channel it travels through)
    paths = {
        "pcell_intra_at_P2": (ch.H_P2 @ prs.V_P1 + ch.Hp_P2 @ prs.Vbar_P1, "H_P2"),
        "pcell_intra_at_P1": (ch.H_P1 @ prs.V_P2 + ch.Hp_P1 @ prs.Vbar_P2, "H_P1"),
        "scell_intra_at_S2": (ch.H_S2 @ prs.V_S1, "H_S2"),
        "scell_intra_at_S1": (ch.H_S1 @ prs.V_S2, "H_S1"),
        "intercell_post_at_P1": (prs.U_P1.mT @ (ch.Hp_P1 @ V_S), "Hp_P1"),
        "intercell_post_at_P2": (prs.U_P2.mT @ (ch.Hp_P2 @ V_S), "Hp_P2"),
        "cross_stream_at_P1": (_offdiag(eff.D_P1), "H_P1"),
        "cross_stream_at_P2": (_offdiag(eff.D_P2), "H_P2"),
        "cross_stream_at_S1": (_offdiag(eff.D_S1), "H_S1"),
        "cross_stream_at_S2": (_offdiag(eff.D_S2), "H_S2"),
    }
    norms = {name: lane_norm(getattr(ch, name)) for name in CHANNEL_ORDER}
    r = np.array([lane_norm(residual) for residual, _ in paths.values()])
    h = np.array([norms[name] for _, name in paths.values()])
    rel = np.where(h > 0.0, r / np.where(h > 0.0, h, 1.0), r)
    return InterferenceReport(entries=dict(zip(paths, rel)), worst_case=rel.max(axis=0), eff=eff)
