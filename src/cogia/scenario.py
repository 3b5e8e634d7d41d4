"""Scenario configuration and seeded channel generation.

The network is a two-cell downlink: a primary base station with ``M_P``
transmit antennas serving users P1/P2 (``N_P`` receive antennas each) and
a cognitive secondary base station with ``M_S`` antennas serving users
S1/S2 (``N_S`` antennas each).  Real channel matrices connect both base
stations to all four users; the six the model reads are drawn (the
primary base station's channels to the secondary users, Hp_S1 and
Hp_S2, are not: under ideal dirty-paper coding nothing depends on them).

Randomness contract
-------------------
All draws come from counter-based Philox streams keyed
``(seed, stream_id)``, so they are the same bits on every platform and
insensitive to draw order (results computed from them keep their last
bits only on the kernels the ``pytest -m pin`` digests were recorded on;
see README):

* stream id 0 carries the channel matrices of a draw seed: one
  ``standard_normal`` call fills all six, flattened row-major, one after
  another in the fixed order H_S1, H_S2, H_P1, H_P2, Hp_P1, Hp_P2
  (:data:`CHANNEL_ORDER`);
* stream ids 8 and 9 are reserved for the random primary precoder
  columns of P1 and P2 (see :mod:`cogia.alignment`);
* multi-trial experiments derive one sub-seed per trial with
  :func:`derive_seed`, a splitmix64 chain over the index path.

Entries are i.i.d. standard normal (real Rayleigh-style fading); any
continuous distribution gives the same degrees-of-freedom behaviour
almost surely, so the generic position is all the constructions need.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ScenarioError

__all__ = [
    "MAX_ANTENNAS",
    "NetworkDims",
    "StreamAlloc",
    "NoiseAndPower",
    "ChannelSet",
    "Scenario",
    "derive_seed",
    "generate_channels",
    "load_scenario",
    "scenario_from_dict",
]

MAX_ANTENNAS = 16

_MASK64 = (1 << 64) - 1

# each channel matrix's (rows, columns) as NetworkDims fields, in the order
# one stream fills them, the pair the secondary alignment reads first
_CHANNEL_LAYOUT = {
    "H_S1": ("N_S", "M_S"),
    "H_S2": ("N_S", "M_S"),
    "H_P1": ("N_P", "M_P"),
    "H_P2": ("N_P", "M_P"),
    "Hp_P1": ("N_P", "M_S"),
    "Hp_P2": ("N_P", "M_S"),
}
CHANNEL_ORDER = tuple(_CHANNEL_LAYOUT)
CHANNEL_STREAM = 0
PRECODER_STREAM_P1 = 8
PRECODER_STREAM_P2 = 9


def _integer(v: Any, what: str, low: int, high: int | None = None, error: type[ValueError] = ScenarioError) -> int:
    """``v`` as a plain int, or ``error`` unless it is an int, not a bool, in ``low``..``high``.

    The one rule of every integer input: antenna and stream counts, seeds
    and their index paths, trial counts and grid caps.  ``high`` None
    leaves the range open above.
    """
    if (type(v) is int or isinstance(v, int) and not isinstance(v, bool)) and low <= v and (high is None or v <= high):
        return v if type(v) is int else int(v)  # an int subclass, such as an IntEnum, as a plain int
    bounds = f">= {low}" if high is None else f"in {low}..{high}"
    raise error(f"{what} must be an integer {bounds}, got {v!r}")


@dataclass(frozen=True)
class NetworkDims:
    """Antenna quartet (M_P, M_S, N_P, N_S)."""

    M_P: int
    M_S: int
    N_P: int
    N_S: int

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            _integer(v, name, 1, MAX_ANTENNAS)

    @property
    def Z(self) -> int:
        """Transmit null-space dimension at the primary BS toward one user."""
        return max(self.M_P - self.N_P, 0)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.M_P, self.M_S, self.N_P, self.N_S)


@dataclass(frozen=True)
class StreamAlloc:
    """Per-user stream counts (d_P1, d_P2, d_S1, d_S2)."""

    d_P1: int
    d_P2: int
    d_S1: int
    d_S2: int

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            _integer(v, name, 0, MAX_ANTENNAS)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.d_P1, self.d_P2, self.d_S1, self.d_S2)

    @property
    def total(self) -> int:
        return self.d_P1 + self.d_P2 + self.d_S1 + self.d_S2


@dataclass(frozen=True)
class NoiseAndPower:
    """Per-user noise variances and per-cell average power budgets."""

    sigma2_P1: float = 1.0
    sigma2_P2: float = 1.0
    sigma2_S1: float = 1.0
    sigma2_S2: float = 1.0
    Qav_P: float = 1.0
    Qav_S: float = 1.0

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            if not _finite_positive(v):
                raise ScenarioError(f"{name} must be a finite positive number, got {v!r}")


def _finite_positive(v: Any) -> bool:
    """True for an int or float, not a bool, that is positive and finite as a float."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return v > 0 and math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class ChannelSet:
    """The channel matrices of one network realization, or a stack.

    H_Pi  : N_P x M_P, primary BS to primary user i
    Hp_Pi : N_P x M_S, secondary BS to primary user i
    H_Sj  : N_S x M_S, secondary BS to secondary user j

    All six may carry the same leading lane axes, one lane per draw.
    """

    dims: NetworkDims
    H_P1: np.ndarray
    H_P2: np.ndarray
    Hp_P1: np.ndarray
    Hp_P2: np.ndarray
    H_S1: np.ndarray
    H_S2: np.ndarray

    def __post_init__(self) -> None:
        lanes, dims, mats = self.H_P1.shape[:-2], vars(self.dims), []
        for name, (rows, cols) in _CHANNEL_LAYOUT.items():
            m, shape = getattr(self, name), lanes + (dims[rows], dims[cols])
            if m.shape != shape:
                raise ScenarioError(f"{name} must have shape {shape}, got {m.shape}")
            mats.append(m.ravel())
        # one scan of all six; which matrix failed is looked up only after it fails
        if not np.logical_and.reduce(np.isfinite(np.concatenate(mats)), axis=None):
            name = next(name for name, m in zip(CHANNEL_ORDER, mats) if not np.isfinite(m).all())
            raise ScenarioError(f"{name} contains non-finite entries")


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


# splitmix64 of i + 1 for index i of a path; trial, attempt, split and
# antenna indices are small, so larger ones are hashed on each call
_HASHED_INDICES = 1024
_INDEX_HASHES = tuple(_splitmix64(i + 1) for i in range(_HASHED_INDICES))


def derive_seed(seed: int, *indices: int) -> int:
    """Derive an independent 64-bit sub-seed from an index path.

    Splitmix64 chain: each index is hashed and folded into the running
    seed, so (seed, i, j) and (seed, i', j) collide only with hash
    probability.  Used for per-trial and per-split sub-experiments.
    Every index must be an integer in 0..2^64-1, like the seed: ``True``,
    ``1.9`` or ``"3"`` would otherwise hash as some other index path.
    """
    x = _integer(seed, "seed", 0, _MASK64)
    for i in indices:
        # checked before the table lookup, where True would act as 1
        if type(i) is not int or not 0 <= i <= _MASK64:
            i = _integer(i, "index", 0, _MASK64)
        x = _splitmix64(x ^ (_INDEX_HASHES[i] if i < _HASHED_INDICES else _splitmix64(i + 1)))
    return x


def _checked_seeds(seed: int | list[int]) -> int | list[int]:
    """``seed`` unchanged, once it (or each seed of a non-empty list) fits in 64 unsigned bits."""
    if not isinstance(seed, list):
        return _integer(seed, "seed", 0, _MASK64)
    if not seed:
        raise ScenarioError("need at least one seed, got an empty list")
    for s in seed:
        _integer(s, "seed", 0, _MASK64)
    return seed


# Philox counter and buffer of a fresh instance; the buffer is never read
# while buffer_pos 4 marks it empty
_ZEROS4 = (0, 0, 0, 0)


class _SubstreamFactory:
    """Reuses one Philox instance across seeds and streams.

    The factory owns one state dict of Python ints: counter zero and an
    empty buffer (``buffer_pos`` 4, no kept ``uint32``), the state of a
    fresh Philox.  ``stream`` writes the key ``(seed, stream)`` into it and
    assigns it to the instance, which copies the values in, so the instance
    then draws the bits of a fresh ``Philox(key=(seed, stream))``.  That is
    several times cheaper than constructing one, which matters in the
    million-draw feasibility sweeps;
    ``TestChannelGeneration::test_stream_reset_matches_a_fresh_philox``
    checks the draws bit for bit, also after a stream left mid-buffer.
    Not thread-safe: every draw of the package goes through the one
    instance of its thread (:func:`_thread_streams`).  Seeds are not
    checked here; callers check them once per draw call, and stream ids
    are the package's constants.
    """

    def __init__(self):
        self._bg = np.random.Philox(key=np.array([0, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        self._key = {"counter": _ZEROS4, "key": (0, 0)}
        self._state = dict(
            bit_generator="Philox", state=self._key, buffer=_ZEROS4, buffer_pos=4, has_uint32=0, uinteger=0
        )

    def stream(self, seed: int, stream: int) -> np.random.Generator:
        self._key["key"] = (seed, stream)
        self._bg.state = self._state
        return self._gen

    def normal(self, seed: int | list[int], stream: int, shape: tuple[int, ...]) -> np.ndarray:
        """Standard normals of ``shape`` from substream ``stream`` of ``seed``.

        A list of seeds gives one lane per seed, stacked along a leading
        axis.
        """
        if not isinstance(seed, list):
            return self.stream(seed, stream).standard_normal(shape)
        out = np.empty((len(seed),) + tuple(shape))
        for lane, lane_seed in zip(out, seed):
            self.stream(lane_seed, stream).standard_normal(out=lane)
        return out


_THREAD = threading.local()


def _thread_streams() -> _SubstreamFactory:
    """This thread's Philox instance, made at the thread's first draw."""
    streams = getattr(_THREAD, "streams", None)
    if streams is None:
        streams = _THREAD.streams = _SubstreamFactory()
    return streams


def _draw_channels(dims: NetworkDims, seed: int | list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One channel draw per checked seed: H_S1, H_S2 and the read-only buffer they view.

    A lane's buffer row is one ``standard_normal`` call on its stream
    ``(seed, CHANNEL_STREAM)``: the six matrices, each flattened row-major,
    one after another in CHANNEL_ORDER; :func:`_channel_set` cuts the rest.
    """
    n = dims.N_S * dims.M_S
    buf = _thread_streams().normal(seed, CHANNEL_STREAM, (2 * n + 2 * dims.N_P * (dims.M_P + dims.M_S),))
    buf.flags.writeable = False
    shape = buf.shape[:-1] + (dims.N_S, dims.M_S)
    return buf[..., :n].reshape(shape), buf[..., n : 2 * n].reshape(shape), buf


def _channel_set(dims: NetworkDims, H_S1: np.ndarray, H_S2: np.ndarray, buf: np.ndarray) -> ChannelSet:
    """The ChannelSet of a :func:`_draw_channels` draw, its other four matrices cut from ``buf``."""
    lanes, sizes = buf.shape[:-1], vars(dims)
    start, primary = 2 * dims.N_S * dims.M_S, {}
    for name in CHANNEL_ORDER[2:]:
        rows, cols = _CHANNEL_LAYOUT[name]
        r, c = sizes[rows], sizes[cols]
        primary[name] = buf[..., start : start + r * c].reshape(lanes + (r, c))
        start += r * c
    return ChannelSet(dims=dims, H_S1=H_S1, H_S2=H_S2, **primary)


def generate_channels(dims: NetworkDims, seed: int | list[int]) -> ChannelSet:
    """Draw the channel matrices of one network realization per seed.

    A seed's six matrices get i.i.d. standard normal entries from one
    call on its Philox stream ``(seed, 0)``, in the documented order (see
    module docstring), so the same (dims, seed) always yields the same
    bits.  One seed gives 2-D matrices; a list of seeds gives one lane per
    seed along a leading axis, lane ``i`` equal to the draw for
    ``seed[i]`` alone.  Every seed is checked before the first matrix is
    drawn.  Arrays are returned read-only, as views of one buffer.
    """
    return _channel_set(dims, *_draw_channels(dims, _checked_seeds(seed)))


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

_TOP_KEYS = {"dims", "alloc", "noise", "power", "seed", "trials", "splits", "budgets", "grid_cap"}
_DIMS_KEYS = {"M_P", "M_S", "N_P", "N_S"}
_ALLOC_KEYS = {"d_P1", "d_P2", "d_S1", "d_S2"}
_NOISE_KEYS = {"sigma2_P1", "sigma2_P2", "sigma2_S1", "sigma2_S2"}
_POWER_KEYS = {"Qav_P", "Qav_S"}

DEFAULT_GRID_CAP = 10_000


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario file.

    ``budgets`` holds (Qav_P, Qav_S) pairs, one per rate-sweep power
    level; scalar entries in the file apply the same budget to both
    cells, and each pair replaces ``noise``'s own in a rate sweep.
    ``splits`` defaults to the single ``alloc``.  ``seed``, ``trials``
    and ``grid_cap`` are plain ints held to :func:`_integer`.
    """

    dims: NetworkDims
    alloc: StreamAlloc | None
    noise: NoiseAndPower
    seed: int
    trials: int
    splits: tuple[StreamAlloc, ...] = ()
    budgets: tuple[tuple[float, float], ...] = ()
    grid_cap: int = DEFAULT_GRID_CAP
    raw: dict = field(default_factory=dict, compare=False, repr=False)


def _record(obj: Any, keys: set, where: str, required: set | None = None) -> dict:
    """A JSON object whose keys are among ``keys`` and include ``required`` (None: all of ``keys``)."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object")
    for key in obj:
        if key not in keys:
            raise ScenarioError(f"unknown key {key!r} in {where}")
    missing = (keys if required is None else required) - obj.keys()
    if missing:
        raise ScenarioError(f"{where} is missing keys: {sorted(missing)}")
    return obj


def scenario_from_dict(data: Any) -> Scenario:
    """Validate and convert a scenario JSON document; an explicit null is refused for every key."""
    _record(data, _TOP_KEYS, "scenario", required={"dims"})
    dims = NetworkDims(**_record(data["dims"], _DIMS_KEYS, "dims"))
    alloc = StreamAlloc(**_record(data["alloc"], _ALLOC_KEYS, "alloc")) if "alloc" in data else None

    noise_obj = _record(data.get("noise", {}), _NOISE_KEYS, "noise", required=set())
    power_obj = _record(data.get("power", {}), _POWER_KEYS, "power", required=set())
    noise = NoiseAndPower(**noise_obj, **power_obj)

    seed = _integer(data.get("seed", 0), "seed", 0, _MASK64)
    trials = _integer(data.get("trials", 50), "trials", 1)

    splits: list[StreamAlloc] = []
    if "splits" in data:
        raw_splits = data["splits"]
        if not isinstance(raw_splits, list) or not raw_splits:
            raise ScenarioError("'splits' must be a non-empty list of alloc objects")
        for i, s in enumerate(raw_splits):
            splits.append(StreamAlloc(**_record(s, _ALLOC_KEYS, f"splits[{i}]")))
    elif alloc is not None:
        splits.append(alloc)

    budgets: list[tuple[float, float]] = []
    if "budgets" in data:
        raw_budgets = data["budgets"]
        if not isinstance(raw_budgets, list) or not raw_budgets:
            raise ScenarioError("'budgets' must be a non-empty list of finite positive numbers")
        for i, b in enumerate(raw_budgets):
            if not _finite_positive(b):
                raise ScenarioError(f"budgets[{i}] must be a finite positive number, got {b!r}")
            budgets.append((float(b), float(b)))
    else:
        budgets.append((noise.Qav_P, noise.Qav_S))

    grid_cap = _integer(data.get("grid_cap", DEFAULT_GRID_CAP), "grid_cap", 1)

    return Scenario(
        dims=dims,
        alloc=alloc,
        noise=noise,
        seed=seed,
        trials=trials,
        splits=tuple(splits),
        budgets=tuple(budgets),
        grid_cap=grid_cap,
        raw=data,
    )


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file; a key repeated within one object is refused."""

    def unique_keys(pairs: list) -> dict:
        # json keeps a repeated key's last value, which would silently drop the first
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ScenarioError(f"repeated key {key!r} in {path}")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(data)
