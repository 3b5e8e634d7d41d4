"""Scenario configuration and seeded channel generation.

The network is a two-cell downlink: a primary base station with ``M_P``
transmit antennas serving users P1/P2 (``N_P`` receive antennas each) and
a cognitive secondary base station with ``M_S`` antennas serving users
S1/S2 (``N_S`` antennas each).  Eight real channel matrices connect both
base stations to all four users.

Randomness contract
-------------------
All draws come from counter-based Philox streams so results are
reproducible across platforms and insensitive to draw order:

* stream key = ``(seed, stream_id)``; channel matrices use stream ids
  0..7 in the fixed order H_P1, H_P2, Hp_P1, Hp_P2, H_S1, H_S2, Hp_S1,
  Hp_S2, so adding a consumer of a new stream never perturbs existing
  matrices;
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
    "substream",
    "generate_channels",
    "load_scenario",
    "scenario_from_dict",
]

MAX_ANTENNAS = 16

_MASK64 = (1 << 64) - 1

# stream ids for the eight channel matrices, in field order
CHANNEL_STREAMS = {
    "H_P1": 0,
    "H_P2": 1,
    "Hp_P1": 2,
    "Hp_P2": 3,
    "H_S1": 4,
    "H_S2": 5,
    "Hp_S1": 6,
    "Hp_S2": 7,
}
PRECODER_STREAM_P1 = 8
PRECODER_STREAM_P2 = 9


@dataclass(frozen=True)
class NetworkDims:
    """Antenna quartet (M_P, M_S, N_P, N_S)."""

    M_P: int
    M_S: int
    N_P: int
    N_S: int

    def __post_init__(self) -> None:
        for name in ("M_P", "M_S", "N_P", "N_S"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ScenarioError(f"{name} must be an integer, got {v!r}")
            if not 1 <= v <= MAX_ANTENNAS:
                raise ScenarioError(f"{name} must be in 1..{MAX_ANTENNAS}, got {v}")

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
        for name in ("d_P1", "d_P2", "d_S1", "d_S2"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ScenarioError(f"{name} must be a nonnegative integer, got {v!r}")

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
        for name in ("sigma2_P1", "sigma2_P2", "sigma2_S1", "sigma2_S2", "Qav_P", "Qav_S"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0 and math.isfinite(v)):
                raise ScenarioError(f"{name} must be a finite positive number, got {v!r}")


def _channel_shapes(dims: NetworkDims) -> dict[str, tuple[int, int]]:
    """Shape of each channel matrix, in stream-id order (see CHANNEL_STREAMS)."""
    return {
        "H_P1": (dims.N_P, dims.M_P),
        "H_P2": (dims.N_P, dims.M_P),
        "Hp_P1": (dims.N_P, dims.M_S),
        "Hp_P2": (dims.N_P, dims.M_S),
        "H_S1": (dims.N_S, dims.M_S),
        "H_S2": (dims.N_S, dims.M_S),
        "Hp_S1": (dims.N_S, dims.M_P),
        "Hp_S2": (dims.N_S, dims.M_P),
    }


@dataclass(frozen=True)
class ChannelSet:
    """The eight channel matrices of one network realization.

    H_Pi  : N_P x M_P, primary BS to primary user i
    Hp_Pi : N_P x M_S, secondary BS to primary user i
    H_Sj  : N_S x M_S, secondary BS to secondary user j
    Hp_Sj : N_S x M_P, primary BS to secondary user j
    """

    dims: NetworkDims
    H_P1: np.ndarray
    H_P2: np.ndarray
    Hp_P1: np.ndarray
    Hp_P2: np.ndarray
    H_S1: np.ndarray
    H_S2: np.ndarray
    Hp_S1: np.ndarray
    Hp_S2: np.ndarray

    def __post_init__(self) -> None:
        for name, shape in _channel_shapes(self.dims).items():
            m = getattr(self, name)
            if m.shape != shape:
                raise ScenarioError(f"{name} must have shape {shape}, got {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ScenarioError(f"{name} contains non-finite entries")


def _normalize_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError(f"seed must be an integer, got {seed!r}")
    if seed < 0 or seed > _MASK64:
        raise ScenarioError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Derive an independent 64-bit sub-seed from an index path.

    Splitmix64 chain: each index is hashed and folded into the running
    seed, so (seed, i, j) and (seed, i', j) collide only with hash
    probability.  Used for per-trial and per-split sub-experiments.
    """
    x = _normalize_seed(seed)
    for i in indices:
        x = _splitmix64((x ^ _splitmix64((int(i) + 1) & _MASK64)) & _MASK64)
    return x


def substream(seed: int, stream: int) -> np.random.Generator:
    """Independent Philox generator for (seed, stream)."""
    key = np.array([_normalize_seed(seed), stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _SubstreamFactory:
    """Reuses one Philox instance across streams of the same seed.

    State reset is bit-identical to constructing a fresh
    ``Philox(key=(seed, stream))`` but roughly 3x cheaper, which matters
    in the million-draw feasibility sweeps.  Not thread-safe; create one
    per call site.
    """

    def __init__(self, seed: int):
        self._seed = _normalize_seed(seed)
        self._bg = np.random.Philox(key=np.array([0, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)

    def stream(self, stream: int) -> np.random.Generator:
        st = self._bg.state
        st["state"]["counter"][:] = 0
        st["state"]["key"][0] = self._seed
        st["state"]["key"][1] = stream & _MASK64
        st["buffer_pos"] = 4
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bg.state = st
        return self._gen


def generate_channels(dims: NetworkDims, seed: int) -> ChannelSet:
    """Draw all eight channel matrices for one network realization.

    Each matrix gets i.i.d. standard normal entries from its own Philox
    substream (see module docstring), so the same (dims, seed) always
    yields the same bits and matrices never perturb each other.  Arrays
    are returned read-only.
    """
    factory = _SubstreamFactory(seed)
    mats = {}
    for name, shape in _channel_shapes(dims).items():
        m = factory.stream(CHANNEL_STREAMS[name]).standard_normal(shape)
        m.flags.writeable = False
        mats[name] = m
    return ChannelSet(dims=dims, **mats)


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
    cells.  ``splits`` defaults to the single ``alloc``.
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


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"unknown key {key!r} in {where}")


def _section(data: dict, name: str, keys: set) -> dict:
    obj = data.get(name)
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ScenarioError(f"{name!r} must be an object")
    _reject_unknown(obj, keys, name)
    return obj


def scenario_from_dict(data: Any) -> Scenario:
    """Validate and convert a scenario JSON document."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "scenario")
    if "dims" not in data:
        raise ScenarioError("scenario requires a 'dims' object")
    dims_obj = _section(data, "dims", _DIMS_KEYS)
    missing = _DIMS_KEYS - dims_obj.keys()
    if missing:
        raise ScenarioError(f"dims is missing keys: {sorted(missing)}")
    dims = NetworkDims(**dims_obj)

    alloc = None
    if "alloc" in data:
        alloc_obj = _section(data, "alloc", _ALLOC_KEYS)
        missing = _ALLOC_KEYS - alloc_obj.keys()
        if missing:
            raise ScenarioError(f"alloc is missing keys: {sorted(missing)}")
        alloc = StreamAlloc(**alloc_obj)

    noise_obj = _section(data, "noise", _NOISE_KEYS)
    power_obj = _section(data, "power", _POWER_KEYS)
    noise = NoiseAndPower(**noise_obj, **power_obj)

    seed = _normalize_seed(data.get("seed", 0))
    trials = data.get("trials", 50)
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        raise ScenarioError(f"trials must be a positive integer, got {trials!r}")

    splits: list[StreamAlloc] = []
    if "splits" in data:
        raw_splits = data["splits"]
        if not isinstance(raw_splits, list) or not raw_splits:
            raise ScenarioError("'splits' must be a non-empty list of alloc objects")
        for i, s in enumerate(raw_splits):
            if not isinstance(s, dict):
                raise ScenarioError(f"splits[{i}] must be an object")
            _reject_unknown(s, _ALLOC_KEYS, f"splits[{i}]")
            missing = _ALLOC_KEYS - s.keys()
            if missing:
                raise ScenarioError(f"splits[{i}] is missing keys: {sorted(missing)}")
            splits.append(StreamAlloc(**s))
    elif alloc is not None:
        splits.append(alloc)

    budgets: list[tuple[float, float]] = []
    if "budgets" in data:
        raw_budgets = data["budgets"]
        if not isinstance(raw_budgets, list) or not raw_budgets:
            raise ScenarioError("'budgets' must be a non-empty list of finite positive numbers")
        for i, b in enumerate(raw_budgets):
            if not (isinstance(b, (int, float)) and not isinstance(b, bool) and b > 0 and math.isfinite(b)):
                raise ScenarioError(f"budgets[{i}] must be a finite positive number, got {b!r}")
            budgets.append((float(b), float(b)))
    else:
        budgets.append((noise.Qav_P, noise.Qav_S))

    grid_cap = data.get("grid_cap", DEFAULT_GRID_CAP)
    if not isinstance(grid_cap, int) or isinstance(grid_cap, bool) or grid_cap < 1:
        raise ScenarioError(f"grid_cap must be a positive integer, got {grid_cap!r}")

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
    """Load and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(data)
