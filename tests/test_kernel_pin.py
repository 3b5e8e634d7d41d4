"""Bit pin of the linear-algebra kernels, of one seeded construction stack and of the rate layer.

Each kernel runs over seeded one-matrix and stacked inputs, and the sha256
of its outputs' bytes (in call order) must equal the recorded digest.  A
rate-layer entry hashes every field of each result it makes.  The
criterion-6 goldens see the kernels only through whole runs; this gate
shows bit identity at each kernel, so a change that claims to move no
output bit can be checked where the bits are made.
"""

import dataclasses
import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from cogia.alignment import draw_system, effective_channels
from cogia.errors import NoComplement
from cogia.numerics import min_norm_right_solve, null_space_basis, svd_factor, zero_forcing_columns
from cogia.rates import StreamGroup, pcell_sum_rate, rate_region_sweep, scell_sum_rate, waterfill_cell
from cogia.scenario import CHANNEL_ORDER, NetworkDims, NoiseAndPower, StreamAlloc, derive_seed
from bits import build_note

# recorded at commit 9b1a284 with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64),
# svd_factor re-recorded when it dropped its sign convention (LAPACK's
# factors as they come); another BLAS/LAPACK build may move the last bits
KERNEL_SHA256 = {
    "null_space_basis": "9166f2ea98dce78f5ce09b108c37a6b93b4e287361b11e0e9f0074694dfd16f9",
    "zero_forcing_columns": "198df178811d9a6621e606097977b77c72ddcad3f324928d5292b3655dc00e0b",
    "min_norm_right_solve": "3347848538c3b23aab1a242e32a5004349a2c522b7cef0b03acb7a914036b518",
    "svd_factor": "1f5c0e5a917aee8a55c326130f553f70dafa44eee69c7dea89cb8cfc9c482b32",
    "draw_system": "64871285ef8f9d786fbffea14777d4662aefd1ce01c78be032ac1a0f1d13b714",
    "refusal": "fc0a02124dadb11f55558d3e36e0e4d2b81996aeb4b468c7741496ed51d63691",
}
# recorded at commit 7bd4dcc, on the same numpy and BLAS
RATE_SHA256 = {
    "waterfill_cell": "6070bc07a29d9fc530ab770bd7325ca186ccdabcfeccf0d3ea99787a48b8f70f",
    "pcell_sum_rate": "76bc5aa54961a4ec3e648851b66426665780e8279b52eff919ce74524268899f",
    "scell_sum_rate": "c3e1566f5c2d11ae0c5c6bc4853d5ecdc7cb4903e6137963c69aa856807b3767",
    "rate_region_sweep": "8e995c34e67e96f08d258515136d94c16828eb129613c29d8fe1b75e49031da6",
}

# one matrix, then a stack of 3 lanes, for each shape
SHAPES = [(1, 1), (2, 5), (3, 3), (4, 9), (5, 16), (16, 16)]


def normal(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(shape)


def kernel_inputs(kernel: int, shape_of):
    """The 12 seeded inputs of one kernel: each of SHAPES as one matrix and as a 3-lane stack."""
    for i, (m, n) in enumerate(SHAPES):
        for lanes in ((), (3,)):
            yield normal(1000 * kernel + 2 * i + len(lanes), lanes + shape_of(m, n))


def pinned_outputs():
    """Every pinned output, by kernel: a list of arrays or strings in call order."""
    out = {name: [] for name in KERNEL_SHA256}
    for A in kernel_inputs(1, lambda m, n: (m, n)):
        out["null_space_basis"].append(null_space_basis(A))
        out["svd_factor"].extend(svd_factor(A))
        # the transpose: a tall matrix with full column rank
        out["null_space_basis"].append(null_space_basis(np.swapaxes(A, -1, -2)))
    for i, A in enumerate(kernel_inputs(2, lambda m, n: (m, n))):
        b = normal(3000 + i, A.shape[:-1]), normal(4000 + i, A.shape[:-1] + (2,))
        out["min_norm_right_solve"].extend(min_norm_right_solve(A, rhs) for rhs in b)
    for i, B in enumerate(kernel_inputs(5, lambda m, n: (m, n + m))):
        d = (i // 2) % B.shape[-2] + 1
        out["zero_forcing_columns"].append(zero_forcing_columns(B[..., :d, :], B[..., d:, :], "P1"))
    dims, alloc = NetworkDims(5, 5, 5, 3), StreamAlloc(1, 0, 2, 2)
    for seeds in (derive_seed(23, 0), [derive_seed(23, t) for t in range(20)]):
        ch, prs = draw_system(dims, alloc, seeds)
        out["draw_system"].extend(getattr(ch, name) for name in CHANNEL_ORDER)
        out["draw_system"].extend(getattr(prs, name) for name in ("V_P1", "V_P2", "Vbar_P1", "Vbar_P2"))
        out["draw_system"].extend(getattr(prs, name) for name in ("V_S1", "V_S2", "U_P1", "U_P2", "U_S1", "U_S2"))
    try:
        zero_forcing_columns(normal(6000, (2, 4)), normal(6001, (3, 4)), "S2")
    except NoComplement as exc:
        out["refusal"].append(str(exc))
    return out


# (streams, dead streams) of each group of a seeded cell solve
GROUP_SPECS = [
    (), ((0, 0),), ((1, 0),), ((2, 0), (3, 0)), ((4, 0), (0, 0), (1, 0)),
    ((3, 1), (2, 0)), ((2, 0), (2, 2)), ((0, 0), (4, 1), (1, 1)),
]
BUDGETS = [0.0, 2.5, np.array([0.0, 0.7, 40.0])]
RATE_CASES = [((5, 5, 5, 3), (1, 0, 2, 2)), ((5, 5, 5, 3), (2, 1, 0, 0)), ((12, 16, 10, 5), (4, 4, 3, 3))]


def seeded_groups(seed: int, spec: tuple[tuple[int, int], ...], lanes: tuple[int, ...]) -> list[StreamGroup]:
    rng = np.random.default_rng(seed)
    groups = []
    for k, dead in spec:
        gammas = np.abs(rng.standard_normal(lanes + (k,)))
        gammas[..., k - dead :] = 0.0
        Psi = np.linalg.qr(rng.standard_normal(lanes + (k, k)))[0]
        groups.append(StreamGroup(gammas, float(rng.uniform(0.1, 2.5)), rng.standard_normal(lanes + (k + 2, k)), Psi))
    return groups


def fields(result) -> list:
    """Every field of a rate-layer result, nested results and tuples flattened, each after its name and shape."""
    out = []
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        if dataclasses.is_dataclass(value):
            out += [f.name, *fields(value)]
            continue
        for x in value if isinstance(value, tuple) else (value,):
            x = np.asarray(x)
            out += [f"{f.name} {x.shape} {x.dtype}", x]
    return out


def rate_outputs():
    """Every pinned rate-layer output, by function, in call order."""
    out = {name: [] for name in RATE_SHA256}
    for i, spec in enumerate(GROUP_SPECS):
        for lanes in ((), (3,), (2, 3)):
            groups = seeded_groups(7000 + 10 * i + len(lanes), spec, lanes)
            for budget in BUDGETS:
                out["waterfill_cell"] += fields(waterfill_cell(groups, budget))
    noise = NoiseAndPower(sigma2_P1=0.5, sigma2_P2=1.5, sigma2_S2=2.0, Qav_P=10.0, Qav_S=3.0)
    for dims, alloc in RATE_CASES:
        for seeds in (derive_seed(29, 0), [derive_seed(29, t) for t in range(3)]):
            ch, prs = draw_system(NetworkDims(*dims), StreamAlloc(*alloc), seeds)
            eff = effective_channels(ch, prs)
            out["pcell_sum_rate"] += fields(pcell_sum_rate(prs, eff, noise))
            out["scell_sum_rate"] += fields(scell_sum_rate(prs, eff, noise))
    splits = [StreamAlloc(1, 0, 2, 2), StreamAlloc(1, 1, 1, 1)]
    for trials in (1, 5):
        for point in rate_region_sweep(NetworkDims(5, 5, 5, 3), splits, [(1.0, 2.0), (30.0, 0.5)], trials, seed=3):
            out["rate_region_sweep"] += fields(point)
    return out


def digest(outputs) -> str:
    h = hashlib.sha256()
    for x in outputs:
        h.update(x.encode() if isinstance(x, str) else np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


@pytest.mark.pin
def test_kernel_outputs_are_bit_pinned():
    outputs = pinned_outputs()
    assert sum(map(len, outputs.values())) >= 50
    assert outputs["refusal"] == ["avoid space for stream 1 of S2 fills all 4 dimensions"]
    assert {name: digest(x) for name, x in outputs.items()} == KERNEL_SHA256, build_note()


@pytest.mark.pin
def test_rate_layer_outputs_are_bit_pinned():
    outputs = rate_outputs()
    assert {name: digest(x) for name, x in outputs.items()} == RATE_SHA256, build_note()


def test_build_note_names_the_running_kernels():
    # the core as OpenBLAS reports it while loading into a fresh interpreter with this environment
    env = {**os.environ, "OPENBLAS_VERBOSE": "2"}
    err = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True, check=True).stderr
    core = re.search(r"^Core: (\S+)$", err, re.M)
    (log1p,) = np.lib.introspect.opt_func_info("log1p", "float64")["log1p"].values()
    note = build_note()
    assert f"running OpenBLAS core {core[1] if core else 'unknown'}," in note
    assert f"numpy log1p dispatch {log1p['current']};" in note
