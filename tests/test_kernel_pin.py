"""Bit pin of the linear-algebra kernels, of one seeded construction stack, of the rate layer and of whole runs.

Each kernel runs over seeded one-matrix and stacked inputs, and the sha256
of its outputs' bytes (in call order) must equal the recorded digest.  A
rate-layer entry hashes every field of each result it makes.  The
criterion-6 goldens see the kernels only through whole runs; this gate
shows bit identity at each kernel, so a change that claims to move no
output bit can be checked where the bits are made.  The whole-run pin
hashes the ``verify`` and ``rates`` CSVs of the benchmark's two scenario
files at seeds 1-3, read from ``perfbench/scenarios`` and never edited.
The overflow table pins the rate sweep's outcome on those files at extreme
budgets and noise variances: the digest of its points, or its refusal.
"""

import dataclasses
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cogia.alignment import draw_system, effective_channels
from cogia.cli import main
from cogia.errors import NoComplement, ScenarioError
from cogia.numerics import min_norm_right_solve, null_space_basis, svd_factor, zero_forcing_columns
from cogia.rates import StreamGroup, pcell_sum_rate, rate_region_sweep, scell_sum_rate, waterfill_cell
from cogia.scenario import CHANNEL_ORDER, NetworkDims, NoiseAndPower, StreamAlloc, derive_seed, load_scenario
from bits import build_note

# recorded at commit 9b1a284 with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64),
# svd_factor and then null_space_basis re-recorded when each dropped its
# sign convention (LAPACK's vectors as they come: whole columns negated);
# another BLAS/LAPACK build may move the last bits
KERNEL_SHA256 = {
    "null_space_basis": "9f1e14a338e8d463963e8c80ddbe8d1a3ece07fa7e4983d92482ed13aa7f841c",
    "zero_forcing_columns": "198df178811d9a6621e606097977b77c72ddcad3f324928d5292b3655dc00e0b",
    "min_norm_right_solve": "3347848538c3b23aab1a242e32a5004349a2c522b7cef0b03acb7a914036b518",
    "svd_factor": "1f5c0e5a917aee8a55c326130f553f70dafa44eee69c7dea89cb8cfc9c482b32",
    "draw_system": "64871285ef8f9d786fbffea14777d4662aefd1ce01c78be032ac1a0f1d13b714",
    "refusal": "fc0a02124dadb11f55558d3e36e0e4d2b81996aeb4b468c7741496ed51d63691",
}
# recorded at commit 7bd4dcc, on the same numpy and BLAS; pcell_sum_rate
# re-recorded with null_space_basis: only the covariances Q of the Z = 2
# case moved, by at most 4.6e-16 relative, and no rate or power did
RATE_SHA256 = {
    "waterfill_cell": "6070bc07a29d9fc530ab770bd7325ca186ccdabcfeccf0d3ea99787a48b8f70f",
    "pcell_sum_rate": "892183e9e8fe8e69d75ddd40e8ec097a98f241a980722479caef3131ea9a2674",
    "scell_sum_rate": "c3e1566f5c2d11ae0c5c6bc4853d5ecdc7cb4903e6137963c69aa856807b3767",
    "rate_region_sweep": "8e995c34e67e96f08d258515136d94c16828eb129613c29d8fe1b75e49031da6",
}
# recorded at commit a021f9b, on the same numpy and BLAS: the sha256 of the
# CSV of each (scenario file, command, --seed) run, the one whole-run pin
# whose configuration has Z > 0 and so calls null_space_basis
SCENARIOS = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
CSV_SHA256 = {
    ("readme.json", "verify", 1): "2afb7960a40a1665e07993b0444597fe94ecd25eaafebe2852e41f52f8dabafe",
    ("readme.json", "verify", 2): "ed8f8f38eb6fbf41a33c443f0bab836f4b1f5914512a1df39d4222a7716d9aa0",
    ("readme.json", "verify", 3): "b3748d5c2a012321d8ecb5da0a7900767b0537a5a6b899f43ccbbd6f06c9459f",
    ("readme.json", "rates", 1): "612d8a3edf35dfc7b85920d55408c78cfa652b3b7316623fcd6f973277f8f20e",
    ("readme.json", "rates", 2): "3cbac4ba7baa85681adfb04d5ccc32936631215385e77911c418f7a6cac964af",
    ("readme.json", "rates", 3): "7335b32d027beb7e4d74ae5dd6f6d9d49963d52a0509063c1effdf4c928a1ed2",
    ("verify_large.json", "verify", 1): "3ec79960026314080839940246bae7b8c1839ce4d5fd723e85ba186be46b40be",
    ("verify_large.json", "verify", 2): "39d72a53a6874c612770b7d3bd165b5f5573b99109dcbf56403ee071a7b3dfe1",
    ("verify_large.json", "verify", 3): "94ea0939638bfee9b12923e151bc6402827360a71ed3c198c8bc74af2ab2d383",
    ("verify_large.json", "rates", 1): "21e165dbf387953dadac5e4f6db48068777c96010c04bbd3f8eb8673c0679059",
    ("verify_large.json", "rates", 2): "b6789c6ef310adf500d504fa1fbd1ef2b6125b7b593d4933f5532b84eda681ef",
    ("verify_large.json", "rates", 3): "abafe63738cca3abc4044cf69aa62eab65918ca7d66a637cfb87489ac5aa073b",
}
CSV_NAME = {"verify": "verify_report.csv", "rates": "rates.csv"}
# recorded at commit c528deb, on the same numpy and BLAS: the outcome of
# rate_region_sweep(dims, splits, [(1, 1), b], 5, seed) for each (scenario
# file, noise record), one row per budget pair b of OVERFLOW_BUDGETS and one
# entry per seed 0-2: the first 16 hex digits of the digest of every field
# of its points, or "P<s>" ("S<s>") where the primary (secondary) cell of
# split s is refused as overflowing at its budget in b
OVERFLOW_BUDGETS = [
    (1e290, 1e290), (1e303, 1.0), (1.0, 1e303), (1e305, 1e305),
    (3e306, 1.0), (1.0, 3e306), (1e307, 1e307), (8.9e307, 1.0),
]
OVERFLOW_NOISE = {"own": {}, "sigma2_S1": {"sigma2_S1": 1e-300}, "sigma2_P1": {"sigma2_P1": 1e-250}}
SWEEP_OUTCOMES = {
    ("readme.json", "own"): [
        ["6dbf297b808bc17a", "8f49220f5073181c", "d7d9ba67017b6f07"],
        ["7feaf85efee171bb", "c51e26f4b22efd83", "28fdac9f803fbc34"],
        ["fa14f3b4a57dc5fe", "7684ab0e86567b73", "f79f8458ddbb4547"],
        ["P1", "3ef64c1c5beb98cf", "P1"],
        ["P1", "P0", "P0"],
        ["de29e46c63faca7b", "94e575895ff481e5", "6ef45171500a5a11"],
        ["P1", "P0", "P0"],
        ["P1", "P0", "P0"],
    ],
    ("readme.json", "sigma2_S1"): [
        ["S0", "S0", "S0"],
        ["94ceae1d503bd6a4", "0ca2c7ae0b90f53b", "19fd6cdc73f4d16f"],
        ["S0", "S0", "S0"],
        ["S0", "S0", "S0"],
        ["P1", "P0", "P0"],
        ["S0", "S0", "S0"],
        ["S0", "P0", "P0"],
        ["P1", "P0", "P0"],
    ],
    ("readme.json", "sigma2_P1"): [
        ["P0", "P0", "P0"],
        ["P0", "P0", "P0"],
        ["c85f46e3ed603cda", "e2fddc104456a00e", "4da9850946be2978"],
        ["P0", "P0", "P0"],
        ["P0", "P0", "P0"],
        ["17c7cb3a2e08b6ff", "0bd5359276faef1f", "f7abae1f06ceaf3e"],
        ["P0", "P0", "P0"],
        ["P0", "P0", "P0"],
    ],
    ("verify_large.json", "own"): [
        ["955c13fab8e83ead", "5b2a16cb0e1f18d2", "cfef4cb1de585932"],
        ["c5bc4a50d173f397", "154ebf2f56d0271c", "2f456731d9b3227c"],
        ["46007aaaa8180766", "50392a2b77976ede", "266d5bde168b6c48"],
        ["8aa649fbd2f4cb6b", "0b13ef44df3a0a58", "cabb001bd3695426"],
        ["bfa2eecc62bc0a3a", "037ee00ece7f168c", "f7ce1e2de7827243"],
        ["5bfe331e247a2b07", "cf5f85235d5276f7", "1ac3f24001c642be"],
        ["1d921e7a5edd3dcb", "83c2f7016a12e2e9", "55c0d5082db53b8e"],
        ["P0", "05875e5f52fd2765", "a5132a1ff728552c"],
    ],
    ("verify_large.json", "sigma2_S1"): [
        ["S0", "S0", "S0"],
        ["4bfd43aeb0623bcd", "eb20716e4d45aaf7", "a2c062bbfb7da37c"],
        ["S0", "S0", "S0"],
        ["S0", "S0", "S0"],
        ["699ca8b3d12b303b", "280e9dd1772f2503", "ae5c175228b3c9cb"],
        ["S0", "S0", "S0"],
        ["S0", "S0", "S0"],
        ["P0", "344038dadea71ef8", "685549dd6007dc74"],
    ],
    ("verify_large.json", "sigma2_P1"): [
        ["P0", "P0", "P0"],
        ["P0", "P0", "P0"],
        ["bc9837395ad1f77b", "7bb26aace39920f4", "3821f8d46fbc1279"],
        ["P0", "P0", "P0"],
        ["P0", "P0", "P0"],
        ["c93413f021bd2deb", "f08c88590b0da1e3", "5819f0f1f6a0e695"],
        ["P0", "P0", "P0"],
        ["P0", "P0", "P0"],
    ],
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


@pytest.mark.pin
def test_benchmark_scenario_csvs_are_bit_pinned(tmp_path):
    digests = {}
    for config, command, seed in CSV_SHA256:
        out = tmp_path / f"{config}-{command}-{seed}"
        argv = [command, "--config", str(SCENARIOS / config), "--out", str(out), "--seed", str(seed), "--quiet"]
        assert main(argv) == 0
        digests[config, command, seed] = hashlib.sha256((out / CSV_NAME[command]).read_bytes()).hexdigest()
    assert digests == CSV_SHA256, build_note()


@pytest.mark.pin
def test_sweep_overflow_outcomes_are_pinned():
    # the sweep refuses a cell whose water level or rate overflows, and rates every other cell as before
    outcomes, expected = {}, {}
    for config, noise_name in SWEEP_OUTCOMES:
        sc = load_scenario(SCENARIOS / config)
        noise = dataclasses.replace(sc.noise, **OVERFLOW_NOISE[noise_name])
        outcomes[config, noise_name], expected[config, noise_name] = [], []
        for b, row in zip(OVERFLOW_BUDGETS, SWEEP_OUTCOMES[config, noise_name], strict=True):
            for seed, code in enumerate(row):
                try:
                    points = rate_region_sweep(sc.dims, sc.splits, [(1.0, 1.0), b], 5, seed, noise=noise)
                    outcomes[config, noise_name].append(digest([x for pt in points for x in fields(pt)])[:16])
                except ScenarioError as exc:
                    outcomes[config, noise_name].append(str(exc))
                if len(code) == 2:  # a refusal: its cell, then the index of its split
                    cell, budget = ("primary", b[0]) if code[0] == "P" else ("secondary", b[1])
                    split = sc.splits[int(code[1])].as_tuple()
                    code = f"the {cell} cell's rate problem overflows float64 at budget {budget!r} in split {split}"
                expected[config, noise_name].append(code)
    assert outcomes == expected, build_note()


def test_build_note_names_the_running_kernels():
    # the core as OpenBLAS reports it while loading into a fresh interpreter with this environment
    env = {**os.environ, "OPENBLAS_VERBOSE": "2"}
    err = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True, check=True).stderr
    core = re.search(r"^Core: (\S+)$", err, re.M)
    (log1p,) = np.lib.introspect.opt_func_info("log1p", "float64")["log1p"].values()
    note = build_note()
    assert f"running OpenBLAS core {core[1] if core else 'unknown'}," in note
    assert f"numpy log1p dispatch {log1p['current']};" in note
