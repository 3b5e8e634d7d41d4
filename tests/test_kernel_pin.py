"""Bit pin of the linear-algebra kernels and of one seeded construction stack.

Each kernel runs over seeded one-matrix and stacked inputs, and the sha256
of its outputs' bytes (in call order) must equal the recorded digest.  The
criterion-6 goldens see the kernels only through whole runs; this gate
shows bit identity at each kernel, so a change that claims to move no
output bit can be checked where the bits are made.
"""

import hashlib

import numpy as np

from cogia.alignment import draw_system
from cogia.errors import NoComplement
from cogia.numerics import min_norm_right_solve, null_space_basis, svd_factor, zero_forcing_columns
from cogia.scenario import CHANNEL_ORDER, NetworkDims, StreamAlloc, derive_seed

# recorded at commit 9b1a284 with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64);
# another BLAS/LAPACK build may move the last bits of a float
KERNEL_SHA256 = {
    "null_space_basis": "9166f2ea98dce78f5ce09b108c37a6b93b4e287361b11e0e9f0074694dfd16f9",
    "zero_forcing_columns": "198df178811d9a6621e606097977b77c72ddcad3f324928d5292b3655dc00e0b",
    "min_norm_right_solve": "3347848538c3b23aab1a242e32a5004349a2c522b7cef0b03acb7a914036b518",
    "svd_factor": "7384627b5af9c3cf55cb694aa781bc56589a2ad176219dae8cb84354289e915a",
    "draw_system": "64871285ef8f9d786fbffea14777d4662aefd1ce01c78be032ac1a0f1d13b714",
    "refusal": "fc0a02124dadb11f55558d3e36e0e4d2b81996aeb4b468c7741496ed51d63691",
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


def digest(outputs) -> str:
    h = hashlib.sha256()
    for x in outputs:
        h.update(x.encode() if isinstance(x, str) else np.ascontiguousarray(x).tobytes())
    return h.hexdigest()


def test_kernel_outputs_are_bit_pinned():
    outputs = pinned_outputs()
    assert sum(map(len, outputs.values())) >= 50
    assert outputs["refusal"] == ["avoid space for stream 1 of S2 fills all 4 dimensions"]
    assert {name: digest(x) for name, x in outputs.items()} == KERNEL_SHA256
