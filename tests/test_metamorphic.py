"""Metamorphic gates: scale equivariance and the symmetry of the two secondary users.

Neither property needs the closed form or the oracle, so these checks stay
independent of both.  A power-of-two scale commutes with every rounding
while nothing overflows or underflows, so scaling all six channels by
``2^k`` and all four noise variances by ``4^k`` must leave every precoder,
correction and combiner and both cells' rates bit for bit the same.
Swapping S1 and S2 (their channels and their stream counts) must swap
``V_S1`` and ``V_S2`` bit for bit; the primary receivers see the
secondary streams' interference in the other order, so ``U_P1`` and
``U_P2`` agree within ``ZERO_TOL`` only.
"""

import dataclasses

import numpy as np
import pytest

from cogia.alignment import build_all, draw_system, effective_channels
from cogia.dof import closed_form_feasible
from cogia.numerics import ZERO_TOL
from cogia.rates import pcell_sum_rate, scell_sum_rate
from cogia.scenario import CHANNEL_ORDER, NetworkDims, NoiseAndPower, StreamAlloc, derive_seed
from bits import same_bits
from test_alignment import PRS_ARRAYS

# one case per allocation family: the README splits (corrections, both
# secondary users), one secondary user, the secondary cell alone, Z = 3
# with no corrections, and the verify-large scenario
FAMILIES = [
    ((5, 5, 5, 3), (1, 0, 2, 2)),
    ((5, 5, 5, 3), (1, 1, 1, 1)),
    ((5, 5, 5, 3), (2, 1, 1, 0)),
    ((5, 5, 5, 3), (0, 0, 2, 1)),
    ((8, 6, 5, 3), (2, 1, 2, 1)),
    ((12, 16, 10, 5), (4, 4, 3, 3)),
]
SIGMA2 = {"sigma2_P1": 0.5, "sigma2_P2": 1.0, "sigma2_S1": 2.0, "sigma2_S2": 0.25}


def seeded_system(family: int, dims_tuple, alloc_tuple):
    dims, alloc = NetworkDims(*dims_tuple), StreamAlloc(*alloc_tuple)
    assert closed_form_feasible(dims, alloc).feasible
    seeds = [derive_seed(31, family, t) for t in range(20)]
    ch, _ = draw_system(dims, alloc, seeds)
    return ch, alloc, seeds


@pytest.mark.parametrize("family, dims_tuple, alloc_tuple", [(i, *case) for i, case in enumerate(FAMILIES)])
def test_power_of_two_scale_moves_no_bit(family, dims_tuple, alloc_tuple):
    ch, alloc, seeds = seeded_system(family, dims_tuple, alloc_tuple)
    outputs = {}
    for k in (0, 1, 3, -7, 101, -151):
        scaled = dataclasses.replace(ch, **{name: 2.0**k * getattr(ch, name) for name in CHANNEL_ORDER})
        prs = build_all(scaled, alloc, seeds)
        eff = effective_channels(scaled, prs)
        noise = NoiseAndPower(**{name: 4.0**k * s2 for name, s2 in SIGMA2.items()}, Qav_P=10.0, Qav_S=3.0)
        rates = (pcell_sum_rate(prs, eff, noise).sum_rate, scell_sum_rate(prs, eff, noise).sum_rate)
        outputs[k] = [getattr(prs, name) for name in PRS_ARRAYS] + list(rates)
    names = PRS_ARRAYS + ["R_P", "R_S"]
    moved = [(k, name) for k in outputs for name, x, y in zip(names, outputs[k], outputs[0]) if not same_bits(x, y)]
    assert moved == []


@pytest.mark.parametrize("family, dims_tuple, alloc_tuple", [(i, *case) for i, case in enumerate(FAMILIES)])
def test_swapping_the_secondary_users_swaps_their_precoders(family, dims_tuple, alloc_tuple):
    ch, alloc, seeds = seeded_system(family, dims_tuple, alloc_tuple)
    prs = build_all(ch, alloc, seeds)
    swapped = build_all(
        dataclasses.replace(ch, H_S1=ch.H_S2, H_S2=ch.H_S1),
        StreamAlloc(alloc.d_P1, alloc.d_P2, alloc.d_S2, alloc.d_S1),
        seeds,
    )
    assert same_bits(swapped.V_S1, prs.V_S2) and same_bits(swapped.V_S2, prs.V_S1)
    for name in ("U_P1", "U_P2"):
        assert getattr(swapped, name).shape == getattr(prs, name).shape
        assert np.abs(getattr(swapped, name) - getattr(prs, name)).max(initial=0.0) <= ZERO_TOL, name
