"""Scenario validation, channel generation and config file parsing."""

import dataclasses
import enum
import json
import random
import re
import sys
import threading

import numpy as np
import pytest

import cogia.scenario
from cogia.errors import ScenarioError
from cogia.numerics import RANK_TOL
from cogia.scenario import (
    CHANNEL_ORDER,
    MAX_ANTENNAS,
    ChannelSet,
    NetworkDims,
    NoiseAndPower,
    StreamAlloc,
    derive_seed,
    generate_channels,
    load_scenario,
    scenario_from_dict,
    substream,
)
from bits import same_bits


class TestTypes:
    def test_dims_validation(self):
        NetworkDims(1, 1, 1, 1)
        NetworkDims(MAX_ANTENNAS, 1, 1, 1)
        with pytest.raises(ScenarioError):
            NetworkDims(0, 1, 1, 1)
        with pytest.raises(ScenarioError):
            NetworkDims(MAX_ANTENNAS + 1, 1, 1, 1)

    def test_alloc_validation(self):
        StreamAlloc(0, 0, 0, 0)
        StreamAlloc(0, 0, MAX_ANTENNAS, 0)
        for counts in ((-1, 0, 0, 0), (0, 0, MAX_ANTENNAS + 1, 0)):
            with pytest.raises(ScenarioError):
                StreamAlloc(*counts)

    def test_noise_positive(self):
        # every field is checked, and its refusal names it
        for name in (f.name for f in dataclasses.fields(NoiseAndPower)):
            for bad in (0.0, -1.0):
                with pytest.raises(ScenarioError, match=re.escape(f"{name} must be a finite positive number, got {bad}")):
                    NoiseAndPower(**{name: bad})

    def test_z_helper(self):
        assert NetworkDims(5, 5, 5, 3).Z == 0
        assert NetworkDims(4, 4, 2, 2).Z == 2


class TestChannelGeneration:
    def test_deterministic(self):
        dims = NetworkDims(2, 2, 1, 1)
        a = generate_channels(dims, 7)
        b = generate_channels(dims, 7)
        for name in ("H_P1", "H_P2", "Hp_P1", "Hp_P2", "H_S1", "H_S2"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_output(self):
        dims = NetworkDims(2, 2, 1, 1)
        a = generate_channels(dims, 7)
        b = generate_channels(dims, 8)
        assert not np.array_equal(a.H_P1, b.H_P1)

    def test_shapes_reference_network(self):
        ch = generate_channels(NetworkDims(5, 5, 5, 3), 1)
        assert ch.H_P1.shape == (5, 5)
        assert ch.H_S1.shape == (3, 5)
        assert ch.Hp_P1.shape == (5, 5)

    @pytest.mark.parametrize("dims_tuple", [(3, 2, 2, 1), (12, 16, 10, 5)])
    def test_matches_documented_layout(self, dims_tuple):
        # the six matrices are consecutive row-major slices of one draw on
        # the Philox stream keyed (seed, 0), in the documented order
        M_P, M_S, N_P, N_S = dims_tuple
        layout = [
            ("H_S1", (N_S, M_S)), ("H_S2", (N_S, M_S)), ("H_P1", (N_P, M_P)),
            ("H_P2", (N_P, M_P)), ("Hp_P1", (N_P, M_S)), ("Hp_P2", (N_P, M_S)),
        ]
        ch = generate_channels(NetworkDims(*dims_tuple), 99)
        flat = substream(99, 0).standard_normal(sum(r * c for _, (r, c) in layout))
        start = 0
        for name, (r, c) in layout:
            assert np.array_equal(getattr(ch, name), flat[start : start + r * c].reshape(r, c)), name
            start += r * c

    def test_moments_standard_normal(self):
        dims = NetworkDims(4, 4, 2, 2)
        samples = []
        seed = 0
        while sum(s.size for s in samples) < 10_000:
            ch = generate_channels(dims, seed)
            samples.extend(
                getattr(ch, n)
                for n in ("H_P1", "H_P2", "Hp_P1", "Hp_P2", "H_S1", "H_S2")
            )
            seed += 1
        pooled = np.concatenate([s.ravel() for s in samples])
        assert abs(pooled.mean()) < 0.05
        assert abs(pooled.var() - 1.0) < 0.05

    def test_bad_seed_in_a_stack_raises_before_any_draw(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(cogia.scenario._SubstreamFactory, "normal", lambda self, *args: drawn.append(args))
        bad_seeds = ((-1, "64 unsigned bits"), (1 << 64, "64 unsigned bits"), (2.0, "integer"), (True, "integer"))
        for bad, message in bad_seeds:
            with pytest.raises(ScenarioError, match=message):
                generate_channels(NetworkDims(2, 2, 2, 2), [1, 2, bad])
        assert drawn == []

    def test_threads_draw_the_same_bits(self):
        # each thread draws from its own Philox instance: interleaved draws
        # of four threads equal the draws of one
        dims = NetworkDims(4, 4, 3, 2)
        expected = {seed: generate_channels(dims, [seed, seed + 1]) for seed in range(0, 400, 2)}
        results, errors = {}, []

        def worker(start):
            try:
                for seed in range(start, 400, 8):
                    results[seed] = generate_channels(dims, [seed, seed + 1])
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(start,)) for start in (0, 2, 4, 6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert results.keys() == expected.keys()
        for seed, ch in results.items():
            for name in ("H_P1", "H_P2", "Hp_P1", "Hp_P2", "H_S1", "H_S2"):
                assert np.array_equal(getattr(ch, name), getattr(expected[seed], name)), (seed, name)

    def test_stream_reset_matches_a_fresh_philox(self):
        # a reset draws the bits of a fresh Philox(key=(seed, stream id)),
        # also right after a stream of another seed or id was left
        # mid-buffer, and in two threads at once
        seeds = (0, 1, (1 << 64) - 1)
        in_order = [(seed, sid) for seed in seeds for sid in range(10)]
        interleaved = [(seed, sid) for _ in range(2) for sid in (0, 8, 9) for seed in seeds]

        def fresh(seed, sid):
            return np.random.Generator(np.random.Philox(key=np.array([seed, sid], dtype=np.uint64)))

        def check(streams, schedule):
            for seed, sid in schedule:
                assert np.array_equal(streams.stream(seed, sid).standard_normal(7), fresh(seed, sid).standard_normal(7))
                # an odd number of 32-bit draws keeps half a 64-bit word
                words = streams.stream(seed, sid).integers(0, 1 << 32, 5, dtype=np.uint32)
                assert np.array_equal(words, fresh(seed, sid).integers(0, 1 << 32, 5, dtype=np.uint32))
                assert streams._bg.state["has_uint32"] == 1
                assert np.array_equal(streams.stream(seed, sid).standard_normal(7), fresh(seed, sid).standard_normal(7))
                # left mid-buffer for the next reset
                streams.stream(seed, sid).integers(0, 1 << 32, 3, dtype=np.uint32)

        streams = cogia.scenario._SubstreamFactory()
        check(streams, in_order + interleaved)
        # the instance copies the factory's state dict in and never writes
        # back to it, and a state read hands out a dict of its own
        state = streams._bg.state
        assert state is not streams._state and state["state"] is not streams._key
        state["state"]["key"][:] = 7
        state["buffer_pos"] = 0
        assert streams._key == {"counter": (0, 0, 0, 0), "key": seeds[-1:] + (9,)}
        assert streams._state["buffer_pos"] == 4 and streams._state["has_uint32"] == 0
        check(streams, interleaved)

        errors = []

        def worker(schedule):
            try:
                check(cogia.scenario._thread_streams(), schedule * 20)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(sched,)) for sched in (interleaved, interleaved[::-1])]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []

    def test_read_only(self):
        ch = generate_channels(NetworkDims(2, 2, 2, 2), 0)
        with pytest.raises(ValueError):
            ch.H_P1[0, 0] = 1.0

    def test_generic_full_rank(self):
        # 1000 seeds, random dims up to (8,8,8,8): every matrix full rank
        rng = np.random.default_rng(31337)
        for seed in range(1000):
            dims = NetworkDims(*(int(v) for v in rng.integers(1, 9, size=4)))
            ch = generate_channels(dims, seed)
            for name in ("H_P1", "H_P2", "Hp_P1", "Hp_P2", "H_S1", "H_S2"):
                M = getattr(ch, name)
                s = np.linalg.svd(M, compute_uv=False)
                rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
                assert rank == min(M.shape), f"{name} rank-deficient at seed {seed}"

    def test_substream_rejects_bad_stream_id(self):
        # folded mod 2^64, -1 would draw the bits of stream 2^64 - 1 and
        # 2^64 + 3 those of stream 3; each of those keeps its own key
        for bad, alias in ((-1, (1 << 64) - 1), ((1 << 64) + 3, 3)):
            with pytest.raises(ScenarioError, match="stream id must fit in 64 unsigned bits"):
                substream(1, bad)
            fresh = np.random.Generator(np.random.Philox(key=np.array([1, alias], dtype=np.uint64)))
            assert np.array_equal(substream(1, alias).standard_normal(4), fresh.standard_normal(4))
        # True would key stream 1
        for bad in (1.5, True):
            with pytest.raises(ScenarioError, match="stream id must be an integer"):
                substream(1, bad)


class TestChannelSet:
    DIMS = NetworkDims(4, 3, 2, 2)  # six matrices, four shapes

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("seeds", [5, [5, 6, 7]], ids=["one_lane", "stack"])
    def test_non_finite_entry_names_its_matrix(self, bad, seeds):
        ch = generate_channels(self.DIMS, seeds)
        for name in CHANNEL_ORDER:
            mats = {n: getattr(ch, n).copy() for n in CHANNEL_ORDER}
            mats[name][..., -1, 0] = bad
            with pytest.raises(ScenarioError, match=f"^{name} contains non-finite entries$"):
                ChannelSet(dims=self.DIMS, **mats)

    @pytest.mark.parametrize("seeds", [5, [5, 6, 7]], ids=["one_lane", "stack"])
    def test_wrong_shape_is_reported_before_any_finiteness_check(self, seeds):
        ch = generate_channels(self.DIMS, seeds)
        mats = {n: getattr(ch, n).copy() for n in CHANNEL_ORDER}
        mats["H_S1"][..., 0, 0] = np.nan  # first in CHANNEL_ORDER
        mats["Hp_P2"] = mats["Hp_P2"][..., :, :2]  # last in CHANNEL_ORDER
        lanes = np.shape(ch.H_P1)[:-2]
        expected = f"Hp_P2 must have shape {lanes + (2, 3)}, got {lanes + (2, 2)}"
        with pytest.raises(ScenarioError, match=re.escape(expected)):
            ChannelSet(dims=self.DIMS, **mats)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seen = {derive_seed(5, i, j) for i in range(30) for j in range(30)}
        assert len(seen) == 900

    def test_rejects_bad_seed(self):
        with pytest.raises(ScenarioError):
            derive_seed(-1)
        with pytest.raises(ScenarioError):
            derive_seed(1 << 64)

    @pytest.mark.parametrize(
        "bad, message",
        [(-1, "64 unsigned bits"), (1 << 64, "64 unsigned bits"), (True, "integer"), (1.9, "integer"), ("3", "integer"),
         (np.int64(3), "integer")],
    )
    def test_rejects_bad_index(self, bad, message):
        # each would otherwise hash as another index path: -1 as 2^64 - 1,
        # True and 1.9 as 1
        with pytest.raises(ScenarioError, match=f"index must .*{message}"):
            derive_seed(5, 2, bad)

    def test_valid_paths_keep_their_values(self):
        # values of the unchecked, unmemoised chain, inside and beyond the
        # table of hashed indices
        assert derive_seed(0) == 0
        assert derive_seed(5, 0) == 12773366489153039575
        assert derive_seed(5, (1 << 64) - 1) == 4517933670823692284
        assert derive_seed(7, 1023, 1024) == 17488861735910623203
        assert derive_seed((1 << 64) - 1, 3, 10**6, 1 << 63) == 16383821754679225621
        assert derive_seed(202, 5, 5, 5, 3, 1, 0, 2, 2) == 5263179902432970534

    def test_matches_the_splitmix64_chain(self):
        # the chain written out with _splitmix64: hash each index, fold it
        # into the running seed, hash again
        def reference(seed, *indices):
            x = seed
            for i in indices:
                x = cogia.scenario._splitmix64(x ^ cogia.scenario._splitmix64(i + 1))
            return x

        top = (1 << 64) - 1
        rng = random.Random(20261018)
        edges = [0, 1, 1023, 1024, top]
        for _ in range(1200):
            seed = rng.choice([0, top, rng.randrange(1 << 64), rng.randrange(1 << 10)])
            path = [
                rng.choice([rng.choice(edges), rng.randrange(2048), rng.randrange(1 << 64)])
                for _ in range(rng.randrange(10))
            ]
            assert derive_seed(seed, *path) == reference(seed, *path), (seed, path)
        for seed in (0, top):
            assert derive_seed(seed, *edges) == reference(seed, *edges)

    def test_int_subclass_seed_is_a_plain_int(self):
        class Seed(enum.IntEnum):
            SEVEN = 7

        seed = Seed.SEVEN
        assert type(derive_seed(seed)) is int and derive_seed(seed) == 7
        assert derive_seed(5, seed) == derive_seed(5, 7)
        dims = NetworkDims(3, 4, 2, 2)
        ch, ch_int = generate_channels(dims, seed), generate_channels(dims, 7)
        for name in CHANNEL_ORDER:
            assert same_bits(getattr(ch, name), getattr(ch_int, name)), name
        assert same_bits(substream(seed, seed).standard_normal(8), substream(7, 7).standard_normal(8))

    def test_a_path_continues_from_its_prefix(self):
        # derive_seed(s, i, j) == derive_seed(derive_seed(s, i), j): a rate
        # sweep seeds split i with derive_seed(s, i) and draws its trial j
        # from that, the seed derive_seed(s, i, j) names
        top = (1 << 64) - 1
        rng = random.Random(20261020)
        edges = [0, 1, 1023, 1024, 1025, top]
        assert cogia.scenario._HASHED_INDICES == 1024
        for _ in range(500):
            seed = rng.choice([0, top, rng.randrange(1 << 64)])
            i, j = (rng.choice([rng.choice(edges), rng.randrange(2048), rng.randrange(1 << 64)]) for _ in range(2))
            assert derive_seed(seed, i, j) == derive_seed(derive_seed(seed, i), j), (seed, i, j)
        for i in edges:
            for j in edges:
                assert derive_seed(7, i, j) == derive_seed(derive_seed(7, i), j)


class TestScenarioFiles:
    GOOD = {
        "dims": {"M_P": 5, "M_S": 5, "N_P": 5, "N_S": 3},
        "alloc": {"d_P1": 1, "d_P2": 0, "d_S1": 2, "d_S2": 2},
        "noise": {"sigma2_P1": 1.0, "sigma2_P2": 1.0, "sigma2_S1": 1.0, "sigma2_S2": 1.0},
        "power": {"Qav_P": 10.0, "Qav_S": 10.0},
        "seed": 42,
        "trials": 50,
    }

    def test_load_good(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.GOOD))
        sc = load_scenario(path)
        assert sc.dims == NetworkDims(5, 5, 5, 3)
        assert sc.alloc == StreamAlloc(1, 0, 2, 2)
        assert sc.seed == 42 and sc.trials == 50
        assert sc.splits == (StreamAlloc(1, 0, 2, 2),)
        assert sc.budgets == ((10.0, 10.0),)

    def test_unknown_top_key_named(self):
        bad = dict(self.GOOD, extra_knob=1)
        with pytest.raises(ScenarioError, match="extra_knob"):
            scenario_from_dict(bad)

    def test_unknown_nested_key_named(self):
        bad = dict(self.GOOD, dims={**self.GOOD["dims"], "M_X": 2})
        with pytest.raises(ScenarioError, match="M_X"):
            scenario_from_dict(bad)

    def test_missing_dims(self):
        with pytest.raises(ScenarioError, match="dims"):
            scenario_from_dict({"seed": 1})

    def test_defaults(self):
        sc = scenario_from_dict({"dims": self.GOOD["dims"]})
        assert sc.noise == NoiseAndPower()
        assert sc.seed == 0 and sc.trials == 50
        assert sc.alloc is None and sc.splits == ()
        assert sc.budgets == ((1.0, 1.0),)

    def test_splits_and_budgets(self):
        data = dict(
            self.GOOD,
            splits=[
                {"d_P1": 1, "d_P2": 0, "d_S1": 2, "d_S2": 2},
                {"d_P1": 1, "d_P2": 1, "d_S1": 1, "d_S2": 1},
            ],
            budgets=[1, 10.0, 100],
        )
        sc = scenario_from_dict(data)
        assert len(sc.splits) == 2
        assert sc.budgets == ((1.0, 1.0), (10.0, 10.0), (100.0, 100.0))

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"dims": {"M_P": 5.0, "M_S": 5, "N_P": 5, "N_S": 3}}, "M_P must be an integer, got 5.0"),
            ({"alloc": {"d_P1": 1, "d_P2": 0, "d_S1": True, "d_S2": 2}}, "d_S1 must be an integer, got True"),
            ({"noise": {"sigma2_S2": "1.0"}}, "sigma2_S2 must be a finite positive number, got '1.0'"),
            ({"power": {"Qav_P": None}}, "Qav_P must be a finite positive number, got None"),
            ({"noise": [1.0, 1.0, 1.0, 1.0]}, "'noise' must be an object"),
            ({"dims": [5, 5, 5, 3]}, "dims must be an object"),
            ({"splits": [{"d_P1": 1, "d_P2": 0, "d_S1": 2, "d_S2": 2}, 4]}, "splits[1] must be an object"),
            ({"dims": {"M_P": 5, "M_S": 5}}, "dims is missing keys: ['N_P', 'N_S']"),
            ({"trials": 0}, "trials must be a positive integer, got 0"),
            ({"trials": 2.0}, "trials must be a positive integer, got 2.0"),
            ({"splits": []}, "'splits' must be a non-empty list of alloc objects"),
            ({"budgets": 10.0}, "'budgets' must be a non-empty list of finite positive numbers"),
            ({"grid_cap": True}, "grid_cap must be a positive integer, got True"),
        ],
        ids=[
            "float-count", "bool-count", "string-noise", "null-power", "section-not-object", "record-not-object",
            "split-not-object", "missing-keys", "zero-trials", "float-trials", "empty-splits", "scalar-budgets",
            "bool-grid-cap",
        ],
    )
    def test_refused_document(self, patch, message):
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(dict(self.GOOD, **patch))
        assert str(info.value) == message

    def test_document_that_is_not_an_object(self):
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict([self.GOOD])
        assert str(info.value) == "scenario document must be a JSON object"

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        for content in (b"{not json", b"\xff\xfe{}"):  # not JSON; not UTF-8
            path.write_bytes(content)
            with pytest.raises(ScenarioError):
                load_scenario(path)
