"""Tests for deterministic RNG stream derivation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pfs.perfmodel import PhaseContext
from repro.util.rng import (
    RankSeeds,
    choice_without_replacement,
    derive_seed,
    lognormal_factor,
    stream,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "ior", 1) == derive_seed(42, "ior", 1)

    def test_key_sensitivity(self):
        assert derive_seed(42, "ior", 1) != derive_seed(42, "ior", 2)

    def test_root_sensitivity(self):
        assert derive_seed(42, "x") != derive_seed(43, "x")

    def test_order_sensitivity(self):
        assert derive_seed(42, "a", "b") != derive_seed(42, "b", "a")

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_fits_in_63_bits(self, root, key):
        assert 0 <= derive_seed(root, key) < 2**63


class TestStream:
    def test_same_key_same_draws(self):
        a = stream(7, "phase", 3).random(5)
        b = stream(7, "phase", 3).random(5)
        assert np.array_equal(a, b)

    def test_different_key_different_draws(self):
        a = stream(7, "phase", 3).random(5)
        b = stream(7, "phase", 4).random(5)
        assert not np.array_equal(a, b)

    def test_draws_equal_default_rng(self):
        seed = derive_seed(7, "phase", 3)
        expected = np.random.default_rng(seed).random(5)
        assert np.array_equal(stream(7, "phase", 3).random(5), expected)


tag_values = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False),
)


class TestRankSeeds:
    @given(
        root=st.integers(min_value=0, max_value=2**62),
        tags=st.dictionaries(st.text(max_size=10), tag_values, max_size=6),
        access=st.sampled_from(["read", "write"]),
        head=st.sampled_from([("op",), ("md", "create"), ("md", "stat")]),
        rank=st.integers(min_value=0, max_value=10**6),
    )
    def test_equals_full_derivation(self, root, tags, access, head, rank):
        ctx = PhaseContext(
            active_procs=1, procs_per_node=1, node_factors=(1.0,), access=access, tags=tags
        )
        seeds = RankSeeds(root, *head, tail=ctx.noise_key("rank"))
        seed = derive_seed(root, *head, ctx.noise_key("rank", rank))
        assert seeds.seed(rank) == seed
        expected = lognormal_factor(np.random.default_rng(seed), 0.05, 16)
        assert np.array_equal(lognormal_factor(seeds.stream(rank), 0.05, 16), expected)

    @pytest.mark.parametrize("tail", [(), ("x",), (("a", "1"), "write", "rank")])
    def test_short_tails(self, tail):
        # A one-element key tuple renders as ``(rank,)``.
        assert RankSeeds(3, "op", tail=tail).seed(7) == derive_seed(3, "op", (*tail, 7))

    def test_each_rank_from_the_same_prefix(self):
        seeds = RankSeeds(5, "op", tail=("k",))
        ranks = (2, 1, 2)
        assert [seeds.seed(r) for r in ranks] == [derive_seed(5, "op", ("k", r)) for r in ranks]


class TestLognormalFactor:
    def test_zero_sigma_scalar(self):
        assert lognormal_factor(stream(1, "x"), 0.0) == 1.0

    def test_zero_sigma_vector(self):
        assert np.array_equal(lognormal_factor(stream(1, "x"), 0.0, 4), np.ones(4))

    def test_positive(self):
        draws = lognormal_factor(stream(1, "x"), 0.3, 1000)
        assert (draws > 0).all()

    def test_unit_median(self):
        draws = lognormal_factor(stream(1, "x"), 0.2, 20000)
        assert abs(np.median(draws) - 1.0) < 0.02

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            lognormal_factor(stream(1, "x"), -0.1)


class TestChoice:
    def test_distinct(self):
        picked = choice_without_replacement(stream(1, "c"), range(10), 5)
        assert len(set(picked)) == 5

    def test_too_many_raises(self):
        with pytest.raises(ValueError):
            choice_without_replacement(stream(1, "c"), range(3), 4)
