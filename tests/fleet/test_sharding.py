"""Shard seed derivation and budget splitting."""

import pytest

from repro.fleet import ShardSpec, derive_shard_seeds, split_tests


class TestDeriveShardSeeds:
    def test_single_worker_passes_seed_through(self):
        # Load-bearing: this is what makes a 1-worker fleet bit-match
        # the serial campaign.
        assert derive_shard_seeds(42, 1) == [42]

    def test_deterministic(self):
        assert derive_shard_seeds(7, 4) == derive_shard_seeds(7, 4)

    def test_shards_get_distinct_seeds(self):
        seeds = derive_shard_seeds(0, 8)
        assert len(set(seeds)) == 8

    def test_different_base_seeds_decorrelate(self):
        assert derive_shard_seeds(1, 4) != derive_shard_seeds(2, 4)

    def test_different_widths_decorrelate(self):
        assert derive_shard_seeds(1, 2)[0] != derive_shard_seeds(1, 3)[0]

    def test_seeds_fit_in_63_bits(self):
        for seed in derive_shard_seeds(123, 16):
            assert 0 <= seed < 2**63

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            derive_shard_seeds(0, 0)


class TestSplitTests:
    def test_exact_split(self):
        assert split_tests(100, 4) == [25, 25, 25, 25]

    def test_remainder_spread_over_leading_shards(self):
        assert split_tests(10, 3) == [4, 3, 3]

    def test_sum_is_preserved(self):
        for n in (1, 7, 100, 2001):
            for w in (1, 2, 3, 8):
                assert sum(split_tests(n, w)) == n

    def test_time_only_budget_passes_through(self):
        assert split_tests(None, 3) == [None, None, None]

    def test_more_workers_than_tests(self):
        assert split_tests(2, 4) == [1, 1, 0, 0]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            split_tests(10, 0)


class TestShardSpec:
    def test_picklable(self):
        import pickle

        from repro.fleet import FleetConfig

        config = FleetConfig(
            workers=4,
            n_tests=2000,
            oracle="coddtest",
            oracle_kwargs={"max_depth": 4},
            dialect="mysql",
            buggy=True,
        )
        spec = ShardSpec(
            config=config,
            shard_index=1,
            seed=99,
            n_tests=500,
            seconds=None,
            max_reports=config.max_reports,
        )
        assert pickle.loads(pickle.dumps(spec)) == spec
