import numpy as np
import pytest

from edgemal.rng import SplitMix64


def test_same_seed_same_stream():
    a = SplitMix64(123)
    b = SplitMix64(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_uniform_range_and_spread():
    rng = SplitMix64(7)
    values = [rng.uniform() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.05


def test_normal_moments():
    rng = SplitMix64(11)
    values = [rng.normal() for _ in range(4000)]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert abs(mean) < 0.1
    assert abs(var - 1.0) < 0.15


def test_shuffle_is_permutation():
    rng = SplitMix64(3)
    items = list(range(40))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items


def test_substreams_differ_and_are_stable():
    root = SplitMix64(9)
    a1 = root.substream(0).next_u64()
    b1 = root.substream(1).next_u64()
    assert a1 != b1
    assert SplitMix64(9).substream(0).next_u64() == a1


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 0x9E3779B97F4A7C15])
@pytest.mark.parametrize("n", [0, 1, 7, 1040])
def test_bulk_draws_match_scalar_stream(seed, n):
    scalar = SplitMix64(seed)
    bulk = SplitMix64(seed)
    ref = np.array([scalar.normal() for _ in range(n)], dtype=np.float64)
    assert np.array_equal(bulk.normals(n).view(np.uint64), ref.view(np.uint64))
    assert bulk.next_u64() == scalar.next_u64()
    ref = np.array([scalar.uniform(-0.05, 0.05) for _ in range(n)], dtype=np.float64)
    assert np.array_equal(bulk.uniforms(n, -0.05, 0.05).view(np.uint64),
                          ref.view(np.uint64))
    assert bulk.next_u64() == scalar.next_u64()
