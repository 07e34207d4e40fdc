import numpy as np
import pytest

from harboost.rng import SplitMix64, derive_seed, mix64

# First outputs for two seeds, frozen from an independent longhand
# transcription of the documented algorithm; they catch accidental
# drift in constants or shifts.
PINNED_SEED0 = (16775854370545085429, 2486460162324784788, 14088851136009080090)
PINNED_SEED1234567 = (2925565608679020135, 5204455046357939051, 8942796500948501658)


@pytest.mark.parametrize(
    "seed,expected", [(0, PINNED_SEED0), (1234567, PINNED_SEED1234567)]
)
def test_pinned_stream(seed, expected):
    s = SplitMix64(seed)
    assert tuple(s.next_uint64() for _ in range(3)) == expected


def test_outputs_are_64_bit_and_deterministic():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    xs = [a.next_uint64() for _ in range(100)]
    ys = [b.next_uint64() for _ in range(100)]
    assert xs == ys
    assert all(0 <= x < 2**64 for x in xs)


def test_mix64_matches_manual_finalizer():
    z = 0x123456789ABCDEF0
    m = (1 << 64) - 1
    v = z
    v = ((v ^ (v >> 30)) * 0xBF58476D1393CFD9) & m
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & m
    v ^= v >> 31
    assert mix64(z) == v


def test_next_below_range_and_reachability():
    s = SplitMix64(5)
    seen = {s.next_below(7) for _ in range(500)}
    assert seen == set(range(7))
    with pytest.raises(ValueError):
        s.next_below(0)


def test_next_float_in_unit_interval():
    s = SplitMix64(99)
    xs = [s.next_float() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.3 < sum(xs) / len(xs) < 0.7


def test_shuffle_is_permutation_and_seed_dependent():
    base = list(range(50))
    a, b = base[:], base[:]
    SplitMix64(1).shuffle(a)
    SplitMix64(1).shuffle(b)
    assert a == b
    assert sorted(a) == base
    c = base[:]
    SplitMix64(2).shuffle(c)
    assert c != a


def test_sample_indices_distinct():
    s = SplitMix64(3)
    for _ in range(50):
        picked = s.sample_indices(10, 4)
        assert len(picked) == 4
        assert len(set(picked)) == 4
        assert all(0 <= i < 10 for i in picked)


def test_derive_seed_changes_with_parts():
    assert derive_seed(42) == 42
    assert derive_seed(42, 0) != derive_seed(42, 1)
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
    assert derive_seed(42, 7) == derive_seed(42, 7)


@pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 3])
def test_next_floats_equals_sequential_draws(seed):
    bulk, seq = SplitMix64(seed), SplitMix64(seed)
    got = bulk.next_floats(257)
    assert got.dtype == np.float64
    assert got.tolist() == [seq.next_float() for _ in range(257)]
    # both streams continue from the same state
    assert bulk.next_uint64() == seq.next_uint64()


def test_next_floats_zero_and_negative():
    s, ref = SplitMix64(42), SplitMix64(42)
    assert s.next_floats(0).shape == (0,)
    assert s.next_uint64() == ref.next_uint64()
    with pytest.raises(ValueError):
        s.next_floats(-1)
