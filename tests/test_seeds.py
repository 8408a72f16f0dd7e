"""The in-house seeded stream against numpy's ``default_rng``, its reference."""

import os

import numpy as np
import pytest

from moving_string._seeds import uniforms


def reference(seed, n):
    return np.random.default_rng(seed).random(n)


@pytest.mark.parametrize("n", [1, 64, 128, 8000])
def test_seeds_0_to_999_match_default_rng(n):
    bad = [seed for seed in range(1000)
           if not np.array_equal(uniforms(seed, n), reference(seed, n))]
    assert not bad, bad


@pytest.mark.parametrize("seed", [2 ** 32, 2 ** 64 + 1, 2 ** 64 + 3, 10 ** 40, 2 ** 200 + 12345])
def test_multi_word_seeds_match_default_rng(seed):
    # words past the first and past the pool's fourth take their own mixing paths
    for n in (1, 128, 8000):
        assert np.array_equal(uniforms(seed, n), reference(seed, n))


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(2 ** 63 + 9), np.int32(0)])
def test_numpy_integer_seeds_match_default_rng(seed):
    assert np.array_equal(uniforms(seed, 128), reference(seed, 128))


def test_zero_draws():
    assert uniforms(0, 0).shape == (0,)


def test_bad_seeds_raise_as_numpy_does():
    with pytest.raises(ValueError):
        uniforms(-1, 4)
    with pytest.raises(ValueError):
        reference(-1, 4)
    for seed in (1.0, 0.5, "3"):
        with pytest.raises(TypeError):
            uniforms(seed, 4)
    with pytest.raises(TypeError):
        reference(1.5, 4)


@pytest.mark.parametrize("name", ["pcg64-testset-1.csv", "pcg64-testset-2.csv"])
def test_pcg64_reference_outputs(name):
    # numpy's own PCG64 test vectors: the seed, then 1000 raw 64-bit outputs,
    # of which a double keeps the top 53 bits
    path = os.path.join(os.path.dirname(np.__file__), "random", "tests", "data", name)
    if not os.path.exists(path):
        pytest.skip("numpy's random test data are not installed")
    with open(path) as fh:
        seed = int(fh.readline().split(",")[1], 0)
        raw = [int(line.split(",")[1], 0) for line in fh]
    expected = np.array([(r >> 11) * 2.0 ** -53 for r in raw])
    assert np.array_equal(uniforms(seed, len(raw)), expected)
