"""The generator's draws equal `random.Random`'s own methods.

Two Randoms seeded alike: one makes each draw through `synthgen`'s helper,
the other through the method it replaces. Values and the streams' states
afterwards must be equal, so a change in CPython's algorithms shows here.
"""

import random
from itertools import accumulate

import pytest

from tedpc.synthgen import _RACE_PROBS, _below, _pick, _sample

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

seeds = st.integers(0, 2**64)
# `sample` keeps a pool when the population is at most its set size, 21 for k <= 5,
# 85 for 6 <= k <= 21 and 277 for 22 <= k <= 85, and a set of picks otherwise.
SAMPLE_CASES = [
    (n, k)
    for k, setsize in ((0, 21), (1, 21), (5, 21), (6, 85), (8, 85), (21, 85), (22, 277))
    for n in (k, setsize, setsize + 1, 3 * setsize)
    if n >= k
]


def twins(seed):
    return random.Random(seed), random.Random(seed)


@settings(max_examples=300, deadline=None)
@given(seed=seeds, n=st.sampled_from([1, 2, 7, 64, 2**20]) | st.integers(1, 5000), start=st.integers(-100, 100))
def test_below_is_randrange_and_choice(seed, n, start):
    ours, ref = twins(seed)
    population = range(start, start + n)
    for _ in range(4):
        assert _below(ours.getrandbits, n) == ref.randrange(n)
        assert start + _below(ours.getrandbits, n) == ref.randrange(start, start + n)
        assert population[_below(ours.getrandbits, n)] == ref.choice(population)
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("n, k", SAMPLE_CASES)
@pytest.mark.parametrize("seed", range(5))
def test_sample_on_both_sides_of_the_set_size(seed, n, k):
    ours, ref = twins(seed)
    population = [f"item{i}" for i in range(n)]
    for _ in range(3):
        assert _sample(ours.getrandbits, population, k) == ref.sample(population, k)
    assert ours.getstate() == ref.getstate()


@settings(max_examples=300, deadline=None)
@given(seed=seeds, n=st.integers(1, 400), data=st.data())
def test_sample_is_random_sample(seed, n, data):
    k = data.draw(st.integers(0, n))
    ours, ref = twins(seed)
    population = tuple(range(100, 100 + n))
    assert _sample(ours.getrandbits, population, k) == ref.sample(population, k)
    assert ours.getstate() == ref.getstate()


weights = st.lists(st.floats(0, 1) | st.integers(0, 3), min_size=1, max_size=12).filter(lambda w: sum(w) > 0)


@settings(max_examples=300, deadline=None)
@given(seed=seeds, weights=weights | st.just([p for _, p in _RACE_PROBS]) | st.just([1.0, 0.0, 0.0]))
def test_pick_is_choices(seed, weights):
    ours, ref = twins(seed)
    cum_weights = list(accumulate(weights))
    population = range(len(weights))
    for _ in range(4):
        assert _pick(ours.random, cum_weights) == ref.choices(population, cum_weights=cum_weights)[0]
    assert ours.getstate() == ref.getstate()
