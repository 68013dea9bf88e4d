import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from geodesy import normals

SEEDS = (0, 1, 7, 11, 2**32 - 1, 2**32, 2**64 + 3, 10**20)


def test_tables_are_numpys():
    # fi_double, wi_double and ki_double of numpy 2.4.6, packed little-endian
    assert len(normals.TABLES) == 3 * 256 * 8
    assert hashlib.sha256(normals.TABLES).hexdigest() == "e3811c133c6e61093d15d9a7c4dc37d055d79937a0084872fdde0905da48cd1c"


@pytest.fixture
def fresh_streams(monkeypatch):
    """An empty stream memo for one test: a stream that an earlier test drew
    (the goldens draw [7, k] and [11, k]) is read back, not drawn again."""
    monkeypatch.setattr(normals, "_streams", {})


def _count_math(monkeypatch) -> dict:
    """The calls of log1p and exp that the draws make while the test runs."""
    calls = {"log1p": 0, "exp": 0}

    def counted(name):
        def fn(x):
            calls[name] += 1
            return getattr(math, name)(x)

        return fn

    monkeypatch.setattr(normals, "math", SimpleNamespace(log1p=counted("log1p"), exp=counted("exp")))
    return calls


def test_stream_equals_numpys(monkeypatch, fresh_streams):
    # the tail samples with log1p and a wedge accepts against exp, each rarely
    calls = _count_math(monkeypatch)
    for seed in SEEDS:
        for k in range(40):
            want = np.random.default_rng([seed, k]).standard_normal(200).tolist()
            assert normals.standard_normal([seed, k], 200) == want, (seed, k)
    assert calls["log1p"] > 0 and calls["exp"] > 0


@pytest.mark.parametrize("entropy", [[], [5], [0, 0, 0, 0, 0], [2**200 + 5, 3], list(range(1, 10))])
def test_any_entropy_seeds_as_numpy_does(entropy):
    # an entropy of more than four 32-bit words mixes the rest in after the pool
    assert normals.standard_normal(entropy, 50) == np.random.default_rng(entropy).standard_normal(50).tolist()


def test_negative_entropy_is_refused():
    with pytest.raises(ValueError):
        normals.standard_normal([7, -1], 1)


@pytest.mark.parametrize("count", [-1, 2.5, True])
def test_counts_numpy_refuses_are_refused(count, fresh_streams):
    with pytest.raises(Exception) as refused:
        np.random.default_rng([7]).standard_normal(count)
    normals.standard_normal([7], 5)  # a stored stream must not answer a refused count either
    with pytest.raises(refused.type):
        normals.standard_normal([7], count)
    assert normals.standard_normal([7], np.int64(3)) == np.random.default_rng([7]).standard_normal(3).tolist()


def test_a_longer_draw_goes_on_from_the_stored_stream(monkeypatch, fresh_streams):
    calls = _count_math(monkeypatch)
    head = normals.standard_normal([1, 23], 10)
    before = dict(calls)
    longer = normals.standard_normal([1, 23], 200)
    # draws 10 to 199 of [1, 23] take the tail and the wedge
    assert calls["log1p"] > before["log1p"] and calls["exp"] > before["exp"]
    monkeypatch.setattr(normals, "_streams", {})
    fresh = normals.standard_normal([1, 23], 200)
    assert [x.hex() for x in longer] == [x.hex() for x in fresh]
    assert [x.hex() for x in head] == [x.hex() for x in fresh[:10]]
    assert normals.standard_normal([1, 23], 50) == fresh[:50]


def test_a_returned_list_is_the_callers(fresh_streams):
    first = normals.standard_normal([7, 0], 20)
    want = list(first)
    first[3] = 0.0
    first.append(1.0)
    assert normals.standard_normal([7, 0], 20) == want
    assert normals.standard_normal([7, 0], 21)[:20] == want


def test_the_memo_keeps_at_most_streams_entropies(monkeypatch, fresh_streams):
    seeded = []
    seed = normals._seed
    monkeypatch.setattr(normals, "_seed", lambda entropy: seeded.append(list(entropy)) or seed(entropy))
    draws = [normals.standard_normal([3, k], 4) for k in range(normals.STREAMS + 10)]
    assert len(normals._streams) == normals.STREAMS
    # the least recently drawn go first, and one drawn again is seeded again
    assert (3, 0) not in normals._streams and (3, normals.STREAMS + 9) in normals._streams
    assert normals.standard_normal([3, 0], 4) == draws[0]
    assert seeded == [[3, k] for k in range(normals.STREAMS + 10)] + [[3, 0]]
