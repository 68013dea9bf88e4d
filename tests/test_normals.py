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


def test_stream_equals_numpys(monkeypatch):
    # the tail samples with log1p and a wedge accepts against exp, each rarely
    calls = {"log1p": 0, "exp": 0}

    def counted(name):
        def fn(x):
            calls[name] += 1
            return getattr(math, name)(x)

        return fn

    monkeypatch.setattr(normals, "math", SimpleNamespace(log1p=counted("log1p"), exp=counted("exp")))
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
