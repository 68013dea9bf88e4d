"""Reference sector enumeration, kept only for the tests.

These are the recursive split generator and the enumeration the package
used before it built sectors as plain multiplicity tables: every table
goes through the validating WeightData constructor.  The equivalence tests
hold ``geodesy.weights`` to these routines group by group and member by
member; they share only the partition generator with the package.
count_splits counts the splits of one sum of irreducibles, as the package
did before it counted every group at once (weights.sector_counts).
digest is the table digest as the package computed it before it wrote the
hashed text itself (WeightData.digest).  from_json_dict is the table
reader as it was before it refused a document that lacks a side or has a
key beyond plus and minus, with the validating constructor of that time
(_clean); it shares the key pattern DECIMALS with the package.
weight_data_corpus makes the documents the two readers are compared on.
is_admissible is the oracle the enumeration tests check every table
against: the combined multiset is the weight multiset of an sl(2)
representation.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import accumulate
from operator import sub
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from geodesy.weights import DECIMALS, Dims, WeightData, _partitions


def is_admissible(wd: WeightData) -> bool:
    """m(w) = plus(w) + minus(w) is symmetric under negation and m(w) >= m(w + 2) for w >= 0."""

    def total(w: int) -> int:
        return wd.plus.get(w, 0) + wd.minus.get(w, 0)

    top = max((abs(w) for w in wd.all_weights()), default=-1)
    return all(total(w) == total(-w) and total(w) >= total(w + 2) for w in range(top + 1))


def _total_spectrum(partition: List[int]) -> Dict[int, int]:
    """Each part d contributes the weight string d-1, d-3, ..., -(d-1)."""
    table: Dict[int, int] = {}
    for d in partition:
        for w in range(d - 1, -d, -2):
            table[w] = table.get(w, 0) + 1
    return table


def _splits(weights: List[int], totals: List[int], target: int) -> Iterator[List[int]]:
    """All ways to pick 0 <= a_i <= totals[i] with sum(a_i) = target."""
    if not weights:
        if target == 0:
            yield []
        return
    head = totals[0]
    tail_capacity = sum(totals[1:])
    lo = max(0, target - tail_capacity)
    hi = min(head, target)
    for a in range(lo, hi + 1):
        for rest in _splits(weights[1:], totals[1:], target - a):
            yield [a] + rest


def _split_tables(partition: List[int], dims_plus: Sequence[int]) -> Iterator[WeightData]:
    """Every split of the partition's weight multiset into a plus block of
    each dimension in dims_plus and a minus block holding the rest."""
    total = _total_spectrum(partition)
    weights = sorted(total, reverse=True)
    totals = [total[w] for w in weights]
    for dim_plus in dims_plus:
        for pick in _splits(weights, totals, dim_plus):
            plus = {w: a for w, a in zip(weights, pick) if a > 0}
            minus = {w: t - a for w, t, a in zip(weights, totals, pick) if t - a > 0}
            yield WeightData(plus, minus)


def enumerate_weight_data(p: int) -> Iterator[WeightData]:
    """Every admissible WeightData with both block dimensions equal to p.

    Every irreducible representation of dimension up to 2p fits, so no
    weight exceeds 2p - 1.  Enumeration order is lexicographic on the
    combined multiplicity vectors, smallest first.
    """
    found = []
    for partition in _partitions(2 * p, range(2 * p, 0, -1)):
        found.extend(_split_tables(partition, [p]))
    span = range(2 * p - 1, -2 * p, -1)

    def lex_key(wd: WeightData):
        return tuple(wd.plus.get(w, 0) for w in span) + tuple(wd.minus.get(w, 0) for w in span)

    # distinct partitions have distinct weight multisets, so no table repeats
    found.sort(key=lex_key)
    yield from found


def enumerate_sectors(p: int) -> Tuple[Dict[Dims, List[WeightData]], Dict[Dims, List[WeightData]]]:
    """The admissible single-parity tables that can pair into rank p.

    Admissibility only links weights of the same parity, so a table of rank
    p is exactly one odd sector with dimensions (a, b) joined with one even
    sector with dimensions (p - a, p - b).  Odd weights come from the
    even-dimensional irreducibles and even weights from the odd-dimensional
    ones; both sectors have even total dimension, and each block of a sector
    has dimension at most p.  Returns (odd, even), each mapping
    (dim_plus, dim_minus) to its sectors; the empty sector is (0, 0).
    """
    sectors: Tuple[Dict[Dims, List[WeightData]], ...] = ({}, {})
    for parity, groups in zip((1, 0), sectors):
        # an irreducible of dimension d has weights of the parity of d - 1
        parts = [d for d in range(2 * p, 0, -1) if (d - 1) % 2 == parity]
        for size in range(0, 2 * p + 1, 2):
            dims_plus = range(max(0, size - p), min(p, size) + 1)
            for partition in _partitions(size, parts):
                for wd in _split_tables(partition, dims_plus):
                    groups.setdefault((wd.dim_plus, wd.dim_minus), []).append(wd)
    return sectors


def count_splits(totals: Sequence[int]) -> List[int]:
    """n[k] is the number of tuples a with 0 <= a[i] <= totals[i] and
    sum(a) = k, the splits that weights.enumerate_sectors makes, for
    k = 0 .. sum(totals): the coefficients of the product of 1 + x + ... +
    x^t over the entries t of totals.  Each factor is (1 - x^(t+1)) /
    (1 - x): a difference with the coefficients shifted by t + 1, then
    running sums, so a factor costs O(len(n)) however large t is."""
    n = [1]
    for t in totals:
        n = list(accumulate(map(sub, n + [0] * t, [0] * (t + 1) + n)))
    return n


def digest(wd: WeightData) -> str:
    """The first 16 hex digits of the sha256 of the canonical JSON text."""
    return hashlib.sha256(json.dumps(wd.to_json_dict(), sort_keys=True).encode()).hexdigest()[:16]


def _clean(table: Mapping[int, int], name: str) -> Dict[int, int]:
    out = {}
    for w, m in sorted(table.items(), reverse=True):
        if type(w) is not int:
            raise ValueError(f"{name} weight {w!r} is not an integer")
        if type(m) is not int or m < 1:
            raise ValueError(f"{name} multiplicity for weight {w} must be a positive integer")
        out[w] = m
    return out


def from_json_dict(doc: dict) -> WeightData:
    """A table as to_json_dict writes it; a missing side reads as empty and
    a key other than plus and minus is ignored."""
    if not isinstance(doc, dict):
        raise ValueError("weight data is not an object")
    sides = []
    for name in ("plus", "minus"):
        table = doc.get(name, {})
        try:
            if not isinstance(table, dict) or table and DECIMALS.fullmatch(",".join(table)) is None:
                raise ValueError
            side = dict(zip(map(int, table), table.values()))
        except (TypeError, ValueError):  # a key that is no string, or one int() refuses
            raise ValueError(f"{name} is not an object keyed by decimal integer weights") from None
        if len(side) != len(table):
            raise ValueError(f"{name} names a weight twice")
        sides.append(side)
    return WeightData._trusted(_clean(sides[0], "plus"), _clean(sides[1], "minus"))


GOOD_KEYS = ["1", "-1", "0", "2", "-2", "3", "10", "-10"]
BAD_KEYS = ["01", "-0", " 1", "+1", "1_0", "\u0661", "", "1,2", "x"]
BAD_MULTIPLICITIES = [0, -1, True, False, 1.5, "1", None, [], {}]
NOT_OBJECTS = [[], [["1", 1]], "1", 1, None]


def weight_data_corpus(count: int, seed: int = 0) -> list:
    """count weight_data documents: half hold two valid sides, the rest a
    side with a bad key or multiplicity, a side that is no object, a side
    missing, a key beyond plus and minus, or no object at all."""
    rng = random.Random(seed)

    def table(bad: bool) -> dict:
        doc = {rng.choice(GOOD_KEYS): rng.randint(1, 3) for _ in range(rng.randint(0, 4))}
        if bad:
            key = rng.choice(GOOD_KEYS + BAD_KEYS)
            doc[key] = rng.choice(BAD_MULTIPLICITIES) if key in GOOD_KEYS else rng.randint(1, 3)
        return doc

    docs = []
    for k in range(count):
        kind = k % 10
        doc = {"plus": table(kind == 5), "minus": table(kind == 6)}
        if kind == 7:
            doc[rng.choice(["plus", "minus"])] = rng.choice(NOT_OBJECTS)
        elif kind == 8:
            if rng.random() < 0.5:
                del doc[rng.choice(["plus", "minus"])]
            else:
                doc[rng.choice(["plsu", "minsu", "other"])] = table(False)
        elif kind == 9:
            doc = rng.choice(NOT_OBJECTS)
        docs.append(doc)
    return docs
