"""Signed weight multiplicity tables and their enumeration.

A WeightData records the integer eigenvalues of the diagonalized weight
operator separately on the positive-signature block (plus) and the
negative-signature block (minus).  A table is representation-admissible
when the combined multiset m(w) = plus(w) + minus(w) is symmetric under
negation and satisfies m(w) >= m(w+2) for w >= 0, i.e. when it is the
weight multiset of a finite-dimensional sl(2) representation.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

Dims = Tuple[int, int]  # (dim_plus, dim_minus)


def _clean(table: Mapping[int, int], name: str) -> Dict[int, int]:
    out = {}
    for w, m in sorted(table.items(), reverse=True):
        if not isinstance(w, int) or isinstance(w, bool):
            raise ValueError(f"{name} weight {w!r} is not an integer")
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"{name} multiplicity for weight {w} must be a positive integer")
        out[w] = m
    return out


class WeightData:
    """Weight -> multiplicity tables for the two signature blocks."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: Mapping[int, int], minus: Mapping[int, int]):
        object.__setattr__(self, "plus", _clean(plus, "plus"))
        object.__setattr__(self, "minus", _clean(minus, "minus"))

    def __setattr__(self, name, value):
        raise AttributeError("WeightData is immutable")

    def __reduce__(self):
        return (WeightData, (self.plus, self.minus))

    # -- basic queries ---------------------------------------------------

    @property
    def dim_plus(self) -> int:
        return sum(self.plus.values())

    @property
    def dim_minus(self) -> int:
        return sum(self.minus.values())

    def total(self, w: int) -> int:
        return self.plus.get(w, 0) + self.minus.get(w, 0)

    def all_weights(self) -> List[int]:
        return sorted(set(self.plus) | set(self.minus), reverse=True)

    def is_empty(self) -> bool:
        return not self.plus and not self.minus

    def is_admissible(self) -> bool:
        weights = self.all_weights()
        if not weights:
            return True
        top = max(abs(w) for w in weights)
        for w in range(0, top + 1):
            if self.total(w) != self.total(-w):
                return False
            if self.total(w) < self.total(w + 2):
                return False
        return True

    def sector(self, parity: int) -> "WeightData":
        """Restriction to the weights of the given parity (0 even, 1 odd)."""
        return WeightData(
            {w: m for w, m in self.plus.items() if w % 2 == parity},
            {w: m for w, m in self.minus.items() if w % 2 == parity},
        )

    def odd_sector(self) -> "WeightData":
        return self.sector(1)

    def even_sector(self) -> "WeightData":
        return self.sector(0)

    def combine(self, other: "WeightData") -> "WeightData":
        """The table holding both tables' weights, which must be disjoint
        (an odd sector and an even sector combine into a whole table)."""
        return WeightData({**self.plus, **other.plus}, {**self.minus, **other.minus})

    # -- canonical forms -------------------------------------------------

    def key(self) -> tuple:
        return (
            tuple(sorted(self.plus.items())),
            tuple(sorted(self.minus.items())),
        )

    def to_json_dict(self) -> dict:
        return {
            "plus": {str(w): m for w, m in sorted(self.plus.items())},
            "minus": {str(w): m for w, m in sorted(self.minus.items())},
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "WeightData":
        return cls(
            {int(w): int(m) for w, m in doc.get("plus", {}).items()},
            {int(w): int(m) for w, m in doc.get("minus", {}).items()},
        )

    def digest(self) -> str:
        """Canonical hash of the multiplicity tables; names certificate files."""
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def layout(self) -> "Layout":
        return Layout(self)

    def __eq__(self, other):
        if not isinstance(other, WeightData):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"WeightData(plus={self.plus}, minus={self.minus})"

    def describe(self) -> str:
        def side(table):
            return "{" + ", ".join(f"{w}:{m}" for w, m in sorted(table.items(), reverse=True)) + "}"

        return f"plus {side(self.plus)} minus {side(self.minus)}"


class Layout:
    """Fixed basis order for a WeightData: plus block first, weights descending.

    Exposes the half-open row range of each (side, weight) eigenspace inside
    the assembled matrices, so the exact and floating-point assemblers agree.
    """

    def __init__(self, wd: WeightData):
        self.weight_data = wd
        self.spans: Dict[Tuple[str, int], Tuple[int, int]] = {}
        pos = 0
        for w in sorted(wd.plus, reverse=True):
            self.spans[("plus", w)] = (pos, pos + wd.plus[w])
            pos += wd.plus[w]
        self.n_plus = pos
        for w in sorted(wd.minus, reverse=True):
            self.spans[("minus", w)] = (pos, pos + wd.minus[w])
            pos += wd.minus[w]
        self.size = pos
        self.n_minus = pos - self.n_plus

    def span(self, side: str, weight: int) -> Tuple[int, int]:
        return self.spans[(side, weight)]

    def weight_vector(self) -> List[int]:
        vec = [0] * self.size
        for (side, w), (a, b) in self.spans.items():
            for i in range(a, b):
                vec[i] = w
        return vec


# ----------------------------------------------------------------------
# Enumeration


def _partitions(total: int, parts: Sequence[int]) -> Iterator[List[int]]:
    """Partitions of total into the given part sizes (descending), largest first."""
    if total == 0:
        yield []
        return
    for i, part in enumerate(parts):
        if part <= total:
            for rest in _partitions(total - part, parts[i:]):
                yield [part] + rest


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


def _bounds(p: int, max_weight: int | None) -> int:
    if p < 1:
        raise ValueError("p must be at least 1")
    if max_weight is None:
        max_weight = 2 * p - 1
    if max_weight < 1:
        raise ValueError("max_weight must be at least 1")
    return max_weight


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


def enumerate_weight_data(p: int, max_weight: int | None = None) -> Iterator[WeightData]:
    """Every admissible WeightData with both block dimensions equal to p.

    The default weight bound 2p - 1 is the largest weight of any irreducible
    representation that fits in dimension 2p; a smaller bound prunes, a larger
    one never adds anything.  Enumeration order is lexicographic on the
    combined multiplicity vectors, smallest first.
    """
    max_weight = _bounds(p, max_weight)
    found = []
    for partition in _partitions(2 * p, range(max_weight + 1, 0, -1)):
        found.extend(_split_tables(partition, [p]))
    span = range(max_weight, -max_weight - 1, -1)

    def lex_key(wd: WeightData):
        return tuple(wd.plus.get(w, 0) for w in span) + tuple(wd.minus.get(w, 0) for w in span)

    # distinct partitions have distinct weight multisets, so no table repeats
    found.sort(key=lex_key)
    yield from found


def enumerate_sectors(
    p: int, max_weight: int | None = None
) -> Tuple[Dict[Dims, List[WeightData]], Dict[Dims, List[WeightData]]]:
    """The admissible single-parity tables that can pair into rank p.

    Admissibility only links weights of the same parity, so a table of rank
    p is exactly one odd sector with dimensions (a, b) joined with one even
    sector with dimensions (p - a, p - b).  Odd weights come from the
    even-dimensional irreducibles and even weights from the odd-dimensional
    ones; both sectors have even total dimension, and each block of a sector
    has dimension at most p.  Returns (odd, even), each mapping
    (dim_plus, dim_minus) to its sectors; the empty sector is (0, 0).
    """
    max_weight = _bounds(p, max_weight)
    sectors: Tuple[Dict[Dims, List[WeightData]], ...] = ({}, {})
    for parity, groups in zip((1, 0), sectors):
        # an irreducible of dimension d has weights of the parity of d - 1
        parts = [d for d in range(max_weight + 1, 0, -1) if (d - 1) % 2 == parity]
        for size in range(0, 2 * p + 1, 2):
            dims_plus = range(max(0, size - p), min(p, size) + 1)
            for partition in _partitions(size, parts):
                for wd in _split_tables(partition, dims_plus):
                    groups.setdefault((wd.dim_plus, wd.dim_minus), []).append(wd)
    return sectors


def pair_sectors(
    p: int, odd: Mapping[Dims, list], even: Mapping[Dims, list]
) -> Iterator[Tuple[list, list]]:
    """(odd group, even group) for each split of rank p: the odd sectors of
    dimensions (a, b) with the even sectors of dimensions (p - a, p - b).
    Every pairing of their members is one table of rank p, each table once."""
    for (a, b), odd_group in odd.items():
        even_group = even.get((p - a, p - b))
        if even_group:
            yield odd_group, even_group
