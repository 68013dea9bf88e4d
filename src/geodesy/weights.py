"""Signed weight multiplicity tables and their enumeration.

A WeightData records the integer eigenvalues of the diagonalized weight
operator separately on the positive-signature block (plus) and the
negative-signature block (minus).  A table is representation-admissible
when the combined multiset m(w) = plus(w) + minus(w) is symmetric under
negation and satisfies m(w) >= m(w+2) for w >= 0, i.e. when it is the
weight multiset of a finite-dimensional sl(2) representation.

Both dicts of a table hold their weights in descending order, the scan
order of ladder.derive_constraints.  Tables from outside (the constructor,
from_json_dict) are validated and sorted; tables built here (enumeration,
sector, combine) are made clean and in order, and are not checked again.
"""

from __future__ import annotations

import hashlib
import re
from itertools import accumulate, product
from operator import add, sub
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

Dims = Tuple[int, int]  # (dim_plus, dim_minus)

# a decimal integer as the wire format and the command line write it: ASCII
# digits after an optional minus, nothing else (int() also takes blanks,
# underscores, '+' and non-ASCII digits); use it with fullmatch
DECIMAL = re.compile(r"-?[0-9]+")
# decimal integers joined by commas; int() refuses a piece that holds a
# comma, so the joined pieces match exactly when every piece is a decimal
# that int() converts
DECIMALS = re.compile(f"{DECIMAL.pattern}(?:,{DECIMAL.pattern})*")


SIDES = ("plus", "minus")  # the keys of a table's JSON object, in the order it is read

# one entry of a side in the digest's hashed text
_ENTRY = '"%d": %d'


def fields_fault(doc: dict, fields: Tuple[str, ...], what: str) -> str:
    """Why a doc whose keys are not exactly fields is refused: the first of
    fields that it lacks, else the first of its keys beyond them."""
    for field in fields:
        if field not in doc:
            return f"{what} lacks the field {field!r}"
    unknown = next(key for key in doc if key not in fields)
    return f"{what} has the field {unknown!r}, which is not one of {', '.join(fields)}"


def _clean(table: Mapping[int, int], name: str) -> Dict[int, int]:
    out = {}
    for w, m in sorted(table.items(), reverse=True):
        if type(w) is not int:
            raise ValueError(f"{name} weight {w!r} is not an integer")
        if type(m) is not int or m < 1:
            raise ValueError(f"{name} multiplicity for weight {w} must be a positive integer")
        out[w] = m
    return out


class WeightData:
    """Weight -> multiplicity tables for the two signature blocks."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: Mapping[int, int], minus: Mapping[int, int]):
        _set_plus(self, _clean(plus, "plus"))
        _set_minus(self, _clean(minus, "minus"))

    @classmethod
    def _trusted(cls, plus: Dict[int, int], minus: Dict[int, int]) -> "WeightData":
        """A table from dicts already clean: int weights descending, multiplicities >= 1."""
        wd = object.__new__(cls)
        _set_plus(wd, plus)
        _set_minus(wd, minus)
        return wd

    def __setattr__(self, name, value):
        raise AttributeError("WeightData is immutable")

    # -- basic queries ---------------------------------------------------

    @property
    def dim_plus(self) -> int:
        return sum(self.plus.values())

    @property
    def dim_minus(self) -> int:
        return sum(self.minus.values())

    def all_weights(self) -> List[int]:
        return sorted(set(self.plus) | set(self.minus), reverse=True)

    def is_empty(self) -> bool:
        return not self.plus and not self.minus

    def sector(self, parity: int) -> "WeightData":
        """Restriction to the weights of the given parity (0 even, 1 odd)."""
        return WeightData._trusted(
            {w: m for w, m in self.plus.items() if w & 1 == parity},
            {w: m for w, m in self.minus.items() if w & 1 == parity},
        )

    def odd_sector(self) -> "WeightData":
        return self.sector(1)

    def even_sector(self) -> "WeightData":
        return self.sector(0)

    def combine(self, other: "WeightData") -> "WeightData":
        """The table holding both tables' weights, which must be disjoint
        (an odd sector and an even sector combine into a whole table)."""
        return WeightData._trusted(
            dict(sorted({**self.plus, **other.plus}.items(), reverse=True)),
            dict(sorted({**self.minus, **other.minus}.items(), reverse=True)),
        )

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
    def from_json_dict(cls, doc: dict) -> "WeightData":
        """A table as to_json_dict writes it.  Nothing is coerced: raises
        ValueError unless doc is an object with the keys plus and minus and
        no other (fields_fault), both objects keyed by -?[0-9]+, each weight
        once, with integer multiplicities >= 1.  The keys of plus and then
        of minus are checked first, each side's by one match over them all
        (DECIMALS), then the multiplicities, by the constructor."""
        if not isinstance(doc, dict):
            raise ValueError("weight data is not an object")
        if len(doc) != 2 or "plus" not in doc or "minus" not in doc:
            raise ValueError(fields_fault(doc, SIDES, "weight data"))
        sides = []
        for name in SIDES:
            table = doc[name]
            try:
                if not isinstance(table, dict) or table and DECIMALS.fullmatch(",".join(table)) is None:
                    raise ValueError
                side = dict(zip(map(int, table), table.values()))
            except (TypeError, ValueError):  # a key that is no string, or one int() refuses
                raise ValueError(f"{name} is not an object keyed by decimal integer weights") from None
            if len(side) != len(table):
                raise ValueError(f"{name} names a weight twice")
            sides.append(side)
        return cls(*sides)

    def digest(self) -> str:
        """Canonical hash of the multiplicity tables; names certificate files.

        The hashed text is ``json.dumps(self.to_json_dict(), sort_keys=True)``,
        written directly: each side's weights as strings, in string order
        ("-10" before "-3"), each with its multiplicity.  The entries
        '"w": m' are sorted as written: the quote that closes a key sorts
        before '-' and every digit, so a key that is the prefix of another
        comes first, as in string order, and no two keys are equal."""
        text = '{"minus": {%s}, "plus": {%s}}' % (
            ", ".join(sorted(map(_ENTRY.__mod__, self.minus.items()))),
            ", ".join(sorted(map(_ENTRY.__mod__, self.plus.items()))),
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]

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


# the slots' own setters, which WeightData.__setattr__ does not stop
_set_plus = WeightData.plus.__set__
_set_minus = WeightData.minus.__set__


class Layout:
    """Fixed basis order for a WeightData: plus block first, weights descending.

    Exposes the half-open row range of each (side, weight) eigenspace inside
    the assembled matrices, so the exact and floating-point assemblers agree.
    """

    def __init__(self, wd: WeightData):
        self.spans: Dict[Tuple[str, int], Tuple[int, int]] = {}
        pos = 0
        for w in sorted(wd.plus, reverse=True):
            self.spans[("plus", w)] = (pos, pos + wd.plus[w])
            pos += wd.plus[w]
        for w in sorted(wd.minus, reverse=True):
            self.spans[("minus", w)] = (pos, pos + wd.minus[w])
            pos += wd.minus[w]
        self.size = pos

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


def _spectrum(partition: List[int]) -> Tuple[List[int], List[int]]:
    """The weights of the partition's irreducibles, descending, and their
    multiplicities: each part d contributes the string d-1, d-3, ..., -(d-1)."""
    table: Dict[int, int] = {}
    for d in partition:
        for w in range(d - 1, -d, -2):
            table[w] = table.get(w, 0) + 1
    weights = sorted(table, reverse=True)
    return weights, [table[w] for w in weights]


def sector_counts(p: int) -> Tuple[Dict[Dims, int], Dict[Dims, int]]:
    """The number of sectors in each (dim_plus, dim_minus) group of
    enumerate_sectors(p), as (odd, even), the groups in the same order,
    without listing a sector or a sum of irreducibles.

    A sum of one parity is fixed by n_k, how many of its irreducibles have
    top weight k, for k = 2p - 1, ..., 1 (odd) or 2p - 2, ..., 0 (even).
    Its weights k and -k have multiplicity t_k = t_(k+2) + n_k, and the
    sectors of the sum with d dimensions on plus number the coefficient of
    x^d in the product of 1 + x + ... + x^t_k over its weights: twice for
    each k > 0, once for k = 0.  So k runs downwards, and the sums that
    reach the same size and t_k share every later factor: they are one
    state, which carries the sum of their products.  No block has dimension
    above p, so a product keeps its coefficients up to x^p, and a sum of
    odd size pairs into no rank.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    counts = []
    for parity in (1, 0):
        states = {(0, 0): [1] + [0] * p}  # (size, t_k) -> the summed products so far
        for k in range(2 * p - 2 + parity, -1, -2):
            grown: Dict[Tuple[int, int], List[int]] = {}
            for (size, t), poly in states.items():
                for n in range((2 * p - size) // (k + 1) + 1):
                    key = (size + n * (k + 1), t + n)
                    grown[key] = list(map(add, grown[key], poly)) if key in grown else poly
            states = {}
            for (size, t_k), poly in grown.items():
                # times 1 + x + ... + x^t_k = (1 - x^(t_k+1)) / (1 - x): a difference
                # with the coefficients shifted by t_k + 1, then running sums, up
                # to x^p, where map stops
                for _ in range(2 if k else 1):  # the weights k and -k, or 0 alone
                    poly = list(accumulate(map(sub, poly, [0] * (t_k + 1) + poly)))
                states[size, t_k] = poly
        group: Dict[Dims, int] = {}
        for (size, _), poly in sorted(states.items()):
            if size % 2:
                continue
            for d in range(max(0, size - p), min(p, size) + 1):
                group[d, size - d] = group.get((d, size - d), 0) + poly[d]
        counts.append(group)
    return counts[0], counts[1]


def enumerate_weight_data(p: int) -> Iterator[WeightData]:
    """Every admissible WeightData with both block dimensions equal to p.

    No weight exceeds 2p - 1, the largest weight of any irreducible
    representation that fits in dimension 2p.  Enumeration order is
    lexicographic on the combined multiplicity vectors, smallest first.
    """
    odd, even = enumerate_sectors(p)
    found = [o.combine(e) for odd_group, even_group in pair_sectors(p, odd, even) for o in odd_group for e in even_group]
    top = 2 * p - 1
    n = 2 * top + 1  # weights top down to -top

    def lex_key(wd: WeightData) -> List[int]:
        key = [0] * (2 * n)
        for w, m in wd.plus.items():
            key[top - w] = m
        for w, m in wd.minus.items():
            key[n + top - w] = m
        return key

    found.sort(key=lex_key)
    yield from found


def iter_spectra(p: int, largest: int | None = None) -> Iterator[Tuple[int, int, range, List[int], List[int]]]:
    """One entry per sum of irreducibles whose sectors can pair into rank p:
    (parity, size, dims, weights, totals), the odd ones (parity 1) first.

    size is the sum's dimension, weights its weights descending and totals
    their multiplicities (_spectrum).  Its sectors put d of the size
    dimensions on the plus side, for each d in dims: both blocks of a
    sector have dimension at most p.  Every weight of the sum's parity from
    weights[0] down to -weights[0] is present.  Only the sums of
    irreducibles of dimension at most largest are read, by default 2p, so
    every irreducible that fits.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    top = largest or 2 * p  # every irreducible up to dimension 2p fits
    for parity in (1, 0):
        # an irreducible of dimension d has weights of the parity of d - 1
        parts = [d for d in range(top, 0, -1) if (d - 1) % 2 == parity]
        for size in range(0, 2 * p + 1, 2):
            dims = range(max(0, size - p), min(p, size) + 1)
            for partition in _partitions(size, parts):
                yield (parity, size, dims, *_spectrum(partition))


def enumerate_sectors(p: int) -> Tuple[Dict[Dims, List[WeightData]], Dict[Dims, List[WeightData]]]:
    """The admissible single-parity tables that can pair into rank p, as
    (odd, even), each mapping (dim_plus, dim_minus) to its sectors: the
    sectors of each entry of iter_spectra in turn, for each d in its dims
    the splits of its totals with d on the plus side: the tuples a with
    0 <= a[i] <= totals[i] and sum(a) = d, in lexicographic order, the
    order in which itertools.product yields them.

    Admissibility only links weights of the same parity, so a table of rank
    p is exactly one odd sector with dimensions (a, b) joined with one even
    sector with dimensions (p - a, p - b).  Odd weights come from the
    even-dimensional irreducibles and even weights from the odd-dimensional
    ones; both sectors have even total dimension, and each block of a sector
    has dimension at most p.  The empty sector has dimensions (0, 0).  A
    sector of dimensions (a, b) has no weight above a + b - 1.
    """
    sectors: Tuple[Dict[Dims, List[WeightData]], ...] = ({}, {})
    for parity, size, dims, weights, totals in iter_spectra(p):
        # pick[i] copies of weights[i] go to plus and the rest to minus.  The
        # rest is the complement pick of dimension size - d, and complements
        # run in reverse order, so each block dict is built once and shared.
        blocks: Dict[int, List[Dict[int, int]]] = {d: [] for d in dims}
        for pick in product(*(range(t + 1) for t in totals)):
            picks = blocks.get(sum(pick))
            if picks is not None:
                picks.append({w: a for w, a in zip(weights, pick) if a})
        for d in dims:
            group = sectors[1 - parity].setdefault((d, size - d), [])
            group += map(WeightData._trusted, blocks[d], reversed(blocks[size - d]))
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
