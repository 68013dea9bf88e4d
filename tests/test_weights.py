from collections import Counter
from itertools import combinations, product
from math import comb, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import weights_reference as ref
from geodesy.weights import (
    WeightData,
    enumerate_sectors,
    enumerate_weight_data,
    iter_spectra,
    pair_sectors,
    sector_counts,
)


def items(wd):
    """A table's dicts as item lists, so that comparing them compares order too."""
    return list(wd.plus.items()), list(wd.minus.items())


def assert_descending(wd):
    for table in (wd.plus, wd.minus):
        assert all(a > b for a, b in zip(table, list(table)[1:])), wd


def test_validation():
    with pytest.raises(ValueError):
        WeightData({1: 0}, {})
    with pytest.raises(ValueError):
        WeightData({1: -2}, {})
    with pytest.raises(ValueError, match="not an integer"):
        WeightData({True: 1}, {})
    with pytest.raises(ValueError, match="not an integer"):
        WeightData({}, {1.5: 1})
    with pytest.raises(ValueError, match="positive integer"):
        WeightData({}, {-1: 0})
    for weight in ("true", "1.5", "x"):
        with pytest.raises(ValueError):
            WeightData.from_json_dict({"plus": {weight: 1}, "minus": {}})
    with pytest.raises(ValueError, match="positive integer"):
        WeightData.from_json_dict({"plus": {"1": 0}, "minus": {"-1": 1}})
    wd = WeightData({1: 1, 3: 2}, {-1: 1})
    assert wd.plus == {3: 2, 1: 1}
    assert wd.dim_plus == 3 and wd.dim_minus == 1


def test_readers_reject_what_they_used_to_coerce():
    with pytest.raises(ValueError, match="positive integer"):
        WeightData({1: True}, {-1: 1})
    for multiplicity in (1.5, True, "1", None):
        with pytest.raises(ValueError, match="positive integer"):
            WeightData.from_json_dict({"plus": {"1": multiplicity}, "minus": {"-1": 1}})
    for weight in (" 1", "1 ", "+1", "1_0", "\u0661", "", "1,2", "-", "--1", "1-", "1,", ",1"):
        with pytest.raises(ValueError, match="decimal integer weights"):
            WeightData.from_json_dict({"plus": {weight: 1}, "minus": {"-1": 1}})
    for table in ([], [["1", 1]], "1", 1, None):
        with pytest.raises(ValueError, match="not an object"):
            WeightData.from_json_dict({"plus": {"1": 1}, "minus": table})
    with pytest.raises(ValueError, match="twice"):
        WeightData.from_json_dict({"plus": {"1": 1, "01": 1}, "minus": {}})
    for doc in ([], "plus", None):
        with pytest.raises(ValueError, match="not an object"):
            WeightData.from_json_dict(doc)
    assert WeightData.from_json_dict({"plus": {"1": 2}, "minus": {"-1": 2}}) == WeightData({1: 2}, {-1: 2})


def test_admissibility():
    assert WeightData({1: 1}, {-1: 1}).is_admissible()
    assert WeightData({0: 2}, {0: 2}).is_admissible()
    assert not WeightData({3: 1}, {-1: 1}).is_admissible()  # not negation-symmetric
    assert not WeightData({2: 1}, {-2: 1}).is_admissible()  # missing the weight-0 rung
    assert not WeightData({2: 1}, {0: 1}).is_admissible()
    assert WeightData({2: 1}, {0: 1, -2: 1}).is_admissible()
    assert WeightData({}, {}).is_admissible()


def test_sectors():
    wd = WeightData({2: 1, 1: 1}, {-1: 1, 0: 1})
    assert wd.odd_sector() == WeightData({1: 1}, {-1: 1})
    assert wd.even_sector() == WeightData({2: 1}, {0: 1})
    assert wd.odd_sector().sector(1) == wd.odd_sector()


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_sector_and_combine_match_the_validated_constructor(p):
    # both skip validation; they must still give clean, descending dicts
    for wd in enumerate_weight_data(p):
        for parity in (0, 1):
            part = wd.sector(parity)
            assert items(part) == items(WeightData(part.plus, part.minus))
        whole = wd.odd_sector().combine(wd.even_sector())
        assert items(whole) == items(wd) == items(WeightData(wd.plus, wd.minus))
        assert_descending(whole)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_enumeration_matches_reference(p):
    for got_groups, want_groups in zip(enumerate_sectors(p), ref.enumerate_sectors(p)):
        assert list(got_groups) == list(want_groups)
        for dims, group in got_groups.items():
            assert [items(wd) for wd in group] == [items(wd) for wd in want_groups[dims]]
            for wd in group:
                assert_descending(wd)
    got = list(enumerate_weight_data(p))
    assert [items(wd) for wd in got] == [items(wd) for wd in ref.enumerate_weight_data(p)]
    for wd in got:
        assert_descending(wd)


def test_frozen_rank_one_enumeration():
    # computed by hand: dimension 2 holds either one standard representation
    # (weights +1, -1, split either way) or two trivials
    got = list(enumerate_weight_data(1))
    assert got == [
        WeightData({-1: 1}, {1: 1}),
        WeightData({0: 1}, {0: 1}),
        WeightData({1: 1}, {-1: 1}),
    ]


def test_rank_one_excludes_asymmetric_tables():
    listed = set(wd.key() for wd in enumerate_weight_data(1))
    assert WeightData({3: 1}, {-1: 1}).key() not in listed
    assert WeightData({2: 1}, {0: 1}).key() not in listed


def test_frozen_rank_two_count():
    # by hand over the partitions of 4: dim4 gives C(4,2)=6 splits, 3+1 gives
    # 4, 2+2 gives 3, 2+1+1 gives 4, 1+1+1+1 gives 1, total 18
    assert len(list(enumerate_weight_data(2))) == 18


def test_enumeration_counts_regression():
    assert len(list(enumerate_weight_data(3))) == 99
    assert len(list(enumerate_weight_data(4))) == 533


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_enumeration_invariants(p):
    seen = set()
    for wd in enumerate_weight_data(p):
        assert wd.dim_plus == p and wd.dim_minus == p
        assert wd.is_admissible()
        assert all(abs(w) <= 2 * p - 1 for w in wd.all_weights())
        assert wd.key() not in seen
        seen.add(wd.key())


def test_enumeration_is_deterministic():
    first = [wd.key() for wd in enumerate_weight_data(3)]
    second = [wd.key() for wd in enumerate_weight_data(3)]
    assert first == second


def sector_product(p):
    odd, even = enumerate_sectors(p)
    for odd_group, even_group in pair_sectors(p, odd, even):
        for o in odd_group:
            for e in even_group:
                yield o.combine(e)


# "-None" in the case ids: the unbounded enumeration, as in test_ladder.py
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5], ids="{}-None".format)
def test_sector_product_is_the_enumeration(p):
    product = list(sector_product(p))
    assert len(set(product)) == len(product)
    assert set(product) == set(enumerate_weight_data(p))
    # and the enumeration repeats no table
    assert len(list(enumerate_weight_data(p))) == len(product)


def test_sector_product_counts():
    counts = []
    for p in range(1, 7):
        odd, even = enumerate_sectors(p)
        counts.append(sum(len(o) * len(e) for o, e in pair_sectors(p, odd, even)))
    assert counts == [3, 18, 99, 533, 2773, 13993]
    odd, even = enumerate_sectors(5)
    assert sum(map(len, odd.values())) == 1078 and sum(map(len, even.values())) == 872


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_sector_invariants(p):
    odd, even = enumerate_sectors(p)
    for parity, groups in ((1, odd), (0, even)):
        for (a, b), group in groups.items():
            assert a <= p and b <= p and (a + b) % 2 == 0
            for wd in group:
                assert (wd.dim_plus, wd.dim_minus) == (a, b)
                assert wd.is_admissible() and wd.sector(parity) == wd
    assert odd[0, 0] == [WeightData({}, {})] and even[0, 0] == [WeightData({}, {})]


def bounded_compositions(totals, k):
    """The number of tuples a with 0 <= a[i] <= totals[i] and sum(a) = k, by
    inclusion-exclusion over the entries pushed past their bound."""
    n = len(totals)
    if n == 0:
        return int(k == 0)
    count = 0
    for r in range(n + 1):
        for over in combinations(totals, r):
            rest = k - sum(t + 1 for t in over)
            if rest >= 0:
                count += (-1) ** r * comb(rest + n - 1, n - 1)
    return count


@given(st.lists(st.integers(1, 16), max_size=8))
def test_count_splits_counts_what_splits_yields(totals):
    # multiplicities reach 16 at p = 16; past a few thousand tuples the
    # counts are checked by inclusion-exclusion instead of by enumeration
    counts = ref.count_splits(totals)
    assert counts == [bounded_compositions(totals, k) for k in range(sum(totals) + 1)]
    if prod(t + 1 for t in totals) <= 5000:
        # enumerate_sectors splits a sum by bucketing these tuples by their sum
        by_sum = Counter(map(sum, product(*(range(t + 1) for t in totals))))
        assert counts == [by_sum[k] for k in range(sum(totals) + 1)]
    assert ref.count_splits([]) == [1]


@pytest.mark.parametrize("p", range(1, 17))
def test_sector_counts_sum_the_split_counts_of_every_sum(p):
    # the product over top weights against the splits of each sum of
    # irreducibles, group by group and in the same group order
    expected = ({}, {})  # by parity: dims -> sectors
    for parity, size, dims, _, totals in iter_spectra(p):
        splits = ref.count_splits(totals)
        for d in dims:
            group = expected[parity]
            group[d, size - d] = group.get((d, size - d), 0) + splits[d]
    odd, even = sector_counts(p)
    assert list(odd.items()) == list(expected[1].items())
    assert list(even.items()) == list(expected[0].items())


@pytest.mark.parametrize("p", range(1, 11))
def test_iter_spectra_reads_only_the_irreducibles_up_to_largest(p):
    # the sums of irreducibles of dimension at most 3 are the entries whose
    # weights are empty or top out at 2, in the same order
    def entries(spectra):
        return [(parity, size, list(dims), weights, totals) for parity, size, dims, weights, totals in spectra]

    small = [entry for entry in entries(iter_spectra(p)) if not entry[3] or entry[3][0] <= 2]
    assert entries(iter_spectra(p, 3)) == small


def test_sector_counts_need_a_rank():
    with pytest.raises(ValueError):
        sector_counts(0)


def test_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_weight_data(0))


def test_layout_spans():
    wd = WeightData({1: 2, 0: 1}, {0: 1, -1: 2})
    layout = wd.layout()
    assert layout.size == 6
    assert layout.span("plus", 1) == (0, 2)
    assert layout.span("plus", 0) == (2, 3)
    assert layout.span("minus", 0) == (3, 4)
    assert layout.span("minus", -1) == (4, 6)
    assert layout.weight_vector() == [1, 1, 0, 0, -1, -1]


def test_one_match_over_a_side_lets_no_bad_key_through():
    # a side's keys are matched joined by commas: among other keys, one
    # holding a comma must not pass as two weights, nor an empty one or one
    # that is no string
    for keys in (["1", "2,3"], ["1", ""], ["", "1"], ["1", ","], ["1", 2]):
        with pytest.raises(ValueError, match="decimal integer weights"):
            WeightData.from_json_dict({"plus": dict.fromkeys(keys, 1), "minus": {}})


def test_digest_equals_reference_on_every_table():
    for p in range(1, 6):
        for wd in enumerate_weight_data(p):
            assert wd.digest() == ref.digest(wd), wd


@given(
    st.dictionaries(st.integers(-12, 12), st.integers(1, 12), max_size=8),
    st.dictionaries(st.integers(-12, 12), st.integers(1, 12), max_size=8),
)
def test_digest_equals_reference_where_string_order_is_not_numeric(plus, minus):
    # "-10" < "-3" and "10" < "3": json.dumps sorts the keys as strings
    wd = WeightData(plus, minus)
    assert wd.digest() == ref.digest(wd)


def test_digest_and_json_round_trip():
    wd = WeightData({3: 1, 1: 2}, {-1: 2, -3: 1})
    assert WeightData.from_json_dict(wd.to_json_dict()) == wd
    assert wd.digest() == WeightData(dict(wd.plus), dict(wd.minus)).digest()
    assert len(wd.digest()) == 16


@given(
    st.dictionaries(st.integers(-5, 5), st.integers(1, 3), max_size=4),
    st.dictionaries(st.integers(-5, 5), st.integers(1, 3), max_size=4),
)
def test_weight_data_equality_and_hash(plus, minus):
    a = WeightData(plus, minus)
    b = WeightData(dict(plus), dict(minus))
    assert a == b and hash(a) == hash(b)
    assert WeightData.from_json_dict(a.to_json_dict()) == a
