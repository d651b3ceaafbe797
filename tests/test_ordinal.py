"""Finite set-system rank: derived families, recursion, inclusivity."""

import random
import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab import acceptance
from coarselab.ordinal import (
    FinFamily,
    derived_family,
    inclusive_closure,
    is_inclusive,
    ord_rank,
)


def test_members_must_be_nonempty_naturals():
    with pytest.raises(ValueError):
        FinFamily.of([[]])
    # the mixed members put a valid int beside the bad element, so a check
    # that looks at one element per member cannot pass them
    for bad in ([[-1]], [[1.5, 2]], [[True, 2]], [["0"]], [[0, -1]],
                [[3, True]]):
        with pytest.raises(ValueError):
            FinFamily.of(bad)


def test_derived_family_strips_sigma():
    M = FinFamily.of([[1, 2]])
    assert derived_family(M, {1}).to_json() == [[2]]


def test_derived_family_empty_when_sigma_misses():
    M = FinFamily.of([[1, 2], [3]])
    assert len(derived_family(M, {5})) == 0


def test_derived_family_with_empty_sigma_is_identity():
    M = FinFamily.of([[1, 2], [3]])
    assert derived_family(M, set()).members == M.members


def test_rank_of_empty_family_is_zero():
    assert ord_rank(FinFamily.of([])) == 0


def test_rank_of_single_singleton_is_one():
    assert ord_rank(FinFamily.of([[1]])) == 1


def test_rank_equals_max_member_size():
    assert ord_rank(FinFamily.of([[1, 2], [3]])) == 2
    assert ord_rank(FinFamily.of([[0, 2, 4, 5], [1], [2, 3]])) == 4


def test_rank_closed_form_on_random_families():
    rng = random.Random(3)
    for _ in range(500):
        members = [rng.sample(range(6), rng.randint(1, 4))
                   for _ in range(rng.randint(0, 6))]
        M = FinFamily.of(members)
        expected = max((len(m) for m in M.members), default=0)
        assert ord_rank(M) == expected


def test_rank_monotone_under_subfamilies():
    rng = random.Random(5)
    for _ in range(300):
        members = [rng.sample(range(6), rng.randint(1, 4))
                   for _ in range(rng.randint(1, 6))]
        M = FinFamily.of(members)
        sub = FinFamily.of(m for m in M.members if rng.random() < 0.5)
        assert sub <= M
        assert ord_rank(sub) <= ord_rank(M)


def test_strict_descent_on_support_elements():
    rng = random.Random(9)
    for _ in range(200):
        members = [rng.sample(range(6), rng.randint(1, 4))
                   for _ in range(rng.randint(1, 5))]
        M = FinFamily.of(members)
        r = ord_rank(M)
        for a in M.support():
            assert ord_rank(derived_family(M, {a})) < r


def _reference_rank(members: frozenset[frozenset[int]]) -> int:
    """The frozenset recursion ord_rank replaced, with a memo per call."""
    memo: dict[frozenset[frozenset[int]], int] = {}

    def rank(members):
        if not members:
            return 0
        if members in memo:
            return memo[members]
        best = 0
        for a in frozenset(chain.from_iterable(members)):
            derived = frozenset(m - {a} for m in members
                                if a in m and m != {a})
            best = max(best, rank(derived))
        memo[members] = best + 1
        return best + 1

    return rank(members)


# naturals small and large: near 10^9 and past 2^63, so a relabelling that
# kept the raw values as bit positions would build enormous masks
_naturals = st.one_of(st.integers(0, 12),
                      st.integers(10**9 - 3, 10**9 + 3),
                      st.integers(2**63 - 2, 2**70))
_families = st.lists(st.sets(_naturals, min_size=1, max_size=5), max_size=8)
_SHARED_MEMO: dict = {}


@settings(max_examples=300, deadline=None)
@given(_families)
def test_bitmask_rank_matches_frozenset_recursion(members):
    M = FinFamily.of(members)
    expected = _reference_rank(M.members)
    assert ord_rank(M) == expected
    assert ord_rank(M, _SHARED_MEMO) == expected


def test_rank_memo_is_keyed_on_relabelled_masks():
    memo: dict = {}
    assert ord_rank(FinFamily.of([[0, 10**9]]), memo) == 2
    # the support {0, 10^9} becomes bits 0 and 1; a key is a family's
    # sorted mask tuple
    assert set(memo) == {(0b11,), (0b01,), (0b10,)}
    # a relabelled copy of the family hits the same entries
    assert ord_rank(FinFamily.of([[7, 2**70]]), memo) == 2
    assert len(memo) == 3


def test_ordinal_criterion_memo_memory():
    # one shared memo over the criterion's 10,000 seeded families keeps a
    # sorted tuple of small-int masks per key
    tracemalloc.start()
    try:
        result = acceptance.criterion_ordinal()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed, result.details
    assert peak < 2.5 * 2**20


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_derived_family_matches_validating_reference(data):
    M = FinFamily.of(data.draw(_families))
    support = sorted(M.support())
    # sigma is empty, outside the support, inside it, or equal to a member
    beyond = st.integers(max(support, default=-1) + 1, 2**71)
    sigmas = [st.just(frozenset()), st.frozensets(beyond, min_size=1)]
    if support:
        sigmas += [st.frozensets(st.sampled_from(support), min_size=1),
                   st.sampled_from(M.to_json()).map(frozenset)]
    s = data.draw(st.one_of(sigmas))
    reference = FinFamily(frozenset(m - s for m in M.members
                                    if s <= m and m - s))
    derived = derived_family(M, s)
    assert derived == reference
    assert FinFamily(derived.members) == derived


def test_inclusive_closure_enumerates_subsets():
    closed = inclusive_closure(FinFamily.of([[1, 2]]))
    assert closed.to_json() == [[1], [1, 2], [2]]


def test_closure_is_inclusive_and_idempotent():
    rng = random.Random(13)
    for _ in range(100):
        members = [rng.sample(range(5), rng.randint(1, 3))
                   for _ in range(rng.randint(1, 4))]
        M = FinFamily.of(members)
        closed = inclusive_closure(M)
        assert is_inclusive(closed)
        assert inclusive_closure(closed).members == closed.members
        # closing adds only subsets, so the largest member never grows
        assert ord_rank(closed) == ord_rank(M)


def test_is_inclusive_spots_missing_subsets():
    assert not is_inclusive(FinFamily.of([[1, 2]]))
    assert is_inclusive(FinFamily.of([[1], [2], [1, 2]]))
