"""Each space kind's row metric against the reference distance formulas:
l-infinity on tower rows is `tower_distance`, on product rows the max of the
two factor distances, and l1 on shift-union rows is `shift_distance`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab.spaces import (
    ShiftPoint,
    SpaceError,
    SpaceSpec,
    TowerPoint,
    l1_distance,
    lattice_max_distance,
    shift_distance,
    space_distance,
    tower_distance,
)

COORD = st.integers(-9, 9)


def tower_points(extra_dim):
    return st.integers(1, 5).flatmap(lambda level: st.builds(
        TowerPoint, st.just(level),
        st.tuples(*[COORD] * level), st.tuples(*[COORD] * extra_dim)))


SHIFT_POINTS = st.builds(
    ShiftPoint.from_support,
    st.dictionaries(st.integers(0, 6), st.integers(-5, 5), max_size=4),
    st.integers(0, 3))


def row_metric(spec, p, q, others):
    """The metric of the first two rows of one `rows` call that also pads
    for `others`, as the pointwise path pads for a whole window."""
    a, b = spec.rows([p, q, *others])[:2]
    return l1_distance(a, b) if spec.l1 else lattice_max_distance(a, b)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), extra_dim=st.integers(0, 2))
def test_tower_rows_measure_tower_distance(data, extra_dim):
    spec = SpaceSpec.tower_with_factor("identity", extra_dim)
    points = tower_points(extra_dim)
    p, q = data.draw(points), data.draw(points)
    others = data.draw(st.lists(points, max_size=3))
    assert row_metric(spec, p, q, others) == tower_distance(p, q)
    assert space_distance(spec, p, q) == tower_distance(p, q)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_product_rows_measure_the_larger_factor_distance(data):
    spec = SpaceSpec.product_of_towers("identity")
    pairs = st.tuples(tower_points(0), tower_points(0))
    p, q = data.draw(pairs), data.draw(pairs)
    others = data.draw(st.lists(pairs, max_size=3))
    expected = max(tower_distance(p[0], q[0]), tower_distance(p[1], q[1]))
    assert row_metric(spec, p, q, others) == expected
    assert space_distance(spec, p, q) == expected


@settings(max_examples=200, deadline=None)
@given(p=SHIFT_POINTS, q=SHIFT_POINTS, others=st.lists(SHIFT_POINTS,
                                                       max_size=3))
def test_shift_rows_measure_shift_distance(p, q, others):
    spec = SpaceSpec.shift_union()
    assert row_metric(spec, p, q, others) == shift_distance(p, q)
    assert space_distance(spec, p, q) == shift_distance(p, q)


def test_tower_rows_reject_mismatched_extra_blocks():
    a = TowerPoint(1, (2,), (5,))
    b = TowerPoint(1, (2,))
    spec = SpaceSpec.tower_with_factor("identity", 1)
    with pytest.raises(SpaceError, match="mismatched extra-block"):
        spec.rows([a, b])
    with pytest.raises(SpaceError, match="mismatched extra-block"):
        space_distance(spec, a, b)


def test_lattice_rows_are_the_points_themselves():
    points = [(0, 3), (1, -3)]
    assert SpaceSpec.lattice((1, 3)).rows(points) is points
