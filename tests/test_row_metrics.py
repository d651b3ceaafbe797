"""Each space kind's row metric against the reference distance formulas:
l-infinity on tower rows is `tower_distance`, on product rows the max of the
two factor distances, and l1 on shift-union rows is `shift_distance`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab.spaces import (
    LatticeSpace,
    ProductSpace,
    ShiftPoint,
    ShiftUnionSpace,
    SpaceError,
    TowerPoint,
    TowerSpace,
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

# points of LatticeSpace((1, 2, 3))
LATTICE_POINTS = st.tuples(COORD, st.integers(-4, 4).map(lambda v: 2 * v),
                           st.integers(-3, 3).map(lambda v: 3 * v))

# product factors: (space, point strategy, reference distance)
FACTORS = {
    "tower": (TowerSpace("identity"), tower_points(0), tower_distance),
    "lattice": (LatticeSpace((1, 2, 3)), LATTICE_POINTS,
                lattice_max_distance),
}


def row_metric(spec, p, q, others):
    """The metric of the first two rows of one `rows` call that also pads
    for `others`, as the pointwise path pads for a whole window."""
    a, b = spec.rows([p, q, *others])[:2]
    return spec.row_metric(a, b)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), extra_dim=st.integers(0, 2))
def test_tower_rows_measure_tower_distance(data, extra_dim):
    spec = TowerSpace("identity", extra_dim)
    points = tower_points(extra_dim)
    p, q = data.draw(points), data.draw(points)
    others = data.draw(st.lists(points, max_size=3))
    assert row_metric(spec, p, q, others) == tower_distance(p, q)
    assert space_distance(spec, p, q) == tower_distance(p, q)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kinds=st.sampled_from(
    [("tower", "tower"), ("lattice", "lattice"), ("tower", "lattice")]))
def test_product_rows_measure_the_larger_factor_distance(data, kinds):
    (first, first_points, d_first), (second, second_points, d_second) = (
        FACTORS[kind] for kind in kinds)
    spec = ProductSpace(first, second)
    pairs = st.tuples(first_points, second_points)
    p, q = data.draw(pairs), data.draw(pairs)
    others = data.draw(st.lists(pairs, max_size=3))
    expected = max(d_first(p[0], q[0]), d_second(p[1], q[1]))
    assert row_metric(spec, p, q, others) == expected
    assert space_distance(spec, p, q) == expected


def test_product_refuses_an_l1_factor():
    lattice = LatticeSpace((1, 2, 3))
    for factors in ((ShiftUnionSpace(), lattice),
                    (lattice, ShiftUnionSpace())):
        with pytest.raises(SpaceError, match="l-infinity"):
            ProductSpace(*factors)


@settings(max_examples=200, deadline=None)
@given(p=SHIFT_POINTS, q=SHIFT_POINTS, others=st.lists(SHIFT_POINTS,
                                                       max_size=3))
def test_shift_rows_measure_shift_distance(p, q, others):
    spec = ShiftUnionSpace()
    assert row_metric(spec, p, q, others) == shift_distance(p, q)
    assert space_distance(spec, p, q) == shift_distance(p, q)


def test_tower_rows_reject_mismatched_extra_blocks():
    a = TowerPoint(1, (2,), (5,))
    b = TowerPoint(1, (2,))
    spec = TowerSpace("identity", 1)
    with pytest.raises(SpaceError, match="mismatched extra-block"):
        spec.rows([a, b])
    with pytest.raises(SpaceError, match="mismatched extra-block"):
        space_distance(spec, a, b)


def test_lattice_rows_are_the_points_themselves():
    points = [(0, 3), (1, -3)]
    assert LatticeSpace((1, 3)).rows(points) is points
