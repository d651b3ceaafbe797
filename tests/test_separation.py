"""The sweep-and-prune cross-cell separation and the cell diameters against
unpruned all-pairs loops, on random cell layouts in every pointwise space
kind, and the run path's fiber-set gap against the same brute force."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarselab.spaces import (
    ShiftPoint,
    SpaceSpec,
    TowerPoint,
    lattice_max_distance,
    space_distance,
)
from coarselab.verify import _FiberSet, _measure_color_points

COORD = st.integers(-6, 6)


def assert_sweep_matches_brute(spec, cells):
    """Measure `cells` the way the pointwise path does: rows of every point
    computed in one call, grouped back into their cells."""
    rows = iter(spec.rows([p for pts in cells for p in pts]))
    row_cells = {i: [next(rows) for _ in pts] for i, pts in enumerate(cells)}
    diameter = max(space_distance(spec, p, q)
                   for pts in cells for p in pts for q in pts)
    separation = min(space_distance(spec, p, q)
                     for a, b in itertools.combinations(cells, 2)
                     for p in a for q in b)
    assert (_measure_color_points(row_cells, spec.l1)
            == (len(cells), diameter, separation))


def tower_points(extra_dim):
    return st.builds(
        lambda level, coords, extra: TowerPoint(level, coords[:level], extra),
        st.integers(1, 3), st.tuples(COORD, COORD, COORD),
        st.tuples(*[COORD] * extra_dim))


def shift_points():
    return st.builds(
        ShiftPoint.from_support,
        st.dictionaries(st.integers(0, 3), st.integers(-3, 3), max_size=3),
        st.integers(0, 3))


@st.composite
def layouts(draw, spec, point, spanning):
    """2 to 7 cells of 1 to 5 points drawn from a small box, so equal sort
    keys, interleaved boxes and shared points (separation 0) all occur.
    `spanning` is a cell whose sort key covers the whole sort axis."""
    cells = draw(st.lists(st.lists(point, min_size=1, max_size=4),
                          min_size=2, max_size=6))
    if draw(st.booleans()):
        cells.append(spanning)
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(cells) - 1),
                             min_size=2, max_size=2, unique=True))
        cells[j] = cells[j] + [draw(st.sampled_from(cells[i]))]
    return spec, cells


def lattice_layouts():
    def for_dim(dim):
        spanning = [(-6,) + (0,) * (dim - 1), (6,) + (0,) * (dim - 1)]
        return layouts(SpaceSpec.lattice((1,) * dim),
                       st.tuples(*[COORD] * dim), spanning)
    return st.integers(1, 3).flatmap(for_dim)


def tower_layouts():
    def for_extra(extra_dim):
        spec = (SpaceSpec.tower_with_factor("identity", extra_dim)
                if extra_dim else SpaceSpec.tower("identity"))
        pad = (0,) * extra_dim
        spanning = [TowerPoint(1, (-6,), pad), TowerPoint(3, (6, 0, 0), pad)]
        return layouts(spec, tower_points(extra_dim), spanning)
    return st.sampled_from([0, 1]).flatmap(for_extra)


def product_layouts():
    factor = tower_points(0)
    origin = TowerPoint(1, (0,))
    return layouts(
        SpaceSpec.product_of_towers("identity"), st.tuples(factor, factor),
        [(TowerPoint(1, (-6,)), origin), (TowerPoint(2, (6, 0)), origin)])


def shift_layouts():
    return layouts(SpaceSpec.shift_union(), shift_points(),
                   [ShiftPoint(0, ()), ShiftPoint(3, ())])


LAYOUTS = {
    "lattice": lattice_layouts(),
    "tower": tower_layouts(),
    "product": product_layouts(),
    "shift": shift_layouts(),
}


@pytest.mark.parametrize("kind", sorted(LAYOUTS))
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_sweep_matches_all_pairs_minimum(kind, data):
    assert_sweep_matches_brute(*data.draw(LAYOUTS[kind]))


@given(cells=st.lists(st.lists(st.tuples(COORD), min_size=1, max_size=2),
                      min_size=2, max_size=2))
@example(cells=[[(-6,), (6,)], [(0,)]])   # one cell spans the other
@example(cells=[[(0,)], [(0,)]])          # the same point twice
@example(cells=[[(1,)], [(1,), (4,)]])    # equal lo, touching
def test_two_cell_layouts(cells):
    assert_sweep_matches_brute(SpaceSpec.lattice((1,)), cells)


@st.composite
def fiber_lists(draw, dim):
    """Fibers of one run class: a full product of per-axis value sets, or
    an arbitrary list (possibly with repeats)."""
    if draw(st.booleans()):
        axes = [draw(st.lists(COORD, min_size=1, max_size=3, unique=True))
                for _ in range(dim)]
        return list(itertools.product(*axes))
    return draw(st.lists(st.tuples(*[COORD] * dim), min_size=1, max_size=6))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fiber_set_cross_gap_matches_all_pairs(data):
    dim = data.draw(st.integers(0, 3))
    a = data.draw(fiber_lists(dim))
    b = data.draw(fiber_lists(dim))
    brute = min(lattice_max_distance(f, g) for f in a for g in b)
    assert _FiberSet(a).min_cross_gap(_FiberSet(b)) == brute
