"""The sweep-and-prune cross-cell separation and the cell diameters against
unpruned all-pairs loops, on random cell layouts in every pointwise space
kind, and the run path's class measurement against the same brute force."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coarselab.spaces import (
    LatticeSpace,
    ProductSpace,
    ShiftPoint,
    ShiftUnionSpace,
    TowerPoint,
    TowerSpace,
    lattice_max_distance,
    space_distance,
)
from coarselab import verify
from coarselab.verify import _measure_color_points, _measure_color_runs

COORD = st.integers(-6, 6)


def measure_rows(cells: dict, l1: bool):
    """`_measure_color_points` on cells given as {key: [row, ...]}: each
    cell's rows joined into the one flat list the pointwise path keeps."""
    dim = len(next(iter(cells.values()))[0]) if cells else 0
    flats = {key: [c for row in rows for c in row]
             for key, rows in cells.items()}
    return _measure_color_points(flats, dim, l1)


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
    assert (measure_rows(row_cells, spec.l1)
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
        return layouts(LatticeSpace((1,) * dim),
                       st.tuples(*[COORD] * dim), spanning)
    return st.integers(1, 3).flatmap(for_dim)


def tower_layouts():
    def for_extra(extra_dim):
        spec = (TowerSpace("identity", extra_dim)
                if extra_dim else TowerSpace("identity"))
        pad = (0,) * extra_dim
        spanning = [TowerPoint(1, (-6,), pad), TowerPoint(3, (6, 0, 0), pad)]
        return layouts(spec, tower_points(extra_dim), spanning)
    return st.sampled_from([0, 1]).flatmap(for_extra)


def product_layouts():
    factor = tower_points(0)
    origin = TowerPoint(1, (0,))
    return layouts(
        ProductSpace(TowerSpace("identity"), TowerSpace("identity")),
        st.tuples(factor, factor),
        [(TowerPoint(1, (-6,)), origin), (TowerPoint(2, (6, 0)), origin)])


def shift_layouts():
    return layouts(ShiftUnionSpace(), shift_points(),
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


@st.composite
def spread_layouts(draw):
    """15 to 40 cells of 1 to 4 rows, each near its own corner of a box wide
    enough that most cell pairs are pruned, under l∞ (lattice rows) or l1
    (shift-union rows, whose axis 0 is the level).  Each cell's rows come in
    shuffled order."""
    l1 = draw(st.booleans())
    dim = draw(st.integers(1, 3))
    offsets = st.tuples(*[st.integers(0, 3)] * dim)
    cells = []
    for _ in range(draw(st.integers(15, 40))):
        corner = draw(st.tuples(*[st.integers(0, 40)] * dim))
        rows = {tuple(map(sum, zip(corner, offset)))
                for offset in draw(st.lists(offsets, min_size=1,
                                            max_size=4))}
        cells.append(draw(st.permutations(sorted(rows))))
    if not l1:
        return LatticeSpace((1,) * dim), cells
    return ShiftUnionSpace(), [
        [ShiftPoint.from_support(dict(enumerate(row[1:], 1)), row[0])
         for row in rows] for rows in cells]


@settings(max_examples=100, deadline=None)
@given(layout=spread_layouts())
# row (6, 4) is exactly the running best, 4, from row (3, 0) on the window
# axis 1, so the window leaves it out
@example(layout=(LatticeSpace((1, 1)),
                 [[(4, 6), (1, 4), (6, 4)], [(3, 0)]]))
# the boxes are apart on axis 2 only, so the window axis is 2
@example(layout=(LatticeSpace((1, 1, 1)),
                 [[(0, 0, 0), (2, 2, 1)],
                  [(1, 5, 9), (0, -3, 6), (2, 1, 4)]]))
def test_spread_layouts_match_all_pairs_minimum(layout):
    assert_sweep_matches_brute(*layout)


@pytest.mark.parametrize("shift, separation", [((10, 0), 1), ((0, 11), 2)])
def test_exact_step_measures_only_the_window(monkeypatch, shift,
                                             separation):
    """All pairs of two 10 x 10 cells are 10,000 distances; the slab, the
    filter and the window leave at most 200."""
    calls = 0

    def counted(p, q):
        nonlocal calls
        calls += 1
        return lattice_max_distance(p, q)

    monkeypatch.setattr(verify, "lattice_max_distance", counted)
    square = [(x, y) for x in range(10) for y in range(10)]
    moved = [(x + shift[0], y + shift[1]) for x, y in square]
    assert (measure_rows({0: square, 1: moved}, l1=False)
            == (2, 9, separation))
    assert calls <= 200


@given(cells=st.lists(st.lists(st.tuples(COORD), min_size=1, max_size=2),
                      min_size=2, max_size=2))
@example(cells=[[(-6,), (6,)], [(0,)]])   # one cell spans the other
@example(cells=[[(0,)], [(0,)]])          # the same point twice
@example(cells=[[(1,)], [(1,), (4,)]])    # equal lo, touching
def test_two_cell_layouts(cells):
    assert_sweep_matches_brute(LatticeSpace((1,)), cells)


@st.composite
def tilings(draw):
    """The cells one fiber holds: disjoint runs along a short moving axis,
    adjacent or apart, handed out to up to three cells."""
    runs, t = [], draw(st.integers(-3, 3))
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 3),
                                               st.integers(1, 3)),
                                     max_size=4)):
        runs.append((t + gap, t + gap + length - 1))
        t += gap + length
    labels = draw(st.lists(st.integers(0, draw(st.integers(0, 2))),
                           min_size=len(runs), max_size=len(runs)))
    return [[r for r, c in zip(runs, labels) if c == label]
            for label in sorted(set(labels))]


@st.composite
def run_cells(draw):
    """One color's run-path cells {key: (fiber, runs)} over a grid of
    fibers.  Each fiber takes one of a few tilings, so cells that share a
    fiber never overlap, as on the run path.  All fibers taking one tiling,
    or a tiling picked by the axis-0 value, makes every run layout a product
    of fibers; a tiling (or none) picked per fiber mostly makes
    non-products."""
    dim = draw(st.integers(0, 3))
    fibers = list(itertools.product(*[
        draw(st.lists(COORD, min_size=1, max_size=3, unique=True))
        for _ in range(dim)]))
    options = draw(st.lists(tilings(), min_size=1, max_size=3))
    pick = draw(st.sampled_from(["one", "axis 0", "per fiber"]))
    cells = {}
    for fiber in fibers:
        if pick == "one":
            i = 0
        elif pick == "axis 0":
            i = (fiber[0] if fiber else 0) % len(options)
        else:
            i = draw(st.integers(0, len(options)))
            if i == len(options):
                continue
        for label, runs in enumerate(options[i]):
            cells[(fiber, label)] = (fiber, runs)
    return cells


def cell_distance(a, b):
    """Max-metric distance of two cells {fiber} x runs."""
    (fiber_a, runs_a), (fiber_b, runs_b) = a, b
    t_gap = min(max(0, s0 - t1, t0 - s1)
                for t0, t1 in runs_a for s0, s1 in runs_b)
    return max(lattice_max_distance(fiber_a, fiber_b), t_gap)


def group_by_layout(cells):
    """The run path's input: {layout: [fiber, ...]}, one fiber per cell."""
    by_layout = {}
    for fiber, runs in cells.values():
        by_layout.setdefault(tuple(runs), []).append(fiber)
    return by_layout


@settings(max_examples=200, deadline=None)
@given(cells=run_cells())
# one layout on fibers (0, 0) and (1, 3): 3 apart, though its per-axis
# values step by 1
@example(cells={0: ((0, 0), [(0, 2)]), 1: ((1, 3), [(0, 2)])})
def test_run_classes_match_all_pairs(cells):
    values = list(cells.values())
    expected = (
        len(values),
        max((runs[-1][1] - runs[0][0] for _, runs in values), default=None),
        min((cell_distance(a, b)
             for a, b in itertools.combinations(values, 2)), default=None),
    )
    assert _measure_color_runs(group_by_layout(cells)) == expected
