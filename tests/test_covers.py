"""Cover constructions: classification examples, declared parameters,
tilings and the saturated union."""

import itertools
import random

import pytest

from coarselab.covers import (
    CoverError,
    FiniteFamily,
    LONG_COLOR,
    SHORT_COLOR,
    band_interval,
    fiber_product_cover,
    grid_cover,
    mixed_grid_cover,
    omega_cover,
    product_square_cover,
    saturated_union,
    set_distance,
    shift_union_cover,
    singleton_cover,
    staircase_cover,
)
from coarselab.spaces import (
    ProductSpace,
    ShiftPoint,
    ShiftUnionSpace,
    SpaceError,
    TowerPoint,
    TowerSpace,
    Window,
    space_distance,
    tower_distance,
)


# ---------------------------------------------------------------------------
# grid cover
# ---------------------------------------------------------------------------

def test_grid_point_zero_lands_in_even_family():
    g = grid_cover(1, 5)
    color_zero, cell_zero = g.classify((0,))
    color_seven, cell_seven = g.classify((7,))
    assert cell_zero == (0,)          # 0 in [0, 5)
    assert cell_seven == (1,)         # 7 in [5, 10)
    assert color_zero != color_seven  # opposite interval parities


def test_grid_color_count_is_two_to_the_dim():
    assert grid_cover(2, 3).colors == 4
    assert grid_cover(4, 7).colors == 16


def test_grid_same_color_cells_are_gap_plus_one_apart():
    # brute force over [-50, 50]: intervals are half-open, so the measured
    # gap between same-color cells is exactly gap+1 in the integers
    g = grid_cover(1, 5)
    cells: dict = {}
    for x in range(-50, 51):
        color, key = g.classify((x,))
        cells.setdefault((color, key), []).append(x)
    best = None
    for (c1, k1), xs in cells.items():
        for (c2, k2), ys in cells.items():
            if c1 == c2 and k1 != k2:
                d = min(abs(a - b) for a in xs for b in ys)
                best = d if best is None else min(best, d)
    assert best == 6
    assert all(max(xs) - min(xs) <= 4 for xs in cells.values())


def test_grid_dim_zero_covers_the_one_point():
    g = grid_cover(0, 5)
    assert g.colors == 1
    assert g.classify(()) == (0, ())
    # the one point is the 0-tuple: longer points are refused, as in every
    # other dimension
    with pytest.raises(SpaceError, match="expects 0-tuples"):
        g.classify((3,))


def test_grid_classification_is_deterministic():
    g = grid_cover(2, 3)
    for p in itertools.product(range(-6, 7), repeat=2):
        assert g.classify(p) == g.classify(p)


# ---------------------------------------------------------------------------
# singleton and fiber-product covers
# ---------------------------------------------------------------------------

def test_singleton_cover_threshold():
    spec = TowerSpace("identity")
    sc = singleton_cover(spec, 3)
    high = TowerPoint(5, (5, 10, 0, 0, 5))
    assert sc.classify(high) == (0, high.key())
    assert sc.classify(TowerPoint(3, (3, 0, 3))) is None


def test_singleton_separation_exceeds_threshold():
    spec = TowerSpace("identity")
    pts = list(spec.iter(Window.make(levels=(4, 4), box=(-8, 8))))
    d = min(tower_distance(a, b) for a in pts for b in pts if a != b)
    assert d == 4  # level-4 coordinates move in steps of 4
    a = TowerPoint(4, (0,) * 4)
    b = TowerPoint(6, (0,) * 6)
    assert tower_distance(a, b) == 9  # 4 + 5


def test_singleton_cover_rejects_factor_spaces():
    with pytest.raises(CoverError):
        singleton_cover(TowerSpace("identity", 1), 3)


def test_fiber_product_composes_base_classification():
    fp = fiber_product_cover(grid_cover(1, 5), 3)
    p = TowerPoint(4, (4, 8, 0, 4), (7,))
    color, (fiber_key, base_cell) = fp.classify(p)
    assert base_cell == (1,)            # 7 in [5, 10)
    assert fiber_key == (4, (4, 8, 0, 4))
    assert fp.classify(TowerPoint(2, (2, 4), (7,))) is None


def test_fiber_product_shared_cell_shares_tower_part():
    fp = fiber_product_cover(grid_cover(1, 5), 3)
    p = TowerPoint(4, (4, 8, 0, 4), (6,))
    q = TowerPoint(4, (4, 8, 0, 4), (9,))
    assert fp.classify(p)[1] == fp.classify(q)[1]
    r = TowerPoint(4, (8, 8, 0, 4), (6,))
    assert fp.classify(p)[1] != fp.classify(r)[1]


# ---------------------------------------------------------------------------
# staircase cover
# ---------------------------------------------------------------------------

def test_staircase_phase_example():
    # residues (2, 0) mod 4 with weights 1, 4 give phase 2, so the k=1 short
    # cell is [65, 66] and the long stretch runs to 125
    st = staircase_cover(1, 2, dim=2, height_interval=(1, 1))
    x = (2, 4)
    assert st.classify(x + (65, 1)) == (SHORT_COLOR, (x, 1))
    assert st.classify(x + (66, 1)) == (SHORT_COLOR, (x, 1))  # boundary
    assert st.classify(x + (67, 1)) == (LONG_COLOR, (x, 1))
    assert st.classify(x + (124, 1)) == (LONG_COLOR, (x, 1))
    assert st.classify(x + (125, 1)) == (SHORT_COLOR, (x, 2))  # boundary


def test_staircase_phase_range():
    # phases stay within [0, sum of weights - 1] for every window point
    n, r = 2, 3
    st = staircase_cover(n, r, dim=r, height_interval=(0, 0))
    weight_sum = sum(2 ** (r * j) for j in range(1, r + 1))
    period = weight_sum * (r + n)
    step = 2 ** n
    for x in itertools.product(range(-16, 17, step), repeat=r):
        color, (cell_x, k) = st.classify(x + (0, 0))
        # recover the phase from the short-cell anchor nearest to t=0
        total = sum((c % 2 ** r) * 2 ** (r * j) for j, c in enumerate(x))
        assert 0 <= total <= weight_sum - 1


def test_staircase_requires_r_above_n():
    with pytest.raises(CoverError, match="r > n"):
        staircase_cover(3, 3, dim=3, height_interval=(0, 0))


def test_staircase_rejects_points_off_the_sublattice():
    st = staircase_cover(1, 2, dim=2, height_interval=(0, 0))
    with pytest.raises(SpaceError):
        st.classify((1, 2, 0, 0))


def test_staircase_runs_tile_and_match_classify():
    st = staircase_cover(1, 2, dim=2, height_interval=(1, 1))
    fiber = (2, 4, 1)
    runs = st.fiber_runs(fiber, -100, 100)
    assert runs[0][0] == -100 and runs[-1][1] == 100
    for (t0, t1, color, cell), nxt in zip(runs, runs[1:]):
        assert nxt[0] == t1 + 1
    for t0, t1, color, cell in runs:
        for t in (t0, (t0 + t1) // 2, t1):
            assert st.classify((2, 4, t, 1)) == (color, cell)


# ---------------------------------------------------------------------------
# composite tower cover
# ---------------------------------------------------------------------------

def test_omega_cover_color_count_depends_on_n_only():
    assert omega_cover(3, 5).colors == 20  # 2 + 2 + 2**4
    assert omega_cover(3, 5).colors == omega_cover(3, 11).colors
    assert omega_cover(4, 6).colors == 4 + 2 ** 5


def test_omega_cover_designates_one_small_gap_color():
    scheme = omega_cover(3, 7)
    small = [c for c, s in scheme.declared_separation.items() if s == 3]
    assert small == [0]
    assert all(s == 7 for c, s in scheme.declared_separation.items() if c != 0)


def test_omega_cover_regions():
    scheme = omega_cover(3, 5)
    high = TowerPoint(5, (32, 0, 0, 32, 0), (7,))
    color, _ = scheme.classify(high)
    assert color in (2, 3)
    low = TowerPoint(2, (4, 8), (7,))
    color, _ = scheme.classify(low)
    assert color >= 4
    mid = TowerPoint(4, (16, 0, 16, 0), (7,))
    color, _ = scheme.classify(mid)
    assert color in (LONG_COLOR, SHORT_COLOR)


def test_omega_cover_parameter_guards():
    with pytest.raises(CoverError):
        omega_cover(2, 5)
    with pytest.raises(CoverError):
        omega_cover(3, 3)


# ---------------------------------------------------------------------------
# mixed grid cover
# ---------------------------------------------------------------------------

def test_band_interval_hand_example():
    # m=1, n=1, k=3, R=5: S=8, multiplier 2; first band [3,16), separator
    # [16,19)
    assert band_interval(3, 1, 8, 5, 3, 2) == ("C", 1)
    assert band_interval(15, 1, 8, 5, 3, 2) == ("C", 1)
    assert band_interval(16, 1, 8, 5, 3, 2) == ("D", 1)
    assert band_interval(18, 1, 8, 5, 3, 2) == ("D", 1)
    assert band_interval(19, 1, 8, 5, 3, 2) == ("C", 2)


def test_band_and_separator_tile_every_offset():
    # walking the line must alternate C j -> D j -> C j+1 with no gaps
    for l in (1, 2, 3, 4):
        prev = band_interval(-61, l, 8, 5, 3, 4)
        widths = {"C": 0, "D": 0}
        for x in range(-60, 61):
            cur = band_interval(x, l, 8, 5, 3, 4)
            if cur != prev:
                pk, pj = prev
                assert cur == (("D", pj) if pk == "C" else ("C", pj + 1))
            widths[cur[0]] += 1
            prev = cur
        assert widths["C"] + widths["D"] == 121


def test_mixed_grid_color_count():
    assert mixed_grid_cover(1, 1, 3, 5).colors == 3
    assert mixed_grid_cover(2, 1, 4, 6).colors == 9
    assert mixed_grid_cover(3, 2, 2, 9).colors == 25


def test_mixed_grid_separator_cells_far_apart():
    # D-cells with one offset, window [-100,100]: consecutive separators sit
    # a full period minus their width apart
    cells: dict = {}
    for x in range(-100, 101):
        kind, j = band_interval(x, 1, 8, 5, 3, 2)
        if kind == "D":
            cells.setdefault(j, []).append(x)
    gaps = [min(abs(a - b) for a in xs for b in ys)
            for (j1, xs), (j2, ys) in itertools.combinations(cells.items(), 2)]
    assert min(gaps) == 14
    assert min(gaps) >= 13


def test_mixed_grid_classify_pairs_offset_with_scaled_axes():
    mg = mixed_grid_cover(1, 1, 3, 5)
    color, (l, w, *bands) = mg.classify((3, 0))
    assert color == 0        # 3 sits in the offset-l band for l=2 (w=0)
    assert l == 2
    assert band_interval(8, 2, 8, 5, 3, 2)[0] == "D"
    assert mg.classify((8, 0))[0] > 0  # 8 sits in that offset's separator


def test_separators_across_offsets_stay_apart():
    # the union of separator families over all offsets keeps gaps >= R+1
    positions = {}
    for l in (1, 2):
        for x in range(-80, 81):
            kind, j = band_interval(x, l, 8, 5, 3, 2)
            if kind == "D":
                positions.setdefault((l, j), []).append(x)
    gaps = [min(abs(a - b) for a in xs for b in ys)
            for (ka, xs), (kb, ys) in itertools.combinations(positions.items(), 2)]
    assert min(gaps) == 6  # R + 1


# ---------------------------------------------------------------------------
# product-square cover
# ---------------------------------------------------------------------------

def _pair(level_a, coords_a, level_b, coords_b):
    return (TowerPoint(level_a, coords_a), TowerPoint(level_b, coords_b))


def test_product_square_color_count_depends_on_k_only():
    assert product_square_cover(1, 2).colors == 73
    assert product_square_cover(1, 5).colors == 73
    assert product_square_cover(2, 3).colors == product_square_cover(2, 7).colors


def test_product_square_regions_partition():
    scheme = product_square_cover(1, 3)
    spec = ProductSpace(TowerSpace("pow2"), TowerSpace("pow2"))
    pts = list(spec.iter(Window.make(levels=(1, 4), box=(-4, 4))))
    for p in pts:
        res = scheme.classify(p)
        assert res is not None
        color, cell = res
        assert 0 <= color < scheme.colors


def test_product_square_high_pairs_are_merged_singletons():
    scheme = product_square_cover(1, 3)
    p = _pair(2, (4, 8), 2, (0, 4))
    color, cell = scheme.classify(p)
    assert color == 0
    assert cell[0] == 1  # the both-levels-high region tags its cells


def test_product_square_high_pairs_pairwise_distance():
    scheme = product_square_cover(1, 3)
    spec = ProductSpace(TowerSpace("pow2"), TowerSpace("pow2"))
    pts = list(spec.iter(Window.make(levels=(2, 3), box=(-8, 8))))
    singles = [p for p in pts if scheme.classify(p)[1][0] == 1]
    # the product metric is the max of the two factor distances, so the
    # all-pairs minimum only needs a table over the distinct factor points
    factors = sorted({q for p in singles for q in p}, key=TowerPoint.key)
    index = {q: i for i, q in enumerate(factors)}
    table = [[tower_distance(a, b) for b in factors] for a in factors]
    pairs = [(index[a], index[b]) for a, b in singles]
    rng = random.Random(0)
    for _ in range(300):
        x, y = rng.randrange(len(singles)), rng.randrange(len(singles))
        (i, j), (k, l) = pairs[x], pairs[y]
        assert (max(table[i][k], table[j][l])
                == space_distance(spec, singles[x], singles[y]))
    d = min(max(table[i][k], table[j][l])
            for (i, j), (k, l) in itertools.combinations(pairs, 2))
    assert d >= 2  # > k = 1


def test_product_square_needs_n_at_least_k():
    with pytest.raises(CoverError):
        product_square_cover(3, 2)


# ---------------------------------------------------------------------------
# shift-union cover
# ---------------------------------------------------------------------------

def test_shift_union_color_count():
    assert shift_union_cover(2, 3).colors == (6 * 2) * 2 ** 6 + 2
    assert shift_union_cover(1, 2).colors == 6 * 2 ** 3 + 2


def test_shift_union_separator_cells():
    # k=2, m=3: S=5; separators have width 2 and consecutive offsets differ
    # by 2S = 10
    xs_l1 = [x for x in range(-100, 101)
             if band_interval(x, 1, 10, 3, 2, 8)[0] == "D"]
    xs_l2 = [x for x in range(-100, 101)
             if band_interval(x, 2, 10, 3, 2, 8)[0] == "D"]
    runs1 = [x for x in xs_l1 if x - 1 not in xs_l1]
    assert all(x + 1 in xs_l1 for x in runs1)          # width 2
    assert min(y - x for x in runs1 for y in runs1 if y > x) >= 10
    assert min(abs(x - y) for x in runs1 for y in xs_l2) >= 8  # m-disjoint


def test_shift_union_routes_levels_to_blocks():
    scheme = shift_union_cover(2, 2)
    for level in range(-3, 9):
        p = ShiftPoint.from_support({}, level)
        color, cell = scheme.classify(p)
        assert cell[0] == level // 4  # block index
        assert color % 2 == (level // 4) % 2


def test_shift_union_tail_assignment_in_cell_key():
    scheme = shift_union_cover(1, 2)
    base = ShiftPoint.from_support({}, 0)
    tailed = ShiftPoint.from_support({9: 10}, 0)  # beyond bands and pattern axes
    c0, cell0 = scheme.classify(base)
    c1, cell1 = scheme.classify(tailed)
    assert c0 == c1
    assert cell0 != cell1
    assert cell1 == cell0 + (9, 10)  # the flat key ends with (index, value)


# ---------------------------------------------------------------------------
# finite families and saturated union
# ---------------------------------------------------------------------------

def _interval_family(tag, *spans):
    return FiniteFamily.of({
        (tag, i): frozenset((x,) for x in range(lo, hi + 1))
        for i, (lo, hi) in enumerate(spans)
    })


def test_finite_family_rejects_overlap():
    with pytest.raises(CoverError):
        FiniteFamily.of({"a": frozenset({(1,), (2,)}),
                         "b": frozenset({(2,)})})


@pytest.mark.parametrize("points", [
    [TowerPoint(1, (0,)), TowerPoint(1, (2,)), TowerPoint(2, (0, 0))],
    [ShiftPoint(0, ()), ShiftPoint(0, ((1, 2),)), ShiftPoint(1, ((1, 1),))],
], ids=["tower", "shift"])
def test_finite_family_names_shared_points_of_every_kind(points):
    # the cells share the first two points, which the error lists sorted
    with pytest.raises(CoverError) as exc:
        FiniteFamily.of({"a": points, "b": points[1::-1]})
    assert str(exc.value) == f"cells are not pairwise disjoint: {points[:2]}"


def test_set_distance_merge_path_matches_naive():
    rng = random.Random(2)
    for _ in range(50):
        A = [(rng.randint(-40, 40),) for _ in range(rng.randint(1, 12))]
        B = [(rng.randint(-40, 40),) for _ in range(rng.randint(1, 12))]
        naive = min(abs(a[0] - b[0]) for a in A for b in B)
        assert set_distance(A, B) == naive
    # tower and shift-union points against the all-pairs space distance;
    # empty-support shift points have one-column rows, measured by the merge
    tower = TowerSpace("identity")
    shift = ShiftUnionSpace()
    pools = [
        (tower, list(tower.iter(Window.make(levels=(1, 3), box=(-3, 3))))),
        (shift, list(shift.iter(Window.make(levels=(0, 2), box=(-3, 3),
                                            max_support=2)))),
        (shift, [ShiftPoint(level, ()) for level in range(0, 41)]),
    ]
    for spec, pool in pools:
        for _ in range(30):
            A = rng.sample(pool, rng.randint(1, 8))
            B = rng.sample(pool, rng.randint(1, 8))
            naive = min(space_distance(spec, a, b) for a in A for b in B)
            assert set_distance(A, B, spec) == naive


def test_saturated_union_absorbs_close_and_keeps_far():
    V = _interval_family("v", (0, 10))
    U = _interval_family("u", (12, 14), (30, 32))
    out = saturated_union(V, U, 3)
    cells = {key: sorted(p[0] for p in pts) for key, pts in out.cells}
    assert cells[(0, ("v", 0))] == list(range(0, 11)) + [12, 13, 14]
    assert cells[(1, ("u", 1))] == [30, 31, 32]


def test_saturated_union_disjoint_inputs_pass_through():
    V = _interval_family("v", (0, 4))
    U = _interval_family("u", (20, 22))
    out = saturated_union(V, U, 3)
    assert len(out) == 2
    assert out.point_union() == V.point_union() | U.point_union()


def test_saturated_union_requires_positive_radius():
    with pytest.raises(CoverError):
        saturated_union(_interval_family("v", (0, 1)),
                        _interval_family("u", (5, 6)), 0)


def test_saturated_union_bound_conclusion_exact():
    # tight family r-disjoint R-bounded, sparse family 5R-disjoint D-bounded:
    # result is r-disjoint and (D + 2R + 2r)-bounded
    rng = random.Random(17)
    for _ in range(100):
        r = rng.randint(1, 3)
        R = r + rng.randint(0, 3)
        D = R + rng.randint(0, 2 * R)
        u_spans, cursor = [], rng.randint(-30, 0)
        for _ in range(rng.randint(1, 5)):
            length = rng.randint(0, R)
            u_spans.append((cursor, cursor + length))
            cursor += length + r + rng.randint(0, 6)
        v_spans, cursor = [], rng.randint(-20, 10)
        for _ in range(rng.randint(1, 3)):
            length = rng.randint(0, D)
            v_spans.append((cursor, cursor + length))
            cursor += length + 5 * R + rng.randint(0, 6)
        out = saturated_union(_interval_family("v", *v_spans),
                              _interval_family("u", *u_spans), r)
        sets = [sorted(pts) for _, pts in out.cells]
        assert all(pts[-1][0] - pts[0][0] <= D + 2 * R + 2 * r for pts in sets)
        for a, b in itertools.combinations(sets, 2):
            assert set_distance(a, b) >= r
