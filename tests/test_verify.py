"""The verification engine against independent brute-force measurement, plus
witness search, coarse controls and the exhaustive 1-D search."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab.covers import (
    SHORT_COLOR,
    CoverScheme,
    _offset_bands,
    grid_cover,
    mixed_grid_cover,
    product_square_cover,
    shift_union_cover,
    singleton_cover,
    spaced_interval_cover,
    staircase_cover,
)
from coarselab.spaces import (
    ControlFn,
    IDENTITY,
    MapSpec,
    SpaceSpec,
    Window,
    iter_window,
    lattice_max_distance,
    space_distance,
)
from coarselab.verify import (
    RUN_AXIS_THRESHOLD,
    BudgetExceeded,
    VerifyError,
    assignment_scheme,
    check_coarse_control,
    find_fiber_witnesses,
    materialize,
    oracle_1d_nocover,
    verify_cover,
)


# ---------------------------------------------------------------------------
# a third, fully naive measurement path used as the test oracle
# ---------------------------------------------------------------------------

def brute_measure(scheme, spec, w):
    """Group every window point by classification and measure diameters and
    separations by unpruned all-pairs loops."""
    cells: dict = {}
    uncovered = 0
    for p in iter_window(spec, w):
        res = scheme.classify(p)
        if res is None:
            uncovered += 1
            continue
        color, key = res
        cells.setdefault(color, {}).setdefault(key, []).append(p)
    out = {}
    for color, per_key in cells.items():
        diam = 0
        for pts in per_key.values():
            for a, b in itertools.combinations(pts, 2):
                diam = max(diam, space_distance(spec, a, b))
        sep = None
        for (k1, A), (k2, B) in itertools.combinations(per_key.items(), 2):
            d = min(space_distance(spec, a, b) for a in A for b in B)
            sep = d if sep is None else min(sep, d)
        out[color] = (len(per_key), diam, sep)
    return out, uncovered


def assert_engine_matches_brute(scheme, spec, w, **kwargs):
    report = verify_cover(scheme, spec, w, **kwargs)
    expected, uncovered = brute_measure(scheme, spec, w)
    assert report.uncovered_total == uncovered
    for color, (cells_seen, diam, sep) in expected.items():
        rec = report.per_color[color]
        assert rec.cells_seen == cells_seen
        assert rec.max_diameter == diam
        assert rec.min_cross_cell_separation == sep
    return report


# ---------------------------------------------------------------------------
# engine vs brute force across space kinds
# ---------------------------------------------------------------------------

def test_engine_matches_brute_on_grid():
    rep = assert_engine_matches_brute(
        grid_cover(1, 5), SpaceSpec.lattice((1,)),
        Window.make(box=((-50, 50),)))
    assert rep.record(0).min_cross_cell_separation == 6
    assert rep.record(0).max_diameter == 4
    assert rep.verdict == "pass"


def test_engine_matches_brute_on_staircase_slice():
    # the [-2,2] boxes still realize all four phase classes of the scheme
    scheme = staircase_cover(1, 2, dim=2, height_interval=(3, 3))
    spec = SpaceSpec.lattice((2, 2, 1, 1))
    w = Window.make(axis_boxes={0: (-2, 2), 1: (-2, 2),
                                2: (-64, 64), 3: (3, 3)})
    rep = assert_engine_matches_brute(scheme, spec, w)
    assert rep.record(0).min_cross_cell_separation >= 1
    assert rep.record(1).min_cross_cell_separation >= 2
    assert rep.uncovered_total == 0


def test_engine_matches_brute_on_mixed_grid():
    scheme = mixed_grid_cover(1, 1, 3, 5)
    spec = SpaceSpec.lattice((1, 3))
    w = Window.make(axis_boxes={0: (-24, 24), 1: (-15, 15)})
    assert_engine_matches_brute(scheme, spec, w)


def test_engine_matches_brute_on_tower_singletons():
    spec = SpaceSpec.tower("identity")
    scheme = singleton_cover(spec, 2)
    w = Window.make(levels=(3, 4), box=(-6, 6))
    rep = assert_engine_matches_brute(scheme, spec, w)
    assert rep.record(0).min_cross_cell_separation == 3


def test_engine_matches_brute_on_product_square():
    scheme = product_square_cover(1, 2)
    spec = SpaceSpec.product_of_towers("pow2")
    w = Window.make(levels=(1, 2), box=(-4, 4))
    assert_engine_matches_brute(scheme, spec, w)


def test_engine_matches_brute_on_shift_union():
    scheme = shift_union_cover(1, 2)
    spec = SpaceSpec.shift_union()
    w = Window.make(levels=(0, 3), max_support=7, box=(0, 0),
                    axis_boxes={2: (-12, 12), 3: (-4, 4), 5: (-6, 6)})
    rep = assert_engine_matches_brute(scheme, spec, w)
    assert rep.uncovered_total == 0


def test_omega_cover_verifies_over_a_tower_window():
    from coarselab.covers import omega_cover
    scheme = omega_cover(3, 5)
    spec = SpaceSpec.tower_with_factor("pow2", 1)
    rep = verify_cover(scheme, spec, Window.make(levels=(1, 5), box=(-8, 8)))
    assert rep.passed
    assert rep.uncovered_total == 0
    # the designated small-gap color measures at least its declared gap
    assert rep.record(0).min_cross_cell_separation is None or \
        rep.record(0).min_cross_cell_separation >= 3
    hit = [rec for rec in rep.per_color if rec.cells_seen]
    assert len(hit) >= 4  # every region contributes cells on this window


def test_pullback_through_level_projection_stays_disjoint():
    # a 1-Lipschitz map pulls an r-disjoint family back to an r-disjoint one
    from coarselab.covers import pullback_scheme
    from coarselab.spaces import MapSpec as _MapSpec
    proj = _MapSpec.make("f-level-projection")
    pulled = pullback_scheme(grid_cover(1, 3), proj)
    spec = SpaceSpec.shift_union()
    w = Window.make(levels=(0, 8), box=(-2, 2), max_support=2)
    rep = verify_cover(pulled, spec, w)
    brute, _ = brute_measure(pulled, spec, w)
    for color, (cells_seen, diam, sep) in brute.items():
        if sep is not None:
            assert sep >= 3
            assert rep.per_color[color].min_cross_cell_separation == sep


def test_zero_point_window_passes_with_empty_colors():
    spec = SpaceSpec.lattice((5,))
    w = Window.make(box=((1, 4),))  # no multiples of 5 inside
    rep = verify_cover(grid_cover(1, 3), spec, w)
    assert rep.points_seen == 0
    assert rep.verdict == "pass-with-empty-color"
    assert materialize(grid_cover(1, 3), spec, w) == {}


def test_run_path_agrees_with_pointwise():
    scheme = staircase_cover(1, 2, dim=2, height_interval=(1, 1))
    spec = SpaceSpec.lattice((2, 2, 1, 1))
    w = Window.make(axis_boxes={0: (-16, 16), 1: (-16, 16),
                                2: (0, 180), 3: (1, 1)})
    a = verify_cover(scheme, spec, w, mode="pointwise")
    b = verify_cover(scheme, spec, w, mode="runs")
    assert a.points_seen == b.points_seen
    for ra, rb in zip(a.per_color, b.per_color):
        assert ra.cells_seen == rb.cells_seen
        assert ra.max_diameter == rb.max_diameter
        assert ra.min_cross_cell_separation == rb.min_cross_cell_separation


def test_run_mode_requires_run_support():
    with pytest.raises(VerifyError):
        verify_cover(grid_cover(1, 5), SpaceSpec.lattice((1,)),
                     Window.make(box=((-5, 5),)), mode="runs")


# ---------------------------------------------------------------------------
# report semantics
# ---------------------------------------------------------------------------

def test_monotone_in_window_size():
    scheme = grid_cover(2, 4)
    spec = SpaceSpec.lattice((1, 1))
    small = verify_cover(scheme, spec, Window.make(box=(-10, 10)))
    large = verify_cover(scheme, spec, Window.make(box=(-30, 30)))
    for rec_s, rec_l in zip(small.per_color, large.per_color):
        if rec_s.min_cross_cell_separation is not None:
            assert (rec_l.min_cross_cell_separation
                    <= rec_s.min_cross_cell_separation)
        assert rec_l.max_diameter >= rec_s.max_diameter


def test_empty_window_is_pass_with_empty_color():
    scheme = spaced_interval_cover(6, 3)
    rep = verify_cover(scheme, SpaceSpec.lattice((1,)),
                       Window.make(box=((6, 7),)))
    # points exist but fall between blocks: uncovered, hence fail
    assert rep.verdict == "fail"
    rep = verify_cover(grid_cover(1, 5), SpaceSpec.lattice((1,)),
                       Window.make(box=((2, 3),)))
    assert rep.verdict == "pass-with-empty-color"  # one parity never appears


def test_uncovered_points_reported_not_raised():
    # period-6 blocks {0,1,2}, {6,7,8}, {12}: 7 of 13 points covered
    scheme = spaced_interval_cover(3, 4)
    rep = verify_cover(scheme, SpaceSpec.lattice((1,)),
                       Window.make(box=((0, 12),)))
    assert rep.verdict == "fail"
    assert rep.uncovered_total == 6
    assert rep.uncovered_sample


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        verify_cover(grid_cover(2, 5), SpaceSpec.lattice((1, 1)),
                     Window.make(box=(-500, 500)), point_budget=1000)


def test_run_path_rejects_a_cell_spread_over_two_fibers():
    # every fiber reports its whole line as one run of the same cell
    def fiber_runs(fiber, t_lo, t_hi):
        return [(t_lo, t_hi, 0, "shared")]

    scheme = CoverScheme(
        classify=lambda p: (0, "shared"), colors=1,
        declared_separation={0: 1}, declared_bound={0: 10},
        domain_note="one cell across two fibers",
        moving_axis=1, fiber_runs=fiber_runs,
    )
    spec = SpaceSpec.lattice((1, 1))
    w = Window.make(box=((0, 1), (0, 9)))
    with pytest.raises(VerifyError,
                       match='single-fiber cells; use mode="pointwise"'):
        verify_cover(scheme, spec, w, mode="runs")
    assert verify_cover(scheme, spec, w, mode="pointwise").passed


def test_report_json_round_trip_fields():
    rep = verify_cover(grid_cover(1, 3), SpaceSpec.lattice((1,)),
                       Window.make(box=((-9, 9),)))
    body = rep.to_json()
    assert body["verdict"] == "pass"
    assert body["per_color"][0]["min_cross_cell_separation"] == 4
    assert "window" in body and "points_seen" in body


def test_materialize_groups_by_cell():
    fams = materialize(grid_cover(1, 5), SpaceSpec.lattice((1,)),
                       Window.make(box=((0, 9),)))
    # [0,9] splits into the even block {0..4} and the odd block {5..9}
    sets = {color: sorted(sorted(p[0] for p in pts) for _, pts in fam.cells)
            for color, fam in fams.items()}
    assert sorted(sets.values()) == [[[0, 1, 2, 3, 4]], [[5, 6, 7, 8, 9]]]


def test_singleton_cells_in_materialization():
    spec = SpaceSpec.tower("identity")
    fams = materialize(singleton_cover(spec, 2), spec,
                       Window.make(levels=(3, 3), box=(-3, 3)))
    assert all(len(pts) == 1 for _, pts in fams[0].cells)


# ---------------------------------------------------------------------------
# fiber witnesses
# ---------------------------------------------------------------------------

def test_no_families_means_first_box_point_witnesses():
    res = find_fiber_witnesses([], [(0,), (4,)], [(t,) for t in range(-5, 6)])
    assert res.all_fibers_witnessed
    assert all(wit == (-5,) for _, wit in res.records)


def test_single_interval_family_always_missed_on_wide_box():
    family = spaced_interval_cover(6, 3)  # 5-bounded, 3-disjoint
    box = [(t,) for t in range(-5, 6)]
    res = find_fiber_witnesses([family], [(8 * i,) for i in range(100)], box)
    assert res.all_fibers_witnessed
    for _, wit in res.records:
        assert family.classify(wit) is None


def test_two_block_families_leave_a_witness_square():
    def blocks(offset):
        def classify(p):
            cells = []
            for c in p:
                j, rem = divmod(c - offset, 12)
                if rem > 6:
                    return None
                cells.append(j)
            return (0, tuple(cells))
        return CoverScheme(classify=classify, colors=1,
                           declared_separation={0: 3},
                           declared_bound={0: 6},
                           domain_note=f"2-D blocks at offset {offset}")

    box = [p for p in itertools.product(range(-6, 7), repeat=2)]
    res = find_fiber_witnesses([blocks(0), blocks(-6)],
                               [(i,) for i in range(100)], box)
    assert res.all_fibers_witnessed


def test_delta_table_concatenates_fiber_and_witness():
    family = spaced_interval_cover(6, 3)
    res = find_fiber_witnesses([family], [(0,), (4,)],
                               [(t,) for t in range(-5, 6)])
    table = res.delta_table()
    assert set(table) == {(0,), (4,)}
    assert all(len(v) == 2 and v[:1] == k for k, v in table.items())


# ---------------------------------------------------------------------------
# coarse controls
# ---------------------------------------------------------------------------

def test_identity_map_has_no_violations():
    spec = SpaceSpec.lattice((1,))
    report = check_coarse_control(lambda p: p, spec, spec,
                                  Window.make(box=((-20, 20),)))
    assert report.passed
    assert report.max_observed_stretch == 0


def test_phi_tower_isometry_control():
    phi = MapSpec.make("phi-tower", {"n": 3})
    spec = SpaceSpec.tower_with_factor("pow2", 1)
    report = check_coarse_control(phi, spec, lattice_max_distance,
                                  Window.make(levels=(1, 3), box=(-4, 4)))
    assert report.passed
    assert report.max_observed_stretch == 0


def test_violations_are_reported_with_distances():
    # doubling map against identity controls must violate the upper bound
    spec = SpaceSpec.lattice((1,))
    report = check_coarse_control(lambda p: (2 * p[0],), spec, spec,
                                  Window.make(box=((0, 10),)))
    assert not report.passed
    x, y, dx, dy = report.violations[0]
    assert dy == 2 * dx


def test_delta_witness_control_bounds():
    family = spaced_interval_cover(6, 3)
    fibers = [(5 * i,) for i in range(40)]
    box = [(t,) for t in range(-5, 6)]
    res = find_fiber_witnesses([family], fibers, box)
    delta = MapSpec.make("delta-witness", table=res.delta_table(),
                         lower=IDENTITY, upper=ControlFn("plus-const", 10))
    report = check_coarse_control(delta, SpaceSpec.lattice((5,)),
                                  lattice_max_distance, points=fibers)
    assert report.passed
    assert report.max_observed_stretch <= 10


# ---------------------------------------------------------------------------
# the exhaustive 1-D search
# ---------------------------------------------------------------------------

def test_oracle_window_too_wide_is_infeasible():
    out = oracle_1d_nocover(3, 5, 1, (-5, 5))
    assert out.status == "infeasible"
    assert out.assignment is None
    assert out.nodes_explored > 0


def test_oracle_narrow_window_is_feasible_single_cluster():
    out = oracle_1d_nocover(3, 5, 1, (-2, 2))
    assert out.status == "feasible"
    assert {g for _, _, g in out.assignment} == {0}


def test_oracle_two_colors_hand_cover():
    out = oracle_1d_nocover(3, 30, 2, (-30, 30))
    assert out.status == "feasible"
    scheme = assignment_scheme(out, 3, 30, 2)
    rep = verify_cover(scheme, SpaceSpec.lattice((1,)),
                       Window.make(box=((-30, 30),)))
    assert rep.passed
    assert rep.uncovered_total == 0


def test_oracle_feasible_assignments_reverify():
    for window in ((-2, 2), (0, 5), (-7, -3)):
        out = oracle_1d_nocover(2, 6, 1, window)
        assert out.status == "feasible"
        rep = verify_cover(assignment_scheme(out, 2, 6, 1),
                           SpaceSpec.lattice((1,)),
                           Window.make(box=(window,)))
        assert rep.passed and rep.uncovered_total == 0


def test_oracle_matches_exhaustive_partition_search_one_color():
    # independent oracle: try every way to cut the sorted window into
    # consecutive clusters and check the diameter/separation constraints
    def brute_feasible(n, R, lo, hi):
        pts = list(range(lo, hi + 1))
        cuts = len(pts) - 1

        def ok(groups):
            for g in groups:
                if g[-1] - g[0] > R:
                    return False
            for a, b in zip(groups, groups[1:]):
                if b[0] - a[-1] < n:
                    return False
            return True

        for mask in range(2 ** cuts):
            groups, start = [], 0
            for i in range(cuts):
                if mask >> i & 1:
                    groups.append(pts[start:i + 1])
                    start = i + 1
            groups.append(pts[start:])
            if ok(groups):
                return True
        return False

    for n, R, lo, hi in ((3, 5, -5, 5), (3, 5, -2, 2), (2, 4, 0, 8),
                         (2, 3, 0, 9), (4, 4, -4, 4), (1, 2, 0, 7)):
        expected = brute_feasible(n, R, lo, hi)
        got = oracle_1d_nocover(n, R, 1, (lo, hi)).status
        assert got == ("feasible" if expected else "infeasible")


def _period_eight_cover(hi):
    # six points of color 0, then two of color 1, per period of 8
    return [(x, 0 if x % 8 < 6 else 1, x // 8) for x in range(hi + 1)]


def test_oracle_601_point_outcome_is_pinned():
    out = oracle_1d_nocover(3, 5, 2, (0, 600))
    assert out.status == "feasible"
    assert out.nodes_explored == 601
    assert out.assignment == _period_eight_cover(600)


@pytest.mark.parametrize("hi", [1000, 2000])
def test_oracle_long_windows_do_not_hit_the_recursion_limit(hi):
    out = oracle_1d_nocover(3, 5, 2, (0, hi))
    assert out.status == "feasible"
    assert out.nodes_explored == hi + 1
    assert out.assignment == _period_eight_cover(hi)


def test_oracle_budget_yields_inconclusive():
    out = oracle_1d_nocover(3, 5, 2, (-12, 12), node_budget=5)
    assert out.status == "inconclusive"


def test_oracle_rejects_unsupported_color_counts():
    with pytest.raises(VerifyError):
        oracle_1d_nocover(3, 5, 3, (-2, 2))


def test_engine_matches_brute_on_random_block_schemes():
    # random deterministic block colorings over 2-D windows: the pruned
    # engine must agree with unpruned all-pairs measurement everywhere
    import random as _random
    rng = _random.Random(2024)
    spec = SpaceSpec.lattice((1, 1))
    for trial in range(12):
        width = rng.randint(2, 6)
        colors = rng.randint(1, 4)
        salt = rng.randint(0, 10 ** 6)

        def classify(p, width=width, colors=colors, salt=salt):
            bx, by = p[0] // width, p[1] // width
            color = (bx * 7_919 + by * 104_729 + salt) % colors
            return (color, (bx, by))

        scheme = CoverScheme(
            classify=classify, colors=colors,
            declared_separation={c: 1 for c in range(colors)},
            declared_bound={c: 2 * width for c in range(colors)},
            domain_note="random block coloring",
        )
        half = rng.randint(6, 14)
        w = Window.make(box=(-half, half))
        assert_engine_matches_brute(scheme, spec, w)


@st.composite
def staircase_windows(draw):
    """A staircase scheme with n <= 2, r <= n + 2, dim <= 2 and a height
    interval anywhere in [-3, 5], over a window whose scaled boxes sit
    anywhere (negative, off-centre) and span at least 2^r, so every phase
    class on an axis appears.  The height axis holds one covered height,
    alone or next to an uncovered one, so every cell lies on one fiber."""
    n = draw(st.integers(1, 2))
    r = draw(st.integers(n + 1, n + 2))
    dim = draw(st.integers(1, 2))
    h_lo = draw(st.integers(-3, 3))
    h_hi = h_lo + draw(st.integers(0, 2))
    scheme = staircase_cover(n, r, dim=dim, height_interval=(h_lo, h_hi))
    axis_boxes = {}
    for j in range(dim):
        lo = draw(st.integers(-3 * 2 ** r, 2 ** r))
        axis_boxes[j] = (lo, lo + draw(st.integers(2 ** r, 6 * 2 ** r)))
    t_lo = draw(st.integers(-300, 100))
    axis_boxes[dim] = (t_lo, t_lo + draw(st.integers(80, 400)))
    axis_boxes[dim + 1] = draw(st.sampled_from(
        [(h, h) for h in range(h_lo, h_hi + 1)]
        + [(h_lo - 1, h_lo), (h_hi, h_hi + 1)]))
    spec = SpaceSpec.lattice((2 ** n,) * dim + (1, 1))
    return scheme, spec, Window.make(axis_boxes=axis_boxes)


@settings(deadline=None, max_examples=60)
@given(staircase_windows())
def test_run_path_matches_pointwise_on_random_staircases(case):
    scheme, spec, w = case
    a = verify_cover(scheme, spec, w, mode="pointwise")
    b = verify_cover(scheme, spec, w, mode="runs")
    assert (a.verdict, a.points_seen, a.uncovered_total, a.error_total) == \
        (b.verdict, b.points_seen, b.uncovered_total, b.error_total)
    assert a.per_color == b.per_color


def test_run_path_needs_a_unit_step_on_the_moving_axis():
    # on 2Z the run path would count and probe every integer t, including
    # the odd ones the lattice does not hold
    scheme = staircase_cover(1, 2, dim=2, height_interval=(1, 1))
    spec = SpaceSpec.lattice((2, 2, 2, 1))
    w = Window.make(axis_boxes={0: (-8, 8), 1: (-8, 8),
                                2: (1, 181), 3: (1, 1)})
    with pytest.raises(VerifyError, match="unit-step lattice axis"):
        verify_cover(scheme, spec, w, mode="runs")
    rep = verify_cover(scheme, spec, w, mode="pointwise")
    assert rep.points_seen == 7290
    assert rep.record(0).max_diameter == 56
    # up to the run threshold, auto enumerates the 2Z axis pointwise
    short_w = Window.make(axis_boxes={0: (-2, 2), 1: (-2, 2),
                                      2: (0, RUN_AXIS_THRESHOLD - 1),
                                      3: (1, 1)})
    auto = verify_cover(scheme, spec, short_w)
    assert auto.mode == "pointwise"
    assert auto.points_seen == 9 * RUN_AXIS_THRESHOLD // 2
    assert auto.per_color == verify_cover(scheme, spec, short_w,
                                          mode="pointwise").per_color


@pytest.mark.parametrize("t_hi", [RUN_AXIS_THRESHOLD, 10 ** 9])
def test_auto_refuses_a_long_non_unit_moving_axis(t_hi):
    # past the threshold neither path fits: enumerating a 2Z axis of 10^9
    # integers would build the whole window, and runs would miscount it
    scheme = staircase_cover(1, 2, dim=2, height_interval=(1, 1))
    spec = SpaceSpec.lattice((2, 2, 2, 1))
    w = Window.make(axis_boxes={0: (-2, 2), 1: (-2, 2), 2: (0, t_hi),
                                3: (1, 1)})
    with pytest.raises(VerifyError, match="too long to enumerate"):
        verify_cover(scheme, spec, w)
    with pytest.raises(VerifyError, match="too long to enumerate"):
        verify_cover(scheme, spec, w, point_budget=10 ** 12)


def test_oracle_outcome_round_trips_through_json():
    import json as _json
    from coarselab.verify import OracleOutcome
    out = oracle_1d_nocover(2, 6, 1, (0, 5))
    reloaded = OracleOutcome.from_json(_json.loads(_json.dumps(out.to_json())))
    assert reloaded.status == out.status
    assert reloaded.assignment == out.assignment
    rep = verify_cover(assignment_scheme(reloaded, 2, 6, 1),
                       SpaceSpec.lattice((1,)), Window.make(box=((0, 5),)))
    assert rep.passed


# ---------------------------------------------------------------------------
# mutant schemes: the verifier must reject each deliberate break
# ---------------------------------------------------------------------------

MIXED_WINDOW = Window.make(axis_boxes={0: (-30, 30), 1: (-30, 30),
                                       2: (-8, 8)})
MIXED_SPEC = SpaceSpec.lattice((1, 1, 4))


def _mutant(scheme, classify=None, separation=None, bound=None,
            fiber_runs=None):
    return CoverScheme(
        classify=classify or scheme.classify, colors=scheme.colors,
        declared_separation={**scheme.declared_separation,
                             **(separation or {})},
        declared_bound={**scheme.declared_bound, **(bound or {})},
        domain_note="mutant of " + scheme.domain_note,
        moving_axis=scheme.moving_axis,
        fiber_runs=fiber_runs or scheme.fiber_runs,
    )


def test_mixed_grid_reference_window_passes_at_its_declarations():
    scheme = mixed_grid_cover(2, 1, 4, 6)
    rep = verify_cover(scheme, MIXED_SPEC, MIXED_WINDOW)
    assert rep.verdict == "pass"
    assert rep.record(0).min_cross_cell_separation == 4
    assert rep.record(0).max_diameter == 15
    assert scheme.declared_separation[0] == 4
    assert scheme.declared_bound[0] == 15


def test_mixed_grid_separation_raised_by_one_fails():
    scheme = _mutant(mixed_grid_cover(2, 1, 4, 6), separation={0: 5})
    rep = verify_cover(scheme, MIXED_SPEC, MIXED_WINDOW)
    assert rep.verdict == "fail"
    assert not rep.record(0).separation_pass


def test_mixed_grid_bound_lowered_by_one_fails():
    scheme = _mutant(mixed_grid_cover(2, 1, 4, 6), bound={0: 14})
    rep = verify_cover(scheme, MIXED_SPEC, MIXED_WINDOW)
    assert rep.verdict == "fail"
    assert not rep.record(0).bound_pass


def test_mixed_grid_narrowed_separator_fails():
    # separators of width k - 1 = 3 while color 0 still declares k = 4: the
    # long bands grow by one point, past the declared bound
    m, k, R = 2, 4, 6

    def classify(p):
        color, l, cell, w_cell = _offset_bands(p[:m], p[m:], R, R + k, k - 1,
                                               2)
        return (color, (l, cell, w_cell))

    scheme = _mutant(mixed_grid_cover(m, 1, k, R), classify=classify)
    rep = verify_cover(scheme, MIXED_SPEC, MIXED_WINDOW)
    assert rep.verdict == "fail"
    assert rep.record(0).max_diameter == 16


STAIR_WINDOW = Window.make(axis_boxes={0: (-16, 16), 1: (-16, 16),
                                      2: (0, 180), 3: (1, 1)})
STAIR_SPEC = SpaceSpec.lattice((2, 2, 1, 1))


def _staircase():
    return staircase_cover(1, 2, dim=2, height_interval=(1, 1))


@pytest.mark.parametrize("mode", ["pointwise", "runs"])
def test_staircase_reference_window_passes_on_both_paths(mode):
    rep = verify_cover(_staircase(), STAIR_SPEC, STAIR_WINDOW, mode=mode)
    assert rep.verdict == "pass"
    measured = [(rec.cells_seen, rec.max_diameter,
                 rec.min_cross_cell_separation) for rec in rep.per_color]
    assert measured == [(1075, 57, 2), (948, 1, 4)]


@pytest.mark.parametrize("declared, color, check", [
    ({"separation": {0: 3}}, 0, "separation_pass"),  # long measures 2
    ({"bound": {0: 56}}, 0, "bound_pass"),           # long measures 57
    ({"separation": {1: 5}}, 1, "separation_pass"),  # short measures 4
])
def test_staircase_declared_value_mutants_fail_on_both_paths(declared, color,
                                                             check):
    scheme = _mutant(_staircase(), **declared)
    reps = [verify_cover(scheme, STAIR_SPEC, STAIR_WINDOW, mode=mode)
            for mode in ("pointwise", "runs")]
    assert [rep.verdict for rep in reps] == ["fail", "fail"]
    assert reps[0].per_color == reps[1].per_color
    assert not getattr(reps[0].record(color), check)


def test_staircase_runs_ending_early_disagree_with_classify():
    # each short run hands its last point to the long run after it, while
    # classify still puts that point in the short cell
    good = _staircase()

    def fiber_runs(fiber, t_lo, t_hi):
        runs = [list(run) for run in good.fiber_runs(fiber, t_lo, t_hi)]
        for run, after in zip(runs, runs[1:]):
            if run[2] == SHORT_COLOR and run[1] > run[0]:
                run[1] -= 1
                after[0] -= 1
        return [tuple(run) for run in runs]

    scheme = _mutant(good, fiber_runs=fiber_runs)
    with pytest.raises(VerifyError, match="disagrees with classify"):
        verify_cover(scheme, STAIR_SPEC, STAIR_WINDOW, mode="runs")


# The next mutants break schemes on the tower, product and shift-union
# spaces, whose cells are measured on padded tower rows, joined factor rows
# and l1 shift rows.  Each reference window measures the mutated separation
# exactly at its declaration (the tight bounds found on small windows are
# 1, which a scheme may not lower); most colors of the product and
# shift-union schemes stay empty on windows this small, so their reference
# verdict is "pass-with-empty-color".

TOWER_WINDOW = Window.make(levels=(3, 4), box=(-8, 8))
PRODUCT_WINDOW = Window.make(levels=(1, 2), box=(-2, 2))
SHIFT_WINDOW = Window.make(levels=(0, 1), max_support=8, box=(0, 0),
                           axis_boxes={0: (-5, 1), 6: (-8, 1)})


def _separation_raised_by_one_fails(scheme, spec, w, color, separation):
    rep = verify_cover(scheme, spec, w)
    assert rep.passed
    assert (rep.record(color).min_cross_cell_separation == separation
            == scheme.declared_separation[color])
    mutant = _mutant(scheme, separation={color: separation + 1})
    mutant_rep = verify_cover(mutant, spec, w)
    assert mutant_rep.verdict == "fail"
    assert not mutant_rep.record(color).separation_pass
    return rep


def test_singleton_separation_raised_by_one_fails():
    # levels 3 and 4 of the doubling tower: the closest cells are the two
    # origins, 3 apart by the level penalty alone
    spec = SpaceSpec.tower("pow2")
    rep = _separation_raised_by_one_fails(singleton_cover(spec, 2), spec,
                                          TOWER_WINDOW, 0, 3)
    assert rep.verdict == "pass" and rep.points_seen == 28


def test_product_square_separation_raised_by_one_fails():
    _separation_raised_by_one_fails(
        product_square_cover(1, 2), SpaceSpec.product_of_towers("pow2"),
        PRODUCT_WINDOW, 0, 1)


def test_shift_union_separation_raised_by_one_fails():
    _separation_raised_by_one_fails(
        shift_union_cover(2, 2), SpaceSpec.shift_union(), SHIFT_WINDOW, 0, 2)
