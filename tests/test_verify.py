"""The verification engine against independent brute-force measurement, plus
witness search, coarse controls and the exhaustive 1-D search."""

import dataclasses
import hashlib
import itertools
import json
from collections import Counter
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab.covers import (
    LONG_COLOR,
    SHORT_COLOR,
    CoverScheme,
    _offset_band_classifier,
    fiber_product_cover,
    grid_cover,
    mixed_grid_cover,
    omega_cover,
    product_square_cover,
    shift_union_cover,
    singleton_cover,
    spaced_interval_cover,
    staircase_cover,
)
from coarselab.spaces import (
    ControlFn,
    IDENTITY,
    LatticeSpace,
    MapSpec,
    ProductSpace,
    ShiftUnionSpace,
    SpaceError,
    TowerSpace,
    Window,
    iter_window,
    space_distance,
)
from coarselab.verify import (
    RUN_AXIS_THRESHOLD,
    BudgetExceeded,
    MultiFiberCell,
    VerifyError,
    _finish_report,
    _Sample,
    assignment_scheme,
    check_coarse_control,
    find_fiber_witnesses,
    oracle_1d_nocover,
    verify_cover,
)
from test_separation import measure_rows


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
        grid_cover(1, 5), LatticeSpace((1,)),
        Window.make(box=((-50, 50),)))
    assert rep.record(0).min_cross_cell_separation == 6
    assert rep.record(0).max_diameter == 4
    assert rep.verdict == "pass"


def test_engine_matches_brute_on_staircase_slice():
    # the [-2,2] boxes still realize all four phase classes of the scheme
    scheme = staircase_cover(1, 2, dim=2, height_interval=(3, 3))
    spec = LatticeSpace((2, 2, 1, 1))
    w = Window.make(axis_boxes={0: (-2, 2), 1: (-2, 2),
                                2: (-64, 64), 3: (3, 3)})
    rep = assert_engine_matches_brute(scheme, spec, w)
    assert rep.record(0).min_cross_cell_separation >= 1
    assert rep.record(1).min_cross_cell_separation >= 2
    assert rep.uncovered_total == 0


def test_engine_matches_brute_on_mixed_grid():
    scheme = mixed_grid_cover(1, 1, 3, 5)
    spec = LatticeSpace((1, 3))
    w = Window.make(axis_boxes={0: (-24, 24), 1: (-15, 15)})
    assert_engine_matches_brute(scheme, spec, w)


def test_engine_matches_brute_on_tower_singletons():
    spec = TowerSpace("identity")
    scheme = singleton_cover(spec, 2)
    w = Window.make(levels=(3, 4), box=(-6, 6))
    rep = assert_engine_matches_brute(scheme, spec, w)
    assert rep.record(0).min_cross_cell_separation == 3


def test_engine_matches_brute_on_product_square():
    scheme = product_square_cover(1, 2)
    spec = ProductSpace(TowerSpace("pow2"), TowerSpace("pow2"))
    w = Window.make(levels=(1, 2), box=(-4, 4))
    assert_engine_matches_brute(scheme, spec, w)


def test_engine_matches_brute_on_shift_union():
    scheme = shift_union_cover(1, 2)
    spec = ShiftUnionSpace()
    w = Window.make(levels=(0, 3), max_support=7, box=(0, 0),
                    axis_boxes={2: (-12, 12), 3: (-4, 4), 5: (-6, 6)})
    rep = assert_engine_matches_brute(scheme, spec, w)
    assert rep.uncovered_total == 0


def test_omega_cover_verifies_over_a_tower_window():
    scheme = omega_cover(3, 5)
    spec = TowerSpace("pow2", 1)
    rep = verify_cover(scheme, spec, Window.make(levels=(1, 5), box=(-8, 8)))
    assert rep.passed
    assert rep.uncovered_total == 0
    # the designated small-gap color measures at least its declared gap
    assert rep.record(0).min_cross_cell_separation is None or \
        rep.record(0).min_cross_cell_separation >= 3
    hit = [rec for rec in rep.per_color if rec.cells_seen]
    assert len(hit) >= 4  # every region contributes cells on this window


def test_zero_point_window_passes_with_empty_colors():
    spec = LatticeSpace((5,))
    w = Window.make(box=((1, 4),))  # no multiples of 5 inside
    rep = verify_cover(grid_cover(1, 3), spec, w)
    assert rep.points_seen == 0
    assert rep.verdict == "pass-with-empty-color"
    # with no colors there is no empty color: only the empty window says so
    no_colors = CoverScheme(classify=lambda p: None, colors=0,
                            declared_separation={}, declared_bound={})
    rep = verify_cover(no_colors, spec, w)
    assert (rep.points_seen, rep.per_color) == (0, [])
    assert rep.verdict == "pass-with-empty-color"


def test_run_path_agrees_with_pointwise():
    scheme = staircase_cover(1, 2, dim=2, height_interval=(1, 1))
    spec = LatticeSpace((2, 2, 1, 1))
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
        verify_cover(grid_cover(1, 5), LatticeSpace((1,)),
                     Window.make(box=((-5, 5),)), mode="runs")


# ---------------------------------------------------------------------------
# report semantics
# ---------------------------------------------------------------------------

def test_monotone_in_window_size():
    scheme = grid_cover(2, 4)
    spec = LatticeSpace((1, 1))
    small = verify_cover(scheme, spec, Window.make(box=(-10, 10)))
    large = verify_cover(scheme, spec, Window.make(box=(-30, 30)))
    for rec_s, rec_l in zip(small.per_color, large.per_color):
        if rec_s.min_cross_cell_separation is not None:
            assert (rec_l.min_cross_cell_separation
                    <= rec_s.min_cross_cell_separation)
        assert rec_l.max_diameter >= rec_s.max_diameter


def test_empty_window_is_pass_with_empty_color():
    scheme = spaced_interval_cover(6, 3)
    rep = verify_cover(scheme, LatticeSpace((1,)),
                       Window.make(box=((6, 7),)))
    # points exist but fall between blocks: uncovered, hence fail
    assert rep.verdict == "fail"
    rep = verify_cover(grid_cover(1, 5), LatticeSpace((1,)),
                       Window.make(box=((2, 3),)))
    assert rep.verdict == "pass-with-empty-color"  # one parity never appears


def test_uncovered_points_reported_not_raised():
    # period-6 blocks {0,1,2}, {6,7,8}, {12}: 7 of 13 points covered
    scheme = spaced_interval_cover(3, 4)
    rep = verify_cover(scheme, LatticeSpace((1,)),
                       Window.make(box=((0, 12),)))
    assert rep.verdict == "fail"
    assert rep.uncovered_total == 6
    assert rep.uncovered_sample


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        verify_cover(grid_cover(2, 5), LatticeSpace((1, 1)),
                     Window.make(box=(-500, 500)), point_budget=1000)
    # the run path counts fibers: 17 even values on each of two axes
    scheme = staircase_cover(1, 2, dim=2, height_interval=(1, 1))
    w = Window.make(axis_boxes={0: (-16, 16), 1: (-16, 16), 2: (0, 10 ** 6),
                                3: (1, 1)})
    with pytest.raises(BudgetExceeded, match="holds 289 fibers"):
        verify_cover(scheme, LatticeSpace((2, 2, 1, 1)), w, point_budget=100)


def _shared_cell_scheme(bound, calls=None):
    """Every fiber reports its whole line as one run of the same cell.
    `calls`, a Counter, counts the classify and fiber_runs calls."""
    calls = Counter() if calls is None else calls

    def classify(p):
        calls["classify"] += 1
        return (0, "shared")

    def fiber_runs(fiber, t_lo, t_hi):
        calls["fiber_runs"] += 1
        return [(t_lo, t_hi, 0, "shared")]

    return CoverScheme(
        classify=classify, colors=1,
        declared_separation={0: 1}, declared_bound={0: bound},
        moving_axis=1, fiber_runs=fiber_runs,
    )


def test_run_path_rejects_a_cell_spread_over_two_fibers():
    scheme = _shared_cell_scheme(10)
    spec = LatticeSpace((1, 1))
    w = Window.make(box=((0, 1), (0, 9)))
    with pytest.raises(MultiFiberCell,
                       match='single-fiber cells; use mode="pointwise"'):
        verify_cover(scheme, spec, w, mode="runs")
    assert issubclass(MultiFiberCell, VerifyError)
    assert verify_cover(scheme, spec, w, mode="pointwise").passed


def _cross_fiber_keys(f0, t):
    return -1 - f0  # -1 on fiber 0, -2 on fiber 1


def _one_fiber_keys(f0, t):
    return (f0, -1 if t < 5 else -2)  # two cells on each fiber


# 2 fibers of 2 runs take 12 probes, in one pass.  On the cross-fiber keys
# each fiber files the shared hash once, so it repeats once the window is
# done, and walking the fibers again tells the keys apart: fiber 0 calls
# fiber_runs again, and fiber 1, where the pass stopped, gives its filed
# layouts.  Each fiber of the one-fiber keys files one hash for both of its
# keys, and the two fibers' hashes differ, so nothing is walked.
@pytest.mark.parametrize("key_of, cells, probe_count, runs_calls", [
    (_cross_fiber_keys, 2, 12, 3),
    (_one_fiber_keys, 4, 12, 2),
])
def test_run_path_tells_apart_keys_that_share_a_hash(key_of, cells,
                                                     probe_count,
                                                     runs_calls):
    # hash(-1) == hash(-2), so each scheme's keys collide in pairs: across
    # the two fibers, or within each fiber
    assert hash(-1) == hash(-2) and hash((0, -1)) == hash((0, -2))
    probes, calls = [], []

    def classify(p):
        probes.append(p)
        return (0, key_of(p[0], p[1]))

    def fiber_runs(fiber, t_lo, t_hi):
        calls.append(fiber)
        return [(t_lo, 4, 0, key_of(fiber[0], 4)),
                (5, t_hi, 0, key_of(fiber[0], 5))]

    scheme = CoverScheme(
        classify=classify, colors=1,
        declared_separation={0: 1}, declared_bound={0: 9},
        moving_axis=1, fiber_runs=fiber_runs,
    )
    spec = LatticeSpace((1, 1))
    w = Window.make(box=((0, 1), (0, 9)))
    a = verify_cover(scheme, spec, w, mode="pointwise")
    probes.clear()
    calls.clear()
    b = verify_cover(scheme, spec, w, mode="runs")
    assert {**a.to_json(), "mode": "runs"} == b.to_json()
    assert b.verdict == "pass" and b.record(0).cells_seen == cells
    assert len(probes) == probe_count
    assert len(calls) == runs_calls


# two fibers of RUN_AXIS_THRESHOLD + 1 points: "auto" picks the run path
LONG_SHARED_WINDOW = Window.make(box=((0, 1), (0, RUN_AXIS_THRESHOLD)))
LONG_SHARED_POINTS = 2 * (RUN_AXIS_THRESHOLD + 1)


def test_auto_enumerates_multi_fiber_cells_inside_the_point_budget():
    scheme = _shared_cell_scheme(RUN_AXIS_THRESHOLD)
    spec = LatticeSpace((1, 1))
    rep = verify_cover(scheme, spec, LONG_SHARED_WINDOW,
                       point_budget=LONG_SHARED_POINTS)
    assert (rep.mode, rep.verdict, rep.points_seen) == \
        ("pointwise", "pass", LONG_SHARED_POINTS)
    assert rep.to_json() == verify_cover(scheme, spec, LONG_SHARED_WINDOW,
                                         mode="pointwise").to_json()


@pytest.mark.parametrize("mode, budget", [
    ("auto", None),                     # no budget to enumerate within
    ("auto", LONG_SHARED_POINTS - 1),   # holds the fibers, not the points
    ("runs", LONG_SHARED_POINTS),       # the run path was asked for
])
def test_multi_fiber_cells_raise_outside_the_auto_budget(mode, budget):
    calls = Counter()
    scheme = _shared_cell_scheme(RUN_AXIS_THRESHOLD, calls)
    with pytest.raises(MultiFiberCell):
        verify_cover(scheme, LatticeSpace((1, 1)), LONG_SHARED_WINDOW,
                     mode=mode, point_budget=budget)
    # one pass: 3 probes on each fiber's single run
    assert calls["classify"] == 6


def test_a_cell_on_many_fibers_is_settled_on_the_first_two():
    # 64 fibers that all file one claim, so all 64 are suspects; the check
    # asks fiber_runs again for fibers 0 and 1 only, whose claims meet
    calls = Counter()
    scheme = _shared_cell_scheme(RUN_AXIS_THRESHOLD, calls)
    w = Window.make(box=((0, 63), (0, RUN_AXIS_THRESHOLD)))
    with pytest.raises(MultiFiberCell):
        verify_cover(scheme, LatticeSpace((1, 1)), w, mode="runs")
    assert calls == {"classify": 3 * 64, "fiber_runs": 64 + 2}


def _two_fiber_scheme(key_0, key_1, fault, key_2="b"):
    """Fiber 0 is one run keyed `key_0`; fiber 1 is a run keyed `key_1` on
    [0, 4], then a run keyed `key_2`.  `fault` breaks fiber 1 at one run:
    ("disagree", i) makes classify disagree with run i, ("raise", i) makes
    classify raise on it, "end" makes classify disagree at t=9 only,
    "short" makes fiber 1's runs stop at t=8, "gap" makes its second run
    start at t=6, and "no runs" makes fiber_runs raise on fiber 1."""
    def fiber_runs(fiber, t_lo, t_hi):
        if fiber == (0,):
            return [(t_lo, t_hi, 0, key_0)]
        if fault == "no runs":
            raise ZeroDivisionError("fiber_runs broke")
        return [(t_lo, 4, 0, key_1),
                (6 if fault == "gap" else 5,
                 8 if fault == "short" else t_hi, 0, key_2)]

    def classify(p):
        f, t = p
        if f == 0:
            return (0, key_0)
        run = 0 if t <= 4 else 1
        if fault == ("raise", run):
            raise ZeroDivisionError("classify broke")
        if fault == ("disagree", run) or (fault == "end" and t == 9):
            return (0, "elsewhere")
        return (0, key_1 if run == 0 else key_2)

    return CoverScheme(
        classify=classify, colors=1,
        declared_separation={0: 1}, declared_bound={0: 9},
        moving_axis=1, fiber_runs=fiber_runs,
    )


TWO_FIBERS = Window.make(box=((0, 1), (0, 9)))


@pytest.mark.parametrize("fault", [("disagree", 1), ("raise", 1), "short",
                                   "gap", "end"])
def test_a_cell_on_two_fibers_outranks_a_later_fault(fault):
    # fiber 1's first run puts cell "a" on its second fiber before the fault
    scheme = _two_fiber_scheme("a", "a", fault)
    with pytest.raises(MultiFiberCell):
        verify_cover(scheme, LatticeSpace((1, 1)), TWO_FIBERS, mode="runs")


DISAGREES = "disagrees with classify"


@pytest.mark.parametrize("key_0, key_1, key_2, fault, message", [
    # the fault comes before the 2nd claim
    ("a", "a", "b", ("disagree", 0), DISAGREES),
    (-1, -2, "b", ("disagree", 1), DISAGREES),  # keys share a hash, differ
    # fiber 1's faulted run claims key_0's cell, but was never filed
    (-1, -2, -1, ("disagree", 1), DISAGREES),
    (-1, -2, "b", "end", "t=9 " + DISAGREES),   # only the last point
    (-1, -2, "b", "gap", r"runs do not tile \[0,9\]"),
], ids=["a-a-fault0", "-1--2-fault1", "-1--2--1-fault1", "-1--2-end",
        "-1--2-gap"])
def test_a_fault_before_any_cell_on_two_fibers_stands(key_0, key_1, key_2,
                                                      fault, message):
    scheme = _two_fiber_scheme(key_0, key_1, fault, key_2)
    with pytest.raises(VerifyError, match=message) as info:
        verify_cover(scheme, LatticeSpace((1, 1)), TWO_FIBERS, mode="runs")
    assert type(info.value) is VerifyError


def test_a_fiber_whose_runs_raise_files_no_claims():
    # fiber 0's claim on "a" must not be filed again under fiber 1
    scheme = _two_fiber_scheme("a", "a", "no runs")
    with pytest.raises(ZeroDivisionError, match="fiber_runs broke"):
        verify_cover(scheme, LatticeSpace((1, 1)), TWO_FIBERS, mode="runs")

    # a fiber whose runs raise SpaceError files nothing and is walked past:
    # fibers 0 and 2 still meet on one cell
    def fiber_runs(fiber, t_lo, t_hi):
        if fiber == (1,):
            raise SpaceError("not a fiber")
        return [(t_lo, t_hi, 0, "shared")]

    scheme = dataclasses.replace(_shared_cell_scheme(9),
                                 fiber_runs=fiber_runs)
    with pytest.raises(MultiFiberCell):
        verify_cover(scheme, LatticeSpace((1, 1)),
                     Window.make(box=((0, 2), (0, 9))), mode="runs")


@st.composite
def keyed_run_schemes(draw):
    """A scheme over 2-4 fibers whose runs draw their color and key from a
    tiny pool: keys shared by every fiber (-1 and -2 share a hash) or local
    to one fiber, so cells on two fibers and hash collisions are common.
    Also returns whether a brute force finds a claim on two fibers, and the
    probes one run pass makes: 1 to 3 per run, as its length allows."""
    fibers = draw(st.integers(2, 4))
    t_hi = draw(st.integers(0, 7))
    colors = draw(st.integers(1, 2))
    color = st.integers(0, colors - 1)
    key = st.sampled_from([-1, -2, 0, (None, -1), (None, -2)])
    runs_of = []
    for f in range(fibers):
        cuts = sorted(draw(st.sets(st.integers(1, t_hi), max_size=3))
                      if t_hi else ())
        runs = []
        for t0, t1 in zip([0, *cuts], [c - 1 for c in cuts] + [t_hi]):
            k = draw(key)
            if isinstance(k, tuple):  # a key of this fiber alone
                k = (f, k[1])
            runs.append((t0, t1, draw(color), k))
        runs_of.append(runs)
    table = {(f, t): (c, k) for f, runs in enumerate(runs_of)
             for t0, t1, c, k in runs for t in range(t0, t1 + 1)}
    scheme = CoverScheme(
        classify=table.__getitem__, colors=colors,
        declared_separation={c: draw(st.integers(1, 3))
                             for c in range(colors)},
        declared_bound={c: draw(st.integers(1, 7)) for c in range(colors)},
        moving_axis=1,
        fiber_runs=lambda fiber, t_lo, t_hi: runs_of[fiber[0]],
    )
    claims = [{(c, k) for _, _, c, k in runs} for runs in runs_of]
    on_two_fibers = any(a & b for a, b in itertools.combinations(claims, 2))
    w = Window.make(box=((0, fibers - 1), (0, t_hi)))
    one_pass = sum(min(t1 - t0, 2) + 1
                   for runs in runs_of for t0, t1, _, _ in runs)
    return scheme, w, on_two_fibers, one_pass


@settings(deadline=None, max_examples=300)
@given(keyed_run_schemes())
def test_run_path_matches_pointwise_on_random_keyed_runs(case):
    scheme, w, on_two_fibers, one_pass = case
    spec = LatticeSpace((1, 1))
    probes = []

    def classify(p):
        probes.append(p)
        return scheme.classify(p)

    counted = dataclasses.replace(scheme, classify=classify)
    if on_two_fibers:
        with pytest.raises(MultiFiberCell):
            verify_cover(counted, spec, w, mode="runs")
        assert len(probes) == one_pass  # a shared hash costs no second pass
        return
    got = verify_cover(counted, spec, w, mode="runs")
    assert len(probes) == one_pass
    want = verify_cover(scheme, spec, w, mode="pointwise")
    assert got.to_json() == {**want.to_json(), "mode": "runs"}


def test_both_paths_count_an_out_of_range_color_as_errors():
    # a one-color scheme that reports color 3 on every point and run
    scheme = CoverScheme(
        classify=lambda p: (3, p[0]), colors=1,
        declared_separation={}, declared_bound={},
        moving_axis=1,
        fiber_runs=lambda fiber, t_lo, t_hi: [(t_lo, t_hi, 3, fiber[0])],
    )
    spec = LatticeSpace((1, 1))
    w = Window.make(box=((0, 1), (0, 9)))
    a = verify_cover(scheme, spec, w, mode="pointwise")
    b = verify_cover(scheme, spec, w, mode="runs")
    assert (a.verdict, a.points_seen, a.error_total) == \
        (b.verdict, b.points_seen, b.error_total) == ("fail", 20, 20)
    assert a.per_color == b.per_color
    assert b.error_sample == ["(0, 0): color 3 out of range",
                              "(1, 0): color 3 out of range"]


def test_run_path_agrees_on_a_cell_of_two_runs_on_one_fiber():
    # blocks of 3 along t alternate colors, so each cell is the fiber's
    # blocks of one color: two runs with a run of the other color between
    def color_at(t):
        return (t // 3) % 2

    def fiber_runs(fiber, t_lo, t_hi):
        runs, t = [], t_lo
        while t <= t_hi:
            end = min(t - t % 3 + 2, t_hi)
            runs.append((t, end, color_at(t), (fiber[0], color_at(t))))
            t = end + 1
        return runs

    scheme = CoverScheme(
        classify=lambda p: (color_at(p[1]), (p[0], color_at(p[1]))),
        colors=2, declared_separation={0: 3, 1: 3},
        declared_bound={0: 8, 1: 8},
        moving_axis=1, fiber_runs=fiber_runs,
    )
    spec = LatticeSpace((3, 1))
    w = Window.make(box=((0, 6), (0, 11)))
    assert fiber_runs((0,), 0, 11)[::2] == [(0, 2, 0, (0, 0)),
                                            (6, 8, 0, (0, 0))]
    a = verify_cover(scheme, spec, w, mode="pointwise")
    b = verify_cover(scheme, spec, w, mode="runs")
    assert {**a.to_json(), "mode": "runs"} == b.to_json()
    assert b.verdict == "pass"
    assert [(r.cells_seen, r.max_diameter, r.min_cross_cell_separation)
            for r in b.per_color] == [(3, 8, 3), (3, 8, 3)]


def traced_pointwise(scheme):
    """The pointwise report of `scheme` on a 73,205-point window of
    3-coordinate lattice points, and the tracemalloc peak it took."""
    spec = LatticeSpace((1, 1, 4))
    w = Window.make(axis_boxes={0: (-60, 60), 1: (-60, 60), 2: (-8, 8)})
    tracemalloc.start()
    try:
        rep = verify_cover(scheme, spec, w, mode="pointwise")
        return rep, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pointwise_memory_per_point():
    # a lattice window is streamed and each cell keeps one flat list of
    # coordinates, not a tuple per point
    rep, peak = traced_pointwise(mixed_grid_cover(2, 1, 4, 6))
    assert (rep.verdict, rep.points_seen) == ("pass", 73205)
    assert peak / rep.points_seen < 45


def _no_cell(p):
    raise SpaceError("no cell here")


@pytest.mark.parametrize("classify, totals, first", [
    (lambda p: None, (73205, 0), (-60, -60, -8)),
    (_no_cell, (0, 73205), "(-60, -60, -8): no cell here"),
], ids=["uncovered", "error"])
def test_pointwise_keeps_only_the_listed_samples(classify, totals, first):
    # every point is uncovered, or raises: the report lists the first 20 and
    # counts the rest, and no point or message past the 20th is kept
    rep, peak = traced_pointwise(CoverScheme(
        classify=classify, colors=1,
        declared_separation={}, declared_bound={}))
    assert (rep.verdict, rep.points_seen) == ("fail", 73205)
    assert (rep.uncovered_total, rep.error_total) == totals
    lengths = (len(rep.uncovered_sample), len(rep.error_sample))
    assert lengths == tuple(20 if t else 0 for t in totals)
    assert (rep.uncovered_sample or rep.error_sample)[0] == first
    assert peak / rep.points_seen < 4


def test_run_path_memory_per_cell():
    # the run path keeps one run layout per group of cells and at most one
    # int per cell, not a record per cell: 34,391 staircase cells over 4,913
    # fibers
    scheme = staircase_cover(2, 3, height_interval=(3, 3))
    spec = LatticeSpace((4, 4, 4, 1, 1))
    w = Window.make(axis_boxes={0: (-32, 32), 1: (-32, 32), 2: (-32, 32),
                                3: (0, 3 * 2920), 4: (3, 3)})
    tracemalloc.start()
    try:
        rep = verify_cover(scheme, spec, w, mode="runs")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = sum(r.cells_seen for r in rep.per_color)
    assert (rep.verdict, cells) == ("pass", 34391)
    assert peak / cells < 33


def test_negative_run_indices_walk_no_fiber_again():
    # on t in [-3 * 2920, -1] every fiber holds the keys (x, -1) and (x, -2),
    # which share a hash: each fiber files it once, so no hash repeats and
    # fiber_runs is called once per fiber
    scheme = staircase_cover(2, 3, height_interval=(3, 3))
    calls = Counter()

    def fiber_runs(fiber, t_lo, t_hi):
        calls[fiber] += 1
        return scheme.fiber_runs(fiber, t_lo, t_hi)

    counted = dataclasses.replace(scheme, fiber_runs=fiber_runs)
    w = Window.make(axis_boxes={0: (-32, 32), 1: (-32, 32), 2: (-32, 32),
                                3: (-3 * 2920, -1), 4: (3, 3)})
    rep = verify_cover(counted, LatticeSpace((4, 4, 4, 1, 1)), w, mode="runs")
    assert rep.verdict == "pass"
    assert (len(calls), sum(calls.values())) == (4913, 4913)


def test_report_json_round_trip_fields():
    rep = verify_cover(grid_cover(1, 3), LatticeSpace((1,)),
                       Window.make(box=((-9, 9),)))
    body = rep.to_json()
    assert body["verdict"] == "pass"
    assert body["per_color"][0]["min_cross_cell_separation"] == 4
    assert "window" in body and "points_seen" in body


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
                           declared_bound={0: 6})

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
    spec = LatticeSpace((1,))
    identity = MapSpec.make("delta-witness",
                            table={(x,): (x,) for x in range(-20, 21)})
    report = check_coarse_control(identity, spec, spec,
                                  Window.make(box=((-20, 20),)))
    assert report.passed
    assert report.max_observed_stretch == 0


def test_phi_tower_isometry_control():
    phi = MapSpec.make("phi-tower", {"n": 3})
    spec = TowerSpace("pow2", 1)
    report = check_coarse_control(phi, spec,
                                  w=Window.make(levels=(1, 3), box=(-4, 4)))
    assert report.passed
    assert report.max_observed_stretch == 0


def test_violations_are_reported_with_distances():
    # doubling map against identity controls violates the upper bound on
    # all 210 pairs; the report keeps the first 100 and samples 20 of them
    spec = LatticeSpace((1,))
    double = MapSpec.make("delta-witness",
                          table={(x,): (2 * x,) for x in range(21)})
    report = check_coarse_control(double, spec, spec,
                                  Window.make(box=((0, 20),)))
    assert not report.passed
    x, y, dx, dy = report.violations[0]
    assert dy == 2 * dx
    assert report.pairs_checked == 210
    assert len(report.violations) == 100
    body = json.loads(json.dumps(report.to_json()))
    assert body["violations"] == 100
    assert len(body["violation_sample"]) == 20


def test_delta_witness_control_bounds():
    family = spaced_interval_cover(6, 3)
    fibers = [(5 * i,) for i in range(40)]
    box = [(t,) for t in range(-5, 6)]
    res = find_fiber_witnesses([family], fibers, box)
    delta = MapSpec.make("delta-witness", table=res.delta_table(),
                         lower=IDENTITY, upper=ControlFn("plus-const", 10))
    report = check_coarse_control(delta, LatticeSpace((5,)),
                                  points=fibers)
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
    scheme = assignment_scheme(out)
    rep = verify_cover(scheme, LatticeSpace((1,)),
                       Window.make(box=((-30, 30),)))
    assert rep.passed
    assert rep.uncovered_total == 0


def test_oracle_feasible_assignments_reverify():
    for window in ((-2, 2), (0, 5), (-7, -3)):
        out = oracle_1d_nocover(2, 6, 1, window)
        assert out.status == "feasible"
        rep = verify_cover(assignment_scheme(out),
                           LatticeSpace((1,)),
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


def test_oracle_status_and_nodes_are_pinned_over_small_instances():
    # every (n, R, colors) with n <= 6, R <= 8 over windows [0, size - 1] of
    # 1-24 points: the memo's clamps decide how many states are explored,
    # so a loosened clamp shows in nodes_explored before it shows in status
    rows = [[n, R, colors, size, out.status, out.nodes_explored]
            for n in range(1, 7) for R in range(1, 9) for colors in (1, 2)
            for size in range(1, 25)
            for out in [oracle_1d_nocover(n, R, colors, (0, size - 1))]]
    assert len(rows) == 2304
    pinned = {(n, R, colors, size): (status, nodes)
              for n, R, colors, size, status, nodes in rows}
    assert pinned[1, 1, 1, 1] == ("feasible", 1)
    assert pinned[3, 5, 1, 11] == ("infeasible", 7)
    assert pinned[3, 5, 2, 24] == ("feasible", 24)
    assert pinned[6, 3, 2, 9] == ("infeasible", 30)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == ("76a7c782baa97f489bcc271c419517ab"
                      "4d4cb21b7c8838d17932be90ab6cf60b")


def test_oracle_budget_yields_inconclusive():
    out = oracle_1d_nocover(3, 5, 2, (-12, 12), node_budget=5)
    assert out.status == "inconclusive"


def test_oracle_rejects_unsupported_color_counts():
    with pytest.raises(VerifyError):
        oracle_1d_nocover(3, 5, 3, (-2, 2))


@settings(max_examples=40, deadline=None)
@given(width=st.integers(2, 6), colors=st.integers(1, 4),
       salt=st.integers(0, 10 ** 6), half=st.integers(6, 14))
def test_engine_matches_brute_on_random_block_schemes(width, colors, salt,
                                                      half):
    # deterministic block colorings over 2-D windows: the pruned engine
    # must agree with unpruned all-pairs measurement everywhere
    def classify(p):
        bx, by = p[0] // width, p[1] // width
        color = (bx * 7_919 + by * 104_729 + salt) % colors
        return (color, (bx, by))

    scheme = CoverScheme(
        classify=classify, colors=colors,
        declared_separation={c: 1 for c in range(colors)},
        declared_bound={c: 2 * width for c in range(colors)},
    )
    assert_engine_matches_brute(scheme, LatticeSpace((1, 1)),
                                Window.make(box=(-half, half)))


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
    spec = LatticeSpace((2 ** n,) * dim + (1, 1))
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


def reference_pointwise_report(s, spec, w, max_listed):
    """The pointwise report grouped the earlier way: every result checked on
    every point, rows filed under {color: {key: [row, ...]}}."""
    points = list(iter_window(spec, w))
    cells: dict = {}
    uncovered: list = []
    errors: list = []
    for p, row in zip(points, spec.rows(points)):
        try:
            res = s.classify(p)
        except SpaceError as exc:
            errors.append(f"{p!r}: {exc}")
            continue
        if res is None:
            uncovered.append(p)
            continue
        color, key = res
        if not (0 <= color < s.colors):
            errors.append(f"{p!r}: color {color} out of range")
            continue
        cells.setdefault(color, {}).setdefault(key, []).append(row)

    def sample(items):
        out = _Sample(max_listed)
        out.items, out.total = items[:max_listed], len(items)
        return out

    return _finish_report(
        s, w, cells, lambda per_key: measure_rows(per_key, spec.l1),
        sample(uncovered), sample(errors), len(points), "pointwise")


@st.composite
def table_schemes(draw):
    """A lookup scheme over a small window, of a 2-D lattice (streamed) or of
    a tower (listed, rows padded to the top level), whose points are covered,
    uncovered (None), out of range (colors -1 and `colors`) or raise
    SpaceError; keys repeat across colors."""
    colors = draw(st.integers(1, 3))
    if draw(st.booleans()):
        axis_boxes = {}
        for axis in range(2):
            lo = draw(st.integers(-4, 4))
            axis_boxes[axis] = (lo, lo + draw(st.integers(0, 5)))
        w = Window.make(axis_boxes=axis_boxes)
        spec = LatticeSpace((1, 1))
    else:
        level = draw(st.integers(1, 3))
        lo = draw(st.integers(-3, 3))
        w = Window.make(levels=(level, min(3, level + draw(st.integers(0, 1)))),
                        box=(lo, lo + draw(st.integers(0, 2))))
        spec = TowerSpace()
    outcome = st.one_of(
        st.tuples(st.integers(0, colors - 1), st.integers(0, 3)),
        st.tuples(st.sampled_from([-1, colors]), st.integers(0, 3)),
        st.none(), st.just("raise"))
    table = {p: draw(outcome) for p in iter_window(spec, w)}

    def classify(p):
        res = table[p]
        if res == "raise":
            raise SpaceError("no cell here")
        return res

    scheme = CoverScheme(
        classify=classify, colors=colors,
        declared_separation={c: draw(st.integers(1, 3))
                             for c in range(colors)},
        declared_bound={c: draw(st.integers(1, 4)) for c in range(colors)},
    )
    return scheme, spec, w, draw(st.integers(1, 4))


@settings(deadline=None, max_examples=150)
@given(table_schemes())
def test_pointwise_grouping_matches_the_two_level_reference(case):
    scheme, spec, w, max_listed = case
    got = verify_cover(scheme, spec, w, mode="pointwise",
                       max_uncovered_listed=max_listed)
    want = reference_pointwise_report(scheme, spec, w, max_listed)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_both_paths_record_a_fiber_outside_the_lattice_as_errors():
    # axis 0 is unit-step but the staircase scales it by 2: odd fibers raise
    # SpaceError, per point on the pointwise path and per fiber on the runs
    scheme = staircase_cover(1, 2, dim=2)
    spec = LatticeSpace((1, 2, 1, 1))
    w = Window.make(axis_boxes={0: (-2, 2), 1: (-2, 2), 2: (0, 100),
                                3: (0, 0)})
    a = verify_cover(scheme, spec, w, mode="pointwise")
    b = verify_cover(scheme, spec, w, mode="runs")
    assert (a.verdict, a.points_seen, a.uncovered_total, a.error_total) == \
        (b.verdict, b.points_seen, b.uncovered_total, b.error_total) == \
        ("fail", 1515, 0, 606)
    assert a.per_color == b.per_color
    assert len(b.error_sample) == 6  # one per odd fiber of 101 points
    assert b.error_sample[0].endswith("not in 2Z")


def test_run_path_needs_a_unit_step_on_the_moving_axis():
    # on 2Z the run path would count and probe every integer t, including
    # the odd ones the lattice does not hold
    scheme = staircase_cover(1, 2, dim=2, height_interval=(1, 1))
    spec = LatticeSpace((2, 2, 2, 1))
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
    spec = LatticeSpace((2, 2, 2, 1))
    w = Window.make(axis_boxes={0: (-2, 2), 1: (-2, 2), 2: (0, t_hi),
                                3: (1, 1)})
    with pytest.raises(VerifyError, match="too long to enumerate"):
        verify_cover(scheme, spec, w)
    with pytest.raises(VerifyError, match="too long to enumerate"):
        verify_cover(scheme, spec, w, point_budget=10 ** 12)


def test_oracle_outcome_round_trips_through_json():
    import json as _json
    out = oracle_1d_nocover(2, 6, 1, (0, 5))
    body = _json.loads(_json.dumps(out.to_json()))
    assert body["status"] == out.status
    assert body["assignment"] == [list(row) for row in out.assignment]
    rep = verify_cover(assignment_scheme(out),
                       LatticeSpace((1,)), Window.make(box=((0, 5),)))
    assert rep.passed


# ---------------------------------------------------------------------------
# mutant schemes: the verifier must reject each deliberate break
# ---------------------------------------------------------------------------

MIXED_WINDOW = Window.make(axis_boxes={0: (-30, 30), 1: (-30, 30),
                                       2: (-8, 8)})
MIXED_SPEC = LatticeSpace((1, 1, 4))


def _mutant(scheme, classify=None, separation=None, bound=None,
            fiber_runs=None):
    return CoverScheme(
        classify=classify or scheme.classify, colors=scheme.colors,
        declared_separation={**scheme.declared_separation,
                             **(separation or {})},
        declared_bound={**scheme.declared_bound, **(bound or {})},
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
    classify = _offset_band_classifier(m, 1, R, R + k, k - 1, 2)
    scheme = _mutant(mixed_grid_cover(m, 1, k, R), classify=classify)
    rep = verify_cover(scheme, MIXED_SPEC, MIXED_WINDOW)
    assert rep.verdict == "fail"
    assert rep.record(0).max_diameter == 16


STAIR_WINDOW = Window.make(axis_boxes={0: (-16, 16), 1: (-16, 16),
                                      2: (0, 180), 3: (1, 1)})
STAIR_SPEC = LatticeSpace((2, 2, 1, 1))


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


def test_staircase_middle_probe_disagreement_fails():
    # classify moves only the midpoint of one long run to the short color;
    # the run's ends still agree with its claim
    good = _staircase()
    fiber = (0, 0, 1)
    t0, t1, _, key = next(run for run in good.fiber_runs(fiber, 0, 180)
                          if run[2] == LONG_COLOR)
    mid = (t0 + t1) // 2
    moved = (0, 0, mid, 1)

    def classify(p):
        return (SHORT_COLOR, key) if p == moved else good.classify(p)

    scheme = dataclasses.replace(good, classify=classify)
    message = (f"run claim (0, {key}) at t={mid} disagrees with classify "
               f"-> (1, {key})")
    with pytest.raises(VerifyError, match=re.escape(message)):
        verify_cover(scheme, STAIR_SPEC, STAIR_WINDOW, mode="runs")


def test_run_path_probes_each_run_at_both_ends_and_its_midpoint():
    # heights 0 and 2 lie outside the scheme's height interval: their fibers
    # are one uncovered run each and get no probe
    good = _staircase()
    w = Window.make(axis_boxes={0: (-4, 4), 1: (-4, 4), 2: (0, 130),
                                3: (0, 2)})
    probes = []
    for fiber in itertools.product(range(-4, 5, 2), range(-4, 5, 2),
                                   range(3)):
        for t0, t1, color, _ in good.fiber_runs(fiber, 0, 130):
            if color is not None:
                probes.append(1 + (t1 > t0) + (t1 - t0 >= 2))
    assert set(probes) == {1, 2, 3}
    calls = []

    def classify(p):
        calls.append(p)
        return good.classify(p)

    scheme = dataclasses.replace(good, classify=classify)
    rep = verify_cover(scheme, STAIR_SPEC, w, mode="runs")
    assert rep.uncovered_total == 2 * 25 * 131
    assert len(calls) == sum(probes)


def test_one_staircase_object_reports_a_second_window_as_a_fresh_one():
    # both windows hold every phase of the scheme; the second moves every
    # axis box, so each fiber's runs start and end elsewhere
    used = _staircase()
    w2 = Window.make(axis_boxes={0: (-10, 22), 1: (-22, 6), 2: (37, 301),
                                 3: (1, 1)})
    verify_cover(used, STAIR_SPEC, STAIR_WINDOW, mode="runs")
    got = verify_cover(used, STAIR_SPEC, w2, mode="runs")
    want = verify_cover(_staircase(), STAIR_SPEC, w2, mode="runs")
    assert got.to_json() == want.to_json()
    assert got.per_color == verify_cover(_staircase(), STAIR_SPEC, w2,
                                         mode="pointwise").per_color


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
    spec = TowerSpace("pow2")
    rep = _separation_raised_by_one_fails(singleton_cover(spec, 2), spec,
                                          TOWER_WINDOW, 0, 3)
    assert rep.verdict == "pass" and rep.points_seen == 28


def test_product_square_separation_raised_by_one_fails():
    _separation_raised_by_one_fails(
        product_square_cover(1, 2),
        ProductSpace(TowerSpace("pow2"), TowerSpace("pow2")),
        PRODUCT_WINDOW, 0, 1)


def test_shift_union_separation_raised_by_one_fails():
    _separation_raised_by_one_fails(
        shift_union_cover(2, 2), ShiftUnionSpace(), SHIFT_WINDOW, 0, 2)


# Grid, fiber-product and omega mutants: each reference window measures the
# mutated value exactly at its declaration and passes.

def _bound_lowered_by_one_fails(scheme, spec, w, color, bound):
    rep = verify_cover(scheme, spec, w)
    assert rep.verdict == "pass"
    assert (rep.record(color).max_diameter == bound
            == scheme.declared_bound[color])
    mutant_rep = verify_cover(_mutant(scheme, bound={color: bound - 1}),
                              spec, w)
    assert mutant_rep.verdict == "fail"
    assert not mutant_rep.record(color).bound_pass


def test_grid_bound_lowered_by_one_fails():
    # width-3 boxes have diameter 2 under the max metric
    _bound_lowered_by_one_fails(grid_cover(2, 3), LatticeSpace((1, 1)),
                                Window.make(box=(-6, 6)), 3, 2)


def test_fiber_product_separation_raised_by_one_fails():
    # above threshold 1 the declared separation is min(5, 1 + 1) = 2
    rep = _separation_raised_by_one_fails(
        fiber_product_cover(grid_cover(1, 5), 1),
        TowerSpace("pow2", 1),
        Window.make(levels=(2, 3), box=(-8, 8)), 0, 2)
    assert rep.verdict == "pass"


def test_omega_grid_color_bound_lowered_by_one_fails():
    # color 4 is the first flattened grid color: bound max(r - 1, 3, 1) = 4
    _bound_lowered_by_one_fails(omega_cover(3, 5),
                                TowerSpace("pow2", 1),
                                Window.make(levels=(1, 5), box=(-8, 8)), 4, 4)


@pytest.mark.parametrize("color", [2, 3])
def test_omega_line_color_separation_raised_by_one_fails(color):
    # from level r = 5 up, colors 2 and 3 tile the line factor with one cell
    # per level and scaled point: the cells at the origins of levels 5 and 6
    # with one line coordinate are r apart by the level penalty alone
    _separation_raised_by_one_fails(omega_cover(3, 5), TowerSpace("pow2", 1),
                                    Window.make(levels=(3, 6), box=(-8, 8)),
                                    color, 5)
