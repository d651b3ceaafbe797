"""Points, metrics, windows, enumeration and the map catalog."""

import random

import pytest

from coarselab.spaces import (
    ControlFn,
    LatticeSpace,
    MapSpec,
    ProductSpace,
    ShiftPoint,
    ShiftUnionSpace,
    SpaceError,
    TowerPoint,
    TowerSpace,
    Window,
    WindowError,
    evaluate_map,
    lattice_max_distance,
    level_penalty,
    multiples_in,
    pad_point,
    shift_distance,
    space_distance,
    tower_distance,
)


# ---------------------------------------------------------------------------
# padding
# ---------------------------------------------------------------------------

def test_pad_zero_extension():
    assert pad_point(TowerPoint(1, (2,)), 3) == (2, 0, 0)


def test_pad_identity_case():
    assert pad_point(TowerPoint(3, (6, 3, 0)), 3) == (6, 3, 0)


def test_pad_keeps_extra_block_last():
    assert pad_point(TowerPoint(2, (4, 8), (5,)), 4) == (4, 8, 0, 0, 5)


def test_pad_cannot_truncate():
    with pytest.raises(SpaceError, match="cannot truncate"):
        pad_point(TowerPoint(3, (6, 3, 0)), 2)


# ---------------------------------------------------------------------------
# tower metric
# ---------------------------------------------------------------------------

def test_tower_distance_zero_on_equal_points():
    p = TowerPoint(2, (2, 4))
    assert tower_distance(p, p) == 0


def test_tower_distance_hand_example():
    a = TowerPoint(1, (2,))
    b = TowerPoint(3, (6, 3, 0))
    assert tower_distance(a, b) == 4  # max(max(4,3,0), 1+2)


def test_tower_distance_level_penalty_dominates():
    a = TowerPoint(1, (0,))
    b = TowerPoint(3, (0, 0, 0))
    assert tower_distance(a, b) == 3  # c = 1 + 2


def test_tower_distance_rejects_mismatched_factors():
    a = TowerPoint(1, (2,), (5,))
    b = TowerPoint(1, (2,))
    with pytest.raises(SpaceError):
        tower_distance(a, b)


def test_level_penalty_closed_form():
    for lo in range(1, 8):
        for hi in range(lo, 9):
            assert level_penalty(lo, hi) == sum(range(lo, hi))


def test_equal_level_distance_is_plain_max_metric():
    spec = TowerSpace("identity", 2)
    w = Window.make(levels=(2, 2), box=(-4, 4))
    pts = list(spec.iter(w))
    for p in pts[::7]:
        for q in pts[::5]:
            expected = lattice_max_distance(p.coords + p.extra,
                                            q.coords + q.extra)
            assert tower_distance(p, q) == expected


def test_tower_metric_axioms_on_window_sample():
    rng = random.Random(7)
    for step in ("identity", "pow2"):
        spec = TowerSpace(step)
        pts = list(spec.iter(Window.make(levels=(1, 3), box=(-8, 8))))
        for _ in range(300):
            p, q, s = (rng.choice(pts) for _ in range(3))
            assert tower_distance(p, p) == 0
            assert tower_distance(p, q) == tower_distance(q, p)
            assert tower_distance(p, s) <= (tower_distance(p, q)
                                            + tower_distance(q, s))
            if p != q:
                assert tower_distance(p, q) > 0


# ---------------------------------------------------------------------------
# shift metric
# ---------------------------------------------------------------------------

def test_shift_distance_zero_on_equal():
    x = ShiftPoint.from_support({1: 2}, 1)
    assert shift_distance(x, x) == 0


def test_shift_distance_counts_level_gap():
    x = ShiftPoint.from_support({0: 2}, 0)
    y = ShiftPoint.from_support({}, 1)
    assert shift_distance(x, y) == 3


def test_shift_distance_sums_support_differences():
    x = ShiftPoint.from_support({1: 2, 3: -4}, 1)
    y = ShiftPoint.from_support({1: 2}, 1)
    assert shift_distance(x, y) == 4


def test_shift_metric_axioms_on_window_sample():
    rng = random.Random(11)
    spec = ShiftUnionSpace()
    pts = list(spec.iter(Window.make(levels=(0, 2), box=(-4, 4),
                                     max_support=3)))
    for _ in range(300):
        p, q, s = (rng.choice(pts) for _ in range(3))
        assert shift_distance(p, q) == shift_distance(q, p)
        assert shift_distance(p, s) <= shift_distance(p, q) + shift_distance(q, s)
        if p != q:
            assert shift_distance(p, q) > 0


def test_shift_membership_checked_by_space_not_constructor():
    # the metric is ambient: points off the shift-union space still measure
    p = ShiftPoint.from_support({3: -4}, 1)
    assert p.membership_error() is not None
    with pytest.raises(SpaceError):
        ShiftUnionSpace().validate(p)


# ---------------------------------------------------------------------------
# windows and enumeration
# ---------------------------------------------------------------------------

def test_multiples_in():
    assert list(multiples_in(-4, 4, 4)) == [-4, 0, 4]
    assert list(multiples_in(1, 7, 3)) == [3, 6]
    assert list(multiples_in(0, 0, 5)) == [0]


def test_enumerate_level_one_identity_tower():
    spec = TowerSpace("identity")
    pts = list(spec.iter(Window.make(levels=(1, 1), box=(-2, 2))))
    assert [p.coords for p in pts] == [(-2,), (-1,), (0,), (1,), (2,)]


def test_enumerate_doubling_tower_level_two():
    spec = TowerSpace("pow2")
    pts = list(spec.iter(Window.make(levels=(2, 2), box=(-4, 4))))
    assert len(pts) == 9  # coords from {-4, 0, 4}^2


def test_enumerate_shift_window():
    spec = ShiftUnionSpace()
    pts = list(spec.iter(Window.make(levels=(0, 0), box=(-2, 2),
                                     max_support=1)))
    assert len(pts) == 15  # x0 free in [-2,2], x1 in 2Z


def test_enumeration_is_sorted_and_duplicate_free():
    def lex_key(spec, p):
        # enumeration order is by (level, value vector), with shift values
        # read densely across the enumerated positions
        if isinstance(p, ShiftPoint):
            return (p.level, tuple(p.value(i) for i in range(0, 4)))
        if isinstance(p, TowerPoint):
            return (p.level, p.coords, p.extra)
        return p

    for spec, w in (
        (TowerSpace("identity"), Window.make(levels=(1, 3), box=(-4, 4))),
        (ShiftUnionSpace(),
         Window.make(levels=(0, 2), box=(-3, 3), max_support=3)),
        (LatticeSpace((1, 3)), Window.make(box=((-5, 5), (-6, 6)))),
    ):
        pts = list(spec.iter(w))
        keys = [lex_key(spec, p) for p in pts]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for p in pts:
            spec.validate(p)


def test_enumeration_matches_window_size():
    cases = (
        (TowerSpace("pow2", 1),
         Window.make(levels=(1, 3), box=(-6, 6))),
        (ShiftUnionSpace(),
         Window.make(levels=(0, 2), box=(-3, 3), max_support=3)),
        (ProductSpace(TowerSpace("pow2"), TowerSpace("pow2")),
         Window.make(levels=(1, 2), box=(-4, 4))),
    )
    for spec, w in cases:
        assert spec.size(w) == len(list(spec.iter(w)))


def test_axis_boxes_pin_individual_axes():
    spec = LatticeSpace((1, 1, 1))
    w = Window.make(box=(-2, 2), axis_boxes={1: (0, 0)})
    pts = list(spec.iter(w))
    assert all(p[1] == 0 for p in pts)
    assert len(pts) == 25


def test_unbounded_window_is_an_error():
    with pytest.raises(WindowError):
        list(TowerSpace("identity").iter(Window.make(box=(-2, 2))))
    with pytest.raises(WindowError):
        list(ShiftUnionSpace().iter(
            Window.make(levels=(0, 1), box=(-2, 2))))
    with pytest.raises(WindowError):
        Window.make(box=(3, -3))


def test_tower_points_validate_divisibility():
    spec = TowerSpace("pow2")
    spec.validate(TowerPoint(2, (4, -8)))
    with pytest.raises(SpaceError):
        spec.validate(TowerPoint(2, (4, 2)))
    with pytest.raises(SpaceError):
        TowerPoint(2, (4,))


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def test_phi_tower_hand_example():
    phi = MapSpec.make("phi-tower", {"n": 3})
    image = evaluate_map(phi, TowerPoint(2, (4, 8), (7,)))
    assert image == (4, 8, 0, 7, 1)


def test_phi_tower_rejects_high_levels():
    phi = MapSpec.make("phi-tower", {"n": 3})
    with pytest.raises(SpaceError, match="level"):
        evaluate_map(phi, TowerPoint(4, (16, 0, 16, 0), (1,)))


def test_phi_tower_is_isometric_on_window():
    spec = TowerSpace("pow2", 1)
    pts = list(spec.iter(Window.make(levels=(1, 3), box=(-8, 8))))
    phi = MapSpec.make("phi-tower", {"n": 3})
    images = [evaluate_map(phi, p) for p in pts]
    for i in range(0, len(pts), 17):
        for j in range(0, len(pts), 13):
            assert (space_distance(spec, pts[i], pts[j])
                    == lattice_max_distance(images[i], images[j]))


def test_psi_staircase_domain_and_isometry():
    psi = MapSpec.make("psi-staircase", {"n": 1, "r": 3})
    spec = TowerSpace("pow2", 1)
    with pytest.raises(SpaceError):
        evaluate_map(psi, TowerPoint(1, (2,), (0,)))
    pts = list(spec.iter(Window.make(levels=(2, 3), box=(-8, 8))))
    images = [evaluate_map(psi, p) for p in pts]
    assert all(len(im) == 5 for im in images)  # r coords + line + height
    for i in range(0, len(pts), 7):
        for j in range(0, len(pts), 5):
            assert (space_distance(spec, pts[i], pts[j])
                    == lattice_max_distance(images[i], images[j]))


def test_theta_interleave():
    theta = MapSpec.make("theta-interleave")
    assert evaluate_map(theta, ((1, 2), (3, 4))) == (1, 3, 2, 4)
    with pytest.raises(SpaceError):
        evaluate_map(theta, ((1, 2), (3,)))


def test_level_projection_and_pad_maps():
    proj = MapSpec.make("f-level-projection")
    assert evaluate_map(proj, ShiftPoint.from_support({5: 6}, 5)) == (5,)
    pad = MapSpec.make("pad", {"target": 4})
    assert evaluate_map(pad, TowerPoint(2, (2, 2))) == (2, 2, 0, 0)


def test_delta_witness_map_needs_table():
    bare = MapSpec.make("delta-witness")
    with pytest.raises(SpaceError):
        evaluate_map(bare, (0,))
    table = {(0,): (0, 7)}
    delta = MapSpec.make("delta-witness", table=table)
    assert evaluate_map(delta, (0,)) == (0, 7)
    with pytest.raises(SpaceError):
        evaluate_map(delta, (1,))


def test_control_functions():
    assert ControlFn("identity")(5) == 5
    assert ControlFn("plus-const", 3)(5) == 8
    assert ControlFn("scaled", 2)(5) == 10
    with pytest.raises(SpaceError):
        ControlFn("scaled", -1)
    with pytest.raises(SpaceError):
        MapSpec.make("no-such-map")
