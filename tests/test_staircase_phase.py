"""The staircase cover's per-fiber phase memo against the plain formula.

`staircase_cover` keeps the last scaled point it validated with its run
base, so `classify` on a new fiber recomputes it and on a repeated fiber
reuses it.  These tests feed interleaved point sequences (alternating
fibers, repeats, negative coordinates, tuples and lists) and compare every
answer with a memo-free reference copied from the formula the scheme
documents."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab.covers import LONG_COLOR, SHORT_COLOR, staircase_cover
from coarselab.spaces import SpaceError


def reference_classify(n, r, dim, height, p):
    """phase(x) = sum_j (x_j mod 2^r) * 2^(r*j); runs of period
    T*(r+n) start at phase(x)*(r+n)."""
    h_lo, h_hi = height
    x, t, h = p[:dim], p[dim], p[dim + 1]
    for c in x:
        if c % 2 ** n != 0:
            raise SpaceError(f"coordinate {c} not in {2 ** n}Z")
    if not (h_lo <= h <= h_hi):
        return None
    phase = sum((c % 2 ** r) * 2 ** (r * j) for j, c in enumerate(x))
    period = sum(2 ** (r * j) for j in range(1, dim + 1)) * (r + n)
    base = phase * (r + n)
    k, m = divmod(t - base, period)
    if m == 0:
        return (SHORT_COLOR, (x, k))
    if m <= period - n - 1:
        return (LONG_COLOR, (x, k))
    return (SHORT_COLOR, (x, k + 1))


@st.composite
def schemes(draw):
    n = draw(st.integers(1, 2))
    r = draw(st.integers(n + 1, n + 2))
    dim = draw(st.integers(1, 3))
    h_lo = draw(st.integers(-3, 3))
    h_hi = h_lo + draw(st.integers(0, 2))
    return n, r, dim, (h_lo, h_hi)


@st.composite
def interleaved_points(draw, n, dim, height):
    """A few fibers, then a sequence that hops between them, repeats points
    and passes some as lists."""
    h_lo, h_hi = height
    scaled = st.integers(-40, 40).map(lambda c: c * 2 ** n)
    fibers = draw(st.lists(st.tuples(*[scaled] * dim), min_size=1,
                           max_size=4))
    steps = draw(st.lists(
        st.tuples(st.integers(0, len(fibers) - 1),
                  st.integers(-500, 500),
                  st.integers(h_lo - 1, h_hi + 1),
                  st.booleans()),
        min_size=1, max_size=40))
    points = []
    for i, t, h, as_list in steps:
        p = fibers[i] + (t, h)
        points.append(list(p) if as_list else p)
    return points


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_classify_matches_the_memo_free_formula(data):
    n, r, dim, height = data.draw(schemes())
    scheme = staircase_cover(n, r, dim=dim, height_interval=height)
    for p in data.draw(interleaved_points(n, dim, height)):
        assert scheme.classify(p) == reference_classify(n, r, dim, height, p)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_fiber_runs_then_probes_match_the_formula(data):
    # fiber_runs fills the memo first; each probe then reads it
    n, r, dim, height = data.draw(schemes())
    scheme = staircase_cover(n, r, dim=dim, height_interval=height)
    for p in data.draw(interleaved_points(n, dim, height)):
        fiber = tuple(p[:dim]) + (p[dim + 1],)
        for t0, t1, color, key in scheme.fiber_runs(fiber, p[dim] - 60,
                                                    p[dim] + 60):
            for t in (t0, (t0 + t1) // 2, t1):
                q = fiber[:dim] + (t,) + fiber[dim:]
                want = reference_classify(n, r, dim, height, q)
                assert scheme.classify(q) == want
                assert want == (None if color is None else (color, key))


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_off_lattice_coordinate_raises_after_another_fiber(data):
    n, r, dim, height = data.draw(schemes())
    scheme = staircase_cover(n, r, dim=dim, height_interval=height)
    good = data.draw(interleaved_points(n, dim, height))[0]
    axis = data.draw(st.integers(0, dim - 1))
    shift = data.draw(st.integers(1, 2 ** n - 1))
    bad = list(good)
    bad[axis] += shift
    scheme.classify(good)
    with pytest.raises(SpaceError, match=f"coordinate {bad[axis]} not in"):
        scheme.classify(bad)
    with pytest.raises(SpaceError, match=f"coordinate {bad[axis]} not in"):
        scheme.classify(tuple(bad))
    assert scheme.classify(good) == reference_classify(n, r, dim, height,
                                                       good)


def test_a_mutated_cell_key_does_not_stale_the_memo():
    # a list point's cell key holds a list the caller may change afterwards
    scheme = staircase_cover(1, 2, dim=2, height_interval=(0, 0))
    _, (x, _) = scheme.classify([0, 0, 5, 0])
    x[0] = 2
    q = [2, 0, 5, 0]
    assert scheme.classify(q) == reference_classify(1, 2, 2, (0, 0), q)
    assert scheme.classify(q)[0] == SHORT_COLOR
