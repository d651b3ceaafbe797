"""The single-pass offset-band classifiers of `mixed_grid_cover` and
`shift_union_cover` against a reference built from the documented tilings
`parity_interval` and `band_interval`, axis by axis.

The reference builds the nested key (l, cell, w_cell) with its "D"/"V"
tags; `flat_key` packs it the way the classifiers do, as
(l, w..., band-or-index...).  Within one color the packing must lose
nothing: two points share a flat key exactly when they share a nested key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarselab.covers import (
    band_interval,
    mixed_grid_cover,
    parity_interval,
    shift_union_cover,
)
from coarselab.spaces import ShiftPoint, SpaceError

COORD = st.integers(-400, 400)
NEAR = st.integers(-24, 24)  # narrow enough that points share cells


def pattern_to_offset(bits):
    """Bijection {0,1}^n -> {1..2^n} pairing offsets with parity patterns."""
    return 1 + sum(b << i for i, b in enumerate(bits))


def reference_bands(free, scaled, width, unit, gap, multiplier):
    """(family, l, cell, w_cell) from one tiling call per axis."""
    w_bits = [parity_interval(x, width)[0] for x in scaled]
    w_cell = tuple(parity_interval(x, width)[1] for x in scaled)
    l = pattern_to_offset(w_bits)
    bands = [band_interval(x, l, unit, width, gap, multiplier) for x in free]
    if all(kind == "C" for kind, _ in bands):
        return 0, l, tuple(j for _, j in bands), w_cell
    s = next(i for i, (kind, _) in enumerate(bands) if kind == "D")
    t_bits = [parity_interval(x, width)[0] for x in free]
    family = (2 ** len(free)) * s + pattern_to_offset(t_bits)
    cell = tuple(("D", bands[i][1]) if i == s
                 else ("V", parity_interval(x, width)[1])
                 for i, x in enumerate(free))
    return family, l, cell, w_cell


def flat_key(l, cell, w_cell):
    """Drop the tags and the nesting: (l, w..., band-or-index...)."""
    return (l, *w_cell,
            *(c[1] if isinstance(c, tuple) else c for c in cell))


def reference_mixed(m, n, k, R, p):
    """(color, flat key, nested key) of lattice point `p`."""
    multiplier = max(1, (2 ** n) * n)
    family, l, cell, w_cell = reference_bands(p[:m], p[m:], R, R + k, k,
                                              multiplier)
    return family, flat_key(l, cell, w_cell), (l, cell, w_cell)


def reference_shift(k, m, p):
    """(color, flat key, nested key) of shift point `p`."""
    band_count = 3 * k
    block = p.level // (2 * k)
    base = 2 * block * k
    free = [p.value(i) for i in range(base, base + band_count)]
    scaled = [p.value(i) for i in range(base + band_count,
                                        base + band_count + m)]
    family, l, cell, w_cell = reference_bands(free, scaled, m, 2 * (k + m), k,
                                              2 ** m)
    tail = tuple((i, v) for i, v in p.support if i >= base + band_count + m)
    flat = (block, *flat_key(l, cell, w_cell), *(x for iv in tail for x in iv))
    return 2 * family + block % 2, flat, (block, l, cell, w_cell, tail)


def assert_same_partition(references):
    """Within each color, flat keys are equal exactly when nested keys are."""
    nested_of: dict = {}
    flat_of: dict = {}
    for color, flat, nested in references:
        assert nested_of.setdefault((color, flat), nested) == nested
        assert flat_of.setdefault((color, nested), flat) == flat


@st.composite
def mixed_cases(draw, coord=COORD, max_points=20):
    m = draw(st.integers(0, 3))
    n = draw(st.integers(0, 2))
    k = draw(st.integers(1, 6))
    R = draw(st.integers(1, 9))
    points = draw(st.lists(st.tuples(*[coord] * (m + n)),
                           min_size=1, max_size=max_points))
    return m, n, k, R, points


@settings(deadline=None, max_examples=300)
@given(mixed_cases())
def test_mixed_grid_classify_matches_reference_tilings(case):
    m, n, k, R, points = case
    scheme = mixed_grid_cover(m, n, k, R)
    for p in points:
        color, flat, _ = reference_mixed(m, n, k, R, p)
        assert scheme.classify(p) == (color, flat)


@settings(deadline=None, max_examples=150)
@given(mixed_cases(coord=NEAR, max_points=80))
def test_mixed_grid_flat_keys_split_colors_like_nested_keys(case):
    m, n, k, R, points = case
    assert_same_partition(reference_mixed(m, n, k, R, p) for p in points)


def shift_points(value=COORD, top=24):
    """Shift points with support indices and level in [0, top]."""
    return st.builds(
        ShiftPoint.from_support,
        st.dictionaries(st.integers(0, top), value, max_size=14),
        st.integers(0, min(top, 16)))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 2), st.integers(1, 4),
       st.lists(shift_points(), min_size=1, max_size=10))
def test_shift_union_classify_matches_reference_tilings(k, m, points):
    scheme = shift_union_cover(k, m)
    for p in points:
        color, flat, _ = reference_shift(k, m, p)
        assert scheme.classify(p) == (color, flat)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 2), st.integers(1, 4),
       st.lists(shift_points(NEAR, 7), min_size=1, max_size=60))
def test_shift_union_flat_keys_split_colors_like_nested_keys(k, m, points):
    assert_same_partition(reference_shift(k, m, p) for p in points)


def test_offset_band_classifiers_reject_wrong_points():
    with pytest.raises(SpaceError):
        mixed_grid_cover(2, 1, 4, 6).classify((0, 0))
    with pytest.raises(SpaceError):
        mixed_grid_cover(2, 1, 4, 6).classify((0, 0, 0, 0))
    with pytest.raises(SpaceError):
        shift_union_cover(1, 2).classify((0, 0))
