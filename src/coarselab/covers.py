"""Executable cover constructions.

A cover scheme is a total, pure classification function from points to an
optional (color, cell key) pair, together with the declared per-color
separation and diameter bound that the verifier will measure against.
Infinite families are always represented intensionally through their
classification function; point sets are only ever materialized over finite
windows.

Interval conventions: all 1-D tilings here are half-open `[lo, hi)` so that
classification is a function with no boundary ambiguity.  The one closed
construction (the staircase separators) resolves its shared endpoints by
assigning boundary points to the separator color, which can only enlarge the
long color's gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .spaces import (
    MapSpec,
    ShiftPoint,
    SpaceError,
    SpaceSpec,
    TowerPoint,
    TowerSpace,
    evaluate_map,
    lattice_max_distance,
    level_height,
    sorted_min_gap,
)

CellKey = tuple


class CoverError(ValueError):
    """A cover construction was given unusable parameters."""


@dataclass(frozen=True, eq=False)
class CoverScheme:
    """A family of families in executable form.

    `classify` maps a point of the scheme's space to None (not covered) or to
    a (color, cell) pair; `colors` is the builder-recorded color count;
    `declared_separation[c]` and `declared_bound[c]` are the disjointness gap
    and diameter bound color `c` claims.  `fiber_runs`, when present, reports
    the scheme's cells along `moving_axis` as maximal runs so that huge
    windows can be verified without per-point enumeration.  It may be
    called again for a fiber it has already reported, and must return the
    same runs.
    """

    classify: Callable[[object], "tuple[int, CellKey] | None"]
    colors: int
    declared_separation: dict[int, int]
    declared_bound: dict[int, int]
    moving_axis: int | None = None
    fiber_runs: Callable | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.colors < 0:
            raise CoverError("color count must be non-negative")
        for c, r in self.declared_separation.items():
            if not (0 <= c < self.colors) or r < 1:
                raise CoverError(f"bad declared separation {r} for color {c}")
        for c, b in self.declared_bound.items():
            if not (0 <= c < self.colors) or b < 1:
                raise CoverError(f"bad declared bound {b} for color {c}")


def canon_key(k) -> tuple:
    """Type-tagged total order key for heterogeneous cell keys."""
    if isinstance(k, tuple):
        return (1, tuple(canon_key(v) for v in k))
    if isinstance(k, (int, bool)):
        return (0, int(k))
    return (2, str(k))


# ---------------------------------------------------------------------------
# 1-D tiling helpers
# ---------------------------------------------------------------------------

def parity_interval(x: int, width: int) -> tuple[int, int]:
    """Locate `x` in the two-color tiling of Z by width-`width` half-open
    intervals.

    Returns (family, index): family 0 holds the odd-anchored intervals
    [(2j-1)w, 2jw), family 1 the even-anchored [2jw, (2j+1)w).
    """
    q = x // width
    if q % 2 == 0:
        return 1, q // 2
    return 0, (q + 1) // 2


def band_interval(x: int, l: int, s_unit: int, r_off: int, gap: int,
                  multiplier: int) -> tuple[str, int]:
    """Locate `x` in the offset-`l` tiling of Z by long 'C' bands and short
    width-`gap` 'D' separators.

    Band j is [(multiplier*(j-1)+l)*s_unit - r_off,
               (multiplier*j+l)*s_unit - r_off - gap) and separator j is the
    following width-`gap` interval; together they tile Z for every offset.
    """
    period = multiplier * s_unit
    y = x + r_off - l * s_unit
    j0, rem = divmod(y, period)
    if rem < period - gap:
        return "C", j0 + 1
    return "D", j0 + 1


def _offset_band_classifier(n_free: int, n_scaled: int, width: int,
                            unit: int, gap: int, multiplier: int):
    """Build the single-pass classifier `bands(v)` of an offset-band cover.

    `bands` reads the free axes v[:n_free] and the n_scaled scaled axes
    after them.  Each scaled axis sits in the `parity_interval` tiling of
    width `width`; its family bit i sets bit i of the offset l - 1, so l runs
    over {1..2^n_scaled}.  Each free axis is then located in the offset-l
    tiling of `band_interval` (unit `unit`, r_off `width`, separators of
    width `gap`).  Returns (family, key) with the flat key
    (l, w..., band-or-index...):

    - family 0 when every free axis sits in a long band; the key ends with
      the band indices;
    - otherwise family = 2^n_free * s + t, where s is the first free axis in
      a separator and t - 1 is the parity pattern of the free axes; the key
      ends with the separator index on axis s and the parity index on every
      other free axis.

    `w...` are the parity indices of the scaled axes.  The family fixes s and
    the parity pattern, so within one family a key names exactly one tuple
    of (separator or parity) intervals.  A width-w parity interval has index
    (q + 1) // 2 for q = x // w, and family bit 1 exactly when q is even.
    The period, the band end and the axis tuples are bound once here.
    """
    period = multiplier * unit
    long_end = period - gap
    free = range(n_free)
    free_bits = tuple((i, 1 << i) for i in free)
    scaled_bits = tuple((n_free + i, 1 << i) for i in range(n_scaled))
    split = 1 << n_free

    def bands(v) -> "tuple[int, CellKey]":
        l = 1
        w_cell = []
        for i, bit in scaled_bits:
            q = v[i] // width
            if not q & 1:
                l += bit
            w_cell.append((q + 1) >> 1)
        key = [l, *w_cell]
        shift = width - l * unit
        for i in free:
            j0, rem = divmod(v[i] + shift, period)
            if rem >= long_end:
                break
            key.append(j0 + 1)
        else:
            return 0, tuple(key)
        s = i
        key = [l, *w_cell]
        t = 1
        for i, bit in free_bits:
            q = v[i] // width
            if not q & 1:
                t += bit
            key.append(j0 + 1 if i == s else (q + 1) >> 1)
        return split * s + t, tuple(key)

    return bands


# ---------------------------------------------------------------------------
# lattice grid cover
# ---------------------------------------------------------------------------

def grid_cover(dim: int, gap: int) -> CoverScheme:
    """Product of the two-color width-`gap` interval tilings on each of
    `dim` lattice axes: 2^dim colors, each gap-disjoint and (gap-1)-bounded
    per axis."""
    if gap < 1:
        raise CoverError("gap must be >= 1")
    if dim < 0:
        raise CoverError("dimension must be >= 0")

    def classify(p) -> "tuple[int, CellKey] | None":
        if len(p) != dim:
            raise SpaceError(f"grid cover expects {dim}-tuples")
        color = 0
        cell = []
        for i, c in enumerate(p):
            fam, j = parity_interval(c, gap)
            color |= fam << i
            cell.append(j)
        return (color, tuple(cell))

    return CoverScheme(
        classify=classify,
        colors=2 ** dim,
        declared_separation={c: gap for c in range(2 ** dim)},
        declared_bound={c: max(1, gap - 1) for c in range(2 ** dim)},
    )


def spaced_interval_cover(size: int, sep: int, offset: int = 0) -> CoverScheme:
    """One color of evenly spaced 1-D blocks of `size` points whose
    consecutive distance is exactly `sep`; (size-1)-bounded, sep-disjoint."""
    if size < 1 or sep < 1:
        raise CoverError("size and sep must be >= 1")
    period = size + sep - 1

    def classify(p) -> "tuple[int, CellKey] | None":
        (x,) = p
        j, rem = divmod(x - offset, period)
        if rem < size:
            return (0, (j,))
        return None

    return CoverScheme(
        classify=classify, colors=1,
        declared_separation={0: sep},
        declared_bound={0: max(1, size - 1)},
    )


# ---------------------------------------------------------------------------
# tower covers
# ---------------------------------------------------------------------------

def singleton_cover(spec: SpaceSpec, threshold: int) -> CoverScheme:
    """One color whose cells are the singletons of all tower points above
    `threshold`; points at or below it are left uncovered."""
    if not (isinstance(spec, TowerSpace) and spec.factor_dim == 0):
        raise CoverError("singleton_cover wants a plain tower space")
    if threshold < 0:
        raise CoverError("threshold must be a natural")

    def classify(p) -> "tuple[int, CellKey] | None":
        if not isinstance(p, TowerPoint):
            raise SpaceError("singleton_cover expects TowerPoints")
        if p.level <= threshold:
            return None
        return (0, p.key())

    return CoverScheme(
        classify=classify, colors=1,
        declared_separation={0: threshold + 1},
        declared_bound={0: 1},
    )


def fiber_product_cover(base: CoverScheme, threshold: int) -> CoverScheme:
    """Cross the singletons of high tower parts with a base cover of the
    extra block: cell = {tower part} x (base cell), color = base color."""
    if threshold < 0:
        raise CoverError("threshold must be a natural")

    def classify(p) -> "tuple[int, CellKey] | None":
        if not isinstance(p, TowerPoint):
            raise SpaceError("fiber_product_cover expects TowerPoints")
        if p.level <= threshold:
            return None
        res = base.classify(p.extra)
        if res is None:
            return None
        color, cell = res
        return (color, ((p.level, p.coords), cell))

    return CoverScheme(
        classify=classify,
        colors=base.colors,
        declared_separation={
            c: min(r, threshold + 1)
            for c, r in base.declared_separation.items()
        },
        declared_bound=dict(base.declared_bound),
    )


# ---------------------------------------------------------------------------
# staircase cover
# ---------------------------------------------------------------------------

LONG_COLOR = 0   # the widely-spaced long bands (small-gap disjoint)
SHORT_COLOR = 1  # the short separators between them (large-gap disjoint)


def staircase_cover(n: int, r: int, dim: int | None = None,
                    height_interval: tuple[int, int] = (0, 0)) -> CoverScheme:
    """Two-color cover of (2^n Z)^dim x Z x height by long bands and short
    separators whose phase depends on the scaled coordinates.

    Each scaled point x gets a phase built from its residues mod 2^r, read as
    base-2^r digits.  On the moving axis, short cells occupy the n+1 points
    ending at (k*T + phase)*(r+n) for the period sum T, and long cells fill
    the stretches between consecutive short cells.  Long cells are n-disjoint
    and (T*(r+n))-bounded; short cells are r-disjoint and n-bounded on the
    moving axis.  Points on a shared endpoint go to the short color.

    The phase is constant on each fiber (x, h), so the scheme keeps the last
    scaled point it validated together with its run base phase*(r+n):
    `fiber_runs` computes the base once per fiber and the run-path probes of
    that fiber reuse it.  The memo is exact because both the validation and
    the phase are pure functions of x.  Both functions put the memo's own
    tuple in their cell keys, so a run-path probe's key is the very object
    in the claim it is compared with.

    `classify` divides t - base by the period once and reads the color from
    the remainder against the bound period - n; the axis counts, the slice
    and the bounds are bound once per scheme.  `fiber_runs` locates the run
    holding its first point the same way and then steps from run end to run
    end.
    """
    if r <= n:
        raise CoverError("requires r > n")
    if n < 1:
        raise CoverError("requires n >= 1")
    if dim is None:
        dim = r
    if dim < 1:
        raise CoverError("requires dim >= 1")
    h_lo, h_hi = height_interval
    if h_lo > h_hi:
        raise CoverError("empty height interval")

    modulus = 2 ** r
    step = 2 ** n
    weights = [2 ** (r * j) for j in range(dim)]
    weight_sum = sum(2 ** (r * j) for j in range(1, dim + 1))
    period = weight_sum * (r + n)
    long_end = period - n
    long_step = long_end - 1
    short_step = n + 1
    axes = dim + 2
    scaled = slice(dim)
    h_axis = dim + 1
    last_x: tuple[int, ...] | None = None
    last_base = 0

    def base_of(x: Sequence[int]) -> int:
        """Check that the scaled coordinates x lie in (2^n Z)^dim and return
        phase(x) * (r+n), the offset of the run grid on x's fibers."""
        nonlocal last_x, last_base
        if x == last_x:
            return last_base
        total = 0
        for c, weight in zip(x, weights):
            if c % step != 0:
                raise SpaceError(f"coordinate {c} not in {step}Z")
            total += (c % modulus) * weight
        # kept as a tuple: a list point, which a caller may mutate later,
        # never matches it and so never reads a stale base
        last_x, last_base = tuple(x), total * (r + n)
        return last_base

    def classify(p) -> "tuple[int, CellKey] | None":
        # t - base = k*period + m: m == 0 is short run k's last point, m in
        # [1, period-n) long run k, and m in [period-n, period) short run
        # k+1
        if len(p) != axes:
            raise SpaceError(f"staircase point needs {axes} axes")
        x = p[scaled]
        if x == last_x:
            x, base = last_x, last_base
        else:
            base = base_of(x)
        if not h_lo <= p[h_axis] <= h_hi:
            return None
        t = p[dim] - base
        k = t // period
        m = t - k * period
        if m == 0:
            return SHORT_COLOR, (x, k)
        if m < long_end:
            return LONG_COLOR, (x, k)
        return SHORT_COLOR, (x, k + 1)

    def fiber_runs(fiber: tuple, lo: int, hi: int):
        """Maximal runs of constant (color, cell) on the moving axis for the
        fiber (x..., h)."""
        if len(fiber) != dim + 1:
            raise SpaceError(f"staircase fiber needs {dim + 1} axes")
        x, h = tuple(fiber[:dim]), fiber[dim]
        if not (h_lo <= h <= h_hi):
            return [(lo, hi, None, None)]
        # the run holding lo comes from classify's formula; from its end the
        # runs alternate, a long run ending period-n-1 after a short one and
        # the next short run n+1 after that
        k, m = divmod(lo - base_of(x), period)
        x = last_x  # equal to x: the tuple classify's keys hold on this fiber
        end = lo - m
        if m == 0:
            color = SHORT_COLOR
        elif m < long_end:
            color, end = LONG_COLOR, end + long_step
        else:
            color, k, end = SHORT_COLOR, k + 1, end + period
        runs = []
        while end < hi:
            runs.append((lo, end, color, (x, k)))
            lo = end + 1
            if color == SHORT_COLOR:
                color, end = LONG_COLOR, end + long_step
            else:
                color, k, end = SHORT_COLOR, k + 1, end + short_step
        if lo <= hi:
            runs.append((lo, hi, color, (x, k)))
        return runs

    h_extent = max(1, h_hi - h_lo)
    return CoverScheme(
        classify=classify,
        colors=2,
        declared_separation={LONG_COLOR: n, SHORT_COLOR: r},
        declared_bound={LONG_COLOR: max(period - n, h_extent),
                        SHORT_COLOR: max(n, h_extent)},
        moving_axis=dim,
        fiber_runs=fiber_runs,
    )


# ---------------------------------------------------------------------------
# composite cover for the scaled tower with a line factor
# ---------------------------------------------------------------------------

def omega_cover(n: int, r: int) -> CoverScheme:
    """Cover of the doubling tower-with-line space by three regions: levels
    at or above r use two alternating line-interval colors, levels up to n
    flatten isometrically onto a lattice grid cover, and the mid levels
    flatten onto a staircase cover.  Exactly color 0 (the staircase long
    color) is n-disjoint; all other colors are r-disjoint, and the color
    count 4 + 2^(n+1) depends on n alone."""
    if not (n > 2):
        raise CoverError("requires n > 2")
    if r <= n:
        raise CoverError("requires r > n")

    h_top = r * (r - 1) // 2
    h_bot = n * (n + 1) // 2
    stair = staircase_cover(n, r, dim=r, height_interval=(h_bot, h_top))
    grid = grid_cover(n + 1, r)
    phi = MapSpec.make("phi-tower", {"n": n})
    psi = MapSpec.make("psi-staircase", {"n": n, "r": r})
    grid_base = 4

    def classify(p) -> "tuple[int, CellKey] | None":
        if not isinstance(p, TowerPoint) or len(p.extra) != 1:
            raise SpaceError("omega_cover expects tower points with a "
                             "1-dimensional extra block")
        if p.level >= r:
            t = p.extra[0]
            fam, j = parity_interval(t, r)
            color = 2 + fam
            return (color, ((p.level, p.coords), j))
        if p.level <= n:
            image = evaluate_map(phi, p)
            res = grid.classify(image[:n + 1])
            assert res is not None
            c, cell = res
            return (grid_base + c, cell)
        image = evaluate_map(psi, p)
        res = stair.classify(image)
        assert res is not None
        return res

    colors = grid_base + 2 ** (n + 1)
    separation = {0: n, 1: r, 2: r, 3: r}
    bound = {
        0: stair.declared_bound[LONG_COLOR],
        1: stair.declared_bound[SHORT_COLOR],
        2: r,
        3: r,
    }
    for c in range(2 ** (n + 1)):
        separation[grid_base + c] = r
        bound[grid_base + c] = max(r - 1, n * (n - 1) // 2, 1)

    return CoverScheme(
        classify=classify, colors=colors,
        declared_separation=separation, declared_bound=bound,
    )


# ---------------------------------------------------------------------------
# mixed lattice cover
# ---------------------------------------------------------------------------

def mixed_grid_cover(m: int, n: int, k: int, R: int) -> CoverScheme:
    """Cover of Z^m x (kZ)^n with one k-disjoint color of long-band products
    and m*2^m R-disjoint colors that replace one axis by a short separator.

    The last n axes pick an interval-parity pattern, hence an offset l in
    {1..2^n}; color 0 requires every free axis to sit in the offset-l long
    band, and the fallback colors are indexed by the first separator axis and
    the parity pattern of the free axes.  `classify` is one call of the
    `_offset_band_classifier` built here once (parity width R, band unit
    R + k, separators of width k), equal on every point to the reference
    tilings `parity_interval` and `band_interval`; its cell key is the flat
    (l, w..., band-or-index...).
    """
    if k < 1 or R < 1:
        raise CoverError("k and R must be >= 1")
    if m < 0 or n < 0:
        raise CoverError("m and n must be naturals")

    S = R + k
    multiplier = max(1, (2 ** n) * n)
    period = multiplier * S
    bands = _offset_band_classifier(m, n, R, S, k, multiplier)

    def classify(p) -> "tuple[int, CellKey] | None":
        if len(p) != m + n:
            raise SpaceError(f"mixed grid point needs {m + n} axes")
        return bands(p)

    colors = m * 2 ** m + 1
    separation = {0: k}
    bound = {0: max(period - k - 1, R - 1, 1)}
    for c in range(1, colors):
        separation[c] = R
        bound[c] = max(R - 1, k - 1, 1)

    return CoverScheme(
        classify=classify, colors=colors,
        declared_separation=separation, declared_bound=bound,
    )


# ---------------------------------------------------------------------------
# product-of-towers cover
# ---------------------------------------------------------------------------

def product_square_cover(k: int, n: int) -> CoverScheme:
    """Cover of the square of the doubling tower by six level regions:
    singleton pairs when both levels exceed k, a flattened grid when both are
    at most k, grids crossed with singletons when one level exceeds n, and
    mixed lattice covers on the two mixed mid-level regions.

    Color 0 merges the three k-disjoint parts; every other color is
    n-disjoint, and the color count depends on k alone.
    """
    if n < k:
        raise CoverError("requires n >= k")
    if k < 1:
        raise CoverError("requires k >= 1")

    grid_both = grid_cover(2 * k + 2, n)
    grid_one = grid_cover(k + 1, n)
    mixed = mixed_grid_cover(m=k + 2, n=n, k=2 ** k, R=n)
    phi = MapSpec.make("phi-tower", {"n": k})

    base_both = 1
    base_low_high = base_both + grid_both.colors
    base_high_low = base_low_high + grid_one.colors
    base_mix_a = base_high_low + grid_one.colors
    base_mix_b = base_mix_a + (mixed.colors - 1)
    colors = base_mix_b + (mixed.colors - 1)

    def flatten_mid(q: TowerPoint) -> tuple[tuple[int, ...], int]:
        return (q.coords + (0,) * (n - q.level), level_height(q.level))

    def classify(p) -> "tuple[int, CellKey] | None":
        if not (isinstance(p, tuple) and len(p) == 2
                and all(isinstance(q, TowerPoint) for q in p)):
            raise SpaceError("product_square_cover expects TowerPoint pairs")
        a, b = p
        i, j = a.level, b.level
        if i > k and j > k:
            return (0, (1, a.key(), b.key()))
        if i <= k and j <= k:
            image = evaluate_map(phi, a) + evaluate_map(phi, b)
            c, cell = grid_both.classify(image)
            return (base_both + c, cell)
        if i <= k and j > n:
            c, cell = grid_one.classify(evaluate_map(phi, a))
            return (base_low_high + c, (cell, b.key()))
        if i > n and j <= k:
            c, cell = grid_one.classify(evaluate_map(phi, b))
            return (base_high_low + c, (cell, a.key()))
        # mixed regions: flatten the mid-level factor and cross it with the
        # low factor's image
        if i <= k:
            low, high, tag, base = a, b, 5, base_mix_a
        else:
            low, high, tag, base = b, a, 6, base_mix_b
        coords, height = flatten_mid(high)
        c, cell = mixed.classify(evaluate_map(phi, low) + (height,) + coords)
        return (base + c - 1 if c else 0, (tag, cell))

    separation = {0: k}
    bound = {0: max(mixed.declared_bound[0], 1)}
    one_sided_bound = max(n - 1, k * (k - 1) // 2, 1)
    for c in range(grid_both.colors):
        separation[base_both + c] = n
        bound[base_both + c] = max(n - 1, 1)
    for c in range(grid_one.colors):
        separation[base_low_high + c] = n
        bound[base_low_high + c] = one_sided_bound
        separation[base_high_low + c] = n
        bound[base_high_low + c] = one_sided_bound
    for c in range(1, mixed.colors):
        for base in (base_mix_a, base_mix_b):
            separation[base + c - 1] = n
            bound[base + c - 1] = mixed.declared_bound[c]

    return CoverScheme(
        classify=classify, colors=colors,
        declared_separation=separation, declared_bound=bound,
    )


# ---------------------------------------------------------------------------
# shift-union cover
# ---------------------------------------------------------------------------

def shift_union_cover(k: int, m: int) -> CoverScheme:
    """Cover of the shift-union space by level blocks of height 2k.

    A point's level picks its block; inside a block, m axes choose an
    interval-parity pattern (the offset l), 3k axes are checked against the
    offset-l long bands, and all later axes are frozen into the cell key.
    Blocks of even and odd index are merged separately, giving two k-disjoint
    colors and (6k)*2^(3k) m-disjoint colors.  Inside a block, `classify` is
    one call of an `_offset_band_classifier` (parity width m, band unit
    2(k + m), separators of width k), the factory `mixed_grid_cover` uses
    too.  The cell key is (block, l, w..., band-or-index..., i, v, ...),
    ending with the (index, value) pairs of the frozen axes.
    """
    if k < 1 or m < 1:
        raise CoverError("k and m must be >= 1")

    S = k + m
    s_unit = 2 * S
    multiplier = 2 ** m
    band_count = 3 * k
    per_block = band_count * 2 ** band_count

    bands = _offset_band_classifier(band_count, m, m, s_unit, k, multiplier)

    def classify(p) -> "tuple[int, CellKey] | None":
        if not isinstance(p, ShiftPoint):
            raise SpaceError("shift_union_cover expects ShiftPoints")
        block = p.level // (2 * k)
        base = 2 * block * k
        cut = base + band_count + m
        values = dict(p.support)
        family, key = bands([values.get(i, 0) for i in range(base, cut)])
        cell = [block, *key]
        for i, v in p.support:
            if i >= cut:
                cell += (i, v)
        return (2 * family + block % 2, tuple(cell))

    colors = 2 * per_block + 2
    level_extent = 2 * k - 1
    band_width = multiplier * s_unit - k
    merged_bound = (band_count * (band_width - 1) + m * (m - 1)
                    + level_extent)
    split_bound = ((band_count - 1) * (m - 1) + (k - 1) + m * (m - 1)
                   + level_extent)
    separation = {0: k, 1: k}
    bound = {0: max(merged_bound, 1), 1: max(merged_bound, 1)}
    for c in range(2, colors):
        separation[c] = m
        bound[c] = max(split_bound, 1)

    return CoverScheme(
        classify=classify, colors=colors,
        declared_separation=separation, declared_bound=bound,
    )


# ---------------------------------------------------------------------------
# finite families and the saturated union
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiniteFamily:
    """An explicitly materialized family over a window: disjoint finite point
    sets indexed by cell key."""

    cells: tuple[tuple[CellKey, frozenset], ...]

    def __post_init__(self) -> None:
        seen: set = set()
        for key, pts in self.cells:
            if not isinstance(pts, frozenset):
                raise CoverError("cells must hold frozensets of points")
            overlap = seen & pts
            if overlap:
                raise CoverError(
                    f"cells are not pairwise disjoint: {sorted(overlap)[:3]}"
                )
            seen |= pts

    @classmethod
    def of(cls, mapping: Mapping[CellKey, Iterable]) -> "FiniteFamily":
        items = tuple(sorted(
            ((key, frozenset(pts)) for key, pts in mapping.items()),
            key=lambda kv: canon_key(kv[0]),
        ))
        return cls(items)

    def point_union(self) -> frozenset:
        out: set = set()
        for _, pts in self.cells:
            out |= pts
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.cells)


def set_distance(A: Iterable, B: Iterable,
                 space: SpaceSpec | None = None) -> int:
    """Exact minimum distance between two nonempty finite point sets of
    `space`, on rows built in one `space.rows` call; with no space, the
    points are integer tuples measured as their own rows under l-infinity.
    One-column rows are measured by a sorted linear merge."""
    A = list(A)
    B = list(B)
    if not A or not B:
        raise CoverError("set distance needs nonempty sets")
    rows = A + B if space is None else space.rows(A + B)
    if len(set(map(len, rows))) > 1:
        raise SpaceError("set distance needs points of one dimension")
    xs, ys = rows[:len(A)], rows[len(A):]
    if len(rows[0]) == 1:
        return sorted_min_gap(sorted(x for x, in xs), sorted(y for y, in ys))
    metric = lattice_max_distance if space is None else space.row_metric
    return min(metric(a, b) for a in xs for b in ys)


def saturated_union(V: FiniteFamily, U: FiniteFamily, r: int,
                    space: SpaceSpec | None = None) -> FiniteFamily:
    """Absorb every U-cell within distance r of V into its nearest V-cell
    (ties to the smallest cell key); far U-cells survive unchanged.  Points
    are measured as `set_distance` measures them in `space`.

    The output contains every input point, and keys are tagged 0 for grown
    V-cells and 1 for surviving U-cells so the two sides never collide.
    """
    if r <= 0:
        raise CoverError("saturation radius must be positive")
    grown: dict[CellKey, set] = {key: set(pts) for key, pts in V.cells}
    v_cells = [(canon_key(key), key, pts) for key, pts in V.cells]
    survivors: dict[CellKey, frozenset] = {}
    for u_key, u_pts in U.cells:
        best = None
        for v_canon, v_key, v_pts in v_cells:
            d = set_distance(u_pts, v_pts, space)
            if best is None or (d, v_canon) < best[:2]:
                best = (d, v_canon, v_key)
        if best is not None and best[0] <= r:
            grown[best[2]] |= u_pts
        else:
            survivors[u_key] = u_pts
    out: dict[CellKey, frozenset] = {}
    for key, pts in grown.items():
        out[(0, key)] = frozenset(pts)
    for key, pts in survivors.items():
        out[(1, key)] = pts
    return FiniteFamily.of(out)
