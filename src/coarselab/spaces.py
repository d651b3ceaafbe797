"""Exact-integer point types, metrics, finite windows and the map catalog.

Every space here is a set of integer vectors with an exact metric: tower
spaces (a union of scaled lattices of growing dimension with a level-penalty
maximum metric), plain lattices with per-axis scales, products of two such
l-infinity spaces, and the shift-union space carried by finitely supported
integer sequences with an l1-plus-level metric.  Each kind is one
`SpaceSpec` subclass, and each metric is l-infinity or l1 on the integer
rows its `rows` method builds.
All operations are pure and use arbitrary-precision integers only; nothing
here is ever approximated.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Iterator, Mapping, Sequence


class SpaceError(ValueError):
    """A point, window or map does not fit the space it was used with."""


class WindowError(ValueError):
    """A window is empty, unbounded, or under-specified for its space."""


# ---------------------------------------------------------------------------
# step functions
# ---------------------------------------------------------------------------

def identity_step(level: int) -> int:
    return level


def pow2_step(level: int) -> int:
    return 2 ** level


STEP_FUNCTIONS: dict[str, Callable[[int], int]] = {
    "identity": identity_step,
    "pow2": pow2_step,
}


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, order=True)
class TowerPoint:
    """A point of a tower space: `level` scaled coordinates plus an optional
    fixed-dimension extra block.

    The divisibility of `coords` by the space's step is a property of the
    enclosing :class:`SpaceSpec` and is checked by ``SpaceSpec.validate``.
    """

    level: int
    coords: tuple[int, ...]
    extra: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.level < 1:
            raise SpaceError(f"tower level must be >= 1, got {self.level}")
        if len(self.coords) != self.level:
            raise SpaceError(
                f"level-{self.level} point needs {self.level} coords, "
                f"got {len(self.coords)}"
            )

    def key(self) -> tuple:
        """Canonical value key, usable as a cell digest."""
        return (self.level, self.coords, self.extra)


@dataclass(frozen=True, slots=True, order=True)
class ShiftPoint:
    """A finitely supported integer sequence together with its level.

    The l1-plus-level metric is defined on all such points; belonging to the
    shift-union space additionally requires every supported index ``i`` to
    satisfy ``i >= level`` and ``value % (i - level + 1) == 0``, which
    ``membership_error`` reports and enumeration guarantees.
    """

    level: int
    support: tuple[tuple[int, int], ...]  # sorted (index, nonzero value)

    def __post_init__(self) -> None:
        seen = set()
        for i, v in self.support:
            if i in seen:
                raise SpaceError(f"duplicate support index {i}")
            seen.add(i)
            if v == 0:
                raise SpaceError(f"support value at index {i} must be nonzero")
        if tuple(sorted(self.support)) != self.support:
            raise SpaceError("support must be sorted by index")

    @classmethod
    def from_support(cls, support: Mapping[int, int], level: int) -> "ShiftPoint":
        items = tuple(sorted((i, v) for i, v in support.items() if v != 0))
        return cls(level=level, support=items)

    def membership_error(self) -> str | None:
        """Why this point is not in the shift-union space, or None."""
        for i, v in self.support:
            if i < self.level:
                return f"index {i} below level {self.level} must be zero"
            if v % (i - self.level + 1) != 0:
                return (f"value {v} at index {i} not divisible by "
                        f"{i - self.level + 1} for level {self.level}")
        return None

    def value(self, index: int) -> int:
        for i, v in self.support:
            if i == index:
                return v
        return 0

    def key(self) -> tuple:
        return (self.level, self.support)


# Lattice points are plain tuples of ints; product points are pairs of factor
# points.  Points of one kind sort in `key` order.


def point_to_json(p):
    """A point as reports print it, a literal `point_from_json` reads."""
    if isinstance(p, TowerPoint):
        return {"level": p.level, "coords": list(p.coords),
                "extra": list(p.extra)}
    if isinstance(p, ShiftPoint):
        return {"level": p.level,
                "support": {str(i): v for i, v in p.support}}
    if isinstance(p, tuple):  # a lattice point, or a pair of factor points
        return [point_to_json(c) for c in p]
    return p


def point_from_json(value):
    """Point literal: a list is a lattice point, or a pair when its items
    are lists or objects; an object with coords is a tower point, and one
    with a support map is a shift point."""
    if isinstance(value, list):
        return tuple(point_from_json(v) if isinstance(v, (list, dict)) else v
                     for v in value)
    if isinstance(value, dict) and "coords" in value:
        return TowerPoint(level=value["level"],
                          coords=tuple(value["coords"]),
                          extra=tuple(value.get("extra", ())))
    if isinstance(value, dict) and "support" in value:
        if not isinstance(value["support"], dict):
            raise SpaceError("support must be a JSON object, not "
                             + type(value["support"]).__name__)
        return ShiftPoint.from_support(
            {int(i): v for i, v in value["support"].items()}, value["level"])
    raise SpaceError(f"unreadable point literal {value!r}")


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

Interval = tuple[int, int]


@dataclass(frozen=True, slots=True)
class Window:
    """A finite region: inclusive level range, per-axis inclusive coordinate
    boxes (a single broadcast interval is permitted, and `axis_boxes` pins or
    overrides individual axes), and a support cap for shift points."""

    levels: Interval | None = None
    box: Interval | tuple[Interval, ...] | None = None
    max_support: int | None = None
    axis_boxes: tuple[tuple[int, Interval], ...] = ()

    def __post_init__(self) -> None:
        if self.levels is not None:
            lo, hi = self.levels
            if lo > hi:
                raise WindowError(f"empty level range {self.levels}")
        for lo, hi in self._all_intervals():
            if lo > hi:
                raise WindowError(f"empty interval ({lo}, {hi})")

    def _all_intervals(self) -> Iterator[Interval]:
        if self.box is not None:
            if self._broadcast():
                yield self.box  # type: ignore[misc]
            else:
                yield from self.box  # type: ignore[misc]
        for _, iv in self.axis_boxes:
            yield iv

    def _broadcast(self) -> bool:
        return (self.box is not None and len(self.box) == 2
                and all(isinstance(v, int) for v in self.box))

    @classmethod
    def make(cls, levels=None, box=None, max_support=None, axis_boxes=None):
        """Window with `axis_boxes` given as a {axis: (lo, hi)} mapping."""
        ab = tuple(sorted((i, tuple(iv)) for i, iv in (axis_boxes or {}).items()))
        if box is not None and not (len(box) == 2 and all(
                isinstance(v, int) for v in box)):
            box = tuple(tuple(iv) for iv in box)
        elif box is not None:
            box = tuple(box)
        return cls(levels=levels if levels is None else tuple(levels),
                   box=box, max_support=max_support, axis_boxes=ab)

    def axis_box(self, axis: int) -> Interval:
        """Effective inclusive interval for a (0-based) axis."""
        for i, iv in self.axis_boxes:
            if i == axis:
                return iv
        if self.box is None:
            raise WindowError(f"no box available for axis {axis}")
        if self._broadcast():
            return self.box  # type: ignore[return-value]
        if axis < 0 or axis >= len(self.box):
            raise WindowError(f"axis {axis} outside the per-axis box list")
        return self.box[axis]  # type: ignore[return-value]

    def to_json(self) -> dict:
        return {
            "levels": list(self.levels) if self.levels else None,
            "box": (list(self.box) if self._broadcast()
                    else [list(iv) for iv in self.box]) if self.box else None,
            "max_support": self.max_support,
            "axis_boxes": {str(i): list(iv) for i, iv in self.axis_boxes},
        }


def multiples_in(lo: int, hi: int, step: int) -> range:
    """All multiples of `step` inside the inclusive interval [lo, hi]."""
    first = -((-lo) // step) * step
    return range(first, hi + 1, step)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def lattice_max_distance(p: Sequence[int], q: Sequence[int]) -> int:
    if len(p) != len(q):
        raise SpaceError("dimension mismatch")
    return max(map(abs, map(operator.sub, p, q)), default=0)


def l1_distance(p: Sequence[int], q: Sequence[int]) -> int:
    """Sum of coordinatewise gaps between two rows of equal length."""
    return sum(map(abs, map(operator.sub, p, q)))


def sorted_min_gap(xs: Sequence[int], ys: Sequence[int]) -> int:
    """Least |x - y| over two ascending integer lists, in one merge pass;
    0 when either list is empty."""
    best = None
    i = j = 0
    while i < len(xs) and j < len(ys):
        d = abs(xs[i] - ys[j])
        if best is None or d < best:
            best = d
        if best == 0:
            return 0
        if xs[i] < ys[j]:
            i += 1
        else:
            j += 1
    return best if best is not None else 0


def level_height(level: int) -> int:
    """T(level) = 0 + 1 + ... + (level-1), the height the tower maps append."""
    return level * (level - 1) // 2


def level_penalty(lo_level: int, hi_level: int) -> int:
    """Sum lo + (lo+1) + ... + (hi-1); zero when the levels agree."""
    return level_height(hi_level) - level_height(lo_level)


def pad_point(p: TowerPoint, target_level: int) -> tuple[int, ...]:
    """Coordinates of `p` zero-padded up to `target_level`, extra block last."""
    if target_level < p.level:
        raise SpaceError(
            f"cannot truncate: target level {target_level} below {p.level}"
        )
    return p.coords + (0,) * (target_level - p.level) + p.extra


def tower_distance(a: TowerPoint, b: TowerPoint) -> int:
    """Max metric on zero-padded coordinates, floored by the level penalty.
    The reference formula the row metric of `TowerSpace` is tested against."""
    if len(a.extra) != len(b.extra):
        raise SpaceError("mismatched extra-block dimensions")
    lo, hi = (a, b) if a.level <= b.level else (b, a)
    d_max = lattice_max_distance(pad_point(lo, hi.level), pad_point(hi, hi.level))
    return max(d_max, level_penalty(lo.level, hi.level))


def shift_distance(x: ShiftPoint, y: ShiftPoint) -> int:
    """Coordinatewise l1 difference plus the level difference.  The reference
    formula the row metric of `ShiftUnionSpace` is tested against."""
    xs = dict(x.support)
    ys = dict(y.support)
    total = abs(x.level - y.level)
    for i in xs.keys() | ys.keys():
        total += abs(xs.get(i, 0) - ys.get(i, 0))
    return total


# ---------------------------------------------------------------------------
# space specifications
# ---------------------------------------------------------------------------
#
# Every metric here is a plain metric on integer rows.  `rows(points)` gives
# one row per point, all of one shape, and a space's distance is l-infinity
# between rows, or l1 where the space sets `l1`.  Rows are only comparable
# when they come from one call, so callers pass every point they compare.


@dataclass(frozen=True, slots=True)
class SpaceSpec:
    """Which space is in play.  One subclass per kind, built by its own
    constructor; each defines `validate(p)`, `iter(window)`,
    `rows(points)`, and the per-level per-axis ranges `_blocks(window)`
    that `size` counts (or its own `size`)."""

    l1: ClassVar[bool] = False  # rows are measured in l1, else in l-infinity

    @property
    def row_metric(self) -> Callable[[Sequence[int], Sequence[int]], int]:
        """The metric on the rows of one `rows` call: l1 or l-infinity."""
        return l1_distance if self.l1 else lattice_max_distance

    def distance(self, p, q) -> int:
        return self.row_metric(*self.rows([p, q]))

    def point_rows(self, points: Iterable) -> Iterator[tuple]:
        """(point, row) for each of `points`.  A row takes its shape from
        every point in play, so the points are listed first."""
        points = list(points)
        return zip(points, self.rows(points))

    def size(self, w: Window) -> int:
        """Number of points `iter(w)` yields, without enumerating."""
        return sum(math.prod(map(len, axes)) for _, axes in self._blocks(w))


@dataclass(frozen=True, slots=True)
class TowerSpace(SpaceSpec):
    """Scaled lattices of growing dimension, each point optionally carrying
    an extra block of `factor_dim` axes.

    A row is the point zero-padded to the highest level in play, extra block
    last, then its level height T(level) = level(level-1)/2.  The level
    penalty is T(hi) - T(lo), so l-infinity on rows is `tower_distance`.
    """

    step_name: str = "identity"
    factor_dim: int = 0

    @property
    def step(self) -> Callable[[int], int]:
        return STEP_FUNCTIONS[self.step_name]

    def validate(self, p) -> None:
        """Raise SpaceError unless `p` is a point of this space."""
        if not isinstance(p, TowerPoint):
            raise SpaceError(f"expected TowerPoint, got {type(p).__name__}")
        if len(p.extra) != self.factor_dim:
            raise SpaceError(
                f"extra block has {len(p.extra)} coords, space wants "
                f"{self.factor_dim}"
            )
        s = self.step(p.level)
        for j, c in enumerate(p.coords):
            if c % s != 0:
                raise SpaceError(
                    f"coord {c} at axis {j} not divisible by step {s} "
                    f"of level {p.level}"
                )

    def _level_range(self, w: Window) -> Interval:
        if w.levels is None:
            raise WindowError("tower window needs a level range")
        lo, hi = w.levels
        if lo < 1:
            raise WindowError("tower levels start at 1")
        return lo, hi

    def _blocks(self, w: Window) -> Iterator[tuple[int, list[range]]]:
        lo, hi = self._level_range(w)
        for level in range(lo, hi + 1):
            s = self.step(level)
            axes = [multiples_in(*w.axis_box(j), s) for j in range(level)]
            for j in range(self.factor_dim):
                a, b = w.axis_box(hi + j)
                axes.append(range(a, b + 1))
            yield level, axes

    def size(self, w: Window) -> int:
        """`_blocks`' count, and its `WindowError`s in its order, with each
        level's scaled axes grouped by their box: a box shared by k axes
        counts its multiples of the level's step once, to the power k."""
        lo, hi = self._level_range(w)
        shared: dict[Interval, int] = {}  # box -> scaled axes it holds

        def add_axis(j: int) -> None:
            a, b = w.axis_box(j)
            shared[a, b] = shared.get((a, b), 0) + 1

        for j in range(lo):
            add_axis(j)
        extra = math.prod(len(range(a, b + 1)) for a, b in (
            w.axis_box(hi + j) for j in range(self.factor_dim)))
        total = 0
        for level in range(lo, hi + 1):
            if level > lo:
                add_axis(level - 1)
            s = self.step(level)
            total += extra * math.prod(len(multiples_in(a, b, s)) ** k
                                       for (a, b), k in shared.items())
        return total

    def iter(self, w: Window) -> Iterator[TowerPoint]:
        for level, axes in self._blocks(w):
            for combo in itertools.product(*axes):
                yield TowerPoint(level, combo[:level], combo[level:])

    def rows(self, points: Sequence[TowerPoint]) -> list[tuple[int, ...]]:
        if not all(isinstance(p, TowerPoint) for p in points):
            raise SpaceError("tower rows need TowerPoints")
        if len({len(p.extra) for p in points}) > 1:
            raise SpaceError("mismatched extra-block dimensions")
        top = max((p.level for p in points), default=1)
        return [p.coords + (0,) * (top - p.level) + p.extra
                + (level_height(p.level),) for p in points]


@dataclass(frozen=True, slots=True)
class ProductSpace(SpaceSpec):
    """Pairs of points of two l-infinity spaces under the max of the two
    factor distances.  Both factors enumerate the same window, and a row is
    the two factor rows joined."""

    first: SpaceSpec
    second: SpaceSpec

    def __post_init__(self) -> None:
        if self.first.l1 or self.second.l1:
            raise SpaceError("product factors must be measured in l-infinity")

    def validate(self, p) -> None:
        if not (isinstance(p, tuple) and len(p) == 2):
            raise SpaceError("expected a pair of factor points")
        self.first.validate(p[0])
        self.second.validate(p[1])

    def size(self, w: Window) -> int:
        return self.first.size(w) * self.second.size(w)

    def iter(self, w: Window) -> Iterator[tuple]:
        yield from itertools.product(self.first.iter(w), self.second.iter(w))

    def rows(self, points: Sequence[tuple]) -> list[tuple[int, ...]]:
        firsts = self.first.rows([p[0] for p in points])
        seconds = self.second.rows([p[1] for p in points])
        return [a + b for a, b in zip(firsts, seconds)]


@dataclass(frozen=True, slots=True)
class ShiftUnionSpace(SpaceSpec):
    """Finitely supported sequences under the l1-plus-level metric.  A row is
    (level, v_i, ...) over every index some point in play supports."""

    l1: ClassVar[bool] = True

    def validate(self, p) -> None:
        if not isinstance(p, ShiftPoint):
            raise SpaceError(f"expected ShiftPoint, got {type(p).__name__}")
        problem = p.membership_error()
        if problem is not None:
            raise SpaceError(problem)

    def _blocks(self, w: Window) -> Iterator[tuple[int, list[range]]]:
        if w.levels is None or w.max_support is None:
            raise WindowError("shift window needs levels and max_support")
        lo, hi = w.levels
        for level in range(lo, hi + 1):
            yield level, [multiples_in(*w.axis_box(i), i - level + 1)
                          for i in range(level, w.max_support + 1)]

    def iter(self, w: Window) -> Iterator[ShiftPoint]:
        for level, axes in self._blocks(w):
            for combo in itertools.product(*axes):
                yield ShiftPoint(level, tuple(
                    (i, v) for i, v in enumerate(combo, level) if v != 0))

    def rows(self, points: Sequence[ShiftPoint]) -> list[tuple[int, ...]]:
        if not all(isinstance(p, ShiftPoint) for p in points):
            raise SpaceError("shift-union rows need ShiftPoints")
        indices = sorted({i for p in points for i, _ in p.support})
        column = {i: c for c, i in enumerate(indices, 1)}
        out = []
        for p in points:
            row = [0] * (len(indices) + 1)
            row[0] = p.level
            for i, v in p.support:
                row[column[i]] = v
            out.append(tuple(row))
        return out


@dataclass(frozen=True, slots=True)
class LatticeSpace(SpaceSpec):
    """Integer vectors with per-axis steps under the max metric; points are
    their own rows."""

    axis_steps: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.axis_steps:
            raise SpaceError("plain-lattice needs axis_steps")
        if any(s < 1 for s in self.axis_steps):
            raise SpaceError("axis steps must be positive")

    def validate(self, p) -> None:
        if not (isinstance(p, tuple)
                and len(p) == len(self.axis_steps)
                and all(isinstance(c, int) for c in p)):
            raise SpaceError(
                f"expected a {len(self.axis_steps)}-tuple of ints"
            )
        for j, (c, s) in enumerate(zip(p, self.axis_steps)):
            if c % s != 0:
                raise SpaceError(
                    f"coord {c} at axis {j} not divisible by {s}"
                )

    def axes(self, w: Window) -> list[range]:
        """The values of each axis inside `w`, one range per axis."""
        return [multiples_in(*w.axis_box(j), s)
                for j, s in enumerate(self.axis_steps)]

    def _blocks(self, w: Window) -> Iterator[tuple[int, list[range]]]:
        yield 0, self.axes(w)

    def iter(self, w: Window) -> Iterator[tuple[int, ...]]:
        return itertools.product(*self.axes(w))

    def rows(self, points: Sequence[tuple]) -> Sequence[tuple]:
        """The input list itself: a lattice point is already its row."""
        return points

    def point_rows(self, points: Iterable[tuple]) -> Iterator[tuple]:
        """(point, point) for each of `points`, streamed: a lattice point is
        already its row, so the points are never listed."""
        return zip(*itertools.tee(points))


# ---------------------------------------------------------------------------
# functional entry points
# ---------------------------------------------------------------------------

def space_distance(spec: SpaceSpec, p, q) -> int:
    """The metric of `spec` evaluated at two of its points."""
    return spec.distance(p, q)


def iter_window(spec: SpaceSpec, w: Window) -> Iterator:
    return spec.iter(w)


# ---------------------------------------------------------------------------
# maps and coarse controls
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ControlFn:
    """A monotone integer control: identity, identity plus a constant, or a
    constant multiple."""

    kind: str = "identity"
    c: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("identity", "plus-const", "scaled"):
            raise SpaceError(f"unknown control kind {self.kind!r}")
        if self.kind == "scaled" and self.c < 0:
            raise SpaceError("scaled control must be non-decreasing")

    def __call__(self, d: int) -> int:
        if self.kind == "identity":
            return d
        if self.kind == "plus-const":
            return d + self.c
        return self.c * d


IDENTITY = ControlFn("identity")

_MAP_NAMES = ("phi-tower", "psi-staircase", "theta-interleave",
              "f-level-projection", "delta-witness", "pad")


@dataclass(frozen=True)
class MapSpec:
    """A named map between spaces with its two control functions."""

    name: str
    params: tuple[tuple[str, int], ...] = ()
    lower: ControlFn = IDENTITY
    upper: ControlFn = IDENTITY
    table: Mapping | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.name not in _MAP_NAMES:
            raise SpaceError(f"unknown map {self.name!r}")

    @classmethod
    def make(cls, name: str, params: Mapping[str, int] | None = None,
             lower: ControlFn = IDENTITY, upper: ControlFn = IDENTITY,
             table: Mapping | None = None) -> "MapSpec":
        return cls(name=name, params=tuple(sorted((params or {}).items())),
                   lower=lower, upper=upper, table=table)

    def param(self, key: str) -> int:
        for k, v in self.params:
            if k == key:
                return v
        raise SpaceError(f"map {self.name} missing parameter {key!r}")


def evaluate_map(m: MapSpec, p):
    """Apply a cataloged map to a point of its declared domain."""
    if m.name == "phi-tower":
        return _phi_tower(p, m.param("n"))
    if m.name == "psi-staircase":
        return _psi_staircase(p, m.param("n"), m.param("r"))
    if m.name == "theta-interleave":
        return _theta_interleave(p)
    if m.name == "f-level-projection":
        if not isinstance(p, ShiftPoint):
            raise SpaceError("f-level-projection expects a ShiftPoint")
        return (p.level,)
    if m.name == "pad":
        if not isinstance(p, TowerPoint):
            raise SpaceError("pad expects a TowerPoint")
        return pad_point(p, m.param("target"))
    # delta-witness: a finite lookup built by a witness search
    if m.table is None:
        raise SpaceError("delta-witness map carries no table")
    try:
        return m.table[p]
    except KeyError:
        raise SpaceError(f"point {p!r} outside the witness table domain")


def _phi_tower(p: TowerPoint, n: int) -> tuple[int, ...]:
    """Flatten a low-level tower point into a fixed lattice: zero-pad the
    scaled block to `n` axes, keep the extra block, and append the level
    height 0+1+...+(level-1)."""
    if not isinstance(p, TowerPoint):
        raise SpaceError("phi-tower expects a TowerPoint")
    if p.level > n:
        raise SpaceError(
            f"phi-tower with n={n} is undefined at level {p.level} > n"
        )
    return pad_point(p, n) + (level_height(p.level),)


def _psi_staircase(p: TowerPoint, n: int, r: int) -> tuple[int, ...]:
    """Flatten a mid-level tower point into the staircase lattice: zero-pad
    to `r` axes (all coordinates land in the level-(n+1) sublattice), keep
    the extra block, append the level height."""
    if not isinstance(p, TowerPoint):
        raise SpaceError("psi-staircase expects a TowerPoint")
    if not (n < p.level <= r):
        raise SpaceError(
            f"psi-staircase with n={n}, r={r} is undefined at level {p.level}"
        )
    return pad_point(p, r) + (level_height(p.level),)


def _theta_interleave(p) -> tuple[int, ...]:
    """Interleave a pair of equal-length integer tuples coordinatewise."""
    if not (isinstance(p, tuple) and len(p) == 2):
        raise SpaceError("theta-interleave expects a pair of tuples")
    x, y = p
    if len(x) != len(y):
        raise SpaceError("theta-interleave needs equal-length factors")
    out: list[int] = []
    for a, b in zip(x, y):
        out.append(a)
        out.append(b)
    return tuple(out)
