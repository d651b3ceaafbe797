"""Exact-integer point types, metrics, finite windows and the map catalog.

Every space here is a set of integer vectors with an exact metric: tower
spaces (a union of scaled lattices of growing dimension with a level-penalty
maximum metric), their products, plain lattices with per-axis scales, and the
shift-union space carried by finitely supported integer sequences with an
l1-plus-level metric.  All operations are pure and use arbitrary-precision
integers only; nothing here is ever approximated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence


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

@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


# Lattice points are plain tuples of ints; product-of-tower points are pairs
# of TowerPoints.
Point = object


# ---------------------------------------------------------------------------
# space specifications
# ---------------------------------------------------------------------------

_KINDS = ("tower", "tower-with-factor", "shift-union", "product-of-towers",
          "plain-lattice")


@dataclass(frozen=True, slots=True)
class SpaceSpec:
    """Which space is in play: kind, per-level step, factor dimension and
    metric flavor."""

    kind: str
    step_name: str = "identity"
    factor_dim: int = 0
    axis_steps: tuple[int, ...] = ()
    metric: str = "max"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SpaceError(f"unknown space kind {self.kind!r}")
        if self.kind == "shift-union" and self.metric != "l1-shift":
            raise SpaceError("shift-union space uses the l1-shift metric")
        if self.kind != "shift-union" and self.metric != "max":
            raise SpaceError(f"{self.kind} space uses the max metric")
        if self.kind == "plain-lattice" and not self.axis_steps:
            raise SpaceError("plain-lattice needs axis_steps")
        if any(s < 1 for s in self.axis_steps):
            raise SpaceError("axis steps must be positive")

    # -- constructors ------------------------------------------------------

    @classmethod
    def tower(cls, step: str = "identity") -> "SpaceSpec":
        return cls(kind="tower", step_name=step)

    @classmethod
    def tower_with_factor(cls, step: str, factor_dim: int) -> "SpaceSpec":
        return cls(kind="tower-with-factor", step_name=step,
                   factor_dim=factor_dim)

    @classmethod
    def shift_union(cls) -> "SpaceSpec":
        return cls(kind="shift-union", metric="l1-shift")

    @classmethod
    def product_of_towers(cls, step: str = "pow2") -> "SpaceSpec":
        return cls(kind="product-of-towers", step_name=step)

    @classmethod
    def lattice(cls, axis_steps: Sequence[int]) -> "SpaceSpec":
        return cls(kind="plain-lattice", axis_steps=tuple(axis_steps))

    # -- helpers -----------------------------------------------------------

    @property
    def step(self) -> Callable[[int], int]:
        return STEP_FUNCTIONS[self.step_name]

    def validate(self, p) -> None:
        """Raise SpaceError unless `p` is a point of this space."""
        if self.kind in ("tower", "tower-with-factor"):
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
        elif self.kind == "shift-union":
            if not isinstance(p, ShiftPoint):
                raise SpaceError(f"expected ShiftPoint, got {type(p).__name__}")
            problem = p.membership_error()
            if problem is not None:
                raise SpaceError(problem)
        elif self.kind == "product-of-towers":
            if not (isinstance(p, tuple) and len(p) == 2
                    and all(isinstance(q, TowerPoint) for q in p)):
                raise SpaceError("expected a pair of TowerPoints")
            factor = SpaceSpec.tower(self.step_name)
            factor.validate(p[0])
            factor.validate(p[1])
        else:  # plain-lattice
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
        if self.levels is not None and self.levels[0] > self.levels[1]:
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


def multiples_in(lo: int, hi: int, step: int) -> list[int]:
    """All multiples of `step` inside the inclusive interval [lo, hi]."""
    first = -((-lo) // step) * step
    return list(range(first, hi + 1, step))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def lattice_max_distance(p: Sequence[int], q: Sequence[int]) -> int:
    if len(p) != len(q):
        raise SpaceError("dimension mismatch")
    return max((abs(a - b) for a, b in zip(p, q)), default=0)


def level_penalty(lo_level: int, hi_level: int) -> int:
    """Sum lo + (lo+1) + ... + (hi-1); zero when the levels agree."""
    if lo_level == hi_level:
        return 0
    return (hi_level - 1 + lo_level) * (hi_level - lo_level) // 2


def pad_point(p: TowerPoint, target_level: int) -> tuple[int, ...]:
    """Coordinates of `p` zero-padded up to `target_level`, extra block last."""
    if target_level < p.level:
        raise SpaceError(
            f"cannot truncate: target level {target_level} below {p.level}"
        )
    return p.coords + (0,) * (target_level - p.level) + p.extra


def tower_distance(a: TowerPoint, b: TowerPoint) -> int:
    """Max metric on zero-padded coordinates, floored by the level penalty."""
    if len(a.extra) != len(b.extra):
        raise SpaceError("mismatched extra-block dimensions")
    lo, hi = (a, b) if a.level <= b.level else (b, a)
    d_max = lattice_max_distance(pad_point(lo, hi.level), pad_point(hi, hi.level))
    return max(d_max, level_penalty(lo.level, hi.level))


def shift_distance(x: ShiftPoint, y: ShiftPoint) -> int:
    """Coordinatewise l1 difference plus the level difference."""
    xs = dict(x.support)
    ys = dict(y.support)
    total = abs(x.level - y.level)
    for i in xs.keys() | ys.keys():
        total += abs(xs.get(i, 0) - ys.get(i, 0))
    return total


def space_distance(spec: SpaceSpec, p, q) -> int:
    """The metric of `spec` evaluated at two of its points."""
    if spec.kind in ("tower", "tower-with-factor"):
        return tower_distance(p, q)
    if spec.kind == "shift-union":
        return shift_distance(p, q)
    if spec.kind == "product-of-towers":
        return max(tower_distance(p[0], q[0]), tower_distance(p[1], q[1]))
    return lattice_max_distance(p, q)


# ---------------------------------------------------------------------------
# window enumeration
# ---------------------------------------------------------------------------

def enumerate_window(spec: SpaceSpec, w: Window) -> list:
    """Deterministic, duplicate-free list of the points of `spec` inside `w`,
    in lexicographic order by (level, coords, extra)."""
    return list(iter_window(spec, w))


def iter_window(spec: SpaceSpec, w: Window) -> Iterator:
    if spec.kind in ("tower", "tower-with-factor"):
        yield from _iter_tower(spec, w)
    elif spec.kind == "shift-union":
        yield from _iter_shift(spec, w)
    elif spec.kind == "product-of-towers":
        factor = SpaceSpec.tower(spec.step_name)
        pts = list(_iter_tower(factor, w))
        for a in pts:
            for b in pts:
                yield (a, b)
    else:
        yield from _iter_lattice(spec, w)


def _iter_tower(spec: SpaceSpec, w: Window) -> Iterator[TowerPoint]:
    if w.levels is None:
        raise WindowError("tower window needs a level range")
    lo, hi = w.levels
    if lo < 1:
        raise WindowError("tower levels start at 1")
    k = spec.factor_dim
    for level in range(lo, hi + 1):
        s = spec.step(level)
        axes = []
        for j in range(level):
            a, b = w.axis_box(j)
            axes.append(multiples_in(a, b, s))
        for j in range(k):
            a, b = w.axis_box(hi + j)
            axes.append(list(range(a, b + 1)))
        for combo in itertools.product(*axes):
            yield TowerPoint(level=level, coords=combo[:level],
                             extra=combo[level:])


def _iter_shift(spec: SpaceSpec, w: Window) -> Iterator[ShiftPoint]:
    if w.levels is None or w.max_support is None:
        raise WindowError("shift window needs levels and max_support")
    lo, hi = w.levels
    for level in range(lo, hi + 1):
        positions = list(range(level, w.max_support + 1))
        axes = []
        for i in positions:
            a, b = w.axis_box(i)
            axes.append(multiples_in(a, b, i - level + 1))
        for combo in itertools.product(*axes):
            support = tuple((i, v) for i, v in zip(positions, combo) if v != 0)
            yield ShiftPoint(level=level, support=support)


def _iter_lattice(spec: SpaceSpec, w: Window) -> Iterator[tuple[int, ...]]:
    axes = []
    for j, s in enumerate(spec.axis_steps):
        a, b = w.axis_box(j)
        axes.append(multiples_in(a, b, s))
    yield from itertools.product(*axes)


def window_size(spec: SpaceSpec, w: Window) -> int:
    """Number of points `enumerate_window` would produce, without enumerating."""
    if spec.kind in ("tower", "tower-with-factor"):
        if w.levels is None:
            raise WindowError("tower window needs a level range")
        lo, hi = w.levels
        total = 0
        for level in range(lo, hi + 1):
            s = spec.step(level)
            n = 1
            for j in range(level):
                a, b = w.axis_box(j)
                n *= len(multiples_in(a, b, s))
            for j in range(spec.factor_dim):
                a, b = w.axis_box(hi + j)
                n *= b - a + 1
            total += n
        return total
    if spec.kind == "shift-union":
        if w.levels is None or w.max_support is None:
            raise WindowError("shift window needs levels and max_support")
        lo, hi = w.levels
        total = 0
        for level in range(lo, hi + 1):
            n = 1
            for i in range(level, w.max_support + 1):
                a, b = w.axis_box(i)
                n *= len(multiples_in(a, b, i - level + 1))
            total += n
        return total
    if spec.kind == "product-of-towers":
        return window_size(SpaceSpec.tower(spec.step_name), w) ** 2
    n = 1
    for j, s in enumerate(spec.axis_steps):
        a, b = w.axis_box(j)
        n *= len(multiples_in(a, b, s))
    return n


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
    return pad_point(p, n) + (p.level * (p.level - 1) // 2,)


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
    return pad_point(p, r) + (p.level * (p.level - 1) // 2,)


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
