"""Empirical verification of cover schemes, witnesses, coarse controls and
the exhaustive 1-D cluster-cover search.

All measurements are exact integers.  Two independent measurement paths
exist: the pointwise path enumerates every window point and groups it by the
scheme's classification, while the run path (for schemes that can describe
their cells as maximal runs along one long axis) validates the reported runs
against the pointwise classifier at their endpoints and midpoints and then
measures from the run arithmetic.  On windows small enough for both, the two
paths are required to agree, and the tests enforce that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .covers import CoverScheme, FiniteFamily
from .spaces import (  # noqa: F401  (space_distance is kept bound)
    ControlFn,
    IDENTITY,
    LatticeSpace,
    MapSpec,
    ShiftPoint,
    SpaceError,
    SpaceSpec,
    TowerPoint,
    Window,
    evaluate_map,
    iter_window,
    l1_distance,
    lattice_max_distance,
    multiples_in,
    sorted_min_gap,
    space_distance,
    window_size,
)

# bench/tracing.py replaces `iter_window`, `lattice_max_distance` and
# `space_distance` in this module to time those layers, so all three stay
# bound here and are looked up at call time.


class VerifyError(RuntimeError):
    """Internal inconsistency or an unusable verification request."""


class BudgetExceeded(VerifyError):
    """The window is larger than the allowed enumeration budget."""


RUN_AXIS_THRESHOLD = 4096  # moving-axis extents beyond this prefer the run path


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def point_to_json(p):
    if isinstance(p, TowerPoint):
        return {"level": p.level, "coords": list(p.coords),
                "extra": list(p.extra)}
    if isinstance(p, ShiftPoint):
        return {"level": p.level,
                "support": {str(i): v for i, v in p.support}}
    if isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], TowerPoint):
        return [point_to_json(p[0]), point_to_json(p[1])]
    if isinstance(p, tuple):
        return list(p)
    return p


@dataclass
class ColorRecord:
    color: int
    cells_seen: int
    max_diameter: int | None
    min_cross_cell_separation: int | None
    separation_pass: bool
    bound_pass: bool

    def to_json(self) -> dict:
        return {
            "color": self.color,
            "cells_seen": self.cells_seen,
            "max_diameter": self.max_diameter,
            "min_cross_cell_separation": self.min_cross_cell_separation,
            "separation_pass": self.separation_pass,
            "bound_pass": self.bound_pass,
        }


@dataclass
class VerificationReport:
    per_color: list[ColorRecord]
    uncovered_sample: list
    uncovered_total: int
    error_sample: list[str]
    error_total: int
    points_seen: int
    window: Window
    verdict: str
    mode: str

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "pass-with-empty-color")

    def record(self, color: int) -> ColorRecord:
        return self.per_color[color]

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "points_seen": self.points_seen,
            "uncovered_total": self.uncovered_total,
            "uncovered_sample": [point_to_json(p) for p in self.uncovered_sample],
            "error_total": self.error_total,
            "error_sample": self.error_sample,
            "window": self.window.to_json(),
            "per_color": [r.to_json() for r in self.per_color],
        }


# ---------------------------------------------------------------------------
# pointwise measurement
# ---------------------------------------------------------------------------
#
# Cells are measured on the space's rows (`SpaceSpec.rows`), computed once
# for the whole window so that every row has one shape.  A cell's summary is
# its bounding box of rows.  Under the max metric (lattice, tower and product
# rows) the diameter of ANY row set equals its widest box extent and the
# largest per-axis gap between two boxes bounds their distance from below;
# under the l1 metric (shift-union rows) the gaps sum instead and diameters
# are measured pairwise.
#
# The box's axis 0 is the sort axis of the separation sweep: its gap between
# two cells never exceeds their distance under either metric.  For tower and
# product rows it is the first padded coordinate, for shift-union rows the
# level.  Only nearby cells are bounded with the box gap, and only those the
# bound cannot rule out are measured exactly.


def _gap(a: tuple[int, int], b: tuple[int, int]) -> int:
    if a[0] > b[1]:
        return a[0] - b[1]
    if b[0] > a[1]:
        return b[0] - a[1]
    return 0


def _box(rows: list) -> list[tuple[int, int]]:
    return [(min(vals), max(vals)) for vals in zip(*rows)]


def _max_lower_bound(a, b) -> int:
    best = 0
    for (lo_a, hi_a), (lo_b, hi_b) in zip(a, b):
        if lo_a - hi_b > best:
            best = lo_a - hi_b
        elif lo_b - hi_a > best:
            best = lo_b - hi_a
    return best


def _l1_lower_bound(a, b) -> int:
    return sum(_gap(x, y) for x, y in zip(a, b))


def _row_distance(l1: bool):
    """The row metric, looked up at call time so that tracing shims which
    replace this module's `lattice_max_distance` see the max-metric calls."""
    return l1_distance if l1 else lattice_max_distance


def _min_separation_points(cells: list[list], boxes: list,
                           l1: bool) -> int | None:
    """Exact minimum distance between distinct cells of rows, by sweep and
    prune.

    Cells are visited in ascending order of their box's axis-0 `lo`.  For a
    cell with axis-0 interval (lo_a, hi_a) and any later cell with (lo_b,
    hi_b), lo_b >= lo_a, so the interval gap is max(0, lo_b - hi_a); it
    bounds their distance from below and never decreases along the order.
    Once lo_b - hi_a reaches the best distance so far, no later cell can come
    closer to this one and its scan stops.  Inside the scan, a pair whose
    box lower bound already reaches the best is skipped, and every other
    pair is measured exactly through the metric.  `best` only falls, so
    every pair left unmeasured is at least the final `best` apart and the
    result is the exact minimum; a distance of 0 ends the sweep at once.
    """
    if len(cells) < 2:
        return None
    order = sorted(range(len(cells)), key=lambda i: boxes[i][0][0])
    los = [boxes[i][0][0] for i in order]
    his = [boxes[i][0][1] for i in order]
    sorted_boxes = [boxes[i] for i in order]
    pts = [cells[i] for i in order]
    lower_bound = _l1_lower_bound if l1 else _max_lower_bound
    distance = _row_distance(l1)
    best = float("inf")
    for a in range(len(order)):
        hi_a = his[a]
        box_a = sorted_boxes[a]
        for b in range(a + 1, len(order)):
            if los[b] - hi_a >= best:
                break
            if lower_bound(box_a, sorted_boxes[b]) >= best:
                continue
            d = min(distance(p, q) for p in pts[a] for q in pts[b])
            if d < best:
                if d == 0:
                    return 0
                best = d
    return best


def _diameter(rows: list, box, l1: bool) -> int:
    if not l1:
        return max((hi - lo for lo, hi in box), default=0)
    return max((l1_distance(p, q) for i, p in enumerate(rows)
                for q in rows[i + 1:]), default=0)


def _measure_color_points(cells: dict, l1: bool):
    """Return (cells_seen, max_diameter, min_separation) for one color whose
    cells are {key: [row, ...]}."""
    if not cells:
        return 0, None, None
    row_lists = list(cells.values())
    boxes = [_box(rows) for rows in row_lists]
    diam = max(_diameter(rows, box, l1) for rows, box in zip(row_lists, boxes))
    sep = _min_separation_points(row_lists, boxes, l1)
    return len(cells), diam, sep


# ---------------------------------------------------------------------------
# run-path measurement
# ---------------------------------------------------------------------------

def _run_gap(runs_a, runs_b) -> int:
    best = None
    for a0, a1 in runs_a:
        for b0, b1 in runs_b:
            g = max(0, b0 - a1, a0 - b1)
            if best is None or g < best:
                best = g
            if best == 0:
                return 0
    return best


class _FiberSet:
    """A set of fibers (tuples over the non-moving axes) with product-shape
    detection for exact max-metric gaps."""

    def __init__(self, fibers: list[tuple]):
        unique = set(fibers)
        self.had_duplicates = len(unique) < len(fibers)
        self.fibers = sorted(unique)
        self.axes = [sorted(set(vals)) for vals in zip(*self.fibers)]
        count = 1
        for vals in self.axes:
            count *= len(vals)
        self.is_product = count == len(self.fibers)
        self.bbox = [(vals[0], vals[-1]) for vals in self.axes]

    @cached_property
    def fiber_set(self) -> frozenset:
        """Built on first use: product pairs never need it."""
        return frozenset(self.fibers)

    def min_cross_gap(self, other: "_FiberSet") -> int:
        """min over pairs (one fiber from each) of the max-metric distance.

        For two product sets the per-axis minimum gaps are independent, so
        their maximum is exact; it is 0 exactly when every axis shares a
        value, that is when the sets share a fiber."""
        if self.is_product and other.is_product:
            return max((sorted_min_gap(a, b)
                        for a, b in zip(self.axes, other.axes)), default=0)
        if not self.fiber_set.isdisjoint(other.fiber_set):
            return 0
        return min(lattice_max_distance(f, g)
                   for f in self.fibers for g in other.fibers)

    def min_inner_gap(self) -> int | None:
        """min over distinct cells of the class: two cells on one fiber are
        at distance 0, otherwise the closest distinct-fiber pair."""
        if self.had_duplicates:
            return 0
        if len(self.fibers) < 2:
            return None
        if self.is_product:
            best = None
            for vals in self.axes:
                for a, b in zip(vals, vals[1:]):
                    if best is None or b - a < best:
                        best = b - a
            return best
        best = None
        for i, f in enumerate(self.fibers):
            for g in self.fibers[i + 1:]:
                d = lattice_max_distance(f, g)
                if best is None or d < best:
                    best = d
        return best

    def bbox_gap(self, other: "_FiberSet") -> int:
        return max((_gap(a, b) for a, b in zip(self.bbox, other.bbox)),
                   default=0)


def _measure_color_runs(cells: dict):
    """Measure one color whose cells are {key: (fiber, [(t0, t1), ...])}.

    Cells sharing an identical run layout are grouped into classes; the
    distance between two classes is max(fiber-set gap, run gap), which is
    exact because cells are single-fiber products {fiber} x runs.
    """
    if not cells:
        return 0, None, None
    diam = 0
    by_sig: dict[tuple, list[tuple]] = {}
    for fiber, runs in cells.values():
        sig = tuple(runs)
        t_extent = runs[-1][1] - runs[0][0]
        diam = max(diam, t_extent)
        by_sig.setdefault(sig, []).append(fiber)

    classes = [(sig, _FiberSet(fibers)) for sig, fibers in by_sig.items()]
    best: int | None = None
    for idx, (sig_a, fs_a) in enumerate(classes):
        inner = fs_a.min_inner_gap()
        if inner is not None and (best is None or inner < best):
            best = inner
        for sig_b, fs_b in classes[idx + 1:]:
            tg = _run_gap(sig_a, sig_b)
            lb = max(fs_a.bbox_gap(fs_b), tg)
            if best is not None and lb >= best:
                continue
            cand = max(fs_a.min_cross_gap(fs_b), tg)
            if best is None or cand < best:
                best = cand
    return len(cells), diam, best


# ---------------------------------------------------------------------------
# verify_cover
# ---------------------------------------------------------------------------

def verify_cover(s: CoverScheme, spec: SpaceSpec, w: Window, *,
                 mode: str = "auto",
                 point_budget: int | None = None,
                 max_uncovered_listed: int = 20) -> VerificationReport:
    """Materialize `s` over `w` and measure, per color, the exact maximum
    cell diameter and minimum cross-cell separation against the declared
    values, plus full coverage.

    `mode` picks the measurement path: "pointwise" enumerates every point,
    "runs" uses the scheme's run description of its cells (validated against
    the pointwise classifier at run endpoints and midpoints), and "auto"
    chooses runs only when the moving axis is too long to enumerate.
    """
    if mode not in ("auto", "pointwise", "runs"):
        raise VerifyError(f"unknown mode {mode!r}")
    runs_shaped = (isinstance(spec, LatticeSpace)
                   and s.fiber_runs is not None
                   and s.moving_axis is not None
                   and s.moving_axis < len(spec.axis_steps))
    runs_possible = runs_shaped and spec.axis_steps[s.moving_axis] == 1
    if mode == "runs" and not runs_possible:
        raise VerifyError("scheme does not describe runs on a unit-step "
                          "lattice axis")
    long_axis = (mode == "auto" and runs_shaped
                 and _moving_extent(s, w) > RUN_AXIS_THRESHOLD)
    if long_axis and not runs_possible:
        # too long to enumerate, and the run path would count the points
        # the step leaves out
        raise VerifyError(
            f"moving axis {s.moving_axis} has step "
            f"{spec.axis_steps[s.moving_axis]}: too long to enumerate and "
            f"the run path needs a unit-step lattice axis; use "
            f"mode='pointwise' to enumerate it")
    use_runs = runs_possible and (mode == "runs" or long_axis)
    if not use_runs:
        size = window_size(spec, w)
        if point_budget is not None and size > point_budget:
            raise BudgetExceeded(
                f"window holds {size} points, budget is {point_budget}"
            )
        return _verify_pointwise(s, spec, w, max_uncovered_listed)
    return _verify_runs(s, spec, w, max_uncovered_listed, point_budget)


def _moving_extent(s: CoverScheme, w: Window) -> int:
    lo, hi = w.axis_box(s.moving_axis)
    return hi - lo + 1


def _finish_report(s, w, cells, measure, uncovered, uncovered_total,
                   errors, error_total, points_seen, mode,
                   max_listed) -> VerificationReport:
    records = []
    for color in range(s.colors):
        seen, diam, sep = measure(cells.get(color, {}))
        declared_sep = s.declared_separation.get(color)
        declared_bound = s.declared_bound.get(color)
        sep_ok = sep is None or declared_sep is None or sep >= declared_sep
        bound_ok = diam is None or declared_bound is None or diam <= declared_bound
        records.append(ColorRecord(
            color=color, cells_seen=seen, max_diameter=diam,
            min_cross_cell_separation=sep,
            separation_pass=sep_ok, bound_pass=bound_ok,
        ))
    if (uncovered_total or error_total
            or not all(r.separation_pass and r.bound_pass for r in records)):
        verdict = "fail"
    elif points_seen == 0 or any(r.cells_seen == 0 for r in records):
        verdict = "pass-with-empty-color"
    else:
        verdict = "pass"
    return VerificationReport(
        per_color=records,
        uncovered_sample=uncovered[:max_listed],
        uncovered_total=uncovered_total,
        error_sample=errors[:max_listed],
        error_total=error_total,
        points_seen=points_seen,
        window=w,
        verdict=verdict,
        mode=mode,
    )


def _verify_pointwise(s, spec, w, max_listed) -> VerificationReport:
    points = list(iter_window(spec, w))
    cells: dict[int, dict] = {}
    uncovered: list = []
    errors: list[str] = []
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

    def measure(per_key: dict):
        return _measure_color_points(per_key, spec.l1)

    return _finish_report(s, w, cells, measure, uncovered, len(uncovered),
                          errors, len(errors), len(points), "pointwise",
                          max_listed)


def _verify_runs(s, spec, w, max_listed, point_budget) -> VerificationReport:
    mov = s.moving_axis
    t_lo, t_hi = w.axis_box(mov)
    fiber_axes = [i for i in range(len(spec.axis_steps)) if i != mov]
    value_lists = []
    for i in fiber_axes:
        a, b = w.axis_box(i)
        value_lists.append(multiples_in(a, b, spec.axis_steps[i]))
    fiber_count = 1
    for vals in value_lists:
        fiber_count *= len(vals)
    if point_budget is not None and fiber_count > point_budget:
        raise BudgetExceeded(
            f"window holds {fiber_count} fibers, budget is {point_budget}"
        )

    cells: dict[int, dict] = {}
    uncovered: list = []
    uncovered_total = 0
    errors: list[str] = []
    points_seen = 0

    classify = s.classify
    for fiber in itertools.product(*value_lists):
        head, tail = fiber[:mov], fiber[mov:]
        runs = s.fiber_runs(fiber, t_lo, t_hi)
        expected = t_lo
        for t0, t1, color, key in runs:
            if t0 != expected or t1 < t0 or t1 > t_hi:
                raise VerifyError(
                    f"fiber {fiber}: runs do not tile [{t_lo},{t_hi}]"
                )
            expected = t1 + 1
            points_seen += t1 - t0 + 1
            if color is None:
                uncovered_total += t1 - t0 + 1
                if len(uncovered) < max_listed:
                    uncovered.append(head + (t0,) + tail)
                continue
            # both endpoints and the midpoint, each once, in ascending order
            if t1 - t0 >= 2:
                probes = (t0, (t0 + t1) // 2, t1)
            elif t1 > t0:
                probes = (t0, t1)
            else:
                probes = (t0,)
            claim = (color, key)
            for t in probes:
                probe = classify(head + (t,) + tail)
                if probe != claim:
                    raise VerifyError(
                        f"run claim ({color}, {key}) at t={t} disagrees with "
                        f"classify -> {probe}"
                    )
            entry = cells.setdefault(color, {}).get(key)
            if entry is None:
                cells[color][key] = (fiber, [(t0, t1)])
            else:
                if entry[0] != fiber:
                    raise VerifyError(
                        "run-path verification needs single-fiber cells; "
                        'use mode="pointwise" for this scheme'
                    )
                entry[1].append((t0, t1))
        if expected != t_hi + 1:
            raise VerifyError(
                f"fiber {fiber}: runs stop at {expected - 1} before {t_hi}"
            )

    def measure(per_key: dict):
        return _measure_color_runs(per_key)

    return _finish_report(s, w, cells, measure, uncovered, uncovered_total,
                          errors, len(errors), points_seen, "runs",
                          max_listed)


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def materialize(s: CoverScheme, spec: SpaceSpec, w: Window) -> dict[int, FiniteFamily]:
    """Group the window's points into one FiniteFamily per color, in
    deterministic order.  Uncovered points are simply absent."""
    grouped: dict[int, dict] = {}
    for p in iter_window(spec, w):
        res = s.classify(p)
        if res is None:
            continue
        color, key = res
        grouped.setdefault(color, {}).setdefault(key, []).append(p)
    return {color: FiniteFamily.of(per_key)
            for color, per_key in sorted(grouped.items())}


# ---------------------------------------------------------------------------
# fiber witnesses
# ---------------------------------------------------------------------------

@dataclass
class WitnessResult:
    records: list[tuple]          # (fiber, witness-or-None)
    all_fibers_witnessed: bool

    def delta_table(self) -> dict:
        """The map fiber -> fiber ++ witness induced by the search."""
        table = {}
        for fiber, wit in self.records:
            if wit is None:
                continue
            table[fiber] = tuple(fiber) + tuple(wit)
        return table

    def to_json(self) -> dict:
        return {
            "all_fibers_witnessed": self.all_fibers_witnessed,
            "fibers": len(self.records),
            "witnessed": sum(1 for _, wit in self.records if wit is not None),
            "records": [
                {"fiber": point_to_json(f), "witness": point_to_json(wit)}
                for f, wit in self.records[:50]
            ],
        }


def find_fiber_witnesses(families: Sequence, fibers: Sequence,
                         box: Sequence[tuple]) -> WitnessResult:
    """For each fiber, scan the box in lexicographic order for a point
    covered by none of the families; every reported witness is re-checked
    against all families before it is accepted.

    Each family is a CoverScheme over the box lattice, or a callable
    fiber -> CoverScheme when the family varies along the fibers.
    """
    box_points = sorted(box)
    records: list[tuple] = []
    for fiber in fibers:
        schemes = [fam(fiber) if callable(fam) and not isinstance(fam, CoverScheme)
                   else fam for fam in families]
        witness = None
        for p in box_points:
            if all(sch.classify(p) is None for sch in schemes):
                witness = p
                break
        if witness is not None:
            for sch in schemes:
                if sch.classify(witness) is not None:
                    raise VerifyError("witness re-check failed")
        records.append((fiber, witness))
    return WitnessResult(
        records=records,
        all_fibers_witnessed=all(wit is not None for _, wit in records),
    )


# ---------------------------------------------------------------------------
# coarse controls
# ---------------------------------------------------------------------------

@dataclass
class ControlReport:
    pairs_checked: int
    violations: list
    max_observed_stretch: int | None

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "pairs_checked": self.pairs_checked,
            "violations": len(self.violations),
            "violation_sample": [
                {"x": point_to_json(x), "y": point_to_json(y),
                 "d_domain": dx, "d_image": dy}
                for x, y, dx, dy in self.violations[:20]
            ],
            "max_observed_stretch": self.max_observed_stretch,
        }


def _measured(dist, points: Sequence):
    """(values, metric) that measure `points` under `dist`: a SpaceSpec's
    rows and row metric, or the points themselves under a callable."""
    if isinstance(dist, SpaceSpec):
        return dist.rows(points), _row_distance(dist.l1)
    return points, dist


def check_coarse_control(f, domain_dist, codomain_dist,
                         w: Window | None = None, *,
                         points: Sequence | None = None,
                         lower: ControlFn | None = None,
                         upper: ControlFn | None = None,
                         max_violations: int = 100) -> ControlReport:
    """Check lower(d(x,y)) <= d(f(x), f(y)) <= upper(d(x,y)) over all window
    pairs; reports violating pairs and the largest observed additive stretch
    d(f(x), f(y)) - d(x, y).

    `domain_dist` and `codomain_dist` are SpaceSpecs (each measures its
    side on rows computed once) or distance callables; windows can only be
    enumerated from a SpaceSpec domain, otherwise pass `points` explicitly.
    """
    if isinstance(f, MapSpec):
        fn = lambda p: evaluate_map(f, p)  # noqa: E731
        lower = f.lower if lower is None else lower
        upper = f.upper if upper is None else upper
    else:
        fn = f
        lower = IDENTITY if lower is None else lower
        upper = IDENTITY if upper is None else upper
    if points is None:
        if w is None or not isinstance(domain_dist, SpaceSpec):
            raise VerifyError("need a window over a SpaceSpec domain or an "
                              "explicit point list")
        points = list(iter_window(domain_dist, w))
    images = [fn(p) for p in points]
    xs, d_dom = _measured(domain_dist, points)
    ys, d_cod = _measured(codomain_dist, images)
    violations = []
    stretch: int | None = None
    pairs = 0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            pairs += 1
            dx = d_dom(xs[i], xs[j])
            dy = d_cod(ys[i], ys[j])
            s = dy - dx
            if stretch is None or s > stretch:
                stretch = s
            if not (lower(dx) <= dy <= upper(dx)):
                if len(violations) < max_violations:
                    violations.append((points[i], points[j], dx, dy))
    return ControlReport(pairs_checked=pairs, violations=violations,
                         max_observed_stretch=stretch)


# ---------------------------------------------------------------------------
# exhaustive 1-D cluster-cover search
# ---------------------------------------------------------------------------

@dataclass
class OracleOutcome:
    status: str                      # "feasible" | "infeasible" | "inconclusive"
    assignment: list | None          # [(x, color, cluster_index), ...]
    nodes_explored: int
    window: tuple[int, int]
    params: dict

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "nodes_explored": self.nodes_explored,
            "window": list(self.window),
            "params": self.params,
            "assignment": ([[x, c, g] for x, c, g in self.assignment]
                           if self.assignment is not None else None),
        }

    @classmethod
    def from_json(cls, body: dict) -> "OracleOutcome":
        assignment = body.get("assignment")
        return cls(
            status=body["status"],
            assignment=([tuple(row) for row in assignment]
                        if assignment is not None else None),
            nodes_explored=body["nodes_explored"],
            window=tuple(body["window"]),
            params=dict(body["params"]),
        )


def oracle_1d_nocover(n: int, R: int, colors: int,
                      window: tuple[int, int],
                      node_budget: int | None = None) -> OracleOutcome:
    """Exhaustively decide whether the integer window splits into `colors`
    classes of clusters with diameter <= R and same-class cluster distance
    >= n.

    Depth-first over the sorted points.  Each color keeps at most one open
    cluster: a same-color cluster interleaved with another of its own color
    could be split at the interleaver into pieces 2n apart, so restricting to
    non-interleaved same-color clusters loses no solutions.  Failed states
    are memoized after clamping both cluster bounds at the horizon where
    joining (R) and reopening (n) stop being distinguishable.
    """
    if colors not in (1, 2):
        raise VerifyError("the exhaustive search supports 1 or 2 colors")
    if n < 1 or R < 1:
        raise VerifyError("n and R must be >= 1")
    lo, hi = window
    points = list(range(lo, hi + 1))
    params = {"n": n, "R": R, "colors": colors}
    if not points:
        return OracleOutcome("feasible", [], 0, window, params)

    failed: set = set()
    nodes = 0

    def canon(state, p):
        out = []
        for st in state:
            if st is None:
                out.append(None)
                continue
            c_lo, c_hi = st
            if c_lo < p - R and c_hi <= p - n:
                out.append(None)  # dead cluster: behaves like no cluster
                continue
            out.append((max(c_lo - p, -(R + 1)), max(c_hi - p, -n)))
        return tuple(sorted(out, key=lambda v: (v is None, v)))

    def moves(state, clusters, p):
        """Yield the (next state, next clusters, assignment entry) moves at
        `p` in the order the search tries them."""
        for c in range(colors):
            st = state[c]
            options = []
            if st is None:
                options.append(((p, p), clusters[c]))
            else:
                c_lo, c_hi = st
                if p - c_lo <= R:
                    options.append(((c_lo, p), clusters[c] - 1))
                if p - c_hi >= n:
                    options.append(((p, p), clusters[c]))
            for new_st, cluster_id in options:
                next_state = list(state)
                next_state[c] = new_st
                next_clusters = list(clusters)
                next_clusters[c] = cluster_id + 1
                yield (tuple(next_state), tuple(next_clusters),
                       (p, c, cluster_id))

    # Explicit-stack depth-first search over frames (idx, memo key, moves);
    # `assignment` holds the move in progress of each frame, so the depth is
    # bounded by memory, not by the recursion limit.
    assignment: list = []
    stack: list = []
    idx, state, clusters = 0, (None,) * colors, (0,) * colors
    while idx < len(points):
        p = points[idx]
        key = (idx, canon(state, p))
        if key not in failed:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return OracleOutcome("inconclusive", None, nodes, window,
                                     params)
            stack.append((idx, key, moves(state, clusters, p)))
        while stack:
            frame_idx, frame_key, frame_moves = stack[-1]
            del assignment[len(stack) - 1:]  # this frame's failed move
            move = next(frame_moves, None)
            if move is not None:
                state, clusters, entry = move
                assignment.append(entry)
                idx = frame_idx + 1
                break
            failed.add(frame_key)
            stack.pop()
        else:
            return OracleOutcome("infeasible", None, nodes, window, params)
    return OracleOutcome("feasible", assignment, nodes, window, params)


def assignment_scheme(outcome: OracleOutcome, n: int, R: int,
                      colors: int) -> CoverScheme:
    """Wrap a feasible oracle assignment as a lookup cover scheme on the 1-D
    lattice so verify_cover can re-check it independently."""
    if outcome.assignment is None:
        raise VerifyError("no assignment to wrap")
    table = {(x,): (c, (c, g)) for x, c, g in outcome.assignment}

    def classify(p):
        return table.get(p)

    return CoverScheme(
        classify=classify, colors=colors,
        declared_separation={c: n for c in range(colors)},
        declared_bound={c: R for c in range(colors)},
        domain_note="materialized oracle assignment",
    )
