"""Empirical verification of cover schemes, witnesses, coarse controls and
the exhaustive 1-D cluster-cover search.

All measurements are exact integers, and every distance is a `SpaceSpec`
row metric: l-infinity or l1 on the integer rows one `rows` call builds.  A
coarse-control check measures the images of a map the same way, under its
codomain space, or as their own rows under l-infinity when it has none; no
function here takes a distance callable.  Two independent measurement paths
exist: the pointwise path enumerates every window point and groups it by the
scheme's classification, while the run path (for schemes that can describe
their cells as maximal runs along one long axis) validates the reported runs
against the pointwise classifier at their endpoints and midpoints and then
measures from the run arithmetic.  It keeps no record per cell beyond one
int in a flat array, the hash of its claim, filed once per fiber however
many of its claims share it: as each fiber finishes, the fiber is appended
to the run layout of each of its cells, so cells are grouped by layout, and
once the window is done the hashes are checked for a cell on two fibers: a
repeated hash is settled by walking the fibers again and comparing their
claims.  A layout whose fibers form a product of per-axis values is measured
as one class, and one whose fibers are no product as one class per fiber.
Both paths count a point whose color lies outside [0, colors) as an error.
On windows small enough for both, the two paths are required to agree, and
the tests enforce that.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from array import array
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

from .covers import CoverScheme
from .spaces import space_distance  # noqa: F401  (kept bound, see below)
from .spaces import (
    LatticeSpace,
    MapSpec,
    SpaceError,
    SpaceSpec,
    Window,
    evaluate_map,
    iter_window,
    l1_distance,
    lattice_max_distance,
    point_to_json,
    sorted_min_gap,
)

# bench/tracing.py replaces `iter_window`, `lattice_max_distance` and
# `space_distance` in this module to time those layers, so all three stay
# bound here and are looked up at call time.  Only the exact step of
# l-infinity separation passes through `lattice_max_distance`; diameters and
# coarse-control pairs are measured column by column, and nothing here calls
# `space_distance`.


class VerifyError(RuntimeError):
    """Internal inconsistency or an unusable verification request."""


class BudgetExceeded(VerifyError):
    """The work a request asks for is over its budget."""


def check_budget(budget: int | None, work: int, what: str) -> None:
    """Refuse `work`, counted in its own units and described by `what`, when
    it exceeds `budget`; None is no budget."""
    if budget is not None and work > budget:
        raise BudgetExceeded(f"{what}, budget is {budget}")


class MultiFiberCell(VerifyError):
    """A cell reaches over more than one fiber, which the run path cannot
    measure."""


RUN_AXIS_THRESHOLD = 4096  # moving-axis extents beyond this prefer the run path
MARK_BUCKETS = 64  # a power of two: a hash picks its bucket by its low bits


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class ColorRecord:
    color: int
    cells_seen: int
    max_diameter: int | None
    min_cross_cell_separation: int | None
    separation_pass: bool
    bound_pass: bool

    def to_json(self) -> dict:
        return asdict(self)


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
# Cells are measured on the space's rows (`SpaceSpec.point_rows`), which all
# have one shape: a lattice point is its own row, while tower, product and
# shift-union rows take their shape from every point of the window.  A cell
# keeps its rows as one flat list of coordinates, `dim` per row, so a window
# holds no tuple per point.  A cell's summary is its bounding box of rows,
# taken from the per-axis slices `flat[k::dim]`.  Under the max metric
# (lattice, tower and product rows) the diameter of ANY row set equals its
# widest box extent; under the l1 metric (shift-union rows) diameters are
# measured pairwise, on the same slices as columns.
#
# Separation rests on one fact: the gap between two points, or two boxes, on
# any single axis never exceeds their distance under either metric.  So the
# box gaps of two cells bound their distance from below (their max under l∞,
# their sum under l1), and so does the gap of two rows on any one axis.  The
# box's axis 0 is the sort axis of the separation sweep.  For tower and
# product rows it is the first padded coordinate, for shift-union rows the
# level.


def _gap(a: tuple[int, int], b: tuple[int, int]) -> int:
    if a[0] > b[1]:
        return a[0] - b[1]
    if b[0] > a[1]:
        return b[0] - a[1]
    return 0


def _columns(flat: list, dim: int) -> list[list]:
    return [flat[k::dim] for k in range(dim)]


def _rows(flat: list, dim: int) -> Iterator[tuple]:
    """The row tuples of a flat cell, in the order they were filed."""
    return zip(*[iter(flat)] * dim)


def _box(flat: list, dim: int) -> list[tuple[int, int]]:
    return [(min(col), max(col)) for col in _columns(flat, dim)]


def _near(cand, boxes: list, box_a, best, axes) -> list:
    """The indices in `cand` whose box lies closer than `best` to `box_a` on
    each axis in `axes`: the others are at least `best` away."""
    for k in axes:
        lo_a, hi_a = box_a[k]
        cand = [b for b in cand
                if boxes[b][k][0] - hi_a < best and lo_a - boxes[b][k][1] < best]
    return cand


def _row_distance(l1: bool):
    """The row metric, looked up at call time so that tracing shims which
    replace this module's `lattice_max_distance` see the max-metric calls."""
    return l1_distance if l1 else lattice_max_distance


def _min_separation_points(cells: list[list], boxes: list, dim: int,
                           l1: bool) -> int | None:
    """Exact minimum distance between distinct cells, each a flat list of
    rows of `dim` coordinates, by sweep and prune.

    `best` is the least distance measured so far; it only falls, and a pair
    is skipped only when a single-axis gap shows it is at least `best` apart,
    so the result is the exact minimum.  A distance of 0 ends the sweep.

    - *Slab.*  Cells are visited in ascending order of their box's axis-0
      `lo`.  A later cell b has lo_b >= lo_a, so its axis-0 gap to cell a is
      max(0, lo_b - hi_a): only the cells with lo_b < hi_a + best, found by
      bisection, can come closer than `best`.
    - *Filter.*  Of those, a cell stays only while its box gap to a on each
      further axis is below `best`.
    - *Bound and window.*  For each pair left, the per-axis box gaps give the
      lower bound (their max under l∞, their sum under l1); a pair whose
      bound reaches `best` is skipped.  The widest gap names the window axis
      k.
    - *Exact step.*  Only here are row tuples rebuilt, for the two cells
      of the pair.  Cell b's rows are sorted by coordinate k.  Each row p of
      cell a is measured only against the rows q with |q_k - p_k| < best,
      found by bisection; every other q is at least `best` from p.
    """
    if len(cells) < 2:
        return None
    order = sorted(range(len(cells)), key=lambda i: boxes[i][0][0])
    boxes = [boxes[i] for i in order]
    cells = [cells[i] for i in order]
    los = [box[0][0] for box in boxes]
    axes = range(1, len(boxes[0]))
    distance = _row_distance(l1)
    best = math.inf
    for a, box_a in enumerate(boxes):
        stop = bisect.bisect_left(los, box_a[0][1] + best, a + 1)
        for b in _near(range(a + 1, stop), boxes, box_a, best, axes):
            gaps = list(map(_gap, box_a, boxes[b]))
            widest = max(gaps)
            if (sum(gaps) if l1 else widest) >= best:
                continue
            k = gaps.index(widest)
            rows_b = sorted(_rows(cells[b], dim), key=operator.itemgetter(k))
            keys = [q[k] for q in rows_b]
            for p in _rows(cells[a], dim):
                x = p[k]
                for q in rows_b[bisect.bisect_right(keys, x - best):
                                bisect.bisect_left(keys, x + best)]:
                    d = distance(p, q)
                    if d < best:
                        if d == 0:
                            return 0
                        best = d
    return best


def _later_row_distances(cols: list, n: int, l1: bool) -> Iterator[list]:
    """For each row i of the `n` rows held as the column lists `cols`, the
    list of its distances to rows i + 1, ..., n - 1 in that order.  Each
    column gives its gaps to the later rows, and the gaps of one pair are
    folded by `sum` under l1 or by `max` under l-infinity.  With no columns
    every distance is 0."""
    if not cols:
        cols = [[0] * n]
    fold = sum if l1 else max
    for i in range(n - 1):
        gaps = [map(abs, map(operator.sub, itertools.repeat(col[i]),
                             col[i + 1:]))
                for col in cols]
        yield list(map(fold, zip(*gaps)))


def _diameter(flat: list, dim: int, box, l1: bool) -> int:
    """The widest box extent under l-infinity; under l1 the largest distance
    of each row to the later rows, measured column by column."""
    if not l1:
        return max((hi - lo for lo, hi in box), default=0)
    distances = _later_row_distances(_columns(flat, dim), len(flat) // dim,
                                     True)
    return max(map(max, distances), default=0)


def _measure_color_points(cells: dict, dim: int, l1: bool):
    """Return (cells_seen, max_diameter, min_separation) for one color whose
    cells are {key: flat}, each `flat` its rows' coordinates joined into one
    list, `dim` per row."""
    if not cells:
        return 0, None, None
    flats = list(cells.values())
    boxes = [_box(flat, dim) for flat in flats]
    diam = max(_diameter(flat, dim, box, l1)
               for flat, box in zip(flats, boxes))
    sep = _min_separation_points(flats, boxes, dim, l1)
    return len(cells), diam, sep


# ---------------------------------------------------------------------------
# run-path measurement
# ---------------------------------------------------------------------------

def _measure_color_runs(by_layout: dict):
    """Measure one color whose cells are grouped by run layout as
    {((t0, t1), ...): [fiber, ...]}, one fiber per cell.

    Every cell is {fiber} x runs, so a layout's diameter is its last run end
    minus its first run start.  Each layout is measured as a class that is a
    product of per-axis value lists: the layout itself when its fibers fill
    that product, else one single-fiber class per fiber.  Two cells of one
    fiber never share a layout, because the fiber's runs tile it, so a
    class's cells lie on distinct fibers and its closest pair is one step
    between consecutive values on one axis.  Across two classes the per-axis
    gaps are independent, so their distance is exactly max(run gap, largest
    per-axis gap of the value lists).  Classes are swept in order of their
    first run start and pruned as `_min_separation_points` prunes cells: the
    slab of later classes that start less than the best distance after this
    class's last run end, narrowed axis by axis on the fiber boxes.
    """
    if not by_layout:
        return 0, None, None
    cells_seen = sum(map(len, by_layout.values()))
    diam = max(runs[-1][1] - runs[0][0] for runs in by_layout)

    classes = []  # (runs, per-axis sorted values)
    for runs, fibers in by_layout.items():
        axes = [sorted(set(vals)) for vals in zip(*fibers)]
        if math.prod(map(len, axes)) == len(fibers):
            classes.append((runs, axes))
        else:
            classes.extend((runs, [[v] for v in fiber]) for fiber in fibers)
    classes.sort(key=lambda c: c[0][0][0])
    starts = [runs[0][0] for runs, _ in classes]
    boxes = [[(vals[0], vals[-1]) for vals in axes] for _, axes in classes]
    fiber_axes = range(len(boxes[0]))

    best = math.inf
    for idx, ((runs_a, axes_a), box_a) in enumerate(zip(classes, boxes)):
        for vals in axes_a:
            for a, b in zip(vals, vals[1:]):
                if b - a < best:
                    best = b - a
        # a later class starts at or after runs_a[0][0], so its run gap is at
        # least its start minus this class's last run end
        stop = bisect.bisect_left(starts, runs_a[-1][1] + best, idx + 1)
        for j in _near(range(idx + 1, stop), boxes, box_a, best, fiber_axes):
            runs_b, axes_b = classes[j]
            run_gap = min(_gap(a, b) for a in runs_a for b in runs_b)
            if max([run_gap, *map(_gap, box_a, boxes[j])]) >= best:
                continue
            # the distance is the largest gap: stop at one that reaches best
            gap = run_gap
            for xs, ys in zip(axes_a, axes_b):
                gap = max(gap, sorted_min_gap(xs, ys))
                if gap >= best:
                    break
            else:
                best = gap
    return cells_seen, diam, None if best == math.inf else best


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
    chooses runs only when the moving axis is too long to enumerate.  The
    run path finds a cell that reaches over two fibers once its pass over
    the window is done.  Under "auto" it then enumerates the window
    pointwise instead if `point_budget` is set and holds the whole window,
    and raises `MultiFiberCell` otherwise.
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
    if runs_possible and (mode == "runs" or long_axis):
        try:
            return _verify_runs(s, spec, w, max_uncovered_listed,
                                point_budget)
        except MultiFiberCell:
            if (mode == "runs" or point_budget is None
                    or spec.size(w) > point_budget):
                raise
    size = spec.size(w)
    check_budget(point_budget, size, f"window holds {size} points")
    return _verify_pointwise(s, spec, w, max_uncovered_listed)


def _moving_extent(s: CoverScheme, w: Window) -> int:
    lo, hi = w.axis_box(s.moving_axis)
    return hi - lo + 1


class _Sample:
    """The first `cap` items added, and the count of all they stand for: an
    item added with `count` stands for that many points, as a run's first
    point does for its whole run."""

    def __init__(self, cap: int):
        self.cap = cap
        self.items: list = []
        self.total = 0

    def add(self, item, count: int = 1) -> None:
        self.total += count
        if len(self.items) < self.cap:
            self.items.append(item)


def _finish_report(s, w, cells, measure, uncovered: _Sample, errors: _Sample,
                   points_seen, mode) -> VerificationReport:
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
    if (uncovered.total or errors.total
            or not all(r.separation_pass and r.bound_pass for r in records)):
        verdict = "fail"
    elif points_seen == 0 or any(r.cells_seen == 0 for r in records):
        verdict = "pass-with-empty-color"
    else:
        verdict = "pass"
    return VerificationReport(
        per_color=records,
        uncovered_sample=uncovered.items,
        uncovered_total=uncovered.total,
        error_sample=errors.items,
        error_total=errors.total,
        points_seen=points_seen,
        window=w,
        verdict=verdict,
        mode=mode,
    )


def _verify_pointwise(s, spec, w, max_listed) -> VerificationReport:
    """Group the window's rows by their `classify` result in one dict, then
    split it per color.  Each cell's rows are one flat coordinate list.  The
    window comes from `SpaceSpec.point_rows`: a lattice window is streamed,
    so a point lives for one step of the loop, while other spaces list their
    points to shape their rows.  A result is checked (None, color range) only
    when it is first seen: a result already in the dict names a valid cell."""
    groups: dict[tuple, list] = {}
    uncovered = _Sample(max_listed)
    errors = _Sample(max_listed)
    points_seen = dim = 0
    classify = s.classify
    colors = s.colors
    pairs = spec.point_rows(iter_window(spec, w))
    for points_seen, (p, row) in enumerate(pairs, 1):
        try:
            res = classify(p)
        except SpaceError as exc:
            errors.add(f"{p!r}: {exc}")
            continue
        flat = groups.get(res)
        if flat is not None:
            flat += row
            continue
        if res is None:
            uncovered.add(p)
            continue
        color, key = res
        if 0 <= color < colors:
            groups[res] = list(row)
            dim = len(row)
        else:
            errors.add(f"{p!r}: color {color} out of range")
    cells: dict[int, dict] = {}
    for (color, key), flat in groups.items():
        cells.setdefault(color, {})[key] = flat

    def measure(per_key: dict):
        return _measure_color_points(per_key, dim, spec.l1)

    return _finish_report(s, w, cells, measure, uncovered, errors,
                          points_seen, "pointwise")


def _verify_runs(s, spec, w, max_listed, point_budget) -> VerificationReport:
    mov = s.moving_axis
    t_lo, t_hi = w.axis_box(mov)
    axes = spec.axes(w)
    del axes[mov]
    fiber_count = math.prod(map(len, axes))
    check_budget(point_budget, fiber_count,
                 f"window holds {fiber_count} fibers")

    # per color: {layout: [fiber, ...]}; and MARK_BUCKETS buckets of marks,
    # one per distinct hash of the claims of each finished fiber.  The
    # buckets are flat int arrays, which hold no object per mark and nothing
    # the garbage collector traces.  A repeated hash is looked for once, when
    # the window is done: it comes from a claim on two fibers, or from claims
    # of two fibers that share a hash, and only the fibers' claims tell which.
    by_layout = {c: defaultdict(list) for c in range(s.colors)}
    marks = [array("q") for _ in range(MARK_BUCKETS)]
    uncovered = _Sample(max_listed)
    errors = _Sample(max_listed)
    points_seen = 0
    span = t_hi - t_lo + 1

    classify = s.classify
    fiber_runs = s.fiber_runs
    fiber = ()
    layouts: dict[tuple, tuple] = {}  # (color, key) -> this fiber's runs
    fault = None
    try:
        for fiber in itertools.product(*axes):
            layouts = {}
            try:
                runs = fiber_runs(fiber, t_lo, t_hi)
            except SpaceError as exc:
                # every point of the fiber is an error, as pointwise
                errors.add(f"{fiber!r}: {exc}", span)
                points_seen += span
                continue
            point = [*fiber[:mov], t_lo, *fiber[mov:]]  # moving axis per probe
            expected = t_lo
            for t0, t1, color, key in runs:
                if t0 != expected or t1 < t0 or t1 > t_hi:
                    raise VerifyError(
                        f"fiber {fiber}: runs do not tile [{t_lo},{t_hi}]"
                    )
                expected = t1 + 1
                point[mov] = t0
                first = tuple(point)
                if color is None:
                    uncovered.add(first, t1 - t0 + 1)
                    continue
                # both ends and the midpoint, each once, in ascending order
                claim = (color, key)
                probe = classify(first)
                if probe != claim:
                    raise _disagreement(claim, t0, probe)
                if t1 > t0:
                    if t1 - t0 >= 2:
                        point[mov] = mid = (t0 + t1) // 2
                        probe = classify(tuple(point))
                        if probe != claim:
                            raise _disagreement(claim, mid, probe)
                    point[mov] = t1
                    probe = classify(tuple(point))
                    if probe != claim:
                        raise _disagreement(claim, t1, probe)
                if color not in by_layout:
                    # every point of the run is an error, as pointwise
                    errors.add(f"{first!r}: color {color} out of range",
                               t1 - t0 + 1)
                    continue
                run = ((t0, t1),)
                cell = layouts.setdefault(claim, run)
                if cell is not run:  # another run of a cell of this fiber
                    layouts[claim] = cell + run
            if expected != t_hi + 1:
                raise VerifyError(
                    f"fiber {fiber}: runs stop at {expected - 1} before {t_hi}"
                )
            points_seen += span
            _file(layouts, fiber, by_layout, marks)
    except Exception as exc:
        # whatever the fault, a claim-by-claim check would have met a claim
        # this fiber made before it, on a cell an earlier fiber holds, first;
        # so such a cell outranks the fault, which stands only without one
        _file(layouts, fiber, by_layout, marks)
        fault = exc
    _claim_on_two_fibers(marks, fiber, layouts, axes, fiber_runs, t_lo, t_hi,
                         by_layout)
    if fault is not None:
        raise fault
    return _finish_report(s, w, by_layout, _measure_color_runs, uncovered,
                          errors, points_seen, "runs")


def _file(layouts: dict, fiber: tuple, by_layout: dict, marks: list) -> None:
    """File a fiber's `layouts`: the fiber joins each claim's run layout, and
    each distinct hash of its claims goes once into the bucket it picks."""
    low = MARK_BUCKETS - 1
    for claim, layout in layouts.items():
        by_layout[claim[0]][layout].append(fiber)
    for mark in {hash(claim) for claim in layouts}:
        marks[mark & low].append(mark)


def _claim_on_two_fibers(marks: list, fiber: tuple, layouts: dict,
                         axes: list, fiber_runs, t_lo: int, t_hi: int,
                         by_layout: dict) -> None:
    """Raise `MultiFiberCell` if two fibers filed one claim.  A fiber files
    each hash once, so a hash repeated in a bucket comes from two fibers,
    which filed one claim or two claims that share a hash.  Only then are the
    fibers walked again in `itertools.product` order, up to `fiber`, where
    the pass stopped: an earlier fiber filed its runs' claims of a
    `by_layout` color, or nothing if its `fiber_runs` raised, and `fiber`
    filed its `layouts` (runs after a fault were never filed)."""
    repeated = set()
    for bucket in marks:
        if len(set(bucket)) < len(bucket):
            repeated.update(m for m, n in Counter(bucket).items() if n > 1)
    if not repeated:
        return
    owner: dict = {}
    for each in itertools.product(*axes):
        claims = layouts
        if each != fiber:
            try:
                runs = fiber_runs(each, t_lo, t_hi)
            except SpaceError:
                continue
            claims = [(c, key) for _, _, c, key in runs if c in by_layout]
        for claim in claims:
            if hash(claim) in repeated and owner.setdefault(claim, each) != each:
                raise MultiFiberCell(
                    "run-path verification needs single-fiber cells; "
                    'use mode="pointwise" for this scheme'
                )
        if each == fiber:
            return


def _disagreement(claim: tuple, t: int, probe) -> VerifyError:
    color, key = claim
    return VerifyError(f"run claim ({color}, {key}) at t={t} disagrees with "
                       f"classify -> {probe}")


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
        schemes = [fam(fiber) if callable(fam) else fam for fam in families]
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


def _row_columns(rows: Sequence) -> list:
    """The columns of `rows`, none when there is no pair of rows.  Rows of
    two lengths raise `SpaceError`, as the pairwise l-infinity metric does,
    and a row with no length raises its `TypeError`."""
    if len(rows) < 2:
        return []
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise SpaceError("dimension mismatch")
    return list(zip(*rows))


def check_coarse_control(m: MapSpec, domain: SpaceSpec,
                         codomain: SpaceSpec | None = None,
                         w: Window | None = None, *,
                         points: Sequence | None = None) -> ControlReport:
    """Check m.lower(d(x,y)) <= d(m(x), m(y)) <= m.upper(d(x,y)) over all
    window pairs; reports the first 100 violating pairs and the largest
    observed additive stretch d(m(x), m(y)) - d(x, y).

    Each side is measured on rows computed once: the points on
    `domain.rows`, the images on `codomain.rows`, or, with no codomain, the
    images themselves as integer rows under l-infinity.  The points are the
    window's, or the explicit `points` list.  Pairs are measured row against
    later rows, column by column, one row's pairs at a time on both sides;
    only a row with a violating pair is walked pair by pair, in order.
    """
    lower, upper = m.lower, m.upper
    if points is None:
        if w is None:
            raise VerifyError("need a window or an explicit point list")
        points = list(iter_window(domain, w))
    images = [evaluate_map(m, p) for p in points]
    xs = domain.rows(points)
    ys = images if codomain is None else codomain.rows(images)
    n = len(points)
    by_row = zip(
        _later_row_distances(_row_columns(xs), n, domain.l1),
        _later_row_distances(_row_columns(ys), n,
                             codomain is not None and codomain.l1))
    violations = []
    stretch: int | None = None
    pairs = 0
    for i, (dxs, dys) in enumerate(by_row):
        pairs += len(dxs)
        s = max(map(operator.sub, dys, dxs))
        if stretch is None or s > stretch:
            stretch = s
        if len(violations) < 100 and not (
                all(map(operator.le, map(lower, dxs), dys))
                and all(map(operator.le, dys, map(upper, dxs)))):
            for j, dx, dy in zip(itertools.count(i + 1), dxs, dys):
                if not (lower(dx) <= dy <= upper(dx)):
                    violations.append((points[i], points[j], dx, dy))
                    if len(violations) == 100:
                        break
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
        return asdict(self)


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
    lo, hi = map(operator.index, window)  # as range() would, refuse floats
    params = {"n": n, "R": R, "colors": colors}

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
    while lo + idx <= hi:
        p = lo + idx
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


def assignment_scheme(outcome: OracleOutcome) -> CoverScheme:
    """Wrap a feasible oracle assignment as a lookup cover scheme on the 1-D
    lattice, declaring the `n`, `R` and `colors` the search was run with, so
    verify_cover can re-check it independently."""
    if outcome.assignment is None:
        raise VerifyError("no assignment to wrap")
    n, R, colors = (outcome.params[k] for k in ("n", "R", "colors"))
    table = {(x,): (c, (c, g)) for x, c, g in outcome.assignment}

    def classify(p):
        return table.get(p)

    return CoverScheme(
        classify=classify, colors=colors,
        declared_separation={c: n for c in range(colors)},
        declared_bound={c: R for c in range(colors)},
    )
