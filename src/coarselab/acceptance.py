"""The acceptance battery: nine standalone experiments, each checking one
shipped construction or tool against its declared exact-integer properties
over concrete finite windows.

Every criterion returns a CriterionResult and is runnable on its own; the
CLI `suite` command and tests/test_acceptance.py both drive this module.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field

from . import covers, ordinal
from .covers import (
    FiniteFamily,
    LONG_COLOR,
    SHORT_COLOR,
    mixed_grid_cover,
    product_square_cover,
    shift_union_cover,
    spaced_interval_cover,
    staircase_cover,
)
from .spaces import (
    ControlFn,
    IDENTITY,
    LatticeSpace,
    MapSpec,
    ProductSpace,
    ShiftUnionSpace,
    TowerSpace,
    Window,
)
from .verify import (
    assignment_scheme,
    check_coarse_control,
    find_fiber_witnesses,
    oracle_1d_nocover,
    verify_cover,
)

DEFAULT_SEED = 20260808


@dataclass
class CriterionResult:
    name: str
    passed: bool
    seconds: float
    budget_seconds: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name} ({self.seconds:.2f}s / {self.budget_seconds:.0f}s)"

    def to_json(self) -> dict:
        return {**asdict(self), "seconds": round(self.seconds, 3)}


def _timed(name: str, budget: float, fn) -> CriterionResult:
    start = time.perf_counter()
    passed, details = fn()
    elapsed = time.perf_counter() - start
    return CriterionResult(name=name, passed=passed, seconds=elapsed,
                           budget_seconds=budget, details=details)


# --------------------------------------------------------------------------
# 1. staircase cover
# --------------------------------------------------------------------------

def criterion_staircase() -> CriterionResult:
    """Long/short staircase colors over 3 full periods of the moving axis:
    long separation >= n, short separation >= r, full coverage, diameters
    within declared bounds."""
    def run():
        details = {}
        ok = True
        for n, r in ((1, 2), (2, 3), (3, 5)):
            h = (n * (n + 1) // 2, r * (r - 1) // 2)
            scheme = staircase_cover(n, r, dim=r, height_interval=h)
            step = 2 ** n
            weight_sum = sum(2 ** (r * j) for j in range(1, r + 1))
            period = weight_sum * (r + n)
            half = 4 * 2 ** r
            free = r if r <= 3 else 2  # huge cases verify a pinned slice
            axis_boxes = {j: ((-half, half) if j < free else (0, 0))
                          for j in range(r)}
            axis_boxes[r] = (0, 3 * period)
            axis_boxes[r + 1] = (h[0], h[0])
            spec = LatticeSpace((step,) * r + (1, 1))
            rep = verify_cover(scheme, spec, Window.make(axis_boxes=axis_boxes))
            long_rec = rep.record(LONG_COLOR)
            short_rec = rep.record(SHORT_COLOR)
            case_ok = (rep.verdict == "pass"
                       and rep.uncovered_total == 0
                       and long_rec.min_cross_cell_separation is not None
                       and long_rec.min_cross_cell_separation >= n
                       and short_rec.min_cross_cell_separation is not None
                       and short_rec.min_cross_cell_separation >= r)
            ok = ok and case_ok
            details[f"n={n},r={r}"] = {
                "mode": rep.mode,
                "points": rep.points_seen,
                "long_sep": long_rec.min_cross_cell_separation,
                "short_sep": short_rec.min_cross_cell_separation,
                "long_diam": long_rec.max_diameter,
                "short_diam": short_rec.max_diameter,
                "verdict": rep.verdict,
            }
        return ok, details
    return _timed("staircase cover separations/coverage", 60 * 3, run)


# --------------------------------------------------------------------------
# 2. mixed grid cover
# --------------------------------------------------------------------------

def criterion_mixed_grid() -> CriterionResult:
    """Band/separator lattice cover: color 0 k-disjoint, the m*2^m others
    R-disjoint, full coverage, exactly m*2^m + 1 colors."""
    def run():
        details = {}
        ok = True
        for m, n, k, R in ((1, 1, 3, 5), (2, 1, 4, 6), (1, 2, 3, 7)):
            scheme = mixed_grid_cover(m, n, k, R)
            S = R + k
            period = max(1, 2 ** n * n) * S
            c_half = (3 * period + 1) // 2
            v_half = 3 * R
            axis_boxes = {j: (-c_half, c_half) for j in range(m)}
            axis_boxes.update({m + i: (-v_half, v_half) for i in range(n)})
            spec = LatticeSpace((1,) * m + (k,) * n)
            rep = verify_cover(scheme, spec, Window.make(axis_boxes=axis_boxes))
            zero = rep.record(0)
            others = [rep.record(c) for c in range(1, scheme.colors)]
            case_ok = (rep.verdict == "pass"
                       and scheme.colors == m * 2 ** m + 1
                       and zero.min_cross_cell_separation is not None
                       and zero.min_cross_cell_separation >= k
                       and all(rec.min_cross_cell_separation is None
                               or rec.min_cross_cell_separation >= R
                               for rec in others))
            ok = ok and case_ok
            details[f"m={m},n={n},k={k},R={R}"] = {
                "points": rep.points_seen,
                "colors": scheme.colors,
                "zero_sep": zero.min_cross_cell_separation,
                "min_other_sep": min((rec.min_cross_cell_separation
                                      for rec in others
                                      if rec.min_cross_cell_separation is not None),
                                     default=None),
                "verdict": rep.verdict,
            }
        return ok, details
    return _timed("mixed grid cover separations/coverage", 120 * 3, run)


# --------------------------------------------------------------------------
# 3. shift-union cover
# --------------------------------------------------------------------------

def criterion_shift_union() -> CriterionResult:
    """Block cover of the shift-union space: two k-disjoint merged colors,
    (6k)*2^(3k) m-disjoint colors, full coverage of the enumerated points."""
    def run():
        details = {}
        ok = True
        for k, m in ((1, 2), (2, 2)):
            scheme = shift_union_cover(k, m)
            S = k + m
            period = 2 ** m * 2 * S
            band_axis = 2 * k          # classified by both blocks
            w_axis = 3 * k             # W axis of block 0, band axis of block 1
            tail_axis = 2 * k + 3 * k + m  # tail for both blocks
            axis_boxes = {
                band_axis: (-period, period),
                w_axis: (-4 * m, 4 * m),
                tail_axis: (-(tail_axis + 1), tail_axis + 1),
            }
            w = Window.make(levels=(0, 4 * k - 1),
                            max_support=tail_axis,
                            box=(0, 0),
                            axis_boxes=axis_boxes)
            rep = verify_cover(scheme, ShiftUnionSpace(), w)
            expected_colors = (6 * k) * 2 ** (3 * k) + 2
            k_colors = [c for c, s in scheme.declared_separation.items() if s == k]
            m_colors = [c for c, s in scheme.declared_separation.items() if s == m]
            seps = [rep.record(c).min_cross_cell_separation for c in (0, 1)]
            case_ok = (rep.verdict in ("pass", "pass-with-empty-color")
                       and rep.uncovered_total == 0
                       and scheme.colors == expected_colors
                       and (k == m or (len(k_colors) == 2
                                       and len(m_colors) == expected_colors - 2))
                       and all(s is None or s >= k for s in seps)
                       and all(rep.record(c).min_cross_cell_separation is None
                               or rep.record(c).min_cross_cell_separation >= m
                               for c in range(2, scheme.colors)))
            ok = ok and case_ok
            details[f"k={k},m={m}"] = {
                "points": rep.points_seen,
                "colors": scheme.colors,
                "merged_seps": seps,
                "verdict": rep.verdict,
            }
        return ok, details
    return _timed("shift-union cover separations/coverage", 300 * 2, run)


# --------------------------------------------------------------------------
# 4. product-square cover
# --------------------------------------------------------------------------

def criterion_product_square() -> CriterionResult:
    """Square-of-tower cover: color count depends on k only; merged color 0
    verifies k-disjoint and every other color n-disjoint on a two-level
    window."""
    def run():
        k = 1
        counts = {}
        details = {}
        ok = True
        for n in (2, 4):
            scheme = product_square_cover(k, n)
            counts[n] = scheme.colors
            w = Window.make(levels=(k, k + 1), box=(-8, 8))
            tower = TowerSpace("pow2")
            rep = verify_cover(scheme, ProductSpace(tower, tower), w)
            zero = rep.record(0)
            others = [rep.record(c) for c in range(1, scheme.colors)]
            case_ok = (rep.passed
                       and rep.uncovered_total == 0
                       and zero.min_cross_cell_separation is not None
                       and zero.min_cross_cell_separation >= k
                       and all(rec.min_cross_cell_separation is None
                               or rec.min_cross_cell_separation >= n
                               for rec in others))
            ok = ok and case_ok
            details[f"n={n}"] = {
                "colors": scheme.colors,
                "points": rep.points_seen,
                "zero_sep": zero.min_cross_cell_separation,
                "verdict": rep.verdict,
            }
        ok = ok and counts[2] == counts[4]
        details["count_stable"] = counts[2] == counts[4]
        return ok, details
    return _timed("product-square cover color stability/disjointness", 300, run)


# --------------------------------------------------------------------------
# 5. fiber witnesses and the induced embedding
# --------------------------------------------------------------------------

def criterion_witnesses() -> CriterionResult:
    """A single 3-disjoint 5-bounded interval family misses a point of every
    fiber's [-5,5] box; the induced diagonal map is squeezed between the
    identity and identity+2R with zero violations."""
    def run():
        R_box = 5
        fibers = [(4 * i,) for i in range(120)]
        box = [(t,) for t in range(-R_box, R_box + 1)]

        def family_for(fiber):
            return spaced_interval_cover(6, 3, offset=(fiber[0] // 4) % 3)

        res = find_fiber_witnesses([family_for], fibers, box)
        witnessed = sum(1 for _, wit in res.records if wit is not None)
        delta = MapSpec.make(
            "delta-witness", table=res.delta_table(),
            lower=IDENTITY, upper=ControlFn("plus-const", 2 * R_box),
        )
        ctrl = check_coarse_control(
            delta, LatticeSpace((4,)), points=fibers,
        )
        ok = (res.all_fibers_witnessed and len(fibers) >= 100
              and ctrl.passed and ctrl.pairs_checked >= 100)
        details = {
            "fibers": len(fibers),
            "witnessed": witnessed,
            "control_pairs": ctrl.pairs_checked,
            "control_violations": len(ctrl.violations),
            "max_stretch": ctrl.max_observed_stretch,
        }
        return ok, details
    return _timed("fiber witnesses + diagonal embedding controls", 30, run)


# --------------------------------------------------------------------------
# 6. exhaustive 1-D search
# --------------------------------------------------------------------------

def criterion_oracle() -> CriterionResult:
    """One color, clusters of diameter <= 5 at mutual distance >= 3: the
    11-point window is infeasible, the 5-point window feasible, and feasible
    assignments re-verify."""
    def run():
        wide = oracle_1d_nocover(3, 5, 1, (-5, 5))
        narrow = oracle_1d_nocover(3, 5, 1, (-2, 2))
        ok = wide.status == "infeasible" and narrow.status == "feasible"
        recheck = None
        if narrow.status == "feasible":
            scheme = assignment_scheme(narrow)
            rep = verify_cover(scheme, LatticeSpace((1,)),
                               Window.make(box=((-2, 2),)))
            recheck = rep.verdict
            ok = ok and rep.passed and rep.uncovered_total == 0
        details = {
            "wide_status": wide.status,
            "wide_nodes": wide.nodes_explored,
            "narrow_status": narrow.status,
            "narrow_recheck": recheck,
        }
        return ok, details
    return _timed("1-D cluster-cover search vs hand instances", 10, run)


# --------------------------------------------------------------------------
# 7. saturated union
# --------------------------------------------------------------------------

def _random_interval_family(rng, count, max_len, min_gap, tag):
    cells = {}
    cursor = rng.randint(-50, 0)
    for i in range(count):
        length = rng.randint(1, max_len)
        cells[(tag, i)] = frozenset((x,) for x in range(cursor, cursor + length))
        cursor += length - 1 + min_gap + rng.randint(0, 10)
    return FiniteFamily.of(cells)


def criterion_saturated_union(seed: int = DEFAULT_SEED) -> CriterionResult:
    """1000 random instances of absorbing a tight family into a sparse one:
    the result keeps the tight family's disjointness gap, stays within the
    combined diameter bound, and loses no points."""
    def run():
        rng = random.Random(seed)
        failures = 0
        for trial in range(1000):
            r = rng.randint(1, 4)
            R = r + rng.randint(0, 4)
            D = R + rng.randint(0, 2 * R)
            U = _random_interval_family(rng, rng.randint(1, 6), R + 1, r, "u")
            V = _random_interval_family(rng, rng.randint(1, 4), D + 1, 5 * R, "v")
            out = covers.saturated_union(V, U, r)
            bound = D + 2 * R + 2 * r
            cells = [sorted(pts) for _, pts in out.cells]
            good = all(pts[-1][0] - pts[0][0] <= bound for pts in cells)
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    d = covers.set_distance(cells[i], cells[j])
                    if d < r:
                        good = False
            union_in = U.point_union() | V.point_union()
            good = good and union_in <= out.point_union()
            if not good:
                failures += 1
        return failures == 0, {"instances": 1000, "failures": failures}
    return _timed("saturated union disjointness/bound/point-union", 60, run)


# --------------------------------------------------------------------------
# 8. ordinal rank
# --------------------------------------------------------------------------

def criterion_ordinal(seed: int = DEFAULT_SEED) -> CriterionResult:
    """10000 random finite families: recursive rank equals max member size,
    is monotone under subfamilies, and strictly descends when an element of
    the support is stripped."""
    def run():
        rng = random.Random(seed + 1)
        failures = 0
        memo: dict = {}
        for trial in range(10000):
            members = []
            for _ in range(rng.randint(0, 6)):
                size = rng.randint(1, 4)
                members.append(rng.sample(range(6), size))
            M = ordinal.FinFamily.of(members)
            rank = ordinal.ord_rank(M, memo)
            expected = max((len(m) for m in M.members), default=0)
            good = rank == expected
            sub = ordinal.FinFamily.of(
                m for m in M.members if rng.random() < 0.5)
            good = good and ordinal.ord_rank(sub, memo) <= rank
            for a in M.support():
                derived = ordinal.derived_family(M, {a})
                good = good and ordinal.ord_rank(derived, memo) < rank
            if not good:
                failures += 1
        return failures == 0, {"instances": 10000, "failures": failures}
    return _timed("ordinal rank closed form/monotonicity/descent", 10, run)


# --------------------------------------------------------------------------
# 9. isometries and Lipschitz controls
# --------------------------------------------------------------------------

def criterion_isometries() -> CriterionResult:
    """The three flattening/interleaving maps are exactly distance-preserving
    on 10^4+ point pairs, and the level projection is 1-Lipschitz.

    On their windows every `phi-tower` and `psi-staircase` image is the
    point's own `TowerSpace` row, so those two checks compare identical rows
    and cannot fail while the maps and `TowerSpace.rows` share one formula.
    Their real check is tests/test_row_metrics.py, which compares the rows
    against the closed-form tower distance."""
    def run():
        tower = TowerSpace("pow2", 1)
        lattice = LatticeSpace((1, 2, 3))
        base = [(a, b, c)
                for a in range(-3, 4)
                for b in (-2, 0, 2)
                for c in (-3, 0, 3)]
        pair_points = [(x, y) for x in base for y in base]
        pair_points = pair_points[:: max(1, len(pair_points) // 160)]
        checks = (  # (map, domain, window, explicit points)
            (MapSpec.make("phi-tower", {"n": 3}), tower,
             Window.make(levels=(1, 3), box=(-6, 6)), None),
            (MapSpec.make("psi-staircase", {"n": 2, "r": 4}), tower,
             Window.make(levels=(3, 4), box=(-8, 8)), None),
            (MapSpec.make("theta-interleave"), ProductSpace(lattice, lattice),
             None, pair_points),
            (MapSpec.make("f-level-projection",
                          lower=ControlFn("scaled", 0), upper=IDENTITY),
             ShiftUnionSpace(),
             Window.make(levels=(0, 2), box=(-4, 4), max_support=2), None),
        )
        details = {}
        ok = True
        for m, domain, w, points in checks:
            ctrl = check_coarse_control(m, domain, w=w, points=points)
            ok = ok and ctrl.passed and ctrl.pairs_checked >= 10000
            details[m.name] = {"pairs": ctrl.pairs_checked,
                               "violations": len(ctrl.violations)}
        return ok, details
    return _timed("isometries + 1-Lipschitz projection", 60, run)


CRITERIA = (
    ("staircase", criterion_staircase),
    ("mixed-grid", criterion_mixed_grid),
    ("shift-union", criterion_shift_union),
    ("product-square", criterion_product_square),
    ("witnesses", criterion_witnesses),
    ("oracle-1d", criterion_oracle),
    ("saturated-union", criterion_saturated_union),
    ("ordinal", criterion_ordinal),
    ("isometries", criterion_isometries),
)


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    results = []
    for name, fn in CRITERIA:
        if fn in (criterion_saturated_union, criterion_ordinal):
            results.append(fn(seed))
        else:
            results.append(fn())
    return results
