"""Per-layer tracing shims for the coarselab benchmark.

The library has no spans of its own, so the benchmark wraps the calls into
each layer from outside: names that `coarselab.verify`, `coarselab.cli` and
`coarselab.acceptance` imported, and the `classify` / `fiber_runs` fields of
every scheme the CLI or the acceptance battery builds (rebuilt with
`dataclasses.replace`).  Each boundary aggregates its call count, its
inclusive time and the time of the traced calls made inside it, so a layer's
self time is inclusive time minus child time.  Per-call spans are not kept:
the hot boundaries are entered millions of times.
"""

from __future__ import annotations

import dataclasses
import time
from math import comb

from coarselab import acceptance, cli, ordinal, verify

_COVER_FACTORIES = (
    "grid_cover", "spaced_interval_cover", "singleton_cover",
    "fiber_product_cover", "staircase_cover", "omega_cover",
    "mixed_grid_cover", "product_square_cover", "shift_union_cover",
)


class Boundary:
    __slots__ = ("calls", "total_s", "child_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Installs the shims on enter and restores every patched name on exit."""

    def __init__(self) -> None:
        self.boundaries: dict[str, Boundary] = {}
        # One child-time accumulator per open traced call; the bottom one
        # collects time spent outside any traced call.
        self._stack: list[list[float]] = [[0.0]]
        self._patched: list[tuple[object, str, object]] = []
        self.points_enumerated = 0
        self.control_pairs = 0
        self.cell_pairs = 0
        self.verify_distance_calls = 0
        self._verify_depth = 0

    # -- span bookkeeping ---------------------------------------------------

    def boundary(self, name: str) -> Boundary:
        return self.boundaries.setdefault(name, Boundary())

    def wrap(self, name: str, fn, after=None):
        rec = self.boundary(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                rec.calls += 1
                rec.total_s += elapsed
                rec.child_s += frame[0]
                stack[-1][0] += elapsed
            if after is not None:
                after(result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- layer-specific shims -----------------------------------------------

    def _enumerate(self, fn):
        """iter_window returns a generator; drain it inside the span so the
        span covers the enumeration rather than the generator's creation."""
        def eager(*args, **kwargs):
            points = list(fn(*args, **kwargs))
            self.points_enumerated += len(points)
            return iter(points)
        return self.wrap("spaces.enumerate", eager)

    def _distance(self, fn):
        traced = self.wrap("spaces.distance", fn)

        def counted(*args):
            if self._verify_depth:
                self.verify_distance_calls += 1
            return traced(*args)
        return counted

    def _verify_cover(self, fn):
        def measured(report):
            if report.mode == "pointwise":
                self.cell_pairs += sum(comb(r.cells_seen, 2)
                                       for r in report.per_color)
        traced = self.wrap("verify.verify_cover", fn, after=measured)

        def depth_tracked(*args, **kwargs):
            self._verify_depth += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._verify_depth -= 1
        return depth_tracked

    def _control(self, fn):
        def measured(report):
            self.control_pairs += report.pairs_checked
        return self.wrap("verify.check_coarse_control", fn, after=measured)

    def _scheme(self, scheme):
        changes = {"classify": self.wrap("covers.classify", scheme.classify)}
        if scheme.fiber_runs is not None:
            changes["fiber_runs"] = self.wrap("covers.fiber_runs",
                                              scheme.fiber_runs)
        return dataclasses.replace(scheme, **changes)

    def _factory(self, fn):
        def build(*args, **kwargs):
            return self._scheme(fn(*args, **kwargs))
        return build

    def __enter__(self) -> "Tracer":
        self._patch(verify, "iter_window", self._enumerate(verify.iter_window))
        for name in ("space_distance", "lattice_max_distance"):
            self._patch(verify, name, self._distance(getattr(verify, name)))
        verify_cover = self._verify_cover(verify.verify_cover)
        control = self._control(verify.check_coarse_control)
        for module in (cli, acceptance):
            self._patch(module, "verify_cover", verify_cover)
            self._patch(module, "check_coarse_control", control)
        self._patch(ordinal, "ord_rank",
                    self.wrap("ordinal.ord_rank", ordinal.ord_rank))
        self._patch(cli, "build_construction",
                    self._factory(cli.build_construction))
        for name in _COVER_FACTORIES:
            if hasattr(acceptance, name):
                self._patch(acceptance, name,
                            self._factory(getattr(acceptance, name)))
        self._patch(cli, "run_experiment",
                    self.wrap("cli.run_experiment", cli.run_experiment))
        # run_all tells the seeded criteria apart by identity with the module
        # globals, so each wrapped criterion replaces its global too.
        criteria = []
        for name, fn in acceptance.CRITERIA:
            traced = self.wrap(f"acceptance.{name}", fn)
            self._patch(acceptance, fn.__name__, traced)
            criteria.append((name, traced))
        self._patch(acceptance, "CRITERIA", tuple(criteria))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        b = self.boundary
        out: dict[str, tuple[float, str]] = {
            "cli.self_s": (b("cli.run_experiment").self_s, "s"),
            "verify.self_s": (b("verify.verify_cover").self_s, "s"),
            "verify.cell_pairs": (self.cell_pairs, "count"),
            "verify.distance_per_cell_pair": (
                self.verify_distance_calls / self.cell_pairs
                if self.cell_pairs else 0.0, "ratio"),
            "verify.control_pairs": (self.control_pairs, "count"),
            "verify.check_coarse_control_s": (
                b("verify.check_coarse_control").total_s, "s"),
            "covers.classify_calls": (b("covers.classify").calls, "count"),
            "covers.classify_s": (b("covers.classify").total_s, "s"),
            "covers.fiber_runs_calls": (b("covers.fiber_runs").calls, "count"),
            "covers.fiber_runs_s": (b("covers.fiber_runs").total_s, "s"),
            "spaces.distance_calls": (b("spaces.distance").calls, "count"),
            "spaces.distance_s": (b("spaces.distance").total_s, "s"),
            "spaces.enumerate_s": (b("spaces.enumerate").total_s, "s"),
            "spaces.points_enumerated": (self.points_enumerated, "count"),
            "ordinal.ord_rank_calls": (b("ordinal.ord_rank").calls, "count"),
            "ordinal.ord_rank_s": (b("ordinal.ord_rank").total_s, "s"),
        }
        for name, _ in acceptance.CRITERIA:
            out[f"acceptance.{name}_s"] = (
                b(f"acceptance.{name}").total_s, "s")
        return out
