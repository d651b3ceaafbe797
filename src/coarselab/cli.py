"""Batch experiment runner.

Parses a JSON config, builds the named space/scheme/map, runs the requested
verification, and writes a machine-readable report.  The exit status is read
from the report's `status` through `EXIT_STATUS`: 0 means pass/feasible, 1
means fail/infeasible/witness-missing, and 2 means inconclusive or an error
in the config or its parameters.  Reports are deterministic given a config
and embed the fully resolved config for reproducibility.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from pathlib import Path

from . import __version__, acceptance
from .covers import (
    FiniteFamily,
    fiber_product_cover,
    grid_cover,
    mixed_grid_cover,
    omega_cover,
    product_square_cover,
    saturated_union,
    shift_union_cover,
    singleton_cover,
    spaced_interval_cover,
    staircase_cover,
)
from .ordinal import FinFamily, inclusive_closure, is_inclusive, ord_rank
from .spaces import (
    ControlFn,
    LatticeSpace,
    MapSpec,
    ProductSpace,
    ShiftPoint,
    ShiftUnionSpace,
    SpaceSpec,
    TowerPoint,
    TowerSpace,
    Window,
)
from .verify import (
    BudgetExceeded,
    VerifyError,
    assignment_scheme,
    check_budget,
    check_coarse_control,
    find_fiber_witnesses,
    oracle_1d_nocover,
    point_to_json,
    verify_cover,
)


class ConfigError(ValueError):
    pass


EXIT_STATUS = {"pass": 0, "ok": 0, "feasible": 0,
               "fail": 1, "infeasible": 1, "recheck-failed": 1,
               "inconclusive": 2, "error": 2}


def _object(value, what: str) -> dict:
    """`value` itself when it is a JSON object, else a ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, "
                          f"not {type(value).__name__}")
    return value


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

SPACE_BUILDERS = {
    "tower": lambda cfg: TowerSpace(cfg.get("step", "identity")),
    "tower-with-factor": lambda cfg: TowerSpace(
        cfg.get("step", "identity"), cfg.get("factor_dim", 1)),
    "product-of-towers": lambda cfg: ProductSpace(
        TowerSpace(cfg.get("step", "identity")),
        TowerSpace(cfg.get("step", "identity"))),
    "shift-union": lambda cfg: ShiftUnionSpace(),
    "plain-lattice": lambda cfg: LatticeSpace(tuple(cfg["axis_steps"])),
}


def parse_space(cfg: dict) -> SpaceSpec:
    build = SPACE_BUILDERS.get(_object(cfg, "space").get("kind"))
    if build is None:
        raise ConfigError(f"unknown space kind {cfg.get('kind')!r}")
    return build(cfg)


def parse_window(cfg: dict) -> Window:
    cfg = _object(cfg, "window")
    axis_boxes = _object(cfg.get("axis_boxes") or {}, "axis_boxes")
    return Window.make(
        levels=cfg.get("levels"),
        box=cfg.get("box"),
        max_support=cfg.get("max_support"),
        axis_boxes={int(i): iv for i, iv in axis_boxes.items()},
    )


def build_construction(cfg: dict, space: SpaceSpec | None = None):
    name = _object(cfg, "construction").get("name")
    params = _object(cfg.get("params", {}), "params")
    if name == "grid":
        return grid_cover(params["dim"], params["gap"])
    if name == "interval":
        return spaced_interval_cover(params["size"], params["sep"],
                                     params.get("offset", 0))
    if name == "singleton":
        if space is None:
            raise ConfigError("singleton construction needs a space")
        return singleton_cover(space, params["threshold"])
    if name == "fiber-product":
        base = build_construction(cfg["base"])
        return fiber_product_cover(base, params["threshold"])
    if name == "staircase":
        return staircase_cover(params["n"], params["r"],
                               params.get("dim"),
                               tuple(params.get("height", (0, 0))))
    if name == "omega":
        return omega_cover(params["n"], params["r"])
    if name == "mixed-grid":
        return mixed_grid_cover(params["m"], params["n"],
                                params["k"], params["R"])
    if name == "product-square":
        return product_square_cover(params["k"], params["n"])
    if name == "shift-union":
        return shift_union_cover(params["k"], params["m"])
    raise ConfigError(f"unknown construction {name!r}")


def parse_control(cfg: dict | None) -> ControlFn:
    if not cfg:
        return ControlFn("identity")
    cfg = _object(cfg, "control")
    return ControlFn(cfg.get("kind", "identity"), cfg.get("c", 0))


def parse_map(cfg: dict) -> MapSpec:
    cfg = _object(cfg, "map")
    return MapSpec.make(
        cfg["name"], _object(cfg.get("params", {}), "params"),
        lower=parse_control(cfg.get("lower")),
        upper=parse_control(cfg.get("upper")),
    )


def _as_key(value):
    if isinstance(value, list):
        return tuple(_as_key(v) for v in value)
    return value


def parse_point(value):
    """Point literal: a list of ints is a lattice point; a dict with coords
    is a tower point; a dict with a support map is a shift point."""
    if isinstance(value, list):
        return tuple(value)
    if isinstance(value, dict) and "coords" in value:
        return TowerPoint(level=value["level"],
                          coords=tuple(value["coords"]),
                          extra=tuple(value.get("extra", ())))
    if isinstance(value, dict) and "support" in value:
        support = _object(value["support"], "support")
        return ShiftPoint.from_support(
            {int(i): v for i, v in support.items()}, value["level"])
    raise ConfigError(f"unreadable point literal {value!r}")


def parse_family(cfg: dict) -> FiniteFamily:
    cells = {}
    for entry in _object(cfg, "family")["cells"]:
        key = _as_key(entry["key"])
        cells[key] = frozenset(parse_point(p) for p in entry["points"])
    return FiniteFamily.of(cells)


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def run_verify(cfg: dict, limits: dict) -> dict:
    space = parse_space(cfg["space"])
    scheme = build_construction(cfg["construction"], space)
    window = parse_window(cfg["window"])
    listed = limits.get("max_uncovered_listed")
    report = verify_cover(
        scheme, space, window,
        point_budget=limits.get("node_budget"),
        max_uncovered_listed=20 if listed is None else listed,
    )
    body = report.to_json()
    body["status"] = "pass" if report.passed else "fail"
    body["colors"] = scheme.colors
    return body


def run_witness(cfg: dict, limits: dict) -> dict:
    families = [build_construction(f) for f in cfg["families"]]
    box_lo, box_hi = cfg["box"]
    dim = cfg.get("box_dim", 1)
    fibers = [parse_point(f) for f in cfg["fibers"]]
    # each fiber may scan every box point
    probes = len(fibers) * len(range(box_lo, box_hi + 1)) ** dim
    check_budget(limits.get("node_budget"), probes,
                 f"{len(fibers)} fibers over the box make {probes} "
                 f"fiber-point probes")
    box = [tuple(p)
           for p in itertools.product(range(box_lo, box_hi + 1), repeat=dim)]
    result = find_fiber_witnesses(families, fibers, box)
    body = result.to_json()
    body["status"] = "pass" if result.all_fibers_witnessed else "fail"
    control_cfg = cfg.get("control")
    if control_cfg is not None and result.all_fibers_witnessed:
        control_cfg = _object(control_cfg, "control")
        delta = MapSpec.make(
            "delta-witness", table=result.delta_table(),
            lower=parse_control(control_cfg.get("lower")),
            upper=parse_control(control_cfg.get("upper")),
        )
        fiber_space = parse_space(cfg["fiber_space"])
        for fiber in fibers:
            fiber_space.validate(fiber)
        ctrl = check_coarse_control(delta, fiber_space, points=fibers)
        body["control"] = ctrl.to_json()
        if not ctrl.passed:
            body["status"] = "fail"
    return body


def run_control(cfg: dict, limits: dict) -> dict:
    m = parse_map(cfg["map"])
    domain = parse_space(cfg["domain"])
    codomain = parse_space(cfg["codomain"]) if "codomain" in cfg else None
    window = parse_window(cfg["window"])
    # every pair of window points is checked
    pairs = math.comb(domain.size(window), 2)
    check_budget(limits.get("node_budget"), pairs,
                 f"window holds {pairs} point pairs")
    report = check_coarse_control(m, domain, codomain, window)
    body = report.to_json()
    body["status"] = "pass" if report.passed else "fail"
    return body


def run_oracle(cfg: dict, limits: dict) -> dict:
    outcome = oracle_1d_nocover(
        cfg["n"], cfg["R"], cfg.get("colors", 1),
        tuple(cfg["window"]), node_budget=limits.get("node_budget"),
    )
    body = outcome.to_json()
    if outcome.status == "feasible":
        scheme = assignment_scheme(outcome)
        recheck = verify_cover(scheme, LatticeSpace((1,)),
                               Window.make(box=(tuple(cfg["window"]),)))
        body["recheck"] = recheck.to_json()
        if not recheck.passed:
            body["status"] = "recheck-failed"
    return body


def run_ord(cfg: dict, limits: dict) -> dict:
    family = FinFamily.of(cfg["family"])
    # the rank recursion and the inclusive closure each visit up to every
    # nonempty subset of every member
    subsets = sum((1 << len(m)) - 1 for m in family.members)
    check_budget(limits.get("node_budget"), subsets,
                 f"family members have {subsets} nonempty subsets")
    body = {
        "status": "ok",
        "rank": ord_rank(family),
        "inclusive": is_inclusive(family),
        "closure_size": len(inclusive_closure(family)),
    }
    return body


def run_satunion(cfg: dict, limits: dict) -> dict:
    V = parse_family(cfg["V"])
    U = parse_family(cfg["U"])
    # every U-cell is measured against every V-cell
    pairs = len(U.cells) * len(V.cells)
    check_budget(limits.get("node_budget"), pairs,
                 f"{len(U.cells)} U-cells by {len(V.cells)} V-cells make "
                 f"{pairs} cell pairs")
    space = parse_space(cfg["space"]) if "space" in cfg else None
    out = saturated_union(V, U, cfg["r"], space)
    points = V.point_union() | U.point_union()
    if space is not None:
        # the union's rows reject points of another kind; this rejects the
        # points of the right kind that are not in the space
        for p in points:
            space.validate(p)

    def point_order(p):
        return p.key() if hasattr(p, "key") else p

    body = {
        "status": "ok",
        "cells": [
            {"key": k,
             "points": [point_to_json(p) for p in sorted(pts, key=point_order)]}
            for k, pts in out.cells
        ],
        "input_points": len(points),
        "output_points": len(out.point_union()),
    }
    return body


def run_suite(cfg: dict, limits: dict) -> dict:
    seed = cfg.get("seed", acceptance.DEFAULT_SEED)
    results = acceptance.run_all(seed)
    for res in results:
        print(res.line())
    return {
        "status": "pass" if all(res.passed for res in results) else "fail",
        "criteria": [res.to_json() for res in results],
    }


RUNNERS = {
    "verify-cover": run_verify,
    "fiber-witness": run_witness,
    "coarse-control": run_control,
    "oracle-1d": run_oracle,
    "ord-rank": run_ord,
    "saturated-union": run_satunion,
    "suite": run_suite,
}

COMMAND_KINDS = {
    "verify": "verify-cover",
    "witness": "fiber-witness",
    "control": "coarse-control",
    "oracle1d": "oracle-1d",
    "ord": "ord-rank",
    "satunion": "saturated-union",
    "suite": "suite",
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _write_csv(path: str, report: dict) -> None:
    rows = report.get("per_color")
    if not rows:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def run_experiment(kind: str, config: dict, *, out: str | None = None,
                   csv_path: str | None = None,
                   budget: int | None = None,
                   seed: int | None = None) -> int:
    """Dispatch one experiment, write its report, return the exit status."""
    limits: dict = {}
    try:
        limits = dict(_object(_object(config, "config").get("limits", {}),
                              "limits"))
        if budget is not None:
            limits["node_budget"] = budget
        for name, value in limits.items():
            if name not in ("node_budget", "max_uncovered_listed"):
                raise ConfigError(f"unknown key limits.{name}; limits takes "
                                  f"node_budget and max_uncovered_listed")
            if value is not None and (type(value) is not int or value < 0):
                raise ConfigError(f"limits.{name} must be null or a "
                                  f"non-negative integer, not "
                                  f"{json.dumps(value)}")
        if seed is not None:
            config = {**config, "seed": seed}
        runner = RUNNERS.get(kind)
        if runner is None:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        body = runner(config, limits)
    except BudgetExceeded as exc:
        # a VerifyError too, so it is caught first: a refusal, not an error
        body = {"status": "inconclusive", "reason": str(exc)}
    except (ValueError, VerifyError, KeyError, TypeError, OverflowError,
            RecursionError) as exc:
        body = {"status": "error", "message": f"{type(exc).__name__}: {exc}"}
    if isinstance(config, dict):
        config = {**config, "kind": kind, "limits": limits}
    envelope = {
        "status": body["status"],
        "config": config,
        "report": body,
        "version": __version__,
    }
    text = json.dumps(envelope, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)
    if csv_path:
        _write_csv(csv_path, body)
    return EXIT_STATUS[body["status"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="coarselab",
        description="Exact-integer cover constructions and their verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMAND_KINDS:
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON config path",
                       required=command not in ("suite",))
        p.add_argument("--out", help="report output path")
        p.add_argument("--csv", help="CSV export path for per-color tables")
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and UnicodeDecodeError
            print(json.dumps({"status": "error", "message": str(exc),
                              "version": __version__}))
            return EXIT_STATUS["error"]
    else:
        config = {}
    return run_experiment(
        COMMAND_KINDS[args.command], config,
        out=args.out, csv_path=args.csv,
        budget=args.budget, seed=args.seed,
    )


if __name__ == "__main__":
    sys.exit(main())
