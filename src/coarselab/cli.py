"""Batch experiment runner.

Parses a JSON config, builds the named space/scheme/map, runs the requested
verification, and writes a machine-readable report.  Exit status 0 means
pass/feasible, 1 means fail/infeasible/witness-missing, and 2 means
inconclusive or an error in the config or its parameters; the report's
`status` field distinguishes the two.  Reports are deterministic given a config and embed the fully
resolved config for reproducibility.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
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
    MapSpec,
    ShiftPoint,
    SpaceSpec,
    TowerPoint,
    Window,
    lattice_max_distance,
    space_distance,
)
from .verify import (
    BudgetExceeded,
    VerifyError,
    assignment_scheme,
    check_coarse_control,
    find_fiber_witnesses,
    oracle_1d_nocover,
    point_to_json,
    verify_cover,
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

SPACE_BUILDERS = {
    "tower": lambda cfg: SpaceSpec.tower(cfg.get("step", "identity")),
    "tower-with-factor": lambda cfg: SpaceSpec.tower_with_factor(
        cfg.get("step", "identity"), cfg.get("factor_dim", 1)),
    "product-of-towers": lambda cfg: SpaceSpec.product_of_towers(
        cfg.get("step", "identity")),
    "shift-union": lambda cfg: SpaceSpec.shift_union(),
    "plain-lattice": lambda cfg: SpaceSpec.lattice(tuple(cfg["axis_steps"])),
}


def parse_space(cfg: dict) -> SpaceSpec:
    build = SPACE_BUILDERS.get(cfg.get("kind"))
    if build is None:
        raise ConfigError(f"unknown space kind {cfg.get('kind')!r}")
    return build(cfg)


def parse_window(cfg: dict) -> Window:
    box = cfg.get("box")
    if box is not None and box and isinstance(box[0], list):
        box = [tuple(iv) for iv in box]
    axis_boxes = {int(i): tuple(iv)
                  for i, iv in (cfg.get("axis_boxes") or {}).items()}
    return Window.make(
        levels=tuple(cfg["levels"]) if cfg.get("levels") else None,
        box=tuple(box) if box is not None else None,
        max_support=cfg.get("max_support"),
        axis_boxes=axis_boxes,
    )


def build_construction(cfg: dict, space: SpaceSpec | None = None):
    name = cfg.get("name")
    params = cfg.get("params", {})
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
    return ControlFn(cfg.get("kind", "identity"), cfg.get("c", 0))


def parse_map(cfg: dict) -> MapSpec:
    return MapSpec.make(
        cfg["name"], cfg.get("params", {}),
        lower=parse_control(cfg.get("lower")),
        upper=parse_control(cfg.get("upper")),
    )


def _as_key(value):
    if isinstance(value, list):
        return tuple(_as_key(v) for v in value)
    return value


def _key_json(value):
    if isinstance(value, tuple):
        return [_key_json(v) for v in value]
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
        return ShiftPoint.from_support(
            {int(i): v for i, v in value["support"].items()}, value["level"])
    raise ConfigError(f"unreadable point literal {value!r}")


def parse_family(cfg: dict) -> FiniteFamily:
    cells = {}
    for entry in cfg["cells"]:
        key = _as_key(entry["key"])
        cells[key] = frozenset(parse_point(p) for p in entry["points"])
    return FiniteFamily.of(cells)


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def run_verify(cfg: dict, limits: dict) -> tuple[int, dict]:
    space = parse_space(cfg["space"])
    scheme = build_construction(cfg["construction"], space)
    window = parse_window(cfg["window"])
    try:
        report = verify_cover(
            scheme, space, window,
            point_budget=limits.get("node_budget"),
            max_uncovered_listed=limits.get("max_uncovered_listed", 20),
        )
    except BudgetExceeded as exc:
        return 2, {"status": "inconclusive", "reason": str(exc)}
    status = 0 if report.passed else 1
    body = report.to_json()
    body["status"] = "pass" if report.passed else "fail"
    body["colors"] = scheme.colors
    return status, body


def run_witness(cfg: dict, limits: dict) -> tuple[int, dict]:
    families = [build_construction(f) for f in cfg["families"]]
    box_lo, box_hi = cfg["box"]
    dim = cfg.get("box_dim", 1)
    box = [tuple(p)
           for p in itertools.product(range(box_lo, box_hi + 1), repeat=dim)]
    fibers = [parse_point(f) for f in cfg["fibers"]]
    result = find_fiber_witnesses(families, fibers, box)
    body = result.to_json()
    status = 0 if result.all_fibers_witnessed else 1
    body["status"] = "pass" if status == 0 else "fail"
    control_cfg = cfg.get("control")
    if control_cfg is not None and result.all_fibers_witnessed:
        delta = MapSpec.make(
            "delta-witness", table=result.delta_table(),
            lower=parse_control(control_cfg.get("lower")),
            upper=parse_control(control_cfg.get("upper")),
        )
        ctrl = check_coarse_control(
            delta, parse_space(cfg["fiber_space"]), lattice_max_distance,
            points=fibers,
        )
        body["control"] = ctrl.to_json()
        if not ctrl.passed:
            status = 1
            body["status"] = "fail"
    return status, body


def run_control(cfg: dict, limits: dict) -> tuple[int, dict]:
    m = parse_map(cfg["map"])
    domain = parse_space(cfg["domain"])
    codomain = (parse_space(cfg["codomain"]) if "codomain" in cfg
                else lattice_max_distance)
    window = parse_window(cfg["window"])
    report = check_coarse_control(m, domain, codomain, window)
    status = 0 if report.passed else 1
    body = report.to_json()
    body["status"] = "pass" if status == 0 else "fail"
    return status, body


def run_oracle(cfg: dict, limits: dict) -> tuple[int, dict]:
    outcome = oracle_1d_nocover(
        cfg["n"], cfg["R"], cfg.get("colors", 1),
        tuple(cfg["window"]), node_budget=limits.get("node_budget"),
    )
    body = outcome.to_json()
    if outcome.status == "feasible":
        scheme = assignment_scheme(outcome, cfg["n"], cfg["R"],
                                   cfg.get("colors", 1))
        recheck = verify_cover(scheme, SpaceSpec.lattice((1,)),
                               Window.make(box=(tuple(cfg["window"]),)))
        body["recheck"] = recheck.to_json()
        if not recheck.passed:
            return 1, {**body, "status": "recheck-failed"}
        return 0, body
    if outcome.status == "infeasible":
        return 1, body
    return 2, body


def run_ord(cfg: dict, limits: dict) -> tuple[int, dict]:
    family = FinFamily.of(cfg["family"])
    body = {
        "status": "ok",
        "rank": ord_rank(family),
        "inclusive": is_inclusive(family),
        "closure_size": len(inclusive_closure(family)),
    }
    return 0, body


def run_satunion(cfg: dict, limits: dict) -> tuple[int, dict]:
    V = parse_family(cfg["V"])
    U = parse_family(cfg["U"])
    if "space" in cfg:
        space = parse_space(cfg["space"])
        dist = lambda a, b: space_distance(space, a, b)  # noqa: E731
    else:
        dist = lattice_max_distance
    out = saturated_union(V, U, cfg["r"], dist=dist)

    def point_order(p):
        return p.key() if hasattr(p, "key") else p

    body = {
        "status": "ok",
        "cells": [
            {"key": _key_json(k),
             "points": [point_to_json(p) for p in sorted(pts, key=point_order)]}
            for k, pts in out.cells
        ],
        "input_points": len(V.point_union() | U.point_union()),
        "output_points": len(out.point_union()),
    }
    return 0, body


def run_suite(cfg: dict, limits: dict) -> tuple[int, dict]:
    seed = cfg.get("seed", acceptance.DEFAULT_SEED)
    results = acceptance.run_all(seed)
    for res in results:
        print(res.line())
    all_pass = all(res.passed for res in results)
    body = {
        "status": "pass" if all_pass else "fail",
        "criteria": [res.to_json() for res in results],
    }
    return 0 if all_pass else 1, body


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
    limits = dict(config.get("limits", {}))
    if budget is not None:
        limits["node_budget"] = budget
    if seed is not None:
        config = {**config, "seed": seed}
    runner = RUNNERS.get(kind)
    envelope: dict
    if runner is None:
        status, body = 2, {"status": "error",
                           "message": f"unknown experiment kind {kind!r}"}
    else:
        try:
            status, body = runner(config, limits)
        except (ValueError, VerifyError, KeyError, TypeError) as exc:
            status, body = 2, {"status": "error",
                               "message": f"{type(exc).__name__}: {exc}"}
    envelope = {
        "status": body.get("status", "error"),
        "config": {**config, "kind": kind, "limits": limits},
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
    return status


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
        except (OSError, json.JSONDecodeError) as exc:
            print(json.dumps({"status": "error", "message": str(exc),
                              "version": __version__}))
            return 2
    else:
        config = {}
    return run_experiment(
        COMMAND_KINDS[args.command], config,
        out=args.out, csv_path=args.csv,
        budget=args.budget, seed=args.seed,
    )


if __name__ == "__main__":
    sys.exit(main())
