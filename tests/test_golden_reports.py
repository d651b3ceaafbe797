"""Pinned report bytes: one small config per CLI command, its exit status and
the sha256 of the report it writes (and of its per-colour CSV where the case
asks for one).  A refactor that leaves behaviour alone leaves every digest
unchanged; a digest moves only with a change that is meant to alter reports.
"""

import hashlib
import json

import pytest

from coarselab.cli import main

WITNESS = {
    "families": [{"name": "interval", "params": {"size": 6, "sep": 3}}],
    "fibers": [[4 * i] for i in range(25)],
    "box": [-5, 5],
    "box_dim": 1,
    "fiber_space": {"kind": "plain-lattice", "axis_steps": [4]},
    "control": {"lower": {"kind": "identity"},
                "upper": {"kind": "plus-const", "c": 10}},
}

SATUNION_LATTICE = {
    "V": {"cells": [{"key": ["v", 0], "points": [[x] for x in range(0, 11)]}]},
    "U": {"cells": [{"key": ["u", 0], "points": [[12], [13], [14]]},
                    {"key": ["u", 1], "points": [[30], [31], [32]]}]},
    "r": 3,
}

SATUNION_TOWER = {
    "space": {"kind": "tower", "step": "identity"},
    "V": {"cells": [{"key": ["v"],
                     "points": [{"level": 4, "coords": [0, 0, 0, 0]}]}]},
    "U": {"cells": [
        {"key": ["u", 0], "points": [{"level": 4, "coords": [4, 0, 0, 0]}]},
        {"key": ["u", 1],
         "points": [{"level": 6, "coords": [0, 0, 0, 0, 0, 0]}]},
    ]},
    "r": 4,
}

# name -> (command, config, writes a CSV)
CASES = {
    "verify-tower": ("verify", {
        "construction": {"name": "singleton", "params": {"threshold": 2}},
        "space": {"kind": "tower", "step": "identity"},
        "window": {"levels": [3, 4], "box": [-6, 6]},
    }, True),
    "verify-omega": ("verify", {
        "construction": {"name": "omega", "params": {"n": 3, "r": 5}},
        "space": {"kind": "tower-with-factor", "step": "pow2",
                  "factor_dim": 1},
        "window": {"levels": [1, 5], "box": [-8, 8]},
    }, True),
    "verify-product": ("verify", {
        "construction": {"name": "product-square", "params": {"k": 1, "n": 2}},
        "space": {"kind": "product-of-towers", "step": "pow2"},
        "window": {"levels": [1, 2], "box": [-4, 4]},
    }, True),
    "verify-shift-union": ("verify", {
        "construction": {"name": "shift-union", "params": {"k": 1, "m": 2}},
        "space": {"kind": "shift-union"},
        "window": {"levels": [0, 3], "max_support": 7, "box": [0, 0],
                   "axis_boxes": {"2": [-12, 12], "3": [-4, 4],
                                  "5": [-6, 6]}},
    }, True),
    "verify-fiber-product": ("verify", {
        "construction": {"name": "fiber-product", "params": {"threshold": 1},
                         "base": {"name": "grid",
                                  "params": {"dim": 1, "gap": 5}}},
        "space": {"kind": "tower-with-factor", "step": "pow2",
                  "factor_dim": 1},
        "window": {"levels": [2, 3], "box": [-8, 8]},
    }, True),
    "verify-staircase-runs": ("verify", {
        "construction": {"name": "staircase",
                         "params": {"n": 1, "r": 2, "height": [1, 1]}},
        "space": {"kind": "plain-lattice", "axis_steps": [2, 2, 1, 1]},
        "window": {"axis_boxes": {"0": [-4, 4], "1": [-4, 4],
                                  "2": [0, 10000], "3": [1, 1]}},
    }, True),
    "control-codomain": ("control", {
        "map": {"name": "phi-tower", "params": {"n": 2}},
        "domain": {"kind": "tower-with-factor", "step": "pow2",
                   "factor_dim": 1},
        "codomain": {"kind": "plain-lattice", "axis_steps": [1, 1, 1, 1]},
        "window": {"levels": [1, 2], "box": [-3, 3]},
    }, False),
    "control-no-codomain": ("control", {
        "map": {"name": "f-level-projection"},
        "domain": {"kind": "shift-union"},
        "window": {"levels": [0, 2], "box": [-2, 2], "max_support": 2},
    }, False),
    "witness-control": ("witness", WITNESS, False),
    "oracle-feasible": ("oracle1d",
                        {"n": 3, "R": 5, "colors": 2, "window": [0, 30]},
                        False),
    "oracle-infeasible": ("oracle1d",
                          {"n": 3, "R": 5, "colors": 1, "window": [-5, 5]},
                          False),
    "ord": ("ord", {"family": [[1, 2], [3], [0, 4, 5], [7]]}, False),
    "satunion-lattice": ("satunion", SATUNION_LATTICE, False),
    "satunion-tower": ("satunion", SATUNION_TOWER, False),
}

# name -> (exit status, report sha256, CSV sha256 or None)
GOLDEN = {
    "control-codomain": (
        0,
        "316a02914c2362c97e6e4c3eb492197243fb52f421d098c6a976d213e94154fb",
        None),
    "control-no-codomain": (
        1,
        "aecda7828d9cae63d8e6dcf93439e1f6052fac4f17b57c2a9c75a8589ae3dd73",
        None),
    "oracle-feasible": (
        0,
        "e6afa45460eec0d9e077a51a10403393e4c6796e24cf54b8d9f1ae4d9725ce4e",
        None),
    "oracle-infeasible": (
        1,
        "b2abd6130661ee2a424b37f6a10e8f1ddc6487eefbf56a4c9076bd1789ce632b",
        None),
    "ord": (
        0,
        "756a3c43acbd5d6ab58978b9048ddfc7f21b410c5ec2932511a4e298ba440bf0",
        None),
    "satunion-lattice": (
        0,
        "5b7898d523bfbbfd963373e3bd1950190e21fb89d8f75e265084a7c7ec2b573c",
        None),
    "satunion-tower": (
        0,
        "0d78c4e554a58d65a26dfa35f326667f98b9b86610350555251f6160098420c4",
        None),
    "verify-fiber-product": (
        0,
        "0542e08a245e1181087964535b3f48595e6f16ab3256cfa60f96e9343913820c",
        "18bd8f763cc3daae539384064203b54647e38d3822162cbb400e14b759b51a04"),
    "verify-omega": (
        0,
        "e06a0b1cdc9bf44bcf15fc8a5e1eac3079d04858d10e45ffa8a7fde9282dbc05",
        "f733aae664ca322efff368822fdec1af6793bb8a6551a41c8e9bbfbed33f5788"),
    "verify-product": (
        0,
        "e188356759190b28233d47920badda33e7f9feffa7ce825f2fe5124f95862adc",
        "f0982d612c8bcbfbe93a6a120dc0a3e3085378bb413a7a5cfe113b1c5b18ae8b"),
    "verify-shift-union": (
        0,
        "1a27b2abfcb28739359cbc0eb7c1ca6c23f693dbcc1333306e011289fb983cd9",
        "91991708ad3f5ac7ee2d99fd4b7f67d2dc00948f002658252bdd91d6eb9c6b69"),
    "verify-staircase-runs": (
        0,
        "023068d13d20772e8fd18addf529d4d253fc893b4cccfd07b43f40c910866c34",
        "7b36c0780beae902e0aeea24d4da5b773ab18fc20e1cbf214a558d76f10cc4be"),
    "verify-tower": (
        0,
        "d95d8b8fa537cef0523d49ba375af7f4ba5dbf04c752b9c0a41f71a10dc50c15",
        "ce147c325b9ab12bb89cb2c142412ff6cd6f34bb2432059556080406adccbdb5"),
    "witness-control": (
        0,
        "41b274043104f45f11dcffccfc27202f89d20112b6749e28518ec4f3190491cf",
        None),
}


def run_case(tmp_path, name):
    """Exit status and the digests of the files the case writes."""
    command, config, with_csv = CASES[name]
    cfg, out, csv = (tmp_path / f for f in ("config.json", "report.json",
                                            "colors.csv"))
    cfg.write_text(json.dumps(config))
    extra = ["--csv", str(csv)] if with_csv else []
    status = main([command, "--config", str(cfg), "--out", str(out), *extra])
    csv_digest = (hashlib.sha256(csv.read_bytes()).hexdigest()
                  if with_csv else None)
    return status, hashlib.sha256(out.read_bytes()).hexdigest(), csv_digest


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_are_pinned(tmp_path, name):
    assert run_case(tmp_path, name) == GOLDEN[name]
