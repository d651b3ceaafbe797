"""End-to-end CLI runs: config parsing, reports, exit codes, CSV export."""

import json
from pathlib import Path

import pytest

import coarselab
from coarselab.cli import SPACE_BUILDERS, ConfigError, main, parse_space


def run_cli(tmp_path, command, config, extra=()):
    cfg_path = tmp_path / "config.json"
    out_path = tmp_path / "report.json"
    cfg_path.write_text(json.dumps(config))
    status = main([command, "--config", str(cfg_path),
                   "--out", str(out_path), *extra])
    report = json.loads(out_path.read_text())
    return status, report


def test_verify_mixed_grid_config(tmp_path):
    config = {
        "construction": {"name": "mixed-grid",
                         "params": {"m": 1, "n": 1, "k": 3, "R": 5}},
        "space": {"kind": "plain-lattice", "axis_steps": [1, 3]},
        "window": {"axis_boxes": {"0": [-100, 100], "1": [-15, 15]}},
    }
    status, report = run_cli(tmp_path, "verify", config)
    assert status == 0
    assert report["status"] == "pass"
    assert report["report"]["colors"] == 3  # m * 2**m + 1
    assert len(report["report"]["per_color"]) == 3
    assert report["version"] == "0.1.0"
    assert report["config"]["kind"] == "verify-cover"


def test_verify_reports_are_deterministic(tmp_path):
    config = {
        "construction": {"name": "grid", "params": {"dim": 2, "gap": 4}},
        "space": {"kind": "plain-lattice", "axis_steps": [1, 1]},
        "window": {"box": [-20, 20]},
    }
    _, first = run_cli(tmp_path, "verify", config)
    _, second = run_cli(tmp_path, "verify", config)
    assert first == second


def test_verify_csv_export(tmp_path):
    config = {
        "construction": {"name": "grid", "params": {"dim": 1, "gap": 5}},
        "space": {"kind": "plain-lattice", "axis_steps": [1]},
        "window": {"box": [[-50, 50]]},
    }
    csv_path = tmp_path / "colors.csv"
    status, _ = run_cli(tmp_path, "verify", config,
                        extra=("--csv", str(csv_path)))
    assert status == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("color,")
    assert len(lines) == 3  # header + two colors


def test_verify_budget_is_inconclusive(tmp_path):
    config = {
        "construction": {"name": "grid", "params": {"dim": 2, "gap": 5}},
        "space": {"kind": "plain-lattice", "axis_steps": [1, 1]},
        "window": {"box": [-400, 400]},
    }
    status, report = run_cli(tmp_path, "verify", config,
                             extra=("--budget", "1000"))
    assert status == 2
    assert report["status"] == "inconclusive"


def test_verify_tower_space_config(tmp_path):
    config = {
        "construction": {"name": "singleton", "params": {"threshold": 2}},
        "space": {"kind": "tower", "step": "identity"},
        "window": {"levels": [3, 4], "box": [-6, 6]},
    }
    status, report = run_cli(tmp_path, "verify", config)
    assert status == 0
    assert report["report"]["per_color"][0]["min_cross_cell_separation"] == 3


def test_oracle_infeasible_exit_code(tmp_path):
    config = {"n": 3, "R": 5, "colors": 1, "window": [-5, 5]}
    status, report = run_cli(tmp_path, "oracle1d", config)
    assert status == 1
    assert report["status"] == "infeasible"
    assert report["report"]["nodes_explored"] > 0


def test_oracle_feasible_includes_recheck(tmp_path):
    config = {"n": 3, "R": 5, "colors": 1, "window": [-2, 2]}
    status, report = run_cli(tmp_path, "oracle1d", config)
    assert status == 0
    assert report["report"]["recheck"]["verdict"] == "pass"
    assert report["report"]["assignment"]


def test_oracle_long_window_exits_zero(tmp_path):
    config = {"n": 3, "R": 5, "colors": 2, "window": [0, 1000]}
    status, report = run_cli(tmp_path, "oracle1d", config)
    assert status == 0
    assert report["report"]["status"] == "feasible"
    assert report["report"]["recheck"]["verdict"] == "pass"


def test_ord_rank_command(tmp_path):
    status, report = run_cli(tmp_path, "ord", {"family": [[1, 2], [3]]})
    assert status == 0
    assert report["report"]["rank"] == 2
    assert report["report"]["inclusive"] is False


def test_satunion_command(tmp_path):
    config = {
        "V": {"cells": [{"key": ["v", 0],
                         "points": [[x] for x in range(0, 11)]}]},
        "U": {"cells": [{"key": ["u", 0],
                         "points": [[12], [13], [14]]},
                        {"key": ["u", 1],
                         "points": [[30], [31], [32]]}]},
        "r": 3,
    }
    status, report = run_cli(tmp_path, "satunion", config)
    assert status == 0
    cells = {json.dumps(entry["key"]): sorted(p[0] for p in entry["points"])
             for entry in report["report"]["cells"]}
    assert cells['[0, ["v", 0]]'] == list(range(0, 11)) + [12, 13, 14]
    assert cells['[1, ["u", 1]]'] == [30, 31, 32]
    assert report["report"]["output_points"] == 17


def test_witness_command_with_control(tmp_path):
    config = {
        "families": [{"name": "interval", "params": {"size": 6, "sep": 3}}],
        "fibers": [[4 * i] for i in range(25)],
        "box": [-5, 5],
        "box_dim": 1,
        "fiber_space": {"kind": "plain-lattice", "axis_steps": [4]},
        "control": {"lower": {"kind": "identity"},
                    "upper": {"kind": "plus-const", "c": 10}},
    }
    status, report = run_cli(tmp_path, "witness", config)
    assert status == 0
    assert report["report"]["all_fibers_witnessed"] is True
    assert report["report"]["control"]["violations"] == 0


def test_control_command_phi_isometry(tmp_path):
    config = {
        "map": {"name": "phi-tower", "params": {"n": 3}},
        "domain": {"kind": "tower-with-factor", "step": "pow2",
                   "factor_dim": 1},
        "window": {"levels": [1, 3], "box": [-4, 4]},
    }
    status, report = run_cli(tmp_path, "control", config)
    assert status == 0
    assert report["report"]["violations"] == 0
    assert report["report"]["max_observed_stretch"] == 0


def test_config_errors_exit_two(tmp_path):
    status, report = run_cli(tmp_path, "verify",
                             {"construction": {"name": "no-such"},
                              "space": {"kind": "plain-lattice",
                                        "axis_steps": [1]},
                              "window": {"box": [-5, 5]}})
    assert status == 2
    assert report["status"] == "error"
    assert "no-such" in report["report"]["message"]


def test_library_errors_exit_two_with_error_report(tmp_path):
    # the 1-D search supports 1 or 2 colors (VerifyError); ord-rank members
    # must be naturals (ValueError)
    status, report = run_cli(tmp_path, "oracle1d",
                             {"n": 2, "R": 2, "colors": 3, "window": [0, 10]})
    assert status == 2
    assert report["status"] == "error"
    assert report["report"]["message"].startswith("VerifyError:")
    status, report = run_cli(tmp_path, "ord", {"family": [[-1, 2]]})
    assert status == 2
    assert report["status"] == "error"
    assert report["report"]["message"].startswith("ValueError:")


def test_staircase_on_a_lattice_missing_an_axis_exits_two(tmp_path):
    # the staircase with r=2 needs 4 axes; the 3-axis lattice leaves each
    # run-path fiber one axis short
    status, report = run_cli(tmp_path, "verify", {
        "construction": {"name": "staircase",
                         "params": {"n": 1, "r": 2, "height": [1, 1]}},
        "space": {"kind": "plain-lattice", "axis_steps": [2, 2, 1]},
        "window": {"axis_boxes": {"0": [-2, 2], "1": [-2, 2],
                                  "2": [0, 10000]}}})
    assert status == 2
    assert report["status"] == "error"
    assert "fiber needs 3 axes" in report["report"]["message"]


def test_staircase_long_non_unit_moving_axis_exits_two(tmp_path):
    # a 2Z moving axis of 10^9 integers is neither enumerated nor run
    status, report = run_cli(tmp_path, "verify", {
        "construction": {"name": "staircase",
                         "params": {"n": 1, "r": 2, "height": [1, 1]}},
        "space": {"kind": "plain-lattice", "axis_steps": [2, 2, 2, 1]},
        "window": {"axis_boxes": {"0": [-2, 2], "1": [-2, 2],
                                  "2": [0, 1000000000], "3": [1, 1]}}})
    assert status == 2
    assert report["status"] == "error"
    assert "too long to enumerate" in report["report"]["message"]


def test_staircase_moving_axis_past_the_lattice_fails_pointwise(tmp_path):
    # with axis 2 missing altogether there is no run path; every pointwise
    # point is reported as an error instead of an IndexError escaping
    status, report = run_cli(tmp_path, "verify", {
        "construction": {"name": "staircase",
                         "params": {"n": 1, "r": 2, "height": [1, 1]}},
        "space": {"kind": "plain-lattice", "axis_steps": [2, 2]},
        "window": {"axis_boxes": {"0": [-2, 2], "1": [-2, 2],
                                  "2": [0, 10000]}}})
    assert status == 1
    body = report["report"]
    assert (body["verdict"], body["mode"], body["error_total"]) == \
        ("fail", "pointwise", 9)
    assert body["error_sample"][0].endswith("staircase point needs 4 axes")


def test_missing_config_file_exits_two(capsys):
    assert main(["verify", "--config", "/nonexistent/config.json"]) == 2


def test_satunion_with_tower_point_literals(tmp_path):
    # the two level-3 singletons sit 9 apart (level penalty 4+5), so with
    # r=3 the far one survives while the near one is absorbed
    config = {
        "space": {"kind": "tower", "step": "identity"},
        "V": {"cells": [{"key": ["v"],
                         "points": [{"level": 4, "coords": [0, 0, 0, 0]}]}]},
        "U": {"cells": [
            {"key": ["u", 0],
             "points": [{"level": 4, "coords": [4, 0, 0, 0]}]},
            {"key": ["u", 1],
             "points": [{"level": 6, "coords": [0, 0, 0, 0, 0, 0]}]},
        ]},
        "r": 4,
    }
    status, report = run_cli(tmp_path, "satunion", config)
    assert status == 0
    assert report["report"]["output_points"] == 3
    sizes = sorted(len(entry["points"]) for entry in report["report"]["cells"])
    assert sizes == [1, 2]


def test_version_has_one_source(tmp_path):
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    pyproject = tomllib.loads(
        (Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert (pyproject["tool"]["setuptools"]["dynamic"]["version"]
            == {"attr": "coarselab.__version__"})
    _, report = run_cli(tmp_path, "ord", {"family": [[0, 1], [2]]})
    assert report["version"] == coarselab.__version__


@pytest.mark.parametrize("kind", sorted(SPACE_BUILDERS))
def test_parse_space_builds_each_kind(kind):
    assert parse_space({"kind": kind, "axis_steps": [1, 2]}).kind == kind


def test_parse_space_rejects_an_unknown_kind():
    with pytest.raises(ConfigError, match="unknown space kind 'torus'"):
        parse_space({"kind": "torus"})
