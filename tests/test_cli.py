"""End-to-end CLI runs: config parsing, reports, exit codes, CSV export."""

import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coarselab
from coarselab import acceptance
from coarselab.cli import (
    RUNNERS,
    SPACE_BUILDERS,
    ConfigError,
    build_construction,
    main,
    parse_map,
    parse_space,
    run_experiment,
)
from coarselab.spaces import (
    ControlFn,
    LatticeSpace,
    MapSpec,
    ProductSpace,
    ShiftUnionSpace,
    TowerSpace,
    Window,
    evaluate_map,
    lattice_max_distance,
    point_from_json,
    point_to_json,
)
from coarselab.verify import check_coarse_control


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
    assert report["report"]["reason"] == ("window holds 641601 points, "
                                          "budget is 1000")
    # the run path counts fibers: 5 x 5 on the scaled axes, one height
    runs = {
        "construction": {"name": "staircase",
                         "params": {"n": 1, "r": 2, "height": [1, 1]}},
        "space": {"kind": "plain-lattice", "axis_steps": [2, 2, 1, 1]},
        "window": {"axis_boxes": {"0": [-4, 4], "1": [-4, 4],
                                  "2": [0, 10000], "3": [1, 1]}},
    }
    status, report = run_cli(tmp_path, "verify", runs,
                             extra=("--budget", "10"))
    assert (status, report["status"]) == (2, "inconclusive")
    assert report["report"]["reason"] == ("window holds 25 fibers, "
                                          "budget is 10")


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


@pytest.mark.parametrize("family, rank", [
    ([[0, 1000000000]], 2),     # two bits after relabelling, not 10^9
    ([list(range(14))], 14),    # 2^14 subfamilies on one member
])
def test_ord_rank_on_far_apart_and_large_members(tmp_path, family, rank):
    status, report = run_cli(tmp_path, "ord", {"family": family})
    assert status == 0
    assert report["report"]["rank"] == rank


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


WITNESS_CONFIG = {
    "families": [{"name": "interval", "params": {"size": 6, "sep": 3}}],
    "fibers": [[4 * i] for i in range(25)],
    "box": [-5, 5],
    "box_dim": 1,
    "fiber_space": {"kind": "plain-lattice", "axis_steps": [4]},
    "control": {"lower": {"kind": "identity"},
                "upper": {"kind": "plus-const", "c": 10}},
}


def test_witness_command_with_control(tmp_path):
    status, report = run_cli(tmp_path, "witness", WITNESS_CONFIG)
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
    # must be naturals, so negatives, floats and bools are ValueErrors
    status, report = run_cli(tmp_path, "oracle1d",
                             {"n": 2, "R": 2, "colors": 3, "window": [0, 10]})
    assert status == 2
    assert report["status"] == "error"
    assert report["report"]["message"].startswith("VerifyError:")
    for family in ([[-1, 2]], [[1.5, 2]], [[True, 2]]):
        status, report = run_cli(tmp_path, "ord", {"family": family})
        assert status == 2
        assert report["status"] == "error"
        assert report["report"]["message"].startswith("ValueError:")


GRID_VERIFY = {
    "construction": {"name": "grid", "params": {"dim": 1, "gap": 2}},
    "space": {"kind": "plain-lattice", "axis_steps": [1]},
    "window": {"box": [[-6, 6]]},
}


@pytest.mark.parametrize("config, message", [
    ([GRID_VERIFY], "config must be a JSON object, not list"),
    ({**GRID_VERIFY, "space": ["plain-lattice"]},
     "space must be a JSON object, not list"),
    ({**GRID_VERIFY, "space": "plain-lattice"},
     "space must be a JSON object, not str"),
    ({**GRID_VERIFY, "construction": ["grid"]},
     "construction must be a JSON object, not list"),
    ({**GRID_VERIFY, "construction": "grid"},
     "construction must be a JSON object, not str"),
    ({**GRID_VERIFY, "limits": 5}, "limits must be a JSON object, not int"),
])
def test_non_object_sections_exit_two(tmp_path, config, message):
    status, report = run_cli(tmp_path, "verify", config)
    assert status == 2
    assert report["status"] == "error"
    assert report["report"]["message"] == f"ConfigError: {message}"


@pytest.mark.parametrize("limits, extra, field, shown", [
    ({"node_budget": "x"}, (), "node_budget", '"x"'),
    ({"node_budget": True}, (), "node_budget", "true"),
    ({"node_budget": 1.5}, (), "node_budget", "1.5"),
    ({}, ("--budget", "-1"), "node_budget", "-1"),
    ({"max_uncovered_listed": 2.5}, (), "max_uncovered_listed", "2.5"),
    ({"max_uncovered_listed": -3}, (), "max_uncovered_listed", "-3"),
])
def test_bad_limits_exit_two(tmp_path, limits, extra, field, shown):
    status, report = run_cli(tmp_path, "verify",
                             {**GRID_VERIFY, "limits": limits}, extra)
    assert status == 2
    assert report["status"] == "error"
    assert report["report"]["message"] == (
        f"ConfigError: limits.{field} must be null or a non-negative "
        f"integer, not {shown}")


def test_null_max_uncovered_listed_keeps_the_default_cap(tmp_path):
    # 21 window points, 5 uncovered: null lists them as an omitted key does
    config = {"construction": {"name": "interval",
                               "params": {"size": 3, "sep": 2}},
              "space": {"kind": "plain-lattice", "axis_steps": [1]},
              "window": {"box": [[0, 20]]}}
    status, report = run_cli(
        tmp_path, "verify",
        {**config, "limits": {"max_uncovered_listed": None}})
    _, omitted = run_cli(tmp_path, "verify", config)
    assert (status, report["status"]) == (1, "fail")
    assert report["report"] == omitted["report"]
    assert report["report"]["uncovered_total"] == 5


def test_unknown_limits_key_exits_two(tmp_path):
    # a misspelt node_budget would otherwise leave the run unbounded
    status, report = run_cli(tmp_path, "verify",
                             {**GRID_VERIFY, "limits": {"node_budgte": 1}})
    assert status == 2
    assert report["status"] == "error"
    assert report["report"]["message"] == (
        "ConfigError: unknown key limits.node_budgte; limits takes "
        "node_budget and max_uncovered_listed")


def test_ord_rank_over_budget_is_inconclusive(tmp_path):
    # one 20-element member has 2^20 - 1 nonempty subsets
    status, report = run_cli(tmp_path, "ord", {"family": [list(range(20))]},
                             ["--budget", "1000"])
    assert status == 2
    assert report["status"] == "inconclusive"
    assert report["report"]["reason"] == ("family members have 1048575 "
                                          "nonempty subsets, budget is 1000")
    # [[1, 2], [3]] has 3 + 1 subsets: within a budget of 4, over one of 3
    family = {"family": [[1, 2], [3]]}
    assert run_cli(tmp_path, "ord", family, ["--budget", "4"])[0] == 0
    status, report = run_cli(tmp_path, "ord",
                             {**family, "limits": {"node_budget": 3}})
    assert (status, report["status"]) == (2, "inconclusive")


def test_coarse_control_over_budget_is_inconclusive(tmp_path):
    # levels 1..3 over box [-4, 4] hold 135 points, so C(135, 2) = 9,045
    # pairs are checked
    config = {
        "map": {"name": "phi-tower", "params": {"n": 3}},
        "domain": {"kind": "tower-with-factor", "step": "pow2",
                   "factor_dim": 1},
        "window": {"levels": [1, 3], "box": [-4, 4]},
    }
    out = tmp_path / "report.json"
    assert run_experiment("coarse-control", config, out=str(out),
                          budget=10) == 2
    report = json.loads(out.read_text())
    assert report["status"] == "inconclusive"
    assert report["report"]["reason"] == ("window holds 9045 point pairs, "
                                          "budget is 10")
    assert run_experiment("coarse-control",
                          {**config, "limits": {"node_budget": 9044}},
                          out=str(out)) == 2
    assert run_experiment("coarse-control", config, out=str(out),
                          budget=9045) == 0
    assert json.loads(out.read_text())["report"]["pairs_checked"] == 9045


def test_fiber_witness_over_budget_is_inconclusive(tmp_path):
    # 25 fibers may each scan all 11 box points: 275 probes
    out = tmp_path / "report.json"
    assert run_experiment("fiber-witness", WITNESS_CONFIG, out=str(out),
                          budget=274) == 2
    report = json.loads(out.read_text())
    assert report["status"] == "inconclusive"
    assert report["report"]["reason"] == (
        "25 fibers over the box make 275 fiber-point probes, budget is 274")
    assert run_experiment("fiber-witness",
                          {**WITNESS_CONFIG, "limits": {"node_budget": 275}},
                          out=str(out)) == 0
    assert json.loads(out.read_text())["report"]["witnessed"] == 25


def test_saturated_union_over_budget_is_inconclusive(tmp_path):
    # 2 U-cells by 1 V-cell
    config = {
        "V": {"cells": [{"key": ["v"], "points": [[0], [1]]}]},
        "U": {"cells": [{"key": ["u"], "points": [[3]]},
                        {"key": ["w"], "points": [[9]]}]},
        "r": 2,
    }
    out = tmp_path / "report.json"
    assert run_experiment("saturated-union", config, out=str(out),
                          budget=1) == 2
    report = json.loads(out.read_text())
    assert report["status"] == "inconclusive"
    assert report["report"]["reason"] == ("2 U-cells by 1 V-cells make 2 "
                                          "cell pairs, budget is 1")
    assert run_experiment("saturated-union",
                          {**config, "limits": {"node_budget": 2}},
                          out=str(out)) == 0
    assert json.loads(out.read_text())["report"]["output_points"] == 4


def test_budget_refusal_does_not_list_the_window(tmp_path):
    # 2,000,001 points against a budget of 1000: counted, never listed
    config = {
        "construction": {"name": "grid", "params": {"dim": 1, "gap": 5}},
        "space": {"kind": "plain-lattice", "axis_steps": [1]},
        "window": {"box": [[-1000000, 1000000]]},
    }
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        status = run_experiment("verify-cover", config, out=str(out),
                                budget=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 2
    assert json.loads(out.read_text())["report"]["reason"] == (
        "window holds 2000001 points, budget is 1000")
    assert peak < 2 ** 20


def _nested_key(depth):
    key = 0
    for _ in range(depth):
        key = [key]
    return key


HUGE = [0, 10 ** 20]  # wider than a machine int can count


@pytest.mark.parametrize("command, config, status, result", [
    ("satunion", {"V": {"cells": [{"key": _nested_key(600),
                                   "points": [[0]]}]},
                  "U": {"cells": []}, "r": 1}, 2, "error"),
    ("verify", {"construction": {"name": "grid",
                                 "params": {"dim": 1, "gap": 5}},
                "space": {"kind": "plain-lattice", "axis_steps": [1]},
                "window": {"box": [HUGE]}}, 2, "error"),
    ("witness", {"families": [{"name": "interval",
                               "params": {"size": 3, "sep": 2}}],
                 "fibers": [[0]], "box": HUGE}, 2, "error"),
    ("control", {"map": {"name": "phi-tower", "params": {"n": 1}},
                 "domain": {"kind": "tower"},
                 "window": {"levels": [1, 1], "box": HUGE}}, 2, "error"),
    # the search stops at the first cluster too wide to close
    ("oracle1d", {"n": 3, "R": 5, "colors": 1, "window": HUGE},
     1, "infeasible"),
], ids=["satunion-deep-key", "verify", "witness", "control", "oracle1d"])
def test_deep_keys_and_huge_windows_get_a_report(tmp_path, command, config,
                                                 status, result):
    code, report = run_cli(tmp_path, command, config, ["--budget", "50"])
    assert (code, report["status"]) == (status, result)
    if command == "oracle1d":
        assert report["report"]["nodes_explored"] <= 50


def test_suite_command_runs_each_criterion(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CRITERIA", (
        ("oracle-1d", acceptance.criterion_oracle),
        ("saturated-union", acceptance.criterion_saturated_union)))
    assert run_experiment("suite", {"seed": 7}) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[PASS] ") for line in lines) == 2
    report = json.loads("\n".join(lines[2:]))
    assert report["status"] == "pass"
    assert (report["report"]["criteria"][1]["details"]
            == acceptance.criterion_saturated_union(7).details)

    def failing():
        return acceptance.CriterionResult("always fails", False, 0.0, 1.0)

    monkeypatch.setattr(acceptance, "CRITERIA", (("failing", failing),))
    assert run_experiment("suite", {}) == 1
    assert "[FAIL] always fails" in capsys.readouterr().out


@pytest.mark.parametrize("config, extra, shown", [
    ({"seed": True}, (), "true"),
    ({"seed": 1.5}, (), "1.5"),
    ({}, ("--seed", "-1"), "-1"),
    ({"seed": "x"}, (), '"x"'),
])
def test_bad_suite_seed_exits_two(tmp_path, monkeypatch, capsys, config,
                                  extra, shown):
    # refused before any criterion runs, as a bad `limits` value is
    def ran():
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(acceptance, "CRITERIA", (("ran", ran),))
    status, report = run_cli(tmp_path, "suite", config, extra)
    assert status == 2
    assert report["status"] == "error"
    assert report["report"]["message"] == (
        f"ConfigError: seed must be a non-negative integer, not {shown}")
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# exit-contract fuzz
# ---------------------------------------------------------------------------

EXIT_OF_STATUS = {"pass": 0, "ok": 0, "feasible": 0,
                  "fail": 1, "infeasible": 1, "recheck-failed": 1,
                  "error": 2, "inconclusive": 2}

# one small valid config per kind but the suite, whose one run takes seconds
VALID_CONFIGS = [
    ("verify-cover", GRID_VERIFY),
    ("verify-cover", {
        "construction": {"name": "staircase",
                         "params": {"n": 1, "r": 2, "height": [1, 1]}},
        "space": {"kind": "plain-lattice", "axis_steps": [2, 2, 1, 1]},
        "window": {"axis_boxes": {"0": [-2, 2], "1": [-2, 2],
                                  "2": [0, 40], "3": [1, 1]}}}),
    ("fiber-witness", {
        "families": [{"name": "interval", "params": {"size": 3, "sep": 2}}],
        "fibers": [[0], [4]], "box": [-3, 3], "box_dim": 1,
        "fiber_space": {"kind": "plain-lattice", "axis_steps": [4]},
        "control": {"upper": {"kind": "plus-const", "c": 3}}}),
    ("coarse-control", {
        "map": {"name": "phi-tower", "params": {"n": 2}},
        "domain": {"kind": "tower-with-factor", "step": "pow2",
                   "factor_dim": 1},
        "window": {"levels": [1, 2], "box": [-2, 2]}}),
    ("oracle-1d", {"n": 2, "R": 2, "colors": 2, "window": [0, 12]}),
    ("ord-rank", {"family": [[1, 2], [3]], "limits": {"node_budget": 9}}),
    ("saturated-union", {
        "V": {"cells": [{"key": ["v"], "points": [[0], [1]]}]},
        "U": {"cells": [{"key": ["u"], "points": [[3]]},
                        {"key": ["w"], "points": [[9]]}]},
        "r": 2}),
]

# small values, so that a mutated window or parameter stays cheap to run
LEAVES = (st.none() | st.booleans() | st.integers(-2, 3)
          | st.sampled_from(["", "grid", "identity", "plain-lattice"]))
JSON = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(
                       ["kind", "name", "params", "box", "levels", "level",
                        "coords", "support", "cells", "key", "points",
                        "node_budget", "0"]), inner, max_size=3)),
    max_leaves=6)


@st.composite
def mutated(draw, value):
    """`value` with one entry somewhere inside it dropped or replaced by a
    small JSON value, or `value` replaced whole."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        out = value.copy()
        key = draw(st.sampled_from(sorted(out) if isinstance(out, dict)
                                   else range(len(out))))
        if draw(st.booleans()):
            del out[key]
        else:
            out[key] = draw(mutated(value[key]))
        return out
    return draw(JSON)


# valid limits, and the non-integers, bools and negatives they reject
LIMITS = (st.none() | st.booleans() | st.integers(-2, 50)
          | st.sampled_from([1.5, "", "x"]))


@st.composite
def experiments(draw):
    kind, config = draw(st.sampled_from(VALID_CONFIGS))
    if draw(st.booleans()):
        config = draw(mutated(config))
    if draw(st.integers(0, 3)) == 0:
        kind = draw(st.sampled_from(sorted(set(RUNNERS) - {"suite"})
                                    + ["no-such-kind"]))
    if isinstance(config, dict) and draw(st.booleans()):
        config = {**config, "limits": draw(st.fixed_dictionaries(
            {}, optional=dict.fromkeys(("node_budget", "max_uncovered_listed"),
                                       LIMITS)))}
    return kind, config, draw(st.none() | st.integers(0, 50))


@settings(max_examples=300, deadline=None)
@given(experiments())
def test_exit_code_matches_report_status(experiment):
    kind, config, budget = experiment
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        code = run_experiment(kind, config, out=str(out), budget=budget)
        envelope = json.loads(out.read_text())
    assert code in (0, 1, 2)
    assert EXIT_OF_STATUS[envelope["status"]] == code


def test_staircase_on_a_lattice_missing_an_axis_fails_on_the_run_path(
        tmp_path):
    # the staircase with r=2 needs 4 axes; the 3-axis lattice leaves each
    # run-path fiber one axis short, so all 9 fibers of 10,001 points are
    # errors, as each point is on the pointwise twin below
    status, report = run_cli(tmp_path, "verify", {
        "construction": {"name": "staircase",
                         "params": {"n": 1, "r": 2, "height": [1, 1]}},
        "space": {"kind": "plain-lattice", "axis_steps": [2, 2, 1]},
        "window": {"axis_boxes": {"0": [-2, 2], "1": [-2, 2],
                                  "2": [0, 10000]}}})
    assert status == 1
    body = report["report"]
    assert (body["verdict"], body["mode"], body["error_total"],
            body["points_seen"]) == ("fail", "runs", 9 * 10001, 9 * 10001)
    assert body["error_sample"][0].endswith("fiber needs 3 axes")


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


@pytest.mark.parametrize("data", [
    b'{"family": [[1]], "note": "\xff"}',
    b"[" * 100_000 + b"]" * 100_000,
], ids=["not-utf-8", "nested-past-the-recursion-limit"])
def test_unreadable_config_file_exits_two(tmp_path, capsys, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    assert main(["ord", "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "error"


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


def test_satunion_with_mixed_dimension_points_exits_two(tmp_path):
    # a 1-D point and a 2-D point have no distance: not an absorption
    config = {
        "V": {"cells": [{"key": ["v"], "points": [[0], [1, 1]]}]},
        "U": {"cells": [{"key": ["u"], "points": [[2]]}]},
        "r": 1,
    }
    status, report = run_cli(tmp_path, "satunion", config)
    assert status == 2
    assert report["status"] == "error"
    assert "one dimension" in report["report"]["message"]


@pytest.mark.parametrize("command, config, message", [
    # lattice point literals in a tower space
    ("satunion", {"space": {"kind": "tower"},
                  "V": {"cells": [{"key": ["v"], "points": [[0]]}]},
                  "U": {"cells": [{"key": ["u"], "points": [[2]]}]},
                  "r": 1},
     "tower rows need TowerPoints"),
    # phi-tower's images are lattice tuples, not shift points
    ("control", {"map": {"name": "phi-tower", "params": {"n": 2}},
                 "domain": {"kind": "tower", "step": "pow2"},
                 "codomain": {"kind": "shift-union"},
                 "window": {"levels": [1, 2], "box": [-2, 2]}},
     "shift-union rows need ShiftPoints"),
])
def test_points_of_another_kind_exit_two(tmp_path, command, config, message):
    status, report = run_cli(tmp_path, command, config)
    assert status == 2
    assert report["status"] == "error"
    assert report["report"]["message"] == f"SpaceError: {message}"


@pytest.mark.parametrize("command, config, message", [
    # pow2 level 2 wants coordinates divisible by 4
    ("satunion", {"space": {"kind": "tower", "step": "pow2"},
                  "V": {"cells": [{"key": ["v"], "points": [
                      {"level": 2, "coords": [1, 1]}]}]},
                  "U": {"cells": [{"key": ["u"], "points": [
                      {"level": 2, "coords": [4, 4]}]}]},
                  "r": 1},
     "coord 1 at axis 0 not divisible by step 4 of level 2"),
    # a level-2 shift point has no support below index 2
    ("satunion", {"space": {"kind": "shift-union"},
                  "V": {"cells": [{"key": ["v"], "points": [
                      {"level": 2, "support": {"0": 5}}]}]},
                  "U": {"cells": [{"key": ["u"], "points": [
                      {"level": 2, "support": {"2": 1}}]}]},
                  "r": 1},
     "index 0 below level 2 must be zero"),
    # fibers 1 and 3 are off the step-2 fiber lattice
    ("witness", {**WITNESS_CONFIG, "fibers": [[1], [3]],
                 "fiber_space": {"kind": "plain-lattice", "axis_steps": [2]}},
     "coord 1 at axis 0 not divisible by 2"),
])
def test_points_outside_their_space_exit_two(tmp_path, command, config,
                                             message):
    status, report = run_cli(tmp_path, command, config)
    assert status == 2
    assert report["status"] == "error"
    assert report["report"]["message"] == f"SpaceError: {message}"


def test_satunion_with_product_pair_literals(tmp_path):
    # the U pair is 2 from the first V pair (its first factors' rows are
    # (4, 0, 1) and (2, 0, 0)), so r=2 absorbs it; points print sorted
    def pair(a, b):
        return [{"level": len(a), "coords": a}, {"level": len(b), "coords": b}]

    config = {
        "space": {"kind": "product-of-towers", "step": "pow2"},
        "V": {"cells": [{"key": ["v"],
                         "points": [pair([2], [0]), pair([0], [0])]}]},
        "U": {"cells": [{"key": ["u"], "points": [pair([4, 0], [0])]}]},
        "r": 2,
    }
    status, report = run_cli(tmp_path, "satunion", config)
    assert status == 0
    assert report["report"]["input_points"] == 3
    assert report["report"]["output_points"] == 3
    [cell] = report["report"]["cells"]
    assert cell["key"] == [0, ["v"]]
    expected = [pair([0], [0]), pair([2], [0]), pair([4, 0], [0])]
    assert cell["points"] == [[{**p, "extra": []} for p in pt]
                              for pt in expected]


ROUND_TRIP_WINDOWS = [
    (parse_space({"kind": "tower", "step": "pow2"}),
     Window.make(levels=(1, 3), box=(-4, 4)), 15),
    (parse_space({"kind": "tower-with-factor", "step": "pow2",
                  "factor_dim": 2}),
     Window.make(levels=(1, 2), box=(-4, 4),
                 axis_boxes={2: (-2, 2), 3: (-2, 2)}), 350),
    (parse_space({"kind": "product-of-towers", "step": "pow2"}),
     Window.make(levels=(1, 2), box=(-4, 4)), 196),
    (parse_space({"kind": "shift-union"}),
     Window.make(levels=(0, 2), box=(-3, 3), max_support=3), 147),
    (parse_space({"kind": "plain-lattice", "axis_steps": [1, 2]}),
     Window.make(box=(-3, 3)), 21),
    # the domain shape of theta-interleave, which no CLI space kind builds
    (ProductSpace(LatticeSpace((1,)), LatticeSpace((1, 2))),
     Window.make(box=(-2, 2)), 75),
]


@pytest.mark.parametrize("space, window, size", ROUND_TRIP_WINDOWS,
                         ids=["tower", "tower-with-factor",
                              "product-of-towers", "shift-union",
                              "plain-lattice", "lattice-pair"])
def test_every_point_reads_back_from_its_literal(space, window, size):
    points = list(space.iter(window))
    assert len(points) == size
    for p in points:
        assert point_from_json(json.loads(json.dumps(point_to_json(p)))) == p


@pytest.mark.parametrize("literal, message", [
    (5, "unreadable point literal 5"),
    ("x", "unreadable point literal 'x'"),
    ({}, "unreadable point literal {}"),
    ({"level": 0, "support": [1]}, "support must be a JSON object, not list"),
], ids=["int", "str", "empty-object", "support-list"])
def test_unreadable_point_literals_exit_two(tmp_path, literal, message):
    config = {"V": {"cells": [{"key": ["v"], "points": [literal]}]},
              "U": {"cells": []}, "r": 1}
    status, report = run_cli(tmp_path, "satunion", config)
    assert status == 2
    assert report["status"] == "error"
    assert report["report"]["message"] == f"SpaceError: {message}"


@pytest.mark.parametrize("config", [
    # level-1 tower points are below the singleton threshold
    {"construction": {"name": "singleton", "params": {"threshold": 1}},
     "space": {"kind": "tower", "step": "pow2"},
     "window": {"levels": [1, 2], "box": [-4, 4]}},
    # low levels, and extra blocks in the interval cover's gaps
    {"construction": {"name": "fiber-product", "params": {"threshold": 1},
                      "base": {"name": "interval",
                               "params": {"size": 2, "sep": 3}}},
     "space": {"kind": "tower-with-factor", "factor_dim": 1},
     "window": {"levels": [1, 2], "box": [-3, 3]}},
    {"construction": {"name": "interval", "params": {"size": 2, "sep": 3}},
     "space": {"kind": "plain-lattice", "axis_steps": [1]},
     "window": {"box": [-6, 6]}},
], ids=["tower", "tower-with-factor", "plain-lattice"])
def test_uncovered_sample_reads_back_as_uncovered_points(tmp_path, config):
    status, report = run_cli(tmp_path, "verify", config)
    assert status == 1
    sample = report["report"]["uncovered_sample"]
    assert 0 < len(sample) <= report["report"]["uncovered_total"]
    space = parse_space(config["space"])
    scheme = build_construction(config["construction"], space)
    for literal in sample:
        p = point_from_json(literal)
        space.validate(p)
        assert scheme.classify(p) is None


def _assert_violations_read_back(body, m, domain, codomain=None):
    """Each sampled violation's x and y, read back, measure the reported
    distances and break the map's controls."""
    image_distance = (lattice_max_distance if codomain is None
                      else codomain.distance)
    assert body["violation_sample"]
    for v in body["violation_sample"]:
        x, y = point_from_json(v["x"]), point_from_json(v["y"])
        domain.validate(x)
        domain.validate(y)
        assert domain.distance(x, y) == v["d_domain"]
        dy = image_distance(evaluate_map(m, x), evaluate_map(m, y))
        assert dy == v["d_image"]
        assert not m.lower(v["d_domain"]) <= dy <= m.upper(v["d_domain"])


@pytest.mark.parametrize("config", [
    # padding drops the level penalty that separates levels 1 and 2
    {"map": {"name": "pad", "params": {"target": 2}},
     "domain": {"kind": "tower", "step": "pow2"},
     "window": {"levels": [1, 2], "box": [-4, 4]}},
    # the level projection shrinks every same-level pair to 0
    {"map": {"name": "f-level-projection"},
     "domain": {"kind": "shift-union"},
     "window": {"levels": [0, 1], "box": [-1, 1], "max_support": 2}},
], ids=["tower", "shift-union"])
def test_violation_sample_reads_back_as_violating_pairs(tmp_path, config):
    status, report = run_cli(tmp_path, "control", config)
    assert status == 1
    _assert_violations_read_back(report["report"], parse_map(config["map"]),
                                 parse_space(config["domain"]))


def test_violation_sample_of_pairs_reads_back():
    # theta-interleave is an isometry, so a 0 upper control breaks on every
    # pair of distinct lattice pairs
    m = MapSpec.make("theta-interleave", upper=ControlFn("scaled", 0))
    domain = ProductSpace(LatticeSpace((1,)), LatticeSpace((1,)))
    report = check_coarse_control(m, domain, w=Window.make(box=(-1, 1)))
    body = json.loads(json.dumps(report.to_json()))
    assert body["violations"] == 36
    _assert_violations_read_back(body, m, domain)


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


BUILT_SPACES = {
    "tower": TowerSpace("identity"),
    "tower-with-factor": TowerSpace("identity", 1),
    "product-of-towers": ProductSpace(TowerSpace("identity"),
                                      TowerSpace("identity")),
    "shift-union": ShiftUnionSpace(),
    "plain-lattice": LatticeSpace((1, 2)),
}


@pytest.mark.parametrize("kind", sorted(SPACE_BUILDERS))
def test_parse_space_builds_each_kind(kind):
    built = parse_space({"kind": kind, "axis_steps": [1, 2]})
    assert built == BUILT_SPACES[kind]


def test_parse_space_rejects_an_unknown_kind():
    with pytest.raises(ConfigError, match="unknown space kind 'torus'"):
        parse_space({"kind": "torus"})
