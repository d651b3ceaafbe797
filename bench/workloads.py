"""Workload configs and the correctness gate for the coarselab benchmark.

A workload is a list of jobs, each a `(kind, config)` pair handed unchanged
to `coarselab.cli.run_experiment`.  The seed only moves the verify windows:
every window is translated by a seeded whole number of the construction's
periods, so the window keeps its size and every measured value in the report
stays exactly the same.  That lets one committed digest check the report at
every seed, not only at the default one.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DEFAULT_SEED = 0
EXPECTED_PATH = Path(__file__).with_name("expected.json")

def _staircase_job(n: int, r: int, free_half: int) -> dict:
    """Three free scaled axes of half-width `free_half`, the other scaled
    axes pinned at 0, three full periods on the moving axis and the height
    axis pinned at the bottom of its interval."""
    h = (n * (n + 1) // 2, r * (r - 1) // 2)
    period = sum(2 ** (r * j) for j in range(1, r + 1)) * (r + n)
    boxes = {j: ((-free_half, free_half) if j < 3 else (0, 0))
             for j in range(r)}
    boxes[r] = (0, 3 * period)
    boxes[r + 1] = (h[0], h[0])
    # The phase reads scaled coordinates mod 2^r and the moving axis repeats
    # every `period`; the height axis is not translated.
    periods = (2 ** r,) * r + (period, 0)
    return {
        "construction": {"name": "staircase",
                         "params": {"n": n, "r": r, "height": list(h)}},
        "space": {"kind": "plain-lattice", "axis_steps": [2 ** n] * r + [1, 1]},
        "window": {"axis_boxes": boxes},
        "periods": periods,
        "moving_axis": r,
    }


def _mixed_grid_job() -> dict:
    return {
        "construction": {"name": "mixed-grid",
                         "params": {"m": 2, "n": 1, "k": 4, "R": 6}},
        "space": {"kind": "plain-lattice", "axis_steps": [1, 1, 4]},
        "window": {"axis_boxes": {0: (-100, 100), 1: (-100, 100),
                                  2: (-20, 20)}},
        # The free axes repeat every lcm(band period 2*(R+k), parity period
        # 2*R) = 60, the scaled axis every lcm(parity period 2*R, step k) = 12.
        "periods": (60, 60, 12),
        "moving_axis": None,
    }


def _translate(job: dict, rng: random.Random | None) -> tuple[str, dict]:
    """Shift every window axis by a seeded multiple of its period.  The
    moving axis only moves down (by 0 to 3 periods) so its coordinates stay
    below 2**30, where Python ints are one machine digit and cost the same
    at every seed."""
    boxes = {}
    for axis, (lo, hi) in job["window"]["axis_boxes"].items():
        period = job["periods"][axis]
        if rng is None or period == 0:
            shift = 0
        elif axis == job["moving_axis"]:
            shift = -rng.randint(0, 3) * period
        else:
            shift = rng.randint(-8, 8) * period
        boxes[str(axis)] = [lo + shift, hi + shift]
    config = {"construction": job["construction"], "space": job["space"],
              "window": {"axis_boxes": boxes}}
    return "verify-cover", config


def jobs_for(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The (kind, config) jobs of `workload` at `seed`."""
    if workload == "acceptance-suite":
        return [("suite", {"seed": seed})]
    rng = None if seed == DEFAULT_SEED else random.Random(seed)
    if workload == "lattice-pointwise":
        return [_translate(_mixed_grid_job(), rng)]
    if workload == "lattice-runs":
        return [_translate(_staircase_job(3, 5, 128), rng),
                _translate(_staircase_job(2, 3, 64), rng)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("lattice-pointwise", "lattice-runs", "acceptance-suite")


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _sha256(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests(kind: str, text: str) -> dict:
    """Digests of one written report.

    `report` identifies the report: the whole file for a verify job, and for
    the suite every criterion without its wall-clock `seconds`.  `invariant`
    covers only what the seed must not change: a verify report without its
    window (the suite's report is already seed-independent).
    """
    body = json.loads(text)["report"]
    if kind == "suite":
        report = _sha256([{k: v for k, v in c.items() if k != "seconds"}
                          for c in body["criteria"]])
        return {"report": report, "invariant": report}
    return {"report": hashlib.sha256(text.encode()).hexdigest(),
            "invariant": _sha256({k: v for k, v in body.items()
                                  if k != "window"})}


def points_seen(kind: str, text: str) -> int:
    """Points the report says were verified; for the suite, the sum of the
    `points` its verify criteria record."""
    body = json.loads(text)["report"]
    if kind != "suite":
        return body["points_seen"]
    total = 0
    for criterion in body["criteria"]:
        for case in criterion["details"].values():
            if isinstance(case, dict):
                total += case.get("points", 0)
    return total


def check_report(workload: str, index: int, kind: str, config: dict,
                 status: int, text: str, seed: int,
                 expected: dict) -> str | None:
    """None if the report of job `index` is correct, else the reason."""
    envelope = json.loads(text)
    body = envelope["report"]
    if status != 0:
        return f"exit status {status}"
    if kind == "suite":
        if body["status"] != "pass":
            return "suite status is not pass"
        if len(body["criteria"]) != 9 or not all(
                c["passed"] for c in body["criteria"]):
            return "not all nine criteria passed"
    else:
        if body["verdict"] != "pass":
            return f"verdict {body['verdict']}"
        boxes = {int(a): iv for a, iv in body["window"]["axis_boxes"].items()}
        wanted = {int(a): iv for a, iv in config["window"]["axis_boxes"].items()}
        if boxes != wanted:
            return "report window differs from the requested window"
    want = expected[workload][index]
    got = digests(kind, text)
    if got["invariant"] != want["invariant"]:
        return "report digest differs from the committed one"
    if seed == DEFAULT_SEED and got["report"] != want["report"]:
        return "default-seed report digest differs from the committed one"
    return None


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())
