"""The benchmark's tracing shims (bench/tracing.py) against the library: they
patch names in `coarselab.verify` by string, so a traced run must still find
every one of them, see calls through them, and write the same report."""

import importlib.util
from pathlib import Path

import pytest

from coarselab import cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


JOBS = {
    "verify-cover": {
        "construction": {"name": "mixed-grid",
                         "params": {"m": 1, "n": 1, "k": 3, "R": 5}},
        "space": {"kind": "plain-lattice", "axis_steps": [1, 3]},
        "window": {"axis_boxes": {"0": [-12, 12], "1": [-9, 9]}},
    },
    "coarse-control": {
        "map": {"name": "phi-tower", "params": {"n": 2}},
        "domain": {"kind": "tower-with-factor", "step": "pow2",
                   "factor_dim": 1},
        "window": {"levels": [1, 2], "box": [-3, 3]},
    },
}


@pytest.mark.parametrize("kind", sorted(JOBS))
def test_traced_report_equals_untraced(tmp_path, kind):
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert cli.run_experiment(kind, JOBS[kind], out=str(plain)) == 0
    with load_tracing().Tracer() as tracer:
        assert cli.run_experiment(kind, JOBS[kind], out=str(traced)) == 0
    assert traced.read_bytes() == plain.read_bytes()
    metrics = tracer.metrics()
    assert metrics["spaces.points_enumerated"][0] > 0
    assert metrics["spaces.distance_calls"][0] > 0
