"""coarselab benchmark: time from a config to an exact, checked verdict.

Usage (from the repository root):

    python3 bench/run.py --workload lattice-pointwise --seed 0 --seconds 30 --trace 0

Each run drives the library in one process and one thread through
`coarselab.cli.run_experiment`, the path the CLI takes, and times the calls
from outside.  Jobs run in passes (one pass = every job of the workload once)
until another pass would overrun `--seconds`; at least one pass always runs.

With `--trace 0` it reports the end-to-end metrics: `verdict_s` (median over
passes of the summed job wall time), `points_per_s`, `setup_s` (median over
fresh interpreters of import + config parsing + scheme construction) and
`peak_rss_mb`.  With `--trace 1` it alternates untraced and traced passes and
reports the per-layer metrics of bench/tracing.py, medians over traced
passes, plus `trace.overhead_s`; the traced reports must be byte-identical
to the untraced ones.

Every report is checked against bench/expected.json (see bench/workloads.py).
A human-readable table goes to stdout first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11


class Job(NamedTuple):
    """One (kind, config) job and the path its report is written to."""

    index: int
    kind: str
    config: dict
    out: Path


def import_library():
    """Import coarselab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from coarselab import cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"coarselab imported from {cli.__file__}, not {src}")
    return cli


def _machine() -> str:
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"platform={platform.platform()}")


def _setup_seconds(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
        samples.append(elapsed)
    return samples


class Runner:
    def __init__(self, cli, workloads, workload: str, seed: int):
        self.cli = cli
        self.workloads = workloads
        self.workload = workload
        self.seed = seed
        self.expected = workloads.load_expected()
        out = OUT_DIR / workload
        out.mkdir(parents=True, exist_ok=True)
        self.jobs = [Job(i, kind, config, out / f"job{i}.json")
                     for i, (kind, config)
                     in enumerate(workloads.jobs_for(workload, seed))]
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> dict:
        """Run every job once; return wall seconds, points and digests."""
        gc.collect()
        seconds = 0.0
        points = 0
        digests = []
        for job in self.jobs:
            self.attempted += 1
            job.out.unlink(missing_ok=True)
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    status = self.cli.run_experiment(job.kind, job.config,
                                                     out=str(job.out))
            except Exception as exc:  # a crash is a failed job, not a stop
                self.failures.append(
                    f"job {job.index}: {type(exc).__name__}: {exc}")
                digests.append(None)
                continue
            seconds += time.perf_counter() - start
            text = job.out.read_text()
            reason = self.workloads.check_report(
                self.workload, job.index, job.kind, job.config, status, text,
                self.seed, self.expected)
            if reason is not None:
                self.failures.append(f"job {job.index}: {reason}")
                digests.append(None)
                continue
            points += self.workloads.points_seen(job.kind, text)
            digests.append(self.workloads.digests(job.kind, text))
        return {"seconds": seconds, "points": points, "digests": digests}


def _passes(run_one, budget: float) -> list:
    """Call run_one() until another call would overrun `budget` seconds."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_one())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > budget:
            return results


def _end_to_end(runner: Runner, seconds: float) -> dict:
    setup = _setup_seconds(runner.workload, runner.seed)
    passes = _passes(runner.run_pass, seconds)
    verdict = statistics.median(p["seconds"] for p in passes)
    points = passes[0]["points"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "verdict_s": (verdict, "s", len(passes)),
        "points_per_s": (points / verdict if verdict else 0.0, "1/s",
                         len(passes)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def _per_layer(runner: Runner, seconds: float) -> dict:
    import tracing

    def pair():
        plain = runner.run_pass()
        with tracing.Tracer() as tracer:
            traced = runner.run_pass()
        for job, a, b in zip(runner.jobs, plain["digests"], traced["digests"]):
            if a != b:
                runner.failures.append(
                    f"job {job.index}: traced report differs from untraced")
        return plain, traced, tracer.metrics()

    pairs = _passes(pair, seconds)
    out = {}
    for name in pairs[0][2]:
        unit = pairs[0][2][name][1]
        values = [metrics[name][0] for _, _, metrics in pairs]
        out[name] = (statistics.median(values), unit, len(values))
    overhead = (statistics.median(t["seconds"] for _, t, _ in pairs)
                - statistics.median(p["seconds"] for p, _, _ in pairs))
    out["trace.overhead_s"] = (overhead, "s", len(pairs))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_library()
    except ImportError as exc:
        print(f"cannot import coarselab from this checkout: {exc}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    runner = Runner(cli, workloads, args.workload, args.seed)
    measure = _per_layer if args.trace else _end_to_end
    metrics = measure(runner, args.seconds)

    failed = len(runner.failures)
    print(f"machine: {_machine()}")
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for reason in runner.failures:
        print(f"FAILED {reason}")
    print(f"{'metric':<34}{'value':>20}  {'unit':<6}samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<34}{value:>20.6f}  {unit:<6}{samples}")
    print(f"{'failed_frac':<34}{failed / runner.attempted:>20.6f}  "
          f"{'':<6}{failed}/{runner.attempted} jobs")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
