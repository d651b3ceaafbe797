"""Rewrite bench/expected.json from default-seed reports of this checkout.

Run it only when a change is meant to alter reports, and say so in the
change: the digests are the benchmark's correctness gate.

Usage: python3 bench/record_expected.py
"""

import contextlib
import io
import json

from run import OUT_DIR, import_library

cli = import_library()
import workloads  # noqa: E402

expected = {}
for name in workloads.WORKLOADS:
    entries = []
    for i, (kind, config) in enumerate(
            workloads.jobs_for(name, workloads.DEFAULT_SEED)):
        out = OUT_DIR / name / f"job{i}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_experiment(kind, config, out=str(out))
        entries.append(workloads.digests(kind, out.read_text()))
    expected[name] = entries
workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=2) + "\n")
