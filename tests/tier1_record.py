"""The `tier1` record of a BENCH_<label>.json file, from one tier-1 run.

    python tests/tier1_record.py

runs the tier-1 command (`python -m pytest -q --continue-on-collection-errors`
with `src` on PYTHONPATH) from the root of the checkout with
`--durations=0`, and prints one JSON object: the tests passed, failed and
skipped, pytest's own wall time, and per test file the sum of its tests'
setup, call and teardown times (durations under 5 ms are not printed by
pytest and count as 0), largest first.  Extra arguments go to pytest.  It
exits with pytest's status.  It is not part of tier-1.
"""

import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

DURATION = re.compile(r"^([\d.]+)s (?:setup|call|teardown)\s+([^:\s]+)::")
OUTCOME = re.compile(r"(\d+) (passed|failed|skipped|errors?)")
WALL = re.compile(r" in ([\d.]+)s")


def record(output: str) -> dict:
    """The record of one pytest run with `--durations=0`, from its output."""
    per_file = Counter()
    for line in output.splitlines():
        match = DURATION.match(line)
        if match:
            per_file[match[2]] += float(match[1])
    summary = output.strip().splitlines()[-1]
    outcomes = {kind.rstrip("s"): int(n) for n, kind in OUTCOME.findall(summary)}
    wall = WALL.search(summary)
    return {
        "tests": outcomes.get("passed", 0),
        "failed": outcomes.get("failed", 0) + outcomes.get("error", 0),
        "skipped": outcomes.get("skipped", 0),
        "wall_s": float(wall[1]) if wall else None,
        "per_file_s": {name: round(s, 2) for name, s in per_file.most_common()},
    }


def main(args):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0"]
    proc = subprocess.run(
        command + args, cwd=root, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True
    )
    print(json.dumps(record(proc.stdout), indent=1))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
