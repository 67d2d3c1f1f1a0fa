"""Run the tier-1 test command and check its failures against the known red set.

    python3 tools/tier1.py

Runs `python -m pytest -q --continue-on-collection-errors` from the
repository root with src/ first on PYTHONPATH, as ROADMAP.md gives it,
skipping and deselecting nothing, and prints the outcome counts and the
run's wall time.  Exits 0 when the failing and erroring tests are exactly
the three red acceptance tests, 3a, 3b and 7b, and 1 otherwise: a new
failure and a red test turning green both show, and are listed.
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# acceptance criteria this construction does not meet yet (ROADMAP.md)
RED = {
    "tests/test_acceptance.py::test_criterion_3a_residual_measure",
    "tests/test_acceptance.py::test_criterion_3b_characteristic_fraction",
    "tests/test_acceptance.py::test_criterion_7b_flagship_transfer",
}


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    # -rfE lists every failure and error by node id in the summary
    start = time.perf_counter()
    run = subprocess.run(
        [*command, "-rfE"], cwd=ROOT, env=env, capture_output=True, text=True
    )
    wall = time.perf_counter() - start
    lines = run.stdout.splitlines()
    failing = {
        line.split()[1]
        for line in lines
        if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1
    }
    summary = lines[-1] if lines else ""
    counts = re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)", summary)
    outcome = ", ".join(f"{count} {kind}" for count, kind in counts) or "no counts"
    print(f"{outcome} in {wall:.1f} s")
    new, green = sorted(failing - RED), sorted(RED - failing)
    for node in new:
        print(f"new failure: {node}")
    for node in green:
        print(f"red test passed: {node}")
    # pytest exits 1 when tests fail; any other nonzero code is a broken run
    if run.returncode not in (0, 1):
        print(run.stdout[-2000:], run.stderr[-2000:], sep="\n")
        print(f"pytest exited {run.returncode}")
        return 1
    return int(bool(new or green))


if __name__ == "__main__":
    sys.exit(main())
