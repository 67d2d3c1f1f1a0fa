"""lusinkit benchmark: one workload, one seed, one JSON line of results.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: flagship, pwl_permissive, surface_analysis, cli_session (see
bench/README.md).  The program is imported from the checkout's src/.  Every
measured process is a fresh interpreter with BLAS/OpenMP pinned to one
thread, run one at a time.

With --trace 0 the last line carries the end-to-end metrics: setup_s, the
median over several fresh-interpreter set-ups, and pass_s, the median over the
run of one pass of the workload's operations, both in CPU seconds at the
reference speed that reference.py defines; peak_rss_mb; and residual_fraction.
Earlier lines print the workload's finer metrics, the raw CPU and wall times
among them, by name and unit.  With --trace 1 the last line carries the
per-layer metrics of a traced run.
Exit status is 0 when a result was printed, 2 when the checkout holds no
program to measure and 1 when a measured process failed or overran.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

from reference import RefClock
from tracing import SPAN_METRICS
from workloads import WORKLOADS, children_cpu_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
IMPORT_PROBES = 3
# the whole run's deadline: set-up and import probes, the timed passes and
# the last pass's overrun; 160 s at --seconds 20
DEADLINE_BASE_S = 120.0
DEADLINE_PER_SECOND = 2.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class ChildFailed(Exception):
    pass


class Runner:
    """Starts measured child processes one at a time under one deadline."""

    def __init__(self, deadline_s: float):
        self.start = time.monotonic()
        self.deadline_s = deadline_s
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({var: "1" for var in THREAD_VARS})

    def run(self, args) -> tuple[float, subprocess.CompletedProcess]:
        left = self.deadline_s - (time.monotonic() - self.start)
        t0 = time.perf_counter()
        # a session of its own, so a timeout also ends the child's children
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            limit = f"{self.deadline_s:.0f} s deadline"
            raise ChildFailed(f"{args[:3]} overran the {limit}")
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(err)
            raise ChildFailed(f"{args[:3]} exited with status {proc.returncode}")
        return elapsed, subprocess.CompletedProcess(args, proc.returncode, out, err)


def _is_scipy(module: str) -> bool:
    return module == "scipy" or module.startswith("scipy.")


def _scipy_import_s(stderr: str) -> float:
    """Cumulative import time of the outermost scipy modules, from -X importtime."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((int(m.group(1)), len(m.group(2)), m.group(3)))
    total = 0
    ancestors: list[tuple[int, str]] = []
    # importtime lists children before their parent, one indent deeper
    for cumulative, depth, name in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if _is_scipy(name) and not any(_is_scipy(a) for _, a in ancestors):
            total += cumulative
        ancestors.append((depth, name))
    return total / 1e6


def _package_metrics(runner: Runner) -> dict:
    probe = (
        "import time; t = time.perf_counter(); import lusinkit.cli; "
        "print(time.perf_counter() - t)"
    )
    imports = [float(runner.run(["-c", probe])[1].stdout) for _ in range(IMPORT_PROBES)]
    importtime = ["-X", "importtime", "-c", "import lusinkit.cli"]
    scipy = [
        _scipy_import_s(runner.run(importtime)[1].stderr) for _ in range(IMPORT_PROBES)
    ]
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "lusinkit").rglob("*.py"))
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    return {
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.import_scipy_s": (statistics.median(scipy), "s"),
        "package.src_lines": (lines, "lines"),
        "package.runtime_deps": (len(deps), "count"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = ap.parse_args()
    if not (SRC / "lusinkit" / "__init__.py").is_file():
        print(f"no lusinkit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    runner = Runner(DEADLINE_BASE_S + DEADLINE_PER_SECOND * ns.seconds)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    result_path = out_dir / f"result-{ns.workload}-{os.getpid()}.json"
    worker = [str(BENCH / "worker.py"), "--workload", ns.workload, "--seed", str(ns.seed)]
    try:
        setup_walls, setup_clock = [], RefClock(children_cpu_s)
        for _ in range(0 if ns.trace else SETUP_PROBES):
            with setup_clock.op():
                setup_walls.append(runner.run([*worker, "--setup-only"])[0])
        runner.run([*worker, "--seconds", str(ns.seconds), "--trace", str(ns.trace),
                    "--result", str(result_path)])
        res = json.loads(result_path.read_text())
        package = _package_metrics(runner) if ns.trace else {}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        result_path.unlink(missing_ok=True)

    attempted, failed = res["attempted"], res["failed"]
    correct = attempted > 0 and failed == 0 and "pass_s" in res
    if ns.trace:
        correct = correct and res.get("counts_repeat", False)
        layers = res.get("layers", {})
        correct = correct and bool(layers)
        metrics = {k: (layers.get(k, 0), unit) for k, unit in SPAN_METRICS.items()}
        metrics["trace.overhead_frac"] = (layers.get("trace.overhead_frac", 0.0), "1")
        metrics.update(package)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_clock.at_ref), "s"),
            "pass_s": (res.get("pass_s", 0.0), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "residual_fraction": (res.get("residual_fraction", 1.0), "1"),
        }
        passes = res.get("passes", 0)
        ref_s, ref_n = res.get("ref_cpu_s", (0.0, 0))
        finer = {
            "setup_s": (metrics["setup_s"][0], "s", SETUP_PROBES),
            "setup_cpu_s": (statistics.median(setup_clock.cpu), "s", SETUP_PROBES),
            "setup_wall_s": (statistics.median(setup_walls), "s", SETUP_PROBES),
            "pass_s": (metrics["pass_s"][0], "s", passes),
            "pass_cpu_s": (res.get("pass_cpu_s", 0.0), "s", passes),
            "pass_wall_s": (res.get("pass_wall_s", 0.0), "s", passes),
            "ref_cpu_s": (ref_s, "s", ref_n),
            **res.get("detail", {}),
            "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
            "residual_fraction": (metrics["residual_fraction"][0], "1", passes),
            "failed_frac": (failed / attempted, "1", attempted),
        }
        if "cc_rel_gap" in res:
            finer["cc_rel_gap"] = (res["cc_rel_gap"], "1", passes)
        print(f"workload {ns.workload} seed {ns.seed}: {passes} passes")
        for name, (value, unit, n) in finer.items():
            print(f"  {name} = {value!r} {unit} (n={n})")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
