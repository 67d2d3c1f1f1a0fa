"""One workload in one fresh interpreter: set up, then timed passes.

Usage (run.py starts it with PYTHONPATH pointing at the checkout's src/):

    python3 bench/worker.py --workload NAME --seed N --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --result FILE

With --setup-only it only prepares the inputs, so the caller can time a
fresh interpreter's import plus set-up.  Otherwise it repeats whole passes
until --seconds have elapsed and writes a JSON summary to FILE.  With
--trace 1 the first half of the time runs untraced passes and the second
half traced ones; the traced spans go to .bench_out/trace-NAME-seedN.json.gz.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from reference import pass_s
from tracing import Tracer, combine_passes, install, layer_metrics
from workloads import WORKLOADS

OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def _passes(wl, st, seconds, traced, record):
    """Run whole passes until `seconds` elapse; at least one."""
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced else None
        restore = install(tracer) if tracer is not None and wl.in_process else None
        try:
            times, out = wl.run(st, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            times, out = None, None
        finally:
            if restore is not None:
                restore()
        attempted += wl.ops_per_pass
        if out is None:
            failed += wl.ops_per_pass
        else:
            try:
                bad, quality = wl.check(st, out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                bad, quality = wl.ops_per_pass, {}
            failed += bad
            record(times, quality, tracer)
        if time.perf_counter() - start >= seconds:
            return attempted, failed


def _peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    ns = ap.parse_args()

    wl = WORKLOADS[ns.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{ns.workload}-", dir=OUT))
    try:
        st = wl.setup(ns.seed, workdir)
        if ns.setup_only:
            return 0
        passes, qualities, traced, layers, spans = [], [], [], [], []

        def untraced(times, quality, tracer):
            passes.append(times)
            qualities.append(quality)

        def with_trace(times, quality, tracer):
            traced.append(times)
            layers.append(layer_metrics(tracer.spans))
            spans.append(tracer.spans)

        untraced_s = ns.seconds / (1 + ns.trace)
        attempted, failed = _passes(wl, st, untraced_s, False, untraced)
        if ns.trace:
            a, f = _passes(wl, st, ns.seconds / 2, True, with_trace)
            attempted, failed = attempted + a, failed + f

        result = {"attempted": attempted, "failed": failed, "peak_rss_mb": _peak_rss_mb()}
        if passes:
            result["pass_s"] = pass_s(passes)
            for key in ("pass_cpu_s", "pass_wall_s"):
                result[key] = statistics.median(p[key] for p in passes)
            refs = [r for p in passes for r in p["ref_cpu_s"]]
            result["ref_cpu_s"] = (statistics.median(refs), len(refs))
            result["passes"] = len(passes)
            result["detail"] = wl.summary(passes)
            for key in ("residual_fraction", "cc_rel_gap"):
                values = [q[key] for q in qualities if key in q]
                if values:
                    result[key] = statistics.median(values)
        if layers:
            combined, repeated = combine_passes(layers)
            combined["trace.overhead_frac"] = (
                statistics.median(p["pass_wall_s"] for p in traced) / result["pass_wall_s"]
                - 1.0
                if passes
                else 0.0
            )
            result["layers"] = combined
            result["counts_repeat"] = repeated
            path = OUT / f"trace-{ns.workload}-seed{ns.seed}.json.gz"
            path.write_bytes(gzip.compress(json.dumps(spans).encode()))
        Path(ns.result).write_text(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
