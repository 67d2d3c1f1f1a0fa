"""Print the memory a flagship build holds per accepted term.

    python3 tools/mem_per_term.py

Takes no options.  Runs the acceptance flagship build (heisenberg field on
the unit square, FLAGSHIP_CFG) under its log modulus and under the power-1/2
modulus, which accepts about 27 times as many terms, each in a fresh
process started with multiprocessing's spawn method.  Each process builds
once, reads its ru_maxrss, then builds again under tracemalloc.  One table
row per build gives its term count, that second build's tracemalloc peak,
the bytes of g's blocks (corners, coefficients and lookup arrays), the bytes
of the certificate's covered boxes, and the ru_maxrss.  The last line is
the peak's rise from the log build to the power-1/2 build divided by the
rise in terms: the bytes of peak each extra accepted term costs.
"""

import multiprocessing
import resource
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lusinkit.core import BoxDomain, LogModulus, PowerModulus  # noqa: E402
from lusinkit.lusin import BuildConfig, field_catalog, multi_stage_build  # noqa: E402

FLAGSHIP = BuildConfig(
    eps=0.05, sigma=0.5, tau=1e-3, theta=0.5, grid=64, stages=6, refine_max=4,
    modulus=LogModulus(),
)
BUILDS = {
    "log modulus": FLAGSHIP,
    "power-1/2 modulus": replace(FLAGSHIP, modulus=PowerModulus(0.5)),
}
MIB = 2.0**20


def _measure(name: str) -> dict:
    field, dom = field_catalog("heisenberg"), BoxDomain((0.0, 0.0), (1.0, 1.0))
    multi_stage_build(field, dom, BUILDS[name])
    # Linux reports ru_maxrss in KiB
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    tracemalloc.start()
    try:
        g, cert = multi_stage_build(field, dom, BUILDS[name])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lookup = ("_table", "_keys", "_rows")
    blocks = sum(
        b.lows.nbytes
        + b.coeffs.nbytes
        + sum(getattr(b, a).nbytes for a in lookup if getattr(b, a) is not None)
        for b in g.blocks
    )
    return {
        "terms": g.term_count,
        "peak": peak,
        "blocks": blocks,
        "boxes": sum(c.nbytes for c in cert.covered_cells),
        "maxrss": maxrss,
    }


def main() -> int:
    spawn = multiprocessing.get_context("spawn")
    rows = {}
    for name in BUILDS:
        # a fresh process per build, so each ru_maxrss is that build's own
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            rows[name] = pool.submit(_measure, name).result()
    print(
        "| build | terms | tracemalloc peak | g's blocks | certified boxes "
        "| ru_maxrss |\n|---|---|---|---|---|---|"
    )
    for name, r in rows.items():
        print(
            f"| {name} | {r['terms']:,} | {r['peak'] / MIB:.2f} MiB "
            f"| {r['blocks'] / MIB:.2f} MiB | {r['boxes'] / MIB:.2f} MiB "
            f"| {r['maxrss'] / 1e6:.1f} MB |"
        )
    low, high = rows.values()
    per_term = (high["peak"] - low["peak"]) / (high["terms"] - low["terms"])
    print(f"peak bytes per extra term: {per_term:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
