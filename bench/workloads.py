"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, performs one
pass of user-visible operations in ``run``, timed in wall and in CPU seconds,
and verifies the outputs of that
pass in ``check``, outside the timed region and outside any trace.  lusinkit is
imported inside ``setup`` so that a fresh interpreter running ``setup`` pays
the import a user pays.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from reference import RefClock

BENCH = Path(__file__).resolve().parent
FIXTURES = BENCH / "fixtures"
ROOT_PI = math.sqrt(math.pi)

# Build settings of the acceptance battery's FLAGSHIP_CFG, and of the
# permissive piecewise-linear build that ROADMAP reports stalling at 0.598.
FLAGSHIP = dict(
    eps=0.05, sigma=0.5, tau=1e-3, theta=0.5, grid=64, stages=6, refine_max=4
)
PWL_PERMISSIVE = dict(
    eps=0.05, sigma=1e6, tau=10.0, theta=0.5, grid=32, stages=6, refine_max=4
)
RELOAD_POINTS = 2000

CERTIFY_PAIRS = 100_000
GRAPH_TAU = 1e-3
# characteristic_fraction counts cells of a 255 x 255 grid; allow one cell of
# rounding drift against the value recorded with the fixture
GRAPH_CELL = 1.0 / 255**2
UNIFORM_PAIRS = 3
LIFTED_PAIRS = 3
# The CC pairs are drawn once from this seed, not from the workload seed: a
# pair's cost under L-BFGS varies several-fold with its shape, so a few fresh
# pairs per seed would make pass_s measure which pairs were drawn.
CC_PAIR_SEED = 20130626
# criterion 6's anchors, kept exact: d((0,0,0),(1,0,0)) = 1, d(0,(0,0,1)) = sqrt(pi)
ANCHORS = (((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), ((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)))

# The README session.  `heis dist` runs on the README pair and on two pairs
# with a vertical component, the second of them criterion 6's (0,0,1) anchor.
DEMO_FLAGS = (
    "--field", "heisenberg", "--domain", "0,0,1,1", "--eps", "0.05", "--sigma", "50",
    "--tau", "0.08", "--theta", "0.125", "--grid", "32", "--stages", "3",
    "--quantile", "0.7", "--refine-max", "3", "--modulus", "power:1",
)
README_PAIR = ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0))
DIST_PAIRS = (README_PAIR, ((0.0, 0.0, 0.0), (0.6, 0.0, 0.4)), ANCHORS[1])
CLI_TIMEOUT_S = 120


def children_cpu_s() -> float:
    """CPU seconds of this process's terminated, waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _chord(p, q) -> float:
    return math.hypot(q[0] - p[0], q[1] - p[1])


def _check_cc(p, q, lower, upper) -> bool:
    ok = lower <= upper and lower >= _chord(p, q) * (1.0 - 1e-12)
    if (p, q) == ANCHORS[0]:
        ok = ok and lower == 1.0 and upper <= 1.001
    elif (p, q) == ANCHORS[1]:
        ok = ok and abs(lower - ROOT_PI) <= 1e-12 * ROOT_PI
        ok = ok and abs(upper - ROOT_PI) <= 0.02 * ROOT_PI
    return ok


def _holder_ok(report) -> bool:
    # the demo height is not constant, so both exponents must be estimated;
    # whether the transfer passes is red criterion 7b and not a gate
    alphas = (report["alpha_u"], report["alpha_graph"])
    return report["status"] == "ok" and all(0.0 < a < math.inf for a in alphas)


def _reloads_exactly(harness, g, dom, path, pts) -> bool:
    harness.save_function(g, dom, str(path))
    loaded, _ = harness.load_function(str(path))
    return all(
        np.array_equal(g.derivative(pts, gamma), loaded.derivative(pts, gamma))
        for gamma in g.multiindices
    )


class BuildWorkload:
    """One multi_stage_build of the heisenberg field on the unit square."""

    ops_per_pass = 1
    in_process = True

    def __init__(self, settings: dict, modulus: str):
        self.settings = settings
        self.modulus = modulus

    def setup(self, seed: int, workdir: Path):
        from lusinkit import harness, lusin
        from lusinkit.core import BoxDomain, LogModulus, PiecewiseLinearModulus

        modulus = {
            "log": LogModulus,
            "pwl": lambda: PiecewiseLinearModulus(((0.0, 0.0), (1.0, 1e-12))),
        }[self.modulus]()
        rng = np.random.default_rng(seed)
        return SimpleNamespace(
            lusin=lusin,
            harness=harness,
            field=lusin.field_catalog("heisenberg"),
            dom=BoxDomain((0.0, 0.0), (1.0, 1.0)),
            cfg=lusin.BuildConfig(**self.settings, seed=seed, modulus=modulus),
            pts=rng.uniform(0.0, 1.0, size=(RELOAD_POINTS, 2)),
            path=workdir / "build.lkf",
        )

    def run(self, st, tracer):
        clock = RefClock(time.process_time)
        with clock.op():
            t0 = time.perf_counter()
            out = st.lusin.multi_stage_build(st.field, st.dom, st.cfg)
            wall = time.perf_counter() - t0
        return {"pass_wall_s": wall, **clock.pass_times()}, out

    def check(self, st, out):
        g, cert = out
        measured = cert.coverage_measure + cert.residual_measure
        ok = (
            cert.budgets_ok()
            and math.isclose(measured, st.dom.volume(), rel_tol=1e-12)
            and _reloads_exactly(st.harness, g, st.dom, st.path, st.pts)
        )
        return int(not ok), {"residual_fraction": cert.residual_fraction()}

    def summary(self, passes):
        build_s = statistics.median(p["pass_wall_s"] for p in passes)
        return {"build_s": (build_s, "s", len(passes))}


def _load_fixture(name: str, workdir: Path) -> Path:
    want = json.loads((FIXTURES / "manifest.json").read_text())[name]
    payload = gzip.decompress((FIXTURES / (name + ".gz")).read_bytes())
    got = hashlib.sha256(payload).hexdigest()
    if got != want:
        raise ValueError(f"fixture {name} has sha256 {got}, manifest says {want}")
    path = workdir / name
    path.write_bytes(payload)
    return path


class SurfaceWorkload:
    """Certify, graph analysis and CC bounds on committed fixtures."""

    SURFACES = ("demo", "xx2")
    CC_PAIRS = len(ANCHORS) + UNIFORM_PAIRS + LIFTED_PAIRS
    ops_per_pass = len(SURFACES) + 1 + CC_PAIRS
    in_process = True

    def setup(self, seed: int, workdir: Path):
        from lusinkit import harness, heisenberg

        st = SimpleNamespace(harness=harness, heis=heisenberg, seed=seed, surfaces={})
        for name in self.SURFACES:
            g, dom = harness.load_function(str(_load_fixture(name + ".lkf", workdir)))
            cert = harness.load_certificate(
                str(_load_fixture(name + ".certificate.json", workdir))
            )
            st.surfaces[name] = (g, dom, cert)
        g, dom, _ = st.surfaces["demo"]
        st.graph = heisenberg.GraphMap.from_sum(dom, g)
        expected = json.loads((FIXTURES / "expected.json").read_text())["demo"]
        st.char_fraction = expected["characteristic_fraction"]

        rng = np.random.default_rng(CC_PAIR_SEED)
        uniform = rng.uniform(-1.0, 1.0, (UNIFORM_PAIRS, 2, 3))
        lifted = st.graph.lift(rng.uniform(0.0, 1.0, (2 * LIFTED_PAIRS, 2)))
        pairs = np.concatenate([uniform, lifted.reshape(-1, 2, 3)])
        st.pairs = list(ANCHORS) + [
            (tuple(map(float, p)), tuple(map(float, q))) for p, q in pairs
        ]
        return st

    def run(self, st, tracer):
        h, heis = st.harness, st.heis
        # each fixture's certify, the graph analysis and each pair's CC bounds
        # are operations of their own, so the reference kernel runs between them
        clock = RefClock(time.process_time)
        walls = []
        reports = []
        for g, dom, cert in st.surfaces.values():
            with clock.op():
                t0 = time.perf_counter()
                # one call per check: each check draws from its own labelled
                # stream, so the results equal those of a single call
                reports.append([])
                for check in h.CHECK_NAMES:
                    name = f"harness.certify.{check}"
                    with tracer.span(name) if tracer else contextlib.nullcontext():
                        reports[-1].append(
                            h.certify_function(
                                g, dom, cert, pairs=CERTIFY_PAIRS, seed=st.seed,
                                checks=(check,),
                            )
                        )
                walls.append(time.perf_counter() - t0)
        with clock.op():
            t0 = time.perf_counter()
            frac = heis.characteristic_fraction(st.graph, GRAPH_TAU)
            holder = heis.holder_transfer_check(st.graph, seed=st.seed)
            walls.append(time.perf_counter() - t0)
        bounds = []
        for p, q in st.pairs:
            with clock.op():
                t0 = time.perf_counter()
                bounds.append(heis.cc_dist_bounds(heis.HPoint(*p), heis.HPoint(*q)))
                walls.append(time.perf_counter() - t0)
        n = len(st.surfaces)
        times = {
            "pass_wall_s": sum(walls),
            "certify_s": sum(walls[:n]),
            "graph_s": walls[n],
            "cc_s": sum(walls[n + 1:]),
            **clock.pass_times(),
        }
        return times, (reports, frac, holder, bounds)

    def check(self, st, out):
        reports, frac, holder, bounds = out
        failed = sum(not all(r["passed"] for r in parts) for parts in reports)
        graph_ok = abs(frac - st.char_fraction) <= GRAPH_CELL and _holder_ok(holder)
        failed += int(not graph_ok)
        gaps = []
        for (p, q), b in zip(st.pairs, bounds):
            failed += int(not _check_cc(p, q, b.lower, b.upper))
            gaps.append((b.upper - b.lower) / b.upper)
        quality = {
            "residual_fraction": st.surfaces["demo"][2].residual_fraction(),
            "cc_rel_gap": statistics.median(gaps),
        }
        return failed, quality

    def summary(self, passes):
        n = len(passes)
        med = lambda key: statistics.median(p[key] for p in passes)
        certified = len(self.SURFACES) * CERTIFY_PAIRS
        return {
            "certify_pairs_per_s": (certified / med("certify_s"), "pairs/s", n),
            "graph_analyze_s": (med("graph_s"), "s", n),
            "cc_pairs_per_s": (self.CC_PAIRS / med("cc_s"), "pairs/s", n),
        }


class CliWorkload:
    """The README command-line session, one fresh interpreter per command."""

    ops_per_pass = 3 + len(DIST_PAIRS)
    # commands run in child interpreters, which record their own spans
    in_process = False

    def setup(self, seed: int, workdir: Path):
        import lusinkit.cli  # noqa: F401  (the import every command pays)

        lkf = str(workdir / "demo.lkf")
        point = lambda p: ",".join(repr(v) for v in p)
        construct = ["construct", *DEMO_FLAGS, "--out", str(workdir), "--name", "demo"]
        commands = [("construct", construct)]
        commands.append(("certify", ["certify", lkf, "--pairs", "4000", "--seed", "5"]))
        commands += [
            ("heis_dist", ["heis", "dist", point(p), point(q)]) for p, q in DIST_PAIRS
        ]
        analyze = ["heis", "graph", "analyze", lkf, "--seed", str(seed)]
        commands.append(("graph_analyze", analyze))
        return SimpleNamespace(workdir=workdir, lkf=lkf, commands=commands, seed=seed)

    def run(self, st, tracer):
        # each command is one operation of the clock, timed by its CPU usage
        clock = RefClock(children_cpu_s)
        times = {"pass_wall_s": 0.0}
        results = []
        for i, (kind, args) in enumerate(st.commands):
            if tracer is None:
                cmd = [sys.executable, "-m", "lusinkit.cli", *args]
            else:
                spans = st.workdir / f"spans-{i}.json"
                cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(spans), *args]
            with clock.op():
                t0 = time.perf_counter()
                proc = subprocess.run(
                    cmd, cwd=st.workdir, capture_output=True, text=True,
                    timeout=CLI_TIMEOUT_S,
                )
                elapsed = time.perf_counter() - t0
            times["pass_wall_s"] += elapsed
            times.setdefault(kind, []).append(elapsed)
            if tracer is not None and spans.exists():
                tracer.adopt(json.loads(spans.read_text()))
            results.append((kind, proc))
        return {**times, **clock.pass_times()}, results

    def check(self, st, out):
        from lusinkit import heisenberg
        from lusinkit.harness import (
            load_certificate,
            load_function,
            sibling_certificate_path,
        )

        failed = 0
        quality = {}
        dists = iter(DIST_PAIRS)
        for kind, proc in out:
            ok = proc.returncode == 0
            if ok and kind == "construct":
                g, _ = load_function(st.lkf)
                cert = load_certificate(sibling_certificate_path(st.lkf))
                ok = g.term_count == cert.term_count
                quality["residual_fraction"] = cert.residual_fraction()
            elif ok and kind == "certify":
                report = Path(st.lkf[: -len(".lkf")] + ".report.json")
                ok = json.loads(report.read_text())["passed"]
            elif kind == "heis_dist":
                p, q = next(dists)
                if ok:
                    _, lower, upper, _ = proc.stdout.splitlines()[1].split(",")
                    ok = _check_cc(p, q, float(lower), float(upper))
            elif ok and kind == "graph_analyze":
                # the printed values must be what the library computes for
                # the constructed file
                rows = dict(line.split(",", 1) for line in proc.stdout.splitlines())
                g, dom = load_function(st.lkf)
                graph = heisenberg.GraphMap.from_sum(dom, g)
                frac = heisenberg.characteristic_fraction(graph, GRAPH_TAU)
                holder = heisenberg.holder_transfer_check(graph, seed=st.seed)
                ok = _holder_ok(holder) and all(
                    float(rows[key]) == want
                    for key, want in (
                        ("characteristic_fraction", frac),
                        ("alpha_u", holder["alpha_u"]),
                        ("alpha_graph", holder["alpha_graph"]),
                    )
                )
            failed += int(not ok)
        return failed, quality

    def summary(self, passes):
        out = {}
        for kind in ("construct", "certify", "heis_dist", "graph_analyze"):
            samples = [t for p in passes for t in p[kind]]
            out[f"cli_{kind}_s"] = (statistics.median(samples), "s", len(samples))
        return out


WORKLOADS = {
    "flagship": BuildWorkload(FLAGSHIP, "log"),
    "pwl_permissive": BuildWorkload(PWL_PERMISSIVE, "pwl"),
    "surface_analysis": SurfaceWorkload(),
    "cli_session": CliWorkload(),
}
