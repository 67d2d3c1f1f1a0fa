"""The benchmark's per-layer wrappers must see the program's layers.

bench/tracing.py wraps lusinkit functions by name; when a refactor routes
the program around a wrapped name, its metrics read 0 and look like a
speedup.  These tests trace one small build and one function-file round
trip and assert that each layer the benchmark reports for them is reached.
"""

import importlib.util
from pathlib import Path

import numpy as np

from lusinkit import harness, lusin
from lusinkit.core import BoxDomain, LogModulus
from lusinkit.lusin import BuildConfig, field_catalog

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

TWO_STAGE_CFG = BuildConfig(
    eps=0.05,
    sigma=50.0,
    tau=0.08,
    theta=0.125,
    grid=16,
    stages=2,
    quantile=0.7,
    refine_max=2,
    modulus=LogModulus(),
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build():
    dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
    # through the module attribute, which the tracer wraps
    return lusin.multi_stage_build(field_catalog("heisenberg"), dom, TWO_STAGE_CFG)


def test_builder_layers_are_traced():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        g1, cert1 = _build()
    finally:
        restore()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["lusin.stages_run"] == 2
    for key in (
        "core.cell_bounds.calls",
        "core.cell_bounds.cells",
        "core.modulus.sup_ratio.calls",
        "lusin.field_eval.points",
    ):
        assert metrics[key] > 0, key

    # restore() leaves the program as it was: a second build has the same bits
    g2, cert2 = _build()
    assert cert2.to_dict() == cert1.to_dict()
    assert len(g2.blocks) == len(g1.blocks)
    for b1, b2 in zip(g1.blocks, g2.blocks):
        assert b1.stage == b2.stage
        for a1, a2 in ((b1.lows, b2.lows), (b1.coeffs, b2.coeffs)):
            assert a1.shape == a2.shape
            np.testing.assert_array_equal(a1.view(np.uint64), a2.view(np.uint64))


def test_function_file_layers_are_traced(tmp_path):
    g, _ = _build()
    path = tmp_path / "f.lkf"
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        # through the module attributes, which the tracer wraps
        harness.save_function(g, BoxDomain((0.0, 0.0), (1.0, 1.0)), str(path))
        g2, _ = harness.load_function(str(path))
    finally:
        restore()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["harness.save_function.bytes"] == path.stat().st_size
    assert metrics["harness.load_function.s"] > 0.0
    assert g2.term_count == g.term_count
