"""Spans recorded around calls into lusinkit's public functions.

Wrappers are installed only for the traced pass, by replacing module and
class attributes of an imported lusinkit; nothing under ``src/`` knows about
them.  Each span is ``[name, start, end, parent, attrs]`` with ``parent`` the
index of the enclosing span (or -1).  Spans stay in memory; the caller writes
them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time

import numpy as np

MODULES = ("core", "lusin", "heisenberg", "harness", "cli")
REJECT_REASONS = (
    "truncation",
    "pinch",
    "supnorm",
    "lipschitz",
    "gradient_cap",
    "modulus",
    "oscillation",
)
CERTIFY_CHECKS = ("match", "supnorm", "lipschitz", "modulus", "pinch")

# Spans whose duration counts as a build's children; the rest of a build span
# is lusin's own work (free-cell pooling, pinch distance, mask painting).
BUILD_CHILDREN = (
    "core.cell_bounds",
    "core.derivative",
    "core.modulus.sup_ratio",
    "lusin.field_eval",
)

# Per-layer metrics derived from one pass's spans, with their units.  The
# layer named first in each key is the lusinkit module whose public function
# the span wraps.
SPAN_METRICS = {
    "core.cell_bounds.calls": "count",
    "core.cell_bounds.cells": "count",
    "core.cell_bounds.s": "s",
    "core.derivative.calls": "count",
    "core.derivative.points": "count",
    "core.derivative.s": "s",
    "core.modulus.sup_ratio.calls": "count",
    "core.modulus.sup_ratio.s": "s",
    "lusin.build.s": "s",
    "lusin.build.self_s": "s",
    "lusin.field_eval.points": "count",
    "lusin.field_eval.s": "s",
    "lusin.stages_run": "count",
    "lusin.cells_considered": "count",
    "lusin.cells_accepted": "count",
    "lusin.term_count": "count",
    "lusin.accept_ratio": "1",
    **{f"lusin.reject.{r}": "count" for r in REJECT_REASONS},
    "heis.cc.pairs": "count",
    "heis.cc.s_per_pair": "s",
    "heis.cc.minimize_calls": "count",
    "heis.cc.nfev": "count",
    "heis.cc.loose": "count",
    "heis.char_fraction.s": "s",
    "heis.holder.s": "s",
    **{f"harness.certify.{c}.s": "s" for c in CERTIFY_CHECKS},
    "harness.certify.kernel_frac": "1",
    "harness.save_function.s": "s",
    "harness.save_function.bytes": "bytes",
    "harness.write_json.s": "s",
    "harness.write_json.bytes": "bytes",
    "harness.load_function.s": "s",
}

# Metrics that are counts of work; they must repeat exactly between passes.
EXACT_METRICS = tuple(
    k for k, unit in SPAN_METRICS.items() if unit in ("count", "bytes")
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, i: int, attrs: dict | None = None) -> None:
        self.spans[i][2] = time.perf_counter()
        self.spans[i][4] = attrs
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    def adopt(self, spans) -> None:
        """Append spans recorded by another process, keeping their nesting."""
        base = len(self.spans)
        for name, start, end, parent, attrs in spans:
            parent = parent + base if parent >= 0 else -1
            self.spans.append([name, start, end, parent, attrs])

    def wrap(self, name: str, fn, attrs=None):
        """fn recording one span per call; attrs(args, kwargs, result) -> dict."""

        @functools.wraps(fn)
        def call(*args, **kwargs):
            i = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end(i)
                raise
            self.end(i, attrs(args, kwargs, out) if attrs else None)
            return out

        return call


def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else int(np.shape(x)[0])


def _build_attrs(args, kwargs, out):
    cert = out[1]
    rejects = {r: 0 for r in REJECT_REASONS}
    for report in cert.stage_reports:
        for reason, count in report.reject_counts.items():
            rejects[reason] = rejects.get(reason, 0) + int(count)
    return {
        "stages_run": len(cert.stage_reports),
        "cells_considered": sum(r.cells_considered for r in cert.stage_reports),
        "cells_accepted": sum(r.cells_accepted for r in cert.stage_reports),
        "term_count": int(cert.term_count),
        "rejects": rejects,
    }


def install(tracer: Tracer):
    """Wrap lusinkit's layer boundaries; returns a function that undoes it.

    A boundary the program no longer has is skipped, and its metrics read 0.
    """
    mods = {m: importlib.import_module(f"lusinkit.{m}") for m in MODULES}
    core, lusin, heis, harness = (mods[m] for m in MODULES[:4])
    undo = []

    def patch(owner, attr, name, attrs=None):
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if original is not None:
            setattr(owner, attr, tracer.wrap(name, original, attrs))
            undo.append((owner, attr, original))

    def patch_everywhere(home, attr, name, attrs=None):
        # the same function is bound under its name in every module importing it
        fn = getattr(home, attr, None)
        for mod in mods.values():
            if fn is not None and getattr(mod, attr, None) is fn:
                patch(mod, attr, name, attrs)

    patch(lusin, "cell_derivative_bounds", "core.cell_bounds",
          lambda a, k, out: {"cells": int(out.shape[1])})
    patch(core.BumpPolySum, "derivative", "core.derivative",
          lambda a, k, out: {"points": _rows(a[1])})
    modulus = getattr(core, "Modulus", None)
    for cls in modulus.__subclasses__() if modulus else ():
        patch(cls, "sup_ratio", "core.modulus.sup_ratio")
    patch(lusin.FieldCollection, "evaluate", "lusin.field_eval",
          lambda a, k, out: {"points": int(out.shape[0])})
    patch_everywhere(lusin, "multi_stage_build", "lusin.build", _build_attrs)
    patch_everywhere(heis, "cc_dist_bounds", "heis.cc",
                     lambda a, k, out: {"loose": int(bool(out.loose))})
    patch(heis, "minimize", "heis.minimize",
          lambda a, k, out: {"nfev": int(out.nfev)})
    patch_everywhere(heis, "characteristic_fraction", "heis.char_fraction")
    patch_everywhere(heis, "holder_transfer_check", "heis.holder")
    patch_everywhere(harness, "certify_function", "harness.certify")
    patch_everywhere(harness, "save_function", "harness.save_function",
                     lambda a, k, out: {"bytes": os.path.getsize(a[2])})
    patch_everywhere(harness, "write_json", "harness.write_json",
                     lambda a, k, out: {"bytes": os.path.getsize(a[0])})
    patch_everywhere(harness, "load_function", "harness.load_function")

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one pass: counts, busy time and self time."""
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0 and s[0] in BUILD_CHILDREN:
            child_time[s[3]] += dur[i]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return float(sum(dur[i] for i in named(name)))

    def attr_sum(name, key):
        return sum(spans[i][4][key] for i in named(name) if spans[i][4])

    out = {
        "core.cell_bounds.calls": len(named("core.cell_bounds")),
        "core.cell_bounds.cells": attr_sum("core.cell_bounds", "cells"),
        "core.cell_bounds.s": total("core.cell_bounds"),
        "core.derivative.calls": len(named("core.derivative")),
        "core.derivative.points": attr_sum("core.derivative", "points"),
        "core.derivative.s": total("core.derivative"),
        "core.modulus.sup_ratio.calls": len(named("core.modulus.sup_ratio")),
        "core.modulus.sup_ratio.s": total("core.modulus.sup_ratio"),
        "lusin.build.s": total("lusin.build"),
        "lusin.build.self_s": float(
            sum(dur[i] - child_time[i] for i in named("lusin.build"))
        ),
        "lusin.field_eval.points": attr_sum("lusin.field_eval", "points"),
        "lusin.field_eval.s": total("lusin.field_eval"),
    }
    for key in ("stages_run", "cells_considered", "cells_accepted", "term_count"):
        out[f"lusin.{key}"] = attr_sum("lusin.build", key)
    for reason in REJECT_REASONS:
        out[f"lusin.reject.{reason}"] = sum(
            spans[i][4]["rejects"].get(reason, 0) for i in named("lusin.build")
        )
    considered = out["lusin.cells_considered"]
    accepted = out["lusin.cells_accepted"]
    out["lusin.accept_ratio"] = accepted / considered if considered else 0.0

    pairs = len(named("heis.cc"))
    out["heis.cc.pairs"] = pairs
    out["heis.cc.s_per_pair"] = total("heis.cc") / pairs if pairs else 0.0
    out["heis.cc.minimize_calls"] = len(named("heis.minimize"))
    out["heis.cc.nfev"] = attr_sum("heis.minimize", "nfev")
    out["heis.cc.loose"] = attr_sum("heis.cc", "loose")
    out["heis.char_fraction.s"] = total("heis.char_fraction")
    out["heis.holder.s"] = total("heis.holder")

    for check in CERTIFY_CHECKS:
        out[f"harness.certify.{check}.s"] = total(f"harness.certify.{check}")
    certify = {i for i, s in enumerate(spans) if s[0].startswith("harness.certify")}
    certify_s = sum(dur[i] for i in certify if spans[i][3] not in certify)
    kernel_s = sum(
        dur[i] for i in named("core.derivative") if _has_ancestor(spans, i, certify)
    )
    out["harness.certify.kernel_frac"] = kernel_s / certify_s if certify_s else 0.0
    for name in ("save_function", "write_json"):
        out[f"harness.{name}.s"] = total(f"harness.{name}")
        out[f"harness.{name}.bytes"] = attr_sum(f"harness.{name}", "bytes")
    out["harness.load_function.s"] = total("harness.load_function")
    return out


def _has_ancestor(spans, i, targets) -> bool:
    p = spans[i][3]
    while p >= 0:
        if p in targets:
            return True
        p = spans[p][3]
    return False


def combine_passes(per_pass: list[dict]) -> tuple[dict, bool]:
    """Median over passes for times, exact value for counts.

    Returns the combined metrics and whether every count repeated exactly.
    """
    out = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        out[key] = statistics.median(values) if key not in EXACT_METRICS else values[0]
    repeated = all(m[k] == per_pass[0][k] for m in per_pass for k in EXACT_METRICS)
    return out, repeated
