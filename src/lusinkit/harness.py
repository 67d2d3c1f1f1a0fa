"""Persistence, certification sampling and reproducible run plumbing.

The construction library returns in-memory objects; this module owns the
on-disk story: a versioned function-file format, atomic JSON files, run
manifests, and a sampling certifier whose checks draw from independent
labeled random streams so that adding a check never perturbs another.
Certificates, with the BuildConfig and BoxDomain they hold, read and write
themselves (their to_dict and from_dict); this module only moves them to and
from disk.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import secrets
from datetime import datetime, timezone

import numpy as np

from .core import (
    BoxDomain,
    BumpPolySum,
    BuildCertificate,
    BuildConfig,
    InfeasibleBudgetError,
    _FROM_JSON,
    _fold_columns,
    _jsonable,
    _uniform_in_box,
    multiindices_upto,
)
from .lusin import (
    _sample_in_boxes,
    field_catalog,
    multi_stage_build,
    tail_pinch_check,
)

__all__ = [
    "FORMAT_VERSION",
    "FunctionFileError",
    "certify_function",
    "default_output_dir",
    "execute_manifest",
    "load_certificate",
    "load_function",
    "run_construct",
    "save_function",
    "stream_rng",
    "write_json",
]

FORMAT_MAGIC = "lusinkit-function"
FORMAT_VERSION = 1

OUTPUT_DIR_ENV = "LUSINKIT_OUT"

CHECK_NAMES = ("match", "supnorm", "lipschitz", "modulus", "pinch")

# separation bins of the increment checks' pair sample, and the most
# rounds of rejection draws one bin may take
PAIR_BINS = 20
PAIR_ROUNDS = 64


class FunctionFileError(ValueError):
    """A function file is unreadable, truncated or of the wrong version."""


def default_output_dir() -> str:
    return os.environ.get(OUTPUT_DIR_ENV, ".")


def stream_seed(master: int, label: str) -> int:
    """Child seed for one named consumer of the master seed."""
    digest = hashlib.sha256(f"{int(master)}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stream_rng(master: int, label: str) -> np.random.Generator:
    return np.random.default_rng(stream_seed(master, label))


# ---------------------------------------------------------------------------
# atomic files


def _atomic_write(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, ".tmp-lusinkit-" + secrets.token_hex(8))
    # exclusive like mkstemp, but with open()'s mode 0666 less the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    _atomic_write(path, (text + "\n").encode())


# ---------------------------------------------------------------------------
# function files
#
# Layout: an ASCII header (one key per line, domain corners as hex floats so
# they survive exactly) terminated by "end-header\n", then one raw
# little-endian float64 record per cell term:
#
#     low[0..n)  side  coeffs[0..K)  theta  weight  stage
#
# Cells are closed cubes [low, low + side]; storing the side instead of the
# upper corner keeps the lattice spacing bit-exact, which the round-trip
# guarantee needs.  K runs over every multi-index of order <= m in the
# enumeration order of multiindices_upto.  Consecutive records with equal
# side, theta, weight and stage form one block, whose lattice is that of its
# own cells (see _Block), so save_function refuses a sum whose records would
# merge into a block off one lattice.


def _record_width(n: int, m: int) -> int:
    return n + 1 + len(multiindices_upto(n, m)) + 3


def _sum_from_records(n: int, m: int, block: np.ndarray) -> BumpPolySum:
    """The sum that a function file's term records describe.

    Raises ValueError for records that no sum holds: non-finite values, a
    bad side, theta or stage, or a block whose cells are off one lattice or
    overlap.
    """
    g = BumpPolySum(n, m)
    if not np.isfinite(block).all():
        raise ValueError("numeric block contains non-finite values")
    if not block.shape[0]:
        return g
    k = len(multiindices_upto(n, m))
    meta_cols = [n, n + 1 + k, n + 2 + k, n + 3 + k]
    steps = np.diff(block[:, meta_cols], axis=0) != 0.0
    splits = np.nonzero(_fold_columns(np.logical_or, steps))
    for part in np.split(block, splits[0] + 1):
        side, theta, weight, stage = part[0, meta_cols]
        if side <= 0.0 or not 0.0 < theta < 1.0 or stage != int(stage):
            raise ValueError("malformed cell term record")
        g = g.with_block(
            part[:, :n], side, theta, weight, int(stage), part[:, n + 1 : n + 1 + k]
        )
    return g


def save_function(g: BumpPolySum, dom: BoxDomain, path: str) -> None:
    """Write the sum and its domain box; load_function inverts bit-exactly.

    Raises ValueError, writing nothing, when the records would not reload.
    """
    if g.dimension != dom.dimension:
        raise ValueError("domain dimension does not match the function")
    n, m = g.dimension, g.order
    k = len(multiindices_upto(n, m))
    block = np.empty((g.term_count, _record_width(n, m)))
    row = 0
    for blk in g.blocks:
        rec = block[row : row + blk.lows.shape[0]]
        rec[:, :n] = blk.lows
        rec[:, n] = blk.spacing
        rec[:, n + 1 : n + 1 + k] = blk.coeffs
        rec[:, n + 1 + k] = blk.theta
        rec[:, n + 2 + k] = blk.weight
        rec[:, n + 3 + k] = blk.stage
        row += rec.shape[0]
    try:
        _sum_from_records(n, m, block)
    except ValueError as exc:
        raise ValueError(f"function would not reload from its file: {exc}") from exc
    header = [
        f"{FORMAT_MAGIC} {FORMAT_VERSION}",
        f"dimension {n}",
        f"order {m}",
        "domain-lower " + " ".join(float(v).hex() for v in dom.lower),
        "domain-upper " + " ".join(float(v).hex() for v in dom.upper),
        f"stages {len(g.stage_ids)}",
        f"terms {block.shape[0]}",
        "end-header",
    ]
    payload = "\n".join(header).encode() + b"\n"
    payload += np.ascontiguousarray(block, dtype="<f8").tobytes()
    _atomic_write(path, payload)


def _header_int(fields: dict, key: str) -> int:
    try:
        return int(fields[key])
    except (KeyError, ValueError):
        raise FunctionFileError(f"missing or malformed header field {key!r}")


def load_function(path: str) -> tuple[BumpPolySum, BoxDomain]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise FunctionFileError(f"cannot read function file: {exc}")
    marker = b"end-header\n"
    cut = raw.find(marker)
    if cut < 0:
        raise FunctionFileError("no header terminator found")
    lines = raw[:cut].decode("ascii", errors="replace").splitlines()
    if not lines or not lines[0].startswith(FORMAT_MAGIC + " "):
        raise FunctionFileError("not a lusinkit function file")
    found = lines[0][len(FORMAT_MAGIC) + 1 :].strip()
    if found != str(FORMAT_VERSION):
        raise FunctionFileError(
            f"unsupported format version: expected {FORMAT_VERSION}, found {found}"
        )
    fields = {}
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        fields[key] = rest
    n = _header_int(fields, "dimension")
    m = _header_int(fields, "order")
    stages = _header_int(fields, "stages")
    terms = _header_int(fields, "terms")
    try:
        lower = tuple(float.fromhex(v) for v in fields["domain-lower"].split())
        upper = tuple(float.fromhex(v) for v in fields["domain-upper"].split())
    except (KeyError, ValueError):
        raise FunctionFileError("missing or malformed domain corners")
    if len(lower) != n or len(upper) != n:
        raise FunctionFileError("domain corners do not match the dimension")
    dom = BoxDomain(lower, upper)

    width = _record_width(n, m)
    body = raw[cut + len(marker) :]
    if len(body) != terms * width * 8:
        raise FunctionFileError(
            f"numeric block holds {len(body)} bytes, expected {terms * width * 8}"
        )
    block = np.frombuffer(body, dtype="<f8").reshape(terms, width).astype(float)
    try:
        g = _sum_from_records(n, m, block)
    except ValueError as exc:
        raise FunctionFileError(f"malformed cell terms: {exc}")
    if len({int(s) for s in block[:, -1]}) != stages:
        raise FunctionFileError("stage count disagrees with the term records")
    return g, dom


def load_certificate(path: str) -> BuildCertificate:
    with open(path) as fh:
        return BuildCertificate.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# manifests and construction runs


def run_construct(
    field_name: str,
    dom: BoxDomain,
    cfg: BuildConfig,
    out_dir: str,
    basename: str = "function",
):
    """Build, then persist function + certificate + manifest in out_dir.

    Returns (paths dict, function, certificate).  File contents depend only
    on the inputs, never on the clock; the manifest carries the only
    timestamp.  Raises InfeasibleBudgetError, writing nothing, when stage 1
    certifies no cell: it tests every level up to refine_max under every
    parent that failed, so then no cell of the box passes.  The message
    names the check that most refine_max cells failed first.
    """
    g, cert = multi_stage_build(field_catalog(field_name), dom, cfg)
    first = cert.stage_reports[0]
    if not first.cells_accepted:
        reason, count = max(first.reject_counts.items(), key=lambda kv: kv[1])
        total = sum(first.reject_counts.values())
        raise InfeasibleBudgetError(
            f"stage 1 certifies no cell; {reason}: {count} of {total} cells "
            f"at refine_max {cfg.refine_max} fail it first"
        )
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "function": os.path.join(out_dir, basename + ".lkf"),
        "certificate": os.path.join(out_dir, basename + ".certificate.json"),
        "manifest": os.path.join(out_dir, basename + ".manifest.json"),
    }
    save_function(g, dom, paths["function"])
    write_json(paths["certificate"], cert.to_dict(include_cells=True))
    manifest = {
        "command": "construct",
        "field": field_name,
        "domain": dom.to_dict(),
        "config": cfg.to_dict(),
        "artifact_version": _artifact_version(),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    write_json(paths["manifest"], manifest)
    return paths, g, cert


def execute_manifest(path: str, out_dir: str, basename: str = "function"):
    """Re-run the construction a manifest file records; outputs must match
    the original's.

    Raises ValueError("malformed manifest: ..."), writing nothing, for a
    manifest of another command or with a missing or mistyped field.
    """
    try:
        with open(path) as fh:
            d = json.load(fh)
        if d["command"] != "construct":
            raise ValueError(f"cannot execute a {d['command']!r} manifest")
        dom = BoxDomain.from_dict(d["domain"])
        cfg = BuildConfig.from_dict(d["config"])
        field_name = _FROM_JSON["str"](d["field"])
    except ValueError as exc:
        raise ValueError(f"malformed manifest: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed manifest: {exc!r}") from exc
    return run_construct(field_name, dom, cfg, out_dir, basename)


def _artifact_version() -> str:
    from . import __version__

    return __version__


def sibling_certificate_path(function_path: str) -> str:
    base = function_path
    if base.endswith(".lkf"):
        base = base[: -len(".lkf")]
    return base + ".certificate.json"


# ---------------------------------------------------------------------------
# certification sampling


def _ratio_margin(bound: float, worst: float) -> float:
    if worst <= 0.0:
        return math.inf
    return bound / worst


def _stratified_pairs(dom: BoxDomain, count: int, rng):
    """Point pairs stratified over log-spaced separation bins.

    Small separations are where the increment bounds bind, so a uniform
    pair sample (separations concentrated near the diameter) would barely
    probe them.  The PAIR_BINS separations run from 1e-8 to 0.99 of the box
    diameter, and each bin draws rounds of candidates until it holds its
    share of the pairs or has drawn PAIR_ROUNDS rounds.  A bin whose first
    round lands no pair gives up: near the diameter of a box of two or more
    dimensions pairs land so rarely that further rounds are nearly all
    waste.  Whatever the bins leave short is drawn at small separations.
    With fewer than two pairs per bin a round is a single candidate, so a
    bin whose one draw misses gives its pair to small separations too.
    """
    # fewer pairs than bins would still draw one pair per bin
    bins = min(PAIR_BINS, count)
    diam = dom.diameter()
    seps = np.geomspace(1e-8 * diam, 0.99 * diam, bins)
    per = max(1, count // bins)
    xs, ys = [], []
    for d in seps:
        got = 0
        for _ in range(PAIR_ROUNDS):
            need = per - got
            if need <= 0:
                break
            x = _uniform_in_box(rng, dom.lower, dom.upper, need)
            vec = rng.standard_normal((need, dom.dimension))
            vec /= np.sqrt(_fold_columns(np.add, vec * vec))[:, None]
            y = x + d * vec
            ok = np.flatnonzero(dom.contains(y))
            xs.append(x.take(ok, axis=0))
            ys.append(y.take(ok, axis=0))
            got += ok.size
            if not got:
                break
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    short = count - x.shape[0]
    if short > 0:
        # rejection cannot always fill the near-diameter bins; spend the
        # remainder at small separations, where the increment bounds bind
        top = min(np.asarray(dom.side_lengths()).min() / 3.0, diam)
        d = np.exp(rng.uniform(np.log(1e-8 * diam), np.log(top), size=short))
        lo, hi = [a + d for a in dom.lower], [b - d for b in dom.upper]
        x2 = _uniform_in_box(rng, lo, hi, short)
        vec = rng.standard_normal((short, dom.dimension))
        vec /= np.sqrt(_fold_columns(np.add, vec * vec))[:, None]
        x = np.concatenate([x, x2])
        y = np.concatenate([y, x2 + d[:, None] * vec])
    step = x - y
    return x, y, np.sqrt(_fold_columns(np.add, step * step))


def _witness_pair(x, y, value) -> dict:
    return {
        "x": [float(v) for v in np.atleast_1d(x)],
        "y": [float(v) for v in np.atleast_1d(y)],
        "value": float(value),
    }


def _worst_entry(vals: np.ndarray) -> tuple[int, int]:
    """Row and column of the largest entry of a (points, multi-indices) array.

    Ties go to the lowest column, then the lowest row.
    """
    j = int(np.argmax([col.max() for col in vals.T]))
    return int(vals[:, j].argmax()), j


def _check_match(g, field, cert, count, rng) -> dict:
    boxes = [c for c in cert.covered_cells if c.shape[0]]
    if not boxes:
        return {
            "passed": True,
            "vacuous": True,
            "worst": 0.0,
            "bound": cert.config.tau,
            "margin": math.inf,
        }
    pts = _sample_in_boxes(np.concatenate(boxes, axis=0), count, rng)
    resid = np.abs(g.jet(pts, field.alphas) - field.evaluate(pts))
    resid = _fold_columns(np.maximum, resid)
    i = int(resid.argmax())
    worst = float(resid[i])
    return {
        "passed": worst <= cert.config.tau + 1e-12,
        "worst": worst,
        "bound": cert.config.tau,
        "margin": _ratio_margin(cert.config.tau, worst),
        "witness": _witness_pair(pts[i], pts[i], worst),
    }


def _check_supnorm(g, cert, count, rng, dom) -> dict:
    gammas = multiindices_upto(cert.dimension, cert.order - 1)
    pts = _uniform_in_box(rng, dom.lower, dom.upper, count)
    vals = np.abs(g.jet(pts, gammas))
    i, j = _worst_entry(vals)
    worst = float(vals[i, j])
    return {
        "passed": worst < cert.config.sigma,
        "worst": worst,
        "bound": cert.config.sigma,
        "margin": _ratio_margin(cert.config.sigma, worst),
        "order": list(gammas[j]),
        "witness": _witness_pair(pts[i], pts[i], worst),
    }


def _increment_check(g, gammas, cap, count, rng, dom) -> dict:
    """Worst |D^gamma g(x) - D^gamma g(y)| / cap(|x - y|) over stratified pairs."""
    x, y, d = _stratified_pairs(dom, count, rng)
    ratio = np.abs(g.jet(x, gammas) - g.jet(y, gammas)) / cap(d)[:, None]
    i, j = _worst_entry(ratio)
    worst = float(ratio[i, j])
    return {
        "passed": worst <= 1.0 + 1e-9,
        "worst": worst,
        "bound": 1.0,
        "margin": _ratio_margin(1.0, worst),
        "pairs": int(d.size),
        "witness": _witness_pair(x[i], y[i], worst),
    }


def _check_lipschitz(g, cert, count, rng, dom) -> dict:
    gammas = [
        gm
        for gm in multiindices_upto(cert.dimension, cert.order - 1)
        if sum(gm) <= cert.order - 2
    ]
    if not gammas:
        return {
            "passed": True,
            "vacuous": True,
            "worst": 0.0,
            "bound": 1.0,
            "margin": math.inf,
        }
    return _increment_check(g, gammas, lambda d: cert.config.sigma * d, count, rng, dom)


def _check_modulus(g, cert, count, rng, dom) -> dict:
    gammas = [
        gm
        for gm in multiindices_upto(cert.dimension, cert.order - 1)
        if sum(gm) == cert.order - 1
    ]
    mu = cert.config.modulus

    def cap(d):
        # where mu(d) = 0 the cap is +inf: the bound is vacuous, the ratio 0
        with np.errstate(divide="ignore"):
            return d / mu(d)

    return _increment_check(g, gammas, cap, count, rng, dom)


def _check_pinch(g, cert, count, rng) -> dict:
    out = tail_pinch_check(
        g, cert, samples=max(200, count // 10), seed=int(rng.integers(2**32))
    )
    out["bound"] = 1.0
    out["worst"] = out.pop("worst_ratio")
    out["margin"] = _ratio_margin(1.0, out["worst"])
    return out


def certify_function(
    g: BumpPolySum,
    dom: BoxDomain,
    cert: BuildCertificate,
    checks=CHECK_NAMES,
    pairs: int = 20_000,
    seed: int = 0,
) -> dict:
    """Sample-based re-verification of a build against its certificate.

    Every check draws from its own labeled stream of the master seed, so
    the report is deterministic and stable under changes to the check set.
    Raises ValueError for a certificate of another dimension, order or box,
    or one naming a catalog field of another dimension or order.
    """
    checks = tuple(checks)
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if pairs < 1:
        raise ValueError("pair count must be positive")
    if g.dimension != cert.dimension or g.order != cert.order:
        raise ValueError("certificate does not describe this function")
    if cert.domain.to_dict() != dom.to_dict():
        raise ValueError("certificate describes another domain")
    field = field_catalog(cert.field_name)
    if (field.dimension, field.order) != (cert.dimension, cert.order):
        raise ValueError(
            f"certificate names field {cert.field_name!r} of dimension "
            f"{field.dimension} and order {field.order}, but describes a "
            f"function of dimension {cert.dimension} and order {cert.order}"
        )
    results = {}
    for name in checks:
        rng = stream_rng(seed, name)
        if name == "match":
            results[name] = _check_match(g, field, cert, pairs, rng)
        elif name == "supnorm":
            results[name] = _check_supnorm(g, cert, pairs, rng, dom)
        elif name == "lipschitz":
            results[name] = _check_lipschitz(g, cert, pairs, rng, dom)
        elif name == "modulus":
            results[name] = _check_modulus(g, cert, pairs, rng, dom)
        elif name == "pinch":
            results[name] = _check_pinch(g, cert, pairs, rng)
    return {
        "field": cert.field_name,
        "checks": results,
        "passed": all(r["passed"] for r in results.values()),
        "pairs": pairs,
        "seed": seed,
        "artifact_version": _artifact_version(),
    }
