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
import itertools
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
    _Block,
    _FROM_JSON,
    _fold_columns,
    _jsonable,
    _uniform_in_box,
    enumerate_multiindices,
    multiindices_upto,
    stage_weight,
)
from .lusin import field_catalog, multi_stage_build

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
    "tail_pinch_check",
    "write_json",
]

FORMAT_MAGIC = "lusinkit-function"
FORMAT_VERSION = 1

OUTPUT_DIR_ENV = "LUSINKIT_OUT"

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


def _atomic_write(path: str, payload: bytes, more=()) -> None:
    """Replace path with a new file of payload and then each bytes-like
    chunk of the iterable more, in order."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, ".tmp-lusinkit-" + secrets.token_hex(8))
    # exclusive like mkstemp, but with open()'s mode 0666 less the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            for chunk in more:
                fh.write(chunk)
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
# they survive exactly) ended by the line "end-header", then one raw
# little-endian float64 record per cell term:
#
#     low[0..n)  side  coeffs[0..K)  theta  weight  stage
#
# Cells are closed cubes [low, low + side]; storing the side instead of the
# upper corner keeps the lattice spacing bit-exact, which the round-trip
# guarantee needs.  K = C(n + m, m) runs over every multi-index of order
# <= m in the enumeration order of multiindices_upto.  weight is 2^-stage,
# stage >= 1.
# Consecutive records with equal side, theta and stage form one block, whose
# lattice is that of its own cells (see _Block), so save_function refuses a
# sum whose records would merge into a block off one lattice.  Both ways the
# records move one chunk at a time, each checked by _check_records, so no
# copy of them all is made.


def _record_layout(n: int, m: int) -> tuple[int, int, int]:
    """K, the values in one record, and the records in one chunk."""
    k = math.comb(n + m, m)
    width = n + k + 4
    return k, width, max(1, 2**17 // width)


def _check_records(rec: np.ndarray, n: int, k: int) -> list:
    """Raise ValueError unless every record of the chunk rec holds finite
    values, a positive side, a theta in (0, 1), an integer stage >= 1 and
    that stage's weight.  Returns (first row, side, theta, stage) for each
    run of consecutive records of equal side, theta and stage."""
    if not np.isfinite(rec).all():
        raise ValueError("numeric block contains non-finite values")
    cols = [rec[:, n], rec[:, n + 1 + k], rec[:, n + 3 + k]]
    steps = _fold_columns(np.logical_or, [c[1:] != c[:-1] for c in cols])
    firsts = [0, *(np.flatnonzero(steps) + 1).tolist()]
    runs = []
    for a, b in zip(firsts, firsts[1:] + [rec.shape[0]]):
        side, theta, stage = (c[a].item() for c in cols)
        if side <= 0.0 or not 0.0 < theta < 1.0 or stage != int(stage) or stage < 1:
            raise ValueError("malformed cell term record")
        if (rec[a:b, n + 2 + k] != stage_weight(int(stage))).any():
            raise ValueError("a weight is not its stage's 2^-stage")
        runs.append((a, side, theta, stage))
    return runs


def _records(g: BumpPolySum):
    """g's records in C order, each chunk checked, then yielded as a fill of
    one reused buffer.  A run of consecutive blocks of equal side, theta and
    stage, which loads as one block, is checked as that block after its
    records."""
    n, m = g.dimension, g.order
    k, width, step = _record_layout(n, m)
    buf = np.empty((min(step, g.term_count), width), "<f8")
    for key, run in itertools.groupby(
        g.blocks, lambda b: (b.spacing, b.theta, b.stage)
    ):
        run = list(run)
        for b in run:
            for s in range(0, b.lows.shape[0], step):
                rec = buf[: min(step, b.lows.shape[0] - s)]
                rec[:, :n] = b.lows[s : s + step]
                rec[:, n] = b.spacing
                rec[:, n + 1 : n + 1 + k] = b.coeffs[s : s + step]
                rec[:, n + 1 + k] = b.theta
                rec[:, n + 2 + k] = stage_weight(b.stage)
                rec[:, n + 3 + k] = b.stage
                _check_records(rec, n, k)
                yield rec
        if len(run) > 1:
            lows = np.concatenate([b.lows for b in run])
            coeffs = np.concatenate([b.coeffs for b in run])
            _Block(n, m, *key, lows, coeffs)


def save_function(g: BumpPolySum, dom: BoxDomain, path: str) -> None:
    """Write the sum and its domain box; load_function inverts bit-exactly.

    Writes the records a chunk at a time from one buffer, checking each
    chunk as load_function does: no array of all the records is made.
    Raises ValueError, writing nothing, when the records would not reload.
    """
    if g.dimension != dom.dimension:
        raise ValueError("domain dimension does not match the function")
    header = [
        f"{FORMAT_MAGIC} {FORMAT_VERSION}",
        f"dimension {g.dimension}",
        f"order {g.order}",
        "domain-lower " + " ".join(float(v).hex() for v in dom.lower),
        "domain-upper " + " ".join(float(v).hex() for v in dom.upper),
        f"stages {len(g.stage_ids)}",
        f"terms {g.term_count}",
        "end-header",
    ]
    try:
        # a refused chunk raises inside _atomic_write, which drops the file
        _atomic_write(path, "\n".join(header).encode() + b"\n", _records(g))
    except ValueError as exc:
        raise ValueError(f"function would not reload from its file: {exc}") from exc


def _header_int(fields: dict, key: str) -> int:
    try:
        return int(fields[key])
    except (KeyError, ValueError):
        raise FunctionFileError(f"missing or malformed header field {key!r}")


def _read_terms(fh, n: int, m: int, terms: int):
    """Corners, coefficients and runs of the terms records at fh's position.

    The records are read a chunk at a time into one buffer, checked, and
    their corners (terms, n) and coefficients (terms, K) copied into
    column-major arrays, which alone outlive the read: each block keeps
    views of their columns.  runs lists (first row, side, theta, stage) for
    each run of consecutive records of equal side, theta and stage.
    """
    k, width, step = _record_layout(n, m)
    lows = np.empty((terms, n), order="F")
    coeffs = np.empty((terms, k), order="F")
    buf = np.empty((min(step, terms), width), "<f8")
    runs = []
    for s in range(0, terms, step):
        rec = buf[: min(step, terms - s)]
        if fh.readinto(rec) != rec.nbytes:
            raise ValueError("numeric block ended early")
        for a, *key in _check_records(rec, n, k):
            # a run may go on from the last chunk
            if a or not runs or tuple(key) != runs[-1][1:]:
                runs.append((s + a, *key))
        lows[s : s + rec.shape[0]] = rec[:, :n]
        coeffs[s : s + rec.shape[0]] = rec[:, n + 1 : n + 1 + k]
    return lows, coeffs, runs


def load_function(path: str) -> tuple[BumpPolySum, BoxDomain]:
    """The sum and domain box that save_function wrote to path.

    Reads the header line by line up to the line end-header, checks the
    body's length against it, then reads the records a chunk at a time into
    the blocks' arrays: neither the file's bytes nor a copy of all its
    records is held.  Raises FunctionFileError for a file that cannot be
    read, is of another format or version, has a malformed header, a body of
    the wrong length, or records that no sum holds or that contradict the
    header's stage count.
    """
    try:
        with open(path, "rb") as fh:
            return _read_function(fh)
    except OSError as exc:
        raise FunctionFileError(f"cannot read function file: {exc}")


def _read_function(fh) -> tuple[BumpPolySum, BoxDomain]:
    lines = []
    for line in iter(fh.readline, b""):
        if line == b"end-header\n":
            break
        lines.append(line.decode("ascii", errors="replace").rstrip("\n"))
    else:
        raise FunctionFileError("no header terminator found")
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
    if n < 1 or m < 1:
        raise FunctionFileError(f"dimension {n} and order {m} must be at least 1")
    try:
        lower = tuple(float.fromhex(v) for v in fields["domain-lower"].split())
        upper = tuple(float.fromhex(v) for v in fields["domain-upper"].split())
    except (KeyError, ValueError):
        raise FunctionFileError("missing or malformed domain corners")
    if len(lower) != n or len(upper) != n:
        raise FunctionFileError("domain corners do not match the dimension")
    dom = BoxDomain(lower, upper)

    width = _record_layout(n, m)[1]
    body = os.fstat(fh.fileno()).st_size - fh.tell()
    if body != terms * width * 8:
        raise FunctionFileError(
            f"numeric block holds {body} bytes, expected {terms * width * 8}"
        )
    # a header-only file passes the byte count with any width
    if width * 8 > np.iinfo(np.intp).max:
        raise FunctionFileError(
            f"dimension {n} and order {m} give records of {width} values,"
            " more than an array can hold"
        )
    try:
        lows, coeffs, runs = _read_terms(fh, n, m, terms)
        ends = [r[0] for r in runs[1:]] + [terms]
        g = BumpPolySum(
            n,
            m,
            [
                _Block(n, m, side, theta, stage, lows[a:b], coeffs[a:b])
                for (a, side, theta, stage), b in zip(runs, ends)
            ],
        )
    except ValueError as exc:
        raise FunctionFileError(f"malformed cell terms: {exc}")
    if len(g.stage_ids) != stages:
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


def _report(passed, worst: float, bound: float, **extra) -> dict:
    """A check's report: its verdict, worst value, bound and bound / worst."""
    margin = math.inf if worst <= 0.0 else bound / worst
    return {"passed": passed, "worst": worst, "bound": bound, "margin": margin, **extra}


def _unit_vectors(rng, count: int, n: int) -> np.ndarray:
    """count uniform directions in R^n, (count, n): normal draws scaled to
    unit length."""
    vec = rng.standard_normal((count, n))
    vec /= np.sqrt(_fold_columns(np.add, vec * vec))[:, None]
    return vec


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
    n = dom.dimension
    # each round's kept rows go straight to their place: the bins keep at
    # most bins * per <= count pairs, in draw order
    x, y = np.empty((count, n)), np.empty((count, n))
    at = 0
    for d in seps:
        got = 0
        for _ in range(PAIR_ROUNDS):
            need = per - got
            if need <= 0:
                break
            xr = _uniform_in_box(rng, dom.lower, dom.upper, need)
            # y = x + d u in the buffer of the directions u
            yr = _unit_vectors(rng, need, n)
            yr *= d
            yr += xr
            ok = np.flatnonzero(dom.contains(yr))
            # the indices are in range, so "clip" clips none; "raise" would
            # gather into a buffer and copy it to out
            xr.take(ok, axis=0, out=x[at : at + ok.size], mode="clip")
            yr.take(ok, axis=0, out=y[at : at + ok.size], mode="clip")
            at += ok.size
            got += ok.size
            if not got:
                break
    short = count - at
    if short > 0:
        # rejection cannot always fill the near-diameter bins; spend the
        # remainder at small separations, where the increment bounds bind
        top = min(np.asarray(dom.side_lengths()).min() / 3.0, diam)
        d = np.exp(rng.uniform(np.log(1e-8 * diam), np.log(top), size=short))
        lo, hi = [a + d for a in dom.lower], [b - d for b in dom.upper]
        x[at:] = _uniform_in_box(rng, lo, hi, short)
        vec = _unit_vectors(rng, short, n)
        vec *= d[:, None]
        np.add(x[at:], vec, out=y[at:])
    step = x - y
    return x, y, np.sqrt(_fold_columns(np.add, step * step))


def _sample_in_boxes(boxes: np.ndarray, count: int, rng) -> np.ndarray:
    """Uniform points in a union of disjoint boxes (rows low then high).

    The bits of rng.choice(len(boxes), count, p=volume shares), then
    rng.uniform(size=(count, n)), but searching the sorted draws per box.
    """
    n = boxes.shape[1] // 2
    vols = np.prod(boxes[:, n:] - boxes[:, :n], axis=1)
    p = vols / vols.sum()
    if not (p >= 0.0).all():
        # choice refuses NaN and negative probabilities alike
        raise ValueError("box volumes must be finite and non-negative")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(count)
    order = np.argsort(u)
    # box k takes the draws in [cdf[k-1], cdf[k]), as choice's right search does
    per_box = np.diff(np.searchsorted(u[order], cdf), prepend=0)
    pick = np.empty(count, np.intp)
    pick[order] = np.repeat(np.arange(cdf.size), per_box)
    # take gathers whole rows many times faster than fancy indexing
    picked = boxes.take(pick, axis=0)
    return _uniform_in_box(rng, picked[:, :n].T, picked[:, n:].T, count)


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


def _check_match(g, cert, field, dom, count, rng) -> dict:
    boxes = [c for c in cert.covered_cells if c.shape[0]]
    if not boxes:
        return _report(True, 0.0, cert.config.tau, vacuous=True)
    pts = _sample_in_boxes(np.concatenate(boxes, axis=0), count, rng)
    # each point a 1-point row: |f - g| is |g - f| bit for bit
    resid = np.abs(field.residual(g, [c[None, :] for c in pts.T])).max(axis=0)[0]
    i = int(resid.argmax())
    worst = float(resid[i])
    return _report(
        worst <= cert.config.tau + 1e-12,
        worst,
        cert.config.tau,
        witness=_witness_pair(pts[i], pts[i], worst),
    )


def _check_supnorm(g, cert, field, dom, count, rng) -> dict:
    gammas = multiindices_upto(cert.dimension, cert.order - 1)
    pts = _uniform_in_box(rng, dom.lower, dom.upper, count)
    vals = np.abs(g.jet(pts, gammas))
    i, j = _worst_entry(vals)
    worst = float(vals[i, j])
    return _report(
        worst < cert.config.sigma,
        worst,
        cert.config.sigma,
        order=list(gammas[j]),
        witness=_witness_pair(pts[i], pts[i], worst),
    )


def _increment_check(g, gammas, cap, dom, count, rng) -> dict:
    """Worst |D^gamma g(x) - D^gamma g(y)| / cap(|x - y|) over stratified
    pairs; vacuous, drawing nothing, when gammas is empty."""
    if not gammas:
        return _report(True, 0.0, 1.0, vacuous=True)
    x, y, d = _stratified_pairs(dom, count, rng)
    ratio = np.abs(g.jet(x, gammas) - g.jet(y, gammas)) / cap(d)[:, None]
    i, j = _worst_entry(ratio)
    worst = float(ratio[i, j])
    return _report(
        worst <= 1.0 + 1e-9,
        worst,
        1.0,
        pairs=int(d.size),
        witness=_witness_pair(x[i], y[i], worst),
    )


def _check_lipschitz(g, cert, field, dom, count, rng) -> dict:
    gammas = multiindices_upto(cert.dimension, cert.order - 2)
    return _increment_check(g, gammas, lambda d: cert.config.sigma * d, dom, count, rng)


def _check_modulus(g, cert, field, dom, count, rng) -> dict:
    gammas = enumerate_multiindices(cert.dimension, cert.order - 1)
    mu = cert.config.modulus

    def cap(d):
        # where mu(d) = 0 the cap is +inf: the bound is vacuous, the ratio 0
        with np.errstate(divide="ignore"):
            return d / mu(d)

    return _increment_check(g, gammas, cap, dom, count, rng)


def tail_pinch_check(
    g: BumpPolySum, cert: BuildCertificate, samples: int = 2000, seed: int = 0
) -> dict:
    """Sample the quadratic decay of later-stage terms near certified boxes.

    Draws points x inside stage-k certified boxes and offsets h with
    |h| in [1e-4, 1e-1], then checks every derivative of order below the
    smoothness order of the later-stage tail against sigma |h|^2.  Returns
    a check report whose worst is the largest ratio to that bound, with the
    number of points checked; it is vacuous when no stage has any later
    terms to test.
    """
    if samples < 1:
        raise ValueError("sample count must be positive")
    n, m = cert.dimension, cert.order
    rng = np.random.default_rng(seed)
    gammas = multiindices_upto(n, m - 1)
    # stages are numbered 1, 2, ..., so stage k's boxes are covered_cells[k - 1];
    # stage k's tail is the sum of the later stages' blocks
    usable = [
        (k, boxes, BumpPolySum(n, m, [b for b in g.blocks if b.stage > k]))
        for k, boxes in enumerate(cert.covered_cells, start=1)
        if boxes.shape[0] and any(s > k for s in g.stage_ids)
    ]
    if not usable:
        return _report(True, 0.0, 1.0, checked=0, vacuous=True)
    per_stage = {}
    each = max(1, samples // len(usable))
    for k, boxes, later in usable:
        x = _sample_in_boxes(boxes, each, rng)
        direction = _unit_vectors(rng, each, n)
        radius = np.exp(rng.uniform(math.log(1e-4), math.log(1e-1), size=each))
        pts = x + radius[:, None] * direction
        tail = _fold_columns(np.maximum, np.abs(later.jet(pts, gammas)))
        ratios = tail / (cert.config.sigma * radius**2)
        per_stage[k] = float(ratios.max())
    worst = max(per_stage.values())
    return _report(
        worst <= 1.0 + 1e-9,
        worst,
        1.0,
        checked=each * len(usable),
        vacuous=False,
        per_stage=per_stage,
    )


def _check_pinch(g, cert, field, dom, count, rng) -> dict:
    return tail_pinch_check(
        g, cert, samples=max(200, count // 10), seed=int(rng.integers(2**32))
    )


# each check takes (g, cert, field, dom, count, rng) and returns a _report
_CHECKS = {
    "match": _check_match,
    "supnorm": _check_supnorm,
    "lipschitz": _check_lipschitz,
    "modulus": _check_modulus,
    "pinch": _check_pinch,
}
CHECK_NAMES = tuple(_CHECKS)


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
    of another term count or fewer stages than the function's, or one naming
    a catalog field of another dimension or order.
    """
    checks = tuple(checks)
    unknown = set(checks) - set(_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if pairs < 1:
        raise ValueError("pair count must be positive")
    if g.dimension != cert.dimension or g.order != cert.order:
        raise ValueError("certificate does not describe this function")
    if cert.domain.to_dict() != dom.to_dict():
        raise ValueError("certificate describes another domain")
    top, stages = max(g.stage_ids, default=0), len(cert.stage_reports)
    if g.term_count != cert.term_count or top > stages:
        raise ValueError(
            f"function has {g.term_count} terms up to stage {top}, its "
            f"certificate {cert.term_count} in {stages} stages"
        )
    field = field_catalog(cert.field_name)
    if (field.dimension, field.order) != (cert.dimension, cert.order):
        raise ValueError(
            f"certificate names field {cert.field_name!r} of dimension "
            f"{field.dimension} and order {field.order}, but describes a "
            f"function of dimension {cert.dimension} and order {cert.order}"
        )
    results = {
        name: _CHECKS[name](g, cert, field, dom, pairs, stream_rng(seed, name))
        for name in checks
    }
    return {
        "field": cert.field_name,
        "checks": results,
        "passed": all(r["passed"] for r in results.values()),
        "pairs": pairs,
        "seed": seed,
        "artifact_version": _artifact_version(),
    }
