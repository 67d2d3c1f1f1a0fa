"""Compare a parent and a change, two git revisions, on the benchmark.

    python3 tools/bench_compare.py --parent REV --out BENCH_N.json
        [--change REV] [--workloads a,b] [--seeds 1-10] [--seconds 20]
        [--claim WORKLOAD:METRIC ...]

Unpacks the parent and the change (HEAD by default: commit the change
first) with `git archive` into one temporary directory, so it needs no
network, leaves the repository's worktrees alone and runs both sides' files
from the same file system.  For each workload (all of BENCHMARK.json's by
default) and each seed it runs `bench/run.py --trace 0` once per side, one
process at a time: the parent first on odd seeds, the change first on even
ones.  The pair of a seed is its two runs.

For each workload and end-to-end metric of BENCHMARK.json the output file
holds both sides' values by seed, their medians and quartiles, the pairs the
change wins (strictly better, by the metric's "better") out of N, the
relative change of the medians and the verdict against the metric's bound:
"worse" when the change's median is worse than the parent's by more than the
bound times the parent's median, else "within".  Each workload also records
the share of failed operations on each side.  A claimed metric (--claim)
gets a second verdict, "met" when the change wins at least 9 of every 10
pairs and its median is better than the parent's by more than the parent's
quartile spread.  The file also records each side's src/ line totals
(tools/src_lines.py, where the side has it) and runtime dependencies
(pyproject.toml).  The same numbers print as a markdown table.

Exits 0 when every run printed a result, 1 otherwise.
"""

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a claim needs wins in at least this share of the pairs
CLAIM_WINS = 0.9


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _unpack(rev: str, into: Path) -> None:
    archive = into.with_suffix(".tar")
    subprocess.run(
        ["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT, check=True
    )
    with tarfile.open(archive) as tar:
        # extraction filters came with Python 3.12 and late 3.8-3.11 releases
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(into, **safe)
    archive.unlink()


def _size(side: Path) -> dict:
    """src/ line totals and runtime dependencies of a checkout."""
    out = {"src_lines": None, "src_code_lines": None}
    script = side / "tools" / "src_lines.py"
    if script.is_file():
        text = subprocess.run(
            [sys.executable, str(script)], cwd=side, check=True, capture_output=True,
            text=True,
        ).stdout
        _, lines, code = text.splitlines()[-1].split()
        out = {"src_lines": int(lines), "src_code_lines": int(code)}
    out["runtime_deps"] = _dependencies((side / "pyproject.toml").read_text())
    return out


def _dependencies(pyproject: str) -> list[str]:
    """The strings of pyproject's `dependencies = [...]` array, read by
    pattern, as tomllib needs Python 3.11."""
    array = re.search(
        r'^dependencies\s*=\s*\[((?:\s*"[^"]*"\s*,?)*)\s*\]', pyproject, re.M
    )
    return re.findall(r'"([^"]*)"', array.group(1)) if array else []


def _run(side: Path, workload: str, seed: int, seconds: int) -> dict:
    """One bench/run.py result: its metrics by name, attempted and failed."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"error": f"exit status {proc.returncode}"}
    res = json.loads(lines[-1])
    return {
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: v["value"] for k, v in res["metrics"].items()},
    }


def _summary(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None}
    q1, _, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1
        else values * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _compare(spec: dict, parent: list, change: list, claimed: bool) -> dict:
    """One metric of one workload over paired runs (None where a run failed)."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    pairs = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    wins = sum(sign * (c - p) < 0.0 for p, c in pairs)
    out = {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": {**_summary([p for p, _ in pairs]), "values": parent},
        "change": {**_summary([c for _, c in pairs]), "values": change},
        "wins": wins,
        "pairs": len(pairs),
    }
    pm, cm = out["parent"]["median"], out["change"]["median"]
    if pm is None:
        out.update(rel_change=None, verdict="no data")
        return out
    out["rel_change"] = (cm - pm) / abs(pm) if pm else None
    worse = sign * (cm - pm) > spec["bound"] * abs(pm)
    out["verdict"] = "worse" if worse else "within"
    if claimed:
        spread = out["parent"]["q3"] - out["parent"]["q1"]
        met = wins >= CLAIM_WINS * len(pairs) and sign * (pm - cm) > spread
        out["claim"] = "met" if met else "not met"
    return out


def _fmt(s: dict) -> str:
    if s["median"] is None:
        return "-"
    return f"{s['median']:.4g} [{s['q1']:.4g}–{s['q3']:.4g}]"


def _table(report: dict) -> str:
    rows = [
        "| workload | metric | parent median [quartiles] | change median [quartiles]"
        " | change | wins | bound | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name, wl in report["workloads"].items():
        for metric, m in wl["metrics"].items():
            rel = "-" if m.get("rel_change") is None else f"{100 * m['rel_change']:+.1f}%"
            verdict = m["verdict"] + (f", claim {m['claim']}" if "claim" in m else "")
            rows.append(
                f"| {name} | {metric} | {_fmt(m['parent'])} | {_fmt(m['change'])} | "
                f"{rel} | {m['wins']}/{m['pairs']} | {m['bound']:g} | {verdict} |"
            )
        failed = wl["failed_frac"]
        rows.append(
            f"| {name} | failed ops | {failed['parent']:.3g} | {failed['change']:.3g} | "
            f"- | - | - | {failed['verdict']} |"
        )
    sizes = report["size"]
    for side in ("parent", "change"):
        s = sizes[side]
        rows.append(
            f"\n{side}: src/ {s['src_lines']} lines, {s['src_code_lines']} of code; "
            f"runtime dependencies {', '.join(s['runtime_deps']) or 'none'}"
        )
    return "\n".join(rows)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--change", default="HEAD", help="git revision of the change")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument(
        "--workloads", default=",".join(w["name"] for w in bench["workloads"])
    )
    ap.add_argument("--seeds", default="1-10", help="a seed range, such as 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC")
    ns = ap.parse_args()
    workloads = ns.workloads.split(",")
    seeds = _seeds(ns.seeds)
    claims = {tuple(c.split(":", 1)) for c in ns.claim}
    specs = {m["name"]: m for m in bench["end_to_end"]}

    report = {
        "parent": _git("rev-parse", ns.parent),
        "change": _git("rev-parse", ns.change),
        "seeds": seeds,
        "seconds": ns.seconds,
        "order": "parent first on odd seeds, change first on even seeds",
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform()},
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for side, path in sides.items():
            _unpack(report[side], path)
        report["size"] = {side: _size(path) for side, path in sides.items()}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    res = _run(sides[side], workload, seed, ns.seconds)
                    ok = ok and "error" not in res
                    runs[side].append(res)
                    shown = res.get("metrics", {}).get("pass_s", res.get("error"))
                    print(f"{workload} seed {seed} {side}: pass_s {shown}", file=sys.stderr)
            metrics = {
                name: _compare(
                    spec,
                    *([r.get("metrics", {}).get(name) for r in runs[s]] for s in runs),
                    (workload, name) in claims,
                )
                for name, spec in specs.items()
            }
            failed = {
                side: sum(r.get("failed", 1) for r in rs)
                / max(1, sum(r.get("attempted", 1) for r in rs))
                for side, rs in runs.items()
            }
            failed["verdict"] = "worse" if failed["change"] > failed["parent"] else "within"
            report["workloads"][workload] = {"metrics": metrics, "failed_frac": failed}
    ns.out.write_text(json.dumps(report, indent=2) + "\n")
    print(_table(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
