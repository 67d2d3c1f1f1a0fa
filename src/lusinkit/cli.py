"""Command line front end: construct, certify, heis.

Exit codes: 0 success, 1 a requested certification check failed, 2 invalid
input (flags, files, formats), 3 stage 1 certifies no cell; the message names
the failing check.

Each command imports the modules it uses when it runs, so `heis dist` loads
neither numpy nor the builder.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3

# construct has one flag per BuildConfig field, parsed by the field's type; a
# modulus stays text until cli_construct reads it with _modulus_spec
_SETTING_FLAG_TYPES = {"int": int, "float": float, "Modulus": str}
_SETTING_HELP = {
    "grid": "stage-1 cells per axis",
    "modulus": "log, power:BETA or pwl:t0,v0;t1,v1;...",
}


def _floats(text: str, count: int | None = None) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")
    if count is not None and len(vals) != count:
        raise argparse.ArgumentTypeError(f"expected {count} numbers, got {len(vals)}")
    return vals


def _seed(text: str) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")


def _point(text: str):
    from .group import HPoint

    return HPoint(*_floats(text, 3))


def _modulus_spec(text: str):
    """The modulus that --modulus text names, read as its spec_dict() form."""
    from .core import modulus_from_dict

    kind, colon, rest = text.partition(":")
    spec = {"kind": kind}
    try:
        if kind == "power" and colon:
            spec["beta"] = float(rest)
        elif kind == "pwl" and colon:
            spec["knots"] = [[float(v) for v in k.split(",")] for k in rest.split(";")]
        elif text != "log":
            raise ValueError("use log, power:BETA or pwl:t0,v0;t1,v1;...")
    except ValueError as exc:
        raise ValueError(f"modulus {text!r}: {exc}") from None
    return modulus_from_dict(spec)


def _domain(vals: tuple[float, ...]):
    from .core import BoxDomain

    if len(vals) % 2:
        raise ValueError("domain needs an even number of coordinates: lows then highs")
    n = len(vals) // 2
    return BoxDomain(vals[:n], vals[n:])


def _print_csv(header, rows):
    print(",".join(header))
    for row in rows:
        print(",".join(str(v) for v in row))


def cli_construct(ns) -> int:
    from .core import InfeasibleBudgetError
    from .harness import default_output_dir, run_construct
    from .lusin import BuildConfig

    # only the settings flags given are in ns; BuildConfig supplies the rest
    names = {f.name for f in fields(BuildConfig)}
    settings = {k: v for k, v in vars(ns).items() if k in names}
    if "modulus" in settings:
        settings["modulus"] = _modulus_spec(settings["modulus"])
    cfg = BuildConfig(**settings)
    dom = _domain(ns.domain)
    out = default_output_dir() if ns.out is None else ns.out
    try:
        paths, _, cert = run_construct(ns.field, dom, cfg, out, ns.name)
    except InfeasibleBudgetError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"function    {paths['function']}")
    print(f"certificate {paths['certificate']}")
    print(f"manifest    {paths['manifest']}")
    print(f"coverage_fraction {cert.coverage_fraction():.6f}")
    print(f"residual_fraction {cert.residual_fraction():.6f}")
    print(f"term_count {cert.term_count}")
    print(f"budgets_ok {cert.budgets_ok()}")
    return EXIT_OK if cert.budgets_ok() else EXIT_CHECK_FAILED


def cli_certify(ns) -> int:
    from .harness import CHECK_NAMES, certify_function, load_certificate
    from .harness import load_function, sibling_certificate_path, write_json

    g, dom = load_function(ns.function)
    cert_path = ns.certificate or sibling_certificate_path(ns.function)
    cert = load_certificate(cert_path)
    # certify_function refuses unknown names
    checks = tuple(v.strip() for v in ns.checks.split(",") if v.strip())
    report = certify_function(
        g, dom, cert, checks=checks or CHECK_NAMES, pairs=ns.pairs, seed=ns.seed
    )
    out = ns.report or os.path.splitext(ns.function)[0] + ".report.json"
    write_json(out, report)
    for name, res in report["checks"].items():
        verdict = "pass" if res["passed"] else "FAIL"
        print(f"{name}: {verdict} (worst {res['worst']:.6g}, bound {res['bound']})")
    print(f"report {out}")
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cli_heis_dist(ns) -> int:
    from .group import cc_dist_bounds, gauge, inverse, product

    # heisenberg.koranyi_dist of two HPoints, which takes this float path
    dk = gauge(product(inverse(ns.q), ns.p))
    bounds = cc_dist_bounds(ns.p, ns.q)
    _print_csv(
        ("koranyi", "cc_lower", "cc_upper", "loose"),
        [(repr(dk), repr(bounds.lower), repr(bounds.upper), bounds.loose)],
    )
    return EXIT_OK


def cli_heis_counterexample(ns) -> int:
    from .heisenberg import circulation_counterexample

    a, b = circulation_counterexample()
    _print_csv(("path_a", "path_b", "difference"), [(a, b, b - a)])
    return EXIT_OK


def cli_heis_graph(ns) -> int:
    from .harness import load_function
    from .heisenberg import GraphMap, characteristic_fraction, holder_transfer_check

    g, dom = load_function(ns.function)
    if g.dimension != 2 or g.order != 1:
        raise ValueError("graph analysis expects a first-order planar function")
    G = GraphMap.from_sum(dom, g)
    frac = characteristic_fraction(G, ns.tau, grid=ns.grid)
    report = holder_transfer_check(G, seed=ns.seed)
    rows = [
        ("characteristic_fraction", repr(frac)),
        ("tau", repr(ns.tau)),
        ("alpha_u", repr(report["alpha_u"])),
        ("alpha_graph", repr(report["alpha_graph"])),
        ("transfer_gap", repr(report["gap"])),
        ("transfer_passed", report["passed"]),
        ("status", report["status"]),
    ]
    _print_csv(("quantity", "value"), rows)
    return EXIT_OK


class _CommandParser(argparse.ArgumentParser):
    """A parser that calls add_arguments(self) when it first parses, so a
    command whose flags come from a module imports it only when it runs."""

    def __init__(self, *args, add_arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add, self._add_arguments = self._add_arguments, None
            add(self)
        return super().parse_known_args(args, namespace)


def _construct_arguments(c: argparse.ArgumentParser) -> None:
    from .lusin import BuildConfig

    c.add_argument("--field", required=True, help="catalog field name")
    c.add_argument(
        "--domain",
        type=_floats,
        default="0,0,1,1",
        help="lows then highs, e.g. 0,0,1,1",
    )
    for f in fields(BuildConfig):
        c.add_argument(
            "--" + f.name.replace("_", "-"),
            type=_SETTING_FLAG_TYPES[f.type],
            default=argparse.SUPPRESS,
            help=_SETTING_HELP.get(f.name),
        )
    c.add_argument("--out", default=None, help="output directory")
    c.add_argument("--name", default="function", help="basename for output files")


def build_parser() -> argparse.ArgumentParser:
    parser = _CommandParser(
        prog="lusinkit",
        description="Construct functions with prescribed a.e. derivatives and "
        "analyze horizontal graphs in the first Heisenberg group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser(
        "construct",
        help="run a construction and persist it",
        add_arguments=_construct_arguments,
    )
    c.set_defaults(func=cli_construct)

    v = sub.add_parser("certify", help="re-verify a saved function by sampling")
    v.add_argument("function", help="path to a saved function file")
    v.add_argument("--certificate", default=None)
    # empty means every check
    v.add_argument("--checks", default="")
    v.add_argument("--pairs", type=int, default=20_000)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--report", default=None, help="report path")
    v.set_defaults(func=cli_certify)

    h = sub.add_parser("heis", help="Heisenberg group utilities")
    hs = h.add_subparsers(dest="heis_cmd", required=True)

    d = hs.add_parser(
        "dist",
        help="Koranyi distance and CC bounds",
        description="Koranyi distance and CC bounds. Put -- before the points "
        "when one starts with a minus sign: heis dist -- -1,0,0 1,1,0",
    )
    d.add_argument("p", type=_point, help="x,y,t")
    d.add_argument("q", type=_point, help="x,y,t")
    d.set_defaults(func=cli_heis_dist)

    ga = hs.add_parser("graph", help="analyze a saved graph height function")
    ga.add_argument("action", choices=("analyze",))
    ga.add_argument("function", help="path to a saved function file")
    ga.add_argument("--tau", type=float, default=1e-3)
    ga.add_argument("--grid", type=int, default=255, help="cells per axis")
    ga.add_argument("--seed", type=_seed, default=0)
    ga.set_defaults(func=cli_heis_graph)

    ce = hs.add_parser("counterexample", help="two lifts of one planar loop")
    ce.set_defaults(func=cli_heis_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
