import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import lusinkit
from lusinkit.cli import main
from lusinkit.core import BoxDomain, BumpPolySum, PowerModulus
from lusinkit.harness import (
    FunctionFileError,
    RunManifest,
    certificate_from_dict,
    certify_function,
    execute_manifest,
    load_certificate,
    load_function,
    run_construct,
    save_function,
    sibling_certificate_path,
    stream_seed,
)
from lusinkit.lusin import BuildConfig, field_catalog, multi_stage_build

GROWTH_CFG = BuildConfig(
    eps=0.05,
    sigma=50.0,
    tau=0.08,
    theta=0.125,
    grid=32,
    stages=3,
    quantile=0.7,
    refine_max=3,
    modulus=PowerModulus(1.0),
)


@pytest.fixture(scope="module")
def growth_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("growth")
    paths, g, cert = run_construct(
        "heisenberg", BoxDomain((0.0, 0.0), (1.0, 1.0)), GROWTH_CFG, str(out)
    )
    return paths, g, cert


class TestStreams:
    def test_labels_are_independent(self):
        assert stream_seed(0, "match") != stream_seed(0, "supnorm")
        assert stream_seed(0, "match") != stream_seed(1, "match")
        assert stream_seed(7, "pinch") == stream_seed(7, "pinch")


class TestFunctionFile:
    def test_round_trip_bit_exact(self, growth_run, tmp_path):
        paths, g, _ = growth_run
        g2, dom2 = load_function(paths["function"])
        assert dom2.lower == (0.0, 0.0) and dom2.upper == (1.0, 1.0)
        assert g2.term_count == g.term_count
        assert len(g2.blocks) == len(g.blocks)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 1.0, size=(1000, 2))
        for gamma in [(0, 0), (1, 0), (0, 1)]:
            npt.assert_array_equal(
                g.derivative(pts, gamma), g2.derivative(pts, gamma)
            )

    def test_empty_function(self, tmp_path):
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        path = str(tmp_path / "empty.lkf")
        save_function(BumpPolySum(2, 1), dom, path)
        g, dom2 = load_function(path)
        assert g.term_count == 0
        assert dom2.upper == (1.0, 1.0)

    def test_version_mismatch(self, growth_run, tmp_path):
        paths, _, _ = growth_run
        raw = open(paths["function"], "rb").read()
        bad = str(tmp_path / "v9.lkf")
        open(bad, "wb").write(raw.replace(b"-function 1\n", b"-function 9\n", 1))
        with pytest.raises(FunctionFileError, match="expected 1, found 9"):
            load_function(bad)

    def test_truncated_block(self, growth_run, tmp_path):
        paths, _, _ = growth_run
        raw = open(paths["function"], "rb").read()
        bad = str(tmp_path / "short.lkf")
        open(bad, "wb").write(raw[:-16])
        with pytest.raises(FunctionFileError, match="bytes"):
            load_function(bad)

    def test_wrong_magic(self, tmp_path):
        bad = str(tmp_path / "junk.lkf")
        open(bad, "wb").write(b"something else\nend-header\n")
        with pytest.raises(FunctionFileError, match="not a lusinkit"):
            load_function(bad)

    def test_missing_terminator(self, tmp_path):
        bad = str(tmp_path / "headless.lkf")
        open(bad, "wb").write(b"lusinkit-function 1\ndimension 2\n")
        with pytest.raises(FunctionFileError, match="terminator"):
            load_function(bad)


class TestCertificateFile:
    def test_round_trip(self, growth_run):
        paths, _, cert = growth_run
        back = load_certificate(paths["certificate"])
        assert back.to_dict(include_cells=True) == cert.to_dict(include_cells=True)

    def test_counts_only_form_rejected(self, growth_run):
        _, _, cert = growth_run
        with pytest.raises(ValueError, match="cell lists"):
            certificate_from_dict(cert.to_dict(include_cells=False))


class TestCertify:
    def test_all_checks_pass(self, growth_run):
        paths, _, _ = growth_run
        g, dom = load_function(paths["function"])
        cert = load_certificate(paths["certificate"])
        report = certify_function(g, dom, cert, pairs=4000, seed=5)
        assert report["passed"]
        checks = report["checks"]
        assert set(checks) == {"match", "supnorm", "lipschitz", "modulus", "pinch"}
        assert checks["match"]["worst"] <= cert.tau
        assert checks["supnorm"]["worst"] < cert.sigma
        assert checks["lipschitz"]["vacuous"]
        assert checks["modulus"]["worst"] <= 1.0
        assert not checks["pinch"]["vacuous"]

    def test_deterministic_and_stream_isolated(self, growth_run):
        paths, _, _ = growth_run
        g, dom = load_function(paths["function"])
        cert = load_certificate(paths["certificate"])
        full = certify_function(g, dom, cert, pairs=2000, seed=9)
        again = certify_function(g, dom, cert, pairs=2000, seed=9)
        assert json.dumps(full, default=repr, sort_keys=True) == json.dumps(
            again, default=repr, sort_keys=True
        )
        solo = certify_function(g, dom, cert, checks=("modulus",), pairs=2000, seed=9)
        assert solo["checks"]["modulus"] == full["checks"]["modulus"]

    def test_corrupted_coefficient_caught_in_cell(self, growth_run, tmp_path):
        # flip the sign of the largest top-order coefficient; the match
        # check must fail with a witness inside that very cell
        paths, _, _ = growth_run
        raw = open(paths["function"], "rb").read()
        cut = raw.find(b"end-header\n") + len(b"end-header\n")
        width = 2 + 1 + 3 + 3
        rec = np.frombuffer(raw[cut:], dtype="<f8").copy().reshape(-1, width)
        row = int(np.abs(rec[:, 4]).argmax())
        rec[row, 4] = -rec[row, 4]
        bad = str(tmp_path / "flip.lkf")
        open(bad, "wb").write(raw[:cut] + rec.tobytes())

        g, dom = load_function(bad)
        cert = load_certificate(paths["certificate"])
        res = certify_function(g, dom, cert, checks=("match",), pairs=20_000, seed=0)[
            "checks"
        ]["match"]
        assert not res["passed"]
        assert res["worst"] > cert.tau
        witness = np.array(res["witness"]["x"])
        low, side = rec[row, :2], rec[row, 2]
        assert np.all(witness >= low) and np.all(witness <= low + side)

    def test_zero_function_margins(self, tmp_path):
        paths, g, cert = run_construct(
            "zero",
            BoxDomain((0.0, 0.0), (1.0, 1.0)),
            BuildConfig(grid=8, stages=1),
            str(tmp_path),
            basename="zero",
        )
        assert g.term_count == 0
        assert cert.coverage_fraction() == 1.0
        report = certify_function(g, BoxDomain((0.0, 0.0), (1.0, 1.0)), cert, pairs=500)
        assert report["passed"]
        for res in report["checks"].values():
            assert res["worst"] == 0.0
            assert math.isinf(res["margin"])

    def test_input_validation(self, growth_run):
        paths, g, cert = growth_run
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="unknown checks"):
            certify_function(g, dom, cert, checks=("sup",))
        with pytest.raises(ValueError, match="positive"):
            certify_function(g, dom, cert, pairs=0)
        with pytest.raises(ValueError, match="describe"):
            certify_function(BumpPolySum(2, 2), dom, cert)


class TestManifest:
    def test_round_trip(self, growth_run):
        paths, _, _ = growth_run
        manifest = RunManifest.from_dict(json.load(open(paths["manifest"])))
        assert manifest.to_dict() == json.load(open(paths["manifest"]))
        assert manifest.build_config() == GROWTH_CFG
        assert manifest.domain().upper == (1.0, 1.0)

    def test_rerun_reproduces_bytes(self, growth_run, tmp_path):
        paths, _, _ = growth_run
        paths2, _, _ = execute_manifest(paths["manifest"], str(tmp_path / "again"))
        for key in ("function", "certificate"):
            a = open(paths[key], "rb").read()
            b = open(paths2[key], "rb").read()
            assert a == b

    def test_only_construct_manifests_run(self, growth_run, tmp_path):
        paths, _, _ = growth_run
        manifest = RunManifest.from_dict(json.load(open(paths["manifest"])))
        impostor = RunManifest.from_dict({**manifest.to_dict(), "command": "certify"})
        with pytest.raises(ValueError, match="certify"):
            execute_manifest(impostor, str(tmp_path))


class TestCli:
    def test_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(lusinkit.__file__)))
        probe = (
            "import sys, lusinkit.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_construct_and_certify(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        rc = main(
            [
                "construct",
                "--field",
                "zero",
                "--grid",
                "8",
                "--stages",
                "1",
                "--out",
                out,
                "--name",
                "z",
            ]
        )
        assert rc == 0
        assert os.path.exists(os.path.join(out, "z.lkf"))
        assert os.path.exists(os.path.join(out, "z.certificate.json"))
        assert os.path.exists(os.path.join(out, "z.manifest.json"))
        capsys.readouterr()
        rc = main(["certify", os.path.join(out, "z.lkf"), "--pairs", "500"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "match: pass" in text
        assert os.path.exists(os.path.join(out, "z.report.json"))

    @pytest.mark.parametrize("umask", [0o022, 0o027])
    def test_artifacts_honour_umask(self, tmp_path, capsys, umask):
        out = tmp_path / "run"
        construct = ["construct", "--field", "zero", "--grid", "8", "--stages", "1"]
        old = os.umask(umask)
        try:
            assert main([*construct, "--out", str(out), "--name", "z"]) == 0
            assert main(["certify", str(out / "z.lkf"), "--pairs", "500"]) == 0
        finally:
            os.umask(old)
        for name in ("z.lkf", "z.certificate.json", "z.manifest.json", "z.report.json"):
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o666 & ~umask

    def test_output_dir_from_environment(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("LUSINKIT_OUT", str(target))
        rc = main(["construct", "--field", "zero", "--grid", "4", "--stages", "1"])
        assert rc == 0
        assert (target / "function.lkf").exists()

    def test_malformed_knots_leave_no_files(self, tmp_path, capsys):
        out = tmp_path / "nothing"
        rc = main(
            [
                "construct",
                "--field",
                "zero",
                "--modulus",
                "pwl:0.1,0;1,2",
                "--out",
                str(out),
            ]
        )
        assert rc == 2
        assert not out.exists()
        assert "knot" in capsys.readouterr().err

    def test_infeasible_budget_exit_code(self, tmp_path, capsys):
        rc = main(
            [
                "construct",
                "--field",
                "heisenberg",
                "--grid",
                "4",
                "--eps",
                "1e-310",
                "--modulus",
                "log",
                "--out",
                str(tmp_path / "inf"),
            ]
        )
        assert rc == 3
        assert "infeasible" in capsys.readouterr().err

    def test_certify_version_mismatch(self, growth_run, tmp_path, capsys):
        paths, _, _ = growth_run
        raw = open(paths["function"], "rb").read()
        bad = str(tmp_path / "v9.lkf")
        open(bad, "wb").write(raw.replace(b"-function 1\n", b"-function 9\n", 1))
        rc = main(["certify", bad, "--certificate", paths["certificate"]])
        assert rc == 2
        assert "found 9" in capsys.readouterr().err

    def test_certify_unknown_check(self, growth_run, capsys):
        paths, _, _ = growth_run
        rc = main(["certify", paths["function"], "--checks", "sup"])
        assert rc == 2
        assert "unknown checks" in capsys.readouterr().err

    def test_heis_counterexample(self, capsys):
        assert main(["heis", "counterexample"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "path_a,path_b,difference"
        assert out[1] == "-2.0,2.0,4.0"

    def test_heis_dist(self, capsys):
        rc = main(["heis", "dist", "0,0,0", "1,0,0"])
        assert rc == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "koranyi,cc_lower,cc_upper,loose"
        values = row.split(",")
        assert float(values[0]) == 1.0
        assert float(values[1]) == 1.0
        assert float(values[2]) <= 1.001

    def test_heis_dist_rejects_text(self, capsys):
        assert main(["heis", "dist", "0,0,abc", "1,0,0"]) == 2

    def test_heis_graph_analyze(self, growth_run, capsys):
        paths, _, _ = growth_run
        rc = main(["heis", "graph", "analyze", paths["function"], "--tau", "0.08"])
        assert rc == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0] == "quantity,value"
        assert "characteristic_fraction," in text
        assert "alpha_u," in text

    def test_heis_graph_rejects_higher_order(self, tmp_path, capsys):
        dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
        path = str(tmp_path / "m2.lkf")
        save_function(BumpPolySum(2, 2), dom, path)
        rc = main(["heis", "graph", "analyze", path])
        assert rc == 2
        assert "first-order planar" in capsys.readouterr().err
