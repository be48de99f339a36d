"""Command-line interface: construction, reports, reproducibility."""

import csv
import json

import numpy as np
import pytest

from bubblelab import cli, detect_interfaces, gram_invariance_check, standard
from bubblelab.cli import EXIT_ERROR, main
from bubblelab.cluster import load_cluster, recentered, save_cluster
from bubblelab.quantum_graph import POLE_GUARD


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def cluster_file(tmp_path):
    path = tmp_path / "cluster.json"
    assert run_cli("standard", "--n", "2", "--q", "3",
                   "--volumes", "0.5,0.3,0.2", "--out", str(path)) == 0
    return path


class TestStandardCommand:
    def test_writes_cluster(self, cluster_file):
        payload = json.loads(cluster_file.read_text())
        assert payload["q"] == 3
        assert abs(np.array(payload["curvatures"]).sum()) < 1e-12

    def test_kappa_mode(self, tmp_path):
        path = tmp_path / "k.json"
        assert run_cli("standard", "--n", "3", "--q", "4",
                       "--kappa", "0.2,-0.1,0.05,-0.15", "--out", str(path)) == 0
        assert json.loads(path.read_text())["n"] == 3

    def test_gallery_mode(self, tmp_path):
        path = tmp_path / "bands.json"
        assert run_cli("standard", "--gallery", "bands", "--out", str(path)) == 0
        assert json.loads(path.read_text())["q"] == 4


class TestMeasureCommand:
    def test_exact_report(self, cluster_file, tmp_path):
        out = tmp_path / "measure.json"
        csv_out = tmp_path / "areas.csv"
        assert run_cli("measure", str(cluster_file), "--backend", "exact",
                       "--out", str(out), "--csv", str(csv_out)) == 0
        payload = json.loads(out.read_text())
        assert abs(sum(payload["volumes"]) - 1.0) < 1e-9
        assert payload["schema_version"] == 1
        assert payload["spherical"] is True
        assert "version" in payload and "seed" in payload
        assert csv_out.read_text().startswith("i,j,area")

    def test_byte_identical_rerun(self, cluster_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("measure", str(cluster_file), "--backend", "mc",
                           "--samples", "50000", "--seed", "11",
                           "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_auto_on_s3_byte_identical_rerun(self, tmp_path):
        cluster = tmp_path / "s3.json"
        assert run_cli("standard", "--n", "3", "--q", "4",
                       "--kappa", "0.2,-0.1,0.05,-0.15", "--out", str(cluster)) == 0
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("measure", str(cluster), "--samples", "30000", "--seed", "5",
                           "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["backend_used"] == {"kind": "monte_carlo", "seed": 5,
                                           "samples": 30000}
        assert "tol" not in payload


def gram_report(tmp_path, gallery_name, *argv):
    """(cluster path, [(json bytes, csv bytes)] of two identical deform runs)."""
    cluster = tmp_path / f"{gallery_name}.json"
    assert run_cli("standard", "--gallery", gallery_name, "--out", str(cluster)) == 0
    runs = []
    for k in range(2):
        out, report = tmp_path / f"d{k}.json", tmp_path / f"d{k}.csv"
        assert run_cli("deform", str(cluster), "--mode", "gram", "--t", "0.5",
                       "--steps", "5", *argv, "--out", str(out),
                       "--report", str(report)) == 0
        runs.append((out.read_bytes(), report.read_bytes()))
    return cluster, runs


def assert_rows_match(report_csv: bytes, reports):
    rows = list(csv.DictReader(report_csv.decode().splitlines()))
    assert len(rows) == len(reports)
    for row, rep in zip(rows, reports):
        assert float(row["perimeter"]) == rep.total_perimeter
        assert [float(row[f"v{i}"]) for i in range(len(rep.volumes))] == list(rep.volumes)


class TestDeformReport:
    """deform --report measures each path point against its own interfaces."""

    def test_sectored_cap_on_s4(self, tmp_path):
        cluster, runs = gram_report(tmp_path, "sectored-cap", "--samples", "40000",
                                    "--seed", "1")
        assert runs[0] == runs[1]
        params = load_cluster(str(cluster))
        inv = gram_invariance_check(params, detect_interfaces(params, rng_seed=1),
                                    t_max=0.5, steps=5, samples=40_000, seed=1)
        assert inv.first_new_interface_t == pytest.approx(0.3)
        assert_rows_match(runs[0][1], inv.reports)

    def test_cross_junction_on_s2(self, tmp_path):
        # the t = 0 interfaces leave a dangling arc here once new ones appear
        cluster, runs = gram_report(tmp_path, "cross")
        assert runs[0] == runs[1]
        params = load_cluster(str(cluster))
        inv = gram_invariance_check(params, detect_interfaces(params, rng_seed=0),
                                    t_max=0.5, steps=5, seed=0)
        assert inv.first_new_interface_t == pytest.approx(0.1)
        assert_rows_match(runs[0][1], inv.reports)


class TestDeformCommand:
    def test_gram_with_invariance(self, cluster_file, tmp_path):
        out = tmp_path / "deform.json"
        assert run_cli("deform", str(cluster_file), "--mode", "gram",
                       "--t", "0.4", "--steps", "2", "--check-invariance",
                       "--samples", "30000", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["invariance"]["within_tolerance"] is True

    def test_conformal_path(self, cluster_file, tmp_path):
        out = tmp_path / "flow.json"
        assert run_cli("deform", str(cluster_file), "--mode", "conformal",
                       "--t", "0.6", "--steps", "3", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert len(payload["clusters"]) == 4

    @pytest.mark.parametrize("gallery, argv, code, detections", [
        (None, ("--mode", "gram"), 0, 0),
        (None, ("--mode", "conformal"), 0, 0),
        (None, ("--mode", "gram", "--check-invariance"), 0, 1),
        (None, ("--mode", "conformal", "--check-invariance"), 0, 0),
        (None, ("--mode", "conformal", "--report", "path.csv"), 0, 1),
        # all five closures share a point, and no flow pole exists
        ("five-cell", ("--mode", "conformal", "--report", "path.csv"), 2, 0)])
    def test_detects_interfaces_only_to_measure_the_path(
            self, cluster_file, tmp_path, monkeypatch, gallery, argv, code, detections):
        cluster = cluster_file
        if gallery:
            cluster = tmp_path / f"{gallery}.json"
            assert run_cli("standard", "--gallery", gallery, "--out", str(cluster)) == 0
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return detect_interfaces(*args, **kwargs)

        monkeypatch.setattr(cli, "detect_interfaces", counted)
        monkeypatch.chdir(tmp_path)
        assert run_cli("deform", str(cluster), *argv, "--t", "0.2", "--steps", "1",
                       "--samples", "20000", "--out", "deform.json") == code
        assert len(calls) == detections


class TestAnalysisCommands:
    def test_operators(self, cluster_file, tmp_path):
        out = tmp_path / "ops.json"
        assert run_cli("operators", str(cluster_file), "--backend", "exact",
                       "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["trace"]) < 1e-10
        assert payload["fc_n"]["product_residual"] < 1e-10
        assert payload["locality"]["max_empty_pair_weight"] == 0.0

    def test_operators_mc_byte_identical_rerun(self, cluster_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("operators", str(cluster_file), "--backend", "mc",
                           "--samples", "50000", "--seed", "11",
                           "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert {"conformal_to_volume", "fc_n", "trace", "locality"} <= set(payload)
        assert "workers" not in payload

    def test_plateau(self, cluster_file, tmp_path):
        out = tmp_path / "plateau.json"
        assert run_cli("plateau", str(cluster_file), "--budget", "150",
                       "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["budget"] == 150 and payload["seed"] == 0
        assert payload["fully_plateau"] is True
        assert payload["classification"] == "both"

    def test_plateau_byte_identical_rerun(self, cluster_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("plateau", str(cluster_file), "--budget", "150",
                           "--seed", "1", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["multi_points_found"] == 2  # the two triple points
        assert payload["points_examined"] > 2

    def test_spectrum(self, cluster_file, tmp_path):
        out = tmp_path / "spec.json"
        assert run_cli("spectrum", str(cluster_file), "--h", "0.01",
                       "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["count_positive"] == 2
        assert payload["converged"] is True
        assert payload["method"] in ("closed_form", "mode_sum")
        assert payload["refined_method"] in ("closed_form", "mode_sum")
        assert "eigenvalue_method" not in payload
        assert payload["pole_margin"] >= 0.0

    def test_spectrum_byte_identical_rerun(self, tmp_path):
        # at h = 1e-3 the reduced system has over 6k unknowns
        cluster = tmp_path / "hemispheres.json"
        assert run_cli("standard", "--n", "2", "--q", "2", "--volumes", "0.5,0.5",
                       "--out", str(cluster)) == 0
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("spectrum", str(cluster), "--h", "1e-3", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["count_positive"] == 1
        assert payload["method"] == "closed_form"
        assert len(payload["eigenvalues"]) == 24
        # one circle and no vertex: the closed form condenses no arc
        assert payload["refined_method"] == "closed_form"
        assert payload["pole_margin"] is None
        # the equal-volume q = 3 bubble: both cuts lie next to arc Dirichlet
        # values, so the counts condense its arcs with mode sums
        cluster = tmp_path / "equal_q3.json"
        assert run_cli("standard", "--n", "2", "--q", "3", "--out", str(cluster)) == 0
        for out in (a, b):
            assert run_cli("spectrum", str(cluster), "--h", "1e-2", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        assert payload["count_positive"] == 2
        assert payload["method"] == payload["refined_method"] == "mode_sum"
        assert payload["pole_margin"] < POLE_GUARD

    def test_profile_csv(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert run_cli("profile", "--n", "2", "--q", "2", "--grid", "2",
                       "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("v0,v1,value")
        assert len(lines) == 3


    def test_profile_at_low_sample_count(self, tmp_path):
        # the volume map moves in steps of 1/samples: the Newton tolerance is
        # floored at two of them, within reach at 300k samples
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("profile", "--n", "3", "--q", "2", "--grid", "1",
                           "--samples", "300000", "--report", "json",
                           "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "error" not in json.loads(a.read_text())


class TestSuiteCommand:
    def test_plateau_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        assert run_cli("suite", "plateau_geometry", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["schema_version"] == 1
        printed = capsys.readouterr().out
        assert "[PASS]" in printed

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("suite", "nonsense")


class TestErrorPayloads:
    """Package errors become a JSON report with an "error" entry and exit code 3."""

    def test_exact_backend_off_s2(self, tmp_path):
        cluster, out = tmp_path / "bands.json", tmp_path / "measure.json"
        assert run_cli("standard", "--gallery", "bands", "--out", str(cluster)) == 0
        assert run_cli("measure", str(cluster), "--backend", "exact",
                       "--out", str(out)) == EXIT_ERROR
        payload = json.loads(out.read_text())
        assert payload["error"] == {"type": "ValueError",
                                    "message": "the exact backend needs n = 2, got n = 4"}
        assert payload["command"] == "measure" and payload["backend"] == "exact"
        assert payload["schema_version"] == 1

    def test_spectrum_rejects_non_spherical_cluster(self, tmp_path):
        cluster, out = tmp_path / "affine.json", tmp_path / "spectrum.json"
        rng = np.random.default_rng(0)
        save_cluster(recentered(2, rng.standard_normal((3, 3)), 0.5 * rng.standard_normal(3)),
                     cluster)
        assert run_cli("spectrum", str(cluster), "--h", "1e-2", "--out", str(out)) == EXIT_ERROR
        payload = json.loads(out.read_text())
        assert payload["error"]["type"] == "GraphBuildError"
        assert "not spherical" in payload["error"]["message"]
        assert "count_positive" not in payload

    def test_spectrum_rejects_zero_spacing(self, cluster_file, tmp_path):
        out = tmp_path / "spectrum.json"
        assert run_cli("spectrum", str(cluster_file), "--h", "0",
                       "--out", str(out)) == EXIT_ERROR
        payload = json.loads(out.read_text())
        assert payload["error"] == {
            "type": "ValueError", "message": "grid spacing h must be finite and positive, got 0.0"}
        assert payload["command"] == "spectrum" and payload["h"] == 0.0

    @pytest.mark.parametrize("argv", [("--steps", "-1", "--check-invariance"),
                                      ("--steps", "-1"), ("--steps", "-2")],
                             ids=["check-invariance", "minus-one", "minus-two"])
    def test_deform_rejects_negative_steps(self, cluster_file, tmp_path, argv):
        out, report = tmp_path / "deform.json", tmp_path / "path.csv"
        assert run_cli("deform", str(cluster_file), "--mode", "gram", *argv,
                       "--out", str(out), "--report", str(report)) == EXIT_ERROR
        payload = json.loads(out.read_text())
        steps = int(argv[1])
        assert payload["error"] == {"type": "ValueError",
                                    "message": f"steps must be non-negative, got {steps}"}
        assert payload["command"] == "deform" and payload["steps"] == steps
        assert not report.exists()

    def test_plateau_rejects_negative_budget(self, cluster_file, tmp_path):
        out = tmp_path / "plateau.json"
        assert run_cli("plateau", str(cluster_file), "--budget", "-5",
                       "--out", str(out)) == EXIT_ERROR
        payload = json.loads(out.read_text())
        assert payload["error"] == {"type": "ValueError",
                                    "message": "sample_budget must be at least 1, got -5"}
        assert payload["command"] == "plateau"

    def test_profile_newton_failure(self, monkeypatch, capsys):
        def stalled(n, q, v_target, cfg, volume_of, start=None):
            tol, _ = cfg.tolerances(n)
            params = standard.standard_of_curvature(n, q, np.zeros(q))
            return (np.zeros(q - 1), params, np.full(q, 1.0 / q), np.eye(q - 1)), 4 * tol

        monkeypatch.setattr(standard, "_volume_newton", stalled)
        assert run_cli("profile", "--n", "3", "--q", "2", "--grid", "1",
                       "--samples", "300000") == EXIT_ERROR
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "NewtonError"
        assert "did not converge" in payload["error"]["message"]
        assert payload["samples"] == 300000 and payload["seed"] == 0

    def test_standard_reports_to_stdout(self, tmp_path, capsys):
        # standard's --out is the cluster file, so its error report goes to stdout
        path = tmp_path / "cluster.json"
        assert run_cli("standard", "--n", "2", "--q", "2", "--volumes", "0,1",
                       "--out", str(path)) == EXIT_ERROR
        assert not path.exists()
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "ValueError", "message": "volumes must be positive and sum to 1"}

    @pytest.mark.parametrize("samples", ["0", "-5"])
    @pytest.mark.parametrize("argv", [
        ("standard", "--n", "3", "--q", "3", "--volumes", "0.5,0.3,0.2"),
        ("profile", "--n", "3", "--q", "2")], ids=["standard", "profile"])
    def test_monte_carlo_newton_rejects_nonpositive_samples(self, tmp_path, capsys, argv,
                                                            samples):
        path = tmp_path / "cluster.json"
        out = ("--out", str(path)) if argv[0] == "standard" else ()
        assert run_cli(*argv, "--samples", samples, *out) == EXIT_ERROR
        assert not path.exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == {"type": "ValueError", "message": "samples must be positive"}
        assert payload["command"] == argv[0] and payload["samples"] == int(samples)

    @pytest.mark.parametrize("text, problem", [
        ('{"n": 2, "quasi_centers": [[0, 0, 1], [0, 0, -1]], "curvatures": [0, 0]}', " lacks q"),
        ("[[0, 0, 1], [0, 0, -1]]", " holds a list, not a JSON object"),
        ("{not json", " is not JSON"),
        ('{"n": null, "q": 2, "quasi_centers": [[0, 0, 1], [0, 0, -1]], "curvatures": [0, 0]}',
         ": int() argument"),
        ('{"n": 2, "q": 3, "quasi_centers": [[0, 0, 1], [0, 0, -1]], "curvatures": [0, 0]}',
         ": cell count does not match")],
        ids=["missing-q", "json-list", "not-json", "null-n", "wrong-q"])
    def test_malformed_cluster_file(self, tmp_path, text, problem):
        cluster, out = tmp_path / "broken.json", tmp_path / "measure.json"
        cluster.write_text(text)
        assert run_cli("measure", str(cluster), "--out", str(out)) == EXIT_ERROR
        payload = json.loads(out.read_text())
        assert payload["error"]["type"] == "ValueError"
        assert payload["error"]["message"].startswith(f"cluster file {cluster}{problem}")
        assert payload["command"] == "measure"

    @pytest.mark.parametrize("make, problem", [
        (lambda path: None, " cannot be read: No such file or directory"),
        (lambda path: path.mkdir(), " cannot be read: Is a directory"),
        (lambda path: path.write_bytes(b"\xff{}"), " is not JSON: 'utf-8' codec can't decode"),
        (lambda path: path.write_text(
            '{"n": 1e400, "q": 2, "quasi_centers": [[0, 0, 1], [0, 0, -1]], '
            '"curvatures": [0, 0]}'), ": cannot convert float infinity to integer")],
        ids=["missing", "directory", "not-utf8", "huge-n"])
    def test_unreadable_cluster_file(self, tmp_path, make, problem):
        cluster, out = tmp_path / "broken.json", tmp_path / "measure.json"
        make(cluster)
        assert run_cli("measure", str(cluster), "--out", str(out)) == EXIT_ERROR
        payload = json.loads(out.read_text())
        assert payload["error"]["type"] == "ValueError"
        assert payload["error"]["message"].startswith(f"cluster file {cluster}{problem}")
        assert payload["command"] == "measure"

    def test_foreign_value_error_is_not_caught(self, cluster_file, monkeypatch):
        def foreign(*args, **kwargs):
            raise ValueError("raised outside bubblelab")

        monkeypatch.setattr(cli, "detect_interfaces", foreign)
        with pytest.raises(ValueError, match="raised outside bubblelab"):
            run_cli("measure", str(cluster_file))
