"""Command dispatch, report determinism, scene-file round trips."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import darboux
from darboux.cli import run_command
from darboux.envelope import regression_values
from darboux.scenes import CATALOG, bundled_text, load_bundled, parse_scene_text, serialize_scene
from darboux.errors import (InconclusiveToleranceWarning, IndefiniteWarning, SceneFormatError,
                            ToleranceWarning)
from darboux.expr import FUNCTIONS
from conftest import reject_constant


def run_cli(args, tmp_path=None):
    result = subprocess.run(
        [sys.executable, "-m", "darboux.cli"] + args,
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    return result.returncode, result.stdout, result.stderr


def test_examples_catalog():
    code, out, _ = run_cli(["examples", "--list"])
    assert code == 0
    names = out.split()
    assert len(names) == 12
    assert set(names) == set(CATALOG)


def test_classify_command(tmp_path):
    scene_file = tmp_path / "a2.scene"
    scene_file.write_text(bundled_text("a2"))
    code, out, _ = run_cli(
        ["classify", "--scene", str(scene_file), "--t", "0", "--u", "1"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["class"] == "A2"
    assert report["results"]["versal"] is True
    assert report["timing"] is None


def test_degenerate_scene_exit_code(tmp_path):
    scene_file = tmp_path / "degenerate.scene"
    scene_file.write_text(
        "[hypersurface]\nn = 1\nf = t*y\n[submanifold]\ng = 0\n"
    )
    code, out, _ = run_cli(["frame", "--scene", str(scene_file), "--t", "0"])
    assert code == 3
    diag = json.loads(out)
    assert diag["error"] == "degeneracy"
    assert "non-degeneracy determinant" in diag["message"]


def test_transon_at_a_degenerate_point_exits_with_the_determinant(tmp_path, capsys):
    # The section Hessian block is exactly singular at the origin; transon
    # reports the frame's DegenerateError, not a LinAlgError.
    scene_file = tmp_path / "degenerate.scene"
    scene_file.write_text(
        "[hypersurface]\nn = 2\nf = (0.01*t1^2 + 0.2*t1*t2 + t2^2)/2 + y^2/2 + t1^3\n"
        "[submanifold]\ng = 0\n"
    )
    for command in ("frame", "transon"):
        code = run_command([command, "--scene", str(scene_file), "--t", "0,0"])
        diag = json.loads(capsys.readouterr().out)
        assert code == 3
        assert diag["type"] == "DegenerateError", command
        assert "non-degeneracy determinant" in diag["message"]


@pytest.mark.parametrize("lambdas,error,text", [
    ("0.1,0.1,0.1", "NeedMoreSectionsError", "need at least 3 distinct sections, got 1"),
    ("1e300,0.1,0.2", "ReversionFailureError", "at lambda=1e+300"),
])
def test_transon_lambda_lists_without_a_plane_exit_3(lambdas, error, text):
    # One section three times is not a plane; a lambda whose section
    # overflows fails the reversion check instead of reaching the SVD.
    code, out, err = run_cli(["transon", "--scene", "nonflat", "--t", "0.1,0.15",
                              f"--lambdas={lambdas}"])
    diag = json.loads(out)
    assert code == 3 and diag["error"] == "degeneracy"
    assert diag["type"] == error and text in diag["message"]
    assert "Warning" not in err


def test_usage_errors():
    code, _, _ = run_cli(["frame", "--scene", "/nonexistent/path.scene"])
    assert code == 2
    code, _, _ = run_cli(["no-such-command"])
    assert code == 2
    code, _, _ = run_cli(["classify", "--scene", "a2", "--t", "0,0", "--u", "1"])
    assert code == 2


@pytest.mark.parametrize("argv,bad", [
    (["frame", "--scene", "a2", "--t", "abc"], "'abc' is not a number"),
    (["frame", "--scene", "a2", "--t", "nan"], "'nan' is not finite"),
    (["metric", "--scene", "nonflat", "--t", "0.1,inf"], "'inf' is not finite"),
    (["classify", "--scene", "a2", "--t=-inf", "--u", "1"], "'-inf' is not finite"),
    (["envelope", "--scene", "a2", "--grid=0:1:x", "--u", "0:1:3"], "'x' is not an integer"),
    (["envelope", "--scene", "a2", "--grid=0:nan:3", "--u", "0:1:3"], "'nan' is not finite"),
    (["envelope", "--scene", "a2", "--grid=0:1:3", "--u", "0:1:2.5"], "'2.5' is not an integer"),
    (["curve", "--scene", "a2", "--interval", "0:1:x"], "'x' is not an integer"),
    (["transon", "--scene", "a2", "--lambdas", "0.1,abc"], "'abc' is not a number"),
    (["parallel-test", "--scene", "hyperquadric", "--grid=0:1:3", "--grid=0:1e400:3"],
     "'1e400' is not finite"),
    (["classify", "--scene", "a2", "--t", "0", "--u", "nan"], "'nan' is not finite"),
    (["classify", "--scene", "a2", "--t", "0", "--u=-inf"], "'-inf' is not finite"),
    (["classify", "--scene", "a2", "--t", "0", "--u", "abc"], "'abc' is not a number"),
    (["classify", "--scene", "a2", "--u", "1", "--order", "6.5"], "'6.5' is not an integer"),
    (["parallel-test", "--scene", "a2", "--grid=-0.1:0.1:-1"], "at least two samples"),
])
def test_bad_numbers_are_input_errors(argv, bad, capsys):
    assert run_command(argv) == 2
    diag = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert diag["error"] == "input"
    assert bad in diag["message"]


@pytest.mark.parametrize("argv,bad", [
    (["no-such-command"], "invalid choice"),
    (["frame"], "required: --scene"),
    (["frame", "--scene", "a2", "--bogus", "1"], "unrecognized arguments"),
    (["frame", "--scene", "."], "Is a directory"),
    (["envelope", "--scene", "a2", "--grid=0:0.1:3", "--u", "0:1:3",
      "--out", "missing-dir/mesh.obj"], "No such file"),
])
def test_usage_and_path_errors_are_json_input_errors(argv, bad, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_command(argv) == 2
    diag = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert diag["error"] == "input"
    assert bad in diag["message"]


def test_classify_order_beyond_the_cost_limit_builds_nothing(monkeypatch, capsys):
    from darboux import jets

    built = []
    original = jets.JetSpace.__init__

    def record(self, nvars, order):
        built.append((nvars, order))
        original(self, nvars, order)

    monkeypatch.setattr(jets.JetSpace, "__init__", record)
    # e8 has n = 6: order 8 asks for C(22, 12) = 646,646 product pairs.
    assert run_command(["classify", "--scene", "e8", "--u", "1", "--order", "8"]) == 2
    diag = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert diag["error"] == "input"
    assert "--order: 8" in diag["message"]
    assert built == []


def test_scene_dimension_beyond_the_cost_limit_builds_nothing(monkeypatch, capsys, tmp_path):
    from darboux import jets

    def refuse(self, nvars, order):
        raise AssertionError(f"built a jet space ({nvars}, {order})")

    monkeypatch.setattr(jets.JetSpace, "__init__", refuse)
    names = [f"t{i}" for i in range(1, 17)]
    scene_file = tmp_path / "squares.scene"
    scene_file.write_text(
        "[hypersurface]\nn = 16\nf = " + " + ".join(f"{v}^2/2" for v in names)
        + " + y^2/2\n[submanifold]\ng = 0\n"
    )
    # a Transon report puts the hypersurface (17 variables) in Monge
    # position at order 5: C(39, 5) = 575,757 product pairs
    assert run_command(["transon", "--scene", str(scene_file)]) == 2
    diag = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert diag["error"] == "input"
    assert "transon at n = 16" in diag["message"]


def test_overflowing_point_is_a_diagnostic(capsys):
    # Finite but far outside any scene's range: the jets overflow and the
    # frame's rank test fails to converge, which is a degeneracy, not a crash.
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_command(["frame", "--scene", "a2", "--t", "1e200"])
    assert code == 3
    diag = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert diag["error"] == "degeneracy"


# Scenes whose Taylor coefficients leave float range at the point: exp(712),
# and the square root's k-th coefficient, a multiple of v^(1/2 - k), at
# v = 1e-200.
OVERFLOWING_SCENES = {
    "exp": ("exp(400*t) * y^2/2 + t^2/2", "1.78"),
    "fractional_power": ("sqrt(1e-200 + t^2) * y^2/2 + t^2/2", "0"),
}


@pytest.mark.parametrize("command", ["frame", "metric", "transon"])
@pytest.mark.parametrize("function", sorted(OVERFLOWING_SCENES))
def test_overflowing_taylor_coefficients_are_a_domain_error(tmp_path, capsys, function, command):
    f, t = OVERFLOWING_SCENES[function]
    scene = tmp_path / "s.scene"
    scene.write_text(f"[hypersurface]\nn = 1\nf = {f}\n[submanifold]\ng = 0\n")
    code = run_command([command, "--scene", str(scene), "--t", t])
    assert code == 3
    diag = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert diag["type"] == "DomainError"
    assert "out of float range" in diag["message"]


@pytest.mark.parametrize("command", ["frame", "envelope"])
def test_underflowing_taylor_coefficients_are_a_domain_error(tmp_path, capsys, command):
    # log's k-th coefficient divides by v^k, which underflows to 0 at v = 1e-160.
    scene = tmp_path / "s.scene"
    scene.write_text("[hypersurface]\nn = 1\nf = (t^2 + y^2)/2\n"
                     "[submanifold]\ng = log(1e-8^4^5)\n")
    args = (["--t", "0"] if command == "frame" else
            ["--grid", "0:1:2", "--u", "0:1:2", "--out", str(tmp_path / "m.obj")])
    code = run_command([command, "--scene", str(scene), *args])
    report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    if command == "envelope":  # the mesh is written: its midpoint is a diagnostic too
        assert code == 0
        assert report["results"]["regression_values_mid"] is None
        assert len(report["diagnostics"]) == 3
        assert all("out of float range" in d for d in report["diagnostics"])
        return
    assert code == 3
    assert report["type"] == "DomainError"
    assert "out of float range" in report["message"]


@pytest.mark.parametrize("command", ["frame", "metric"])
def test_infinite_jet_coefficients_still_give_a_non_finite_diagnostic(tmp_path, capsys, command):
    # exp(707) is finite, but the products of its jet overflow to inf.  A
    # product skips pairs with an exact-zero factor, where 0 * inf would
    # have been a NaN; the inf still reaches the frame, whose degeneracy test
    # counts a non-finite determinant as vanishing.
    scene = tmp_path / "s.scene"
    scene.write_text("[hypersurface]\nn = 1\nf = exp(700*t)*t^3 + y^2/2 + t^2/2\n"
                     "[submanifold]\ng = 0\n")
    with np.errstate(all="ignore"):
        code = run_command([command, "--scene", str(scene), "--t", "1.01"])
    assert code == 3
    diag = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert diag["error"] == "degeneracy"
    assert diag["type"] == "DegenerateError"


E8_F = "(t1^2 + t2^2 + t3^2 + t4^2 + t5^2 + t6^2)/2 + (t1^2 + t2^2)*y/2 + t1^3 + t2^5"


@pytest.mark.parametrize("f,g,t,frame_out,classify_out", [
    # f's value is inf, which no frame reads; the germ's is, and has no regression value.
    ("t^2/2 + y^2/2 + 1e308*10", "0", "0", (0, None), (3, "NotOnDiscriminantError")),
    ("t^2/2 + y^2/2 + 1e308*10*y", "0", "0", (3, "DegenerateError"), (3, "DegenerateError")),
    ("exp(700*t)*y + y^2/2 + t^2/2", "0", "1.01", (3, "DegenerateError"), (3, "DegenerateError")),
    ("(t1^2 + t2^2 + y^2)/2 + 3", "exp(700*t1)*t2", "1.01,0.1", (3, "DegenerateError"),
     (3, "DegenerateError")),
    (E8_F + " + 1e308*10*y^3", "0", "0,0,0,0,0,0", (3, "DegenerateError"), (3, "DegenerateError")),
    (E8_F + " + (1e308*10 - 1e308*10)*t3^3", "0", "0,0,0,0,0,0", (3, "DegenerateError"),
     (3, "DegenerateError")),
])
def test_a_non_finite_f_keeps_its_exit_code_and_error_type(tmp_path, capsys, f, g, t, frame_out,
                                                           classify_out):
    """A zero factor skips its pairs, so 0 * inf makes no NaN in the frame's
    zero slots; the frame and the germ still fail as they did when it did."""
    scene = tmp_path / "s.scene"
    scene.write_text(f"[hypersurface]\nn = {t.count(',') + 1}\nf = {f}\n[submanifold]\ng = {g}\n")
    for command, (want_code, want_type) in (("frame", frame_out), ("classify", classify_out)):
        extra = ["--u", "1", "--order", "4"] if command == "classify" else []
        with np.errstate(all="ignore"):
            code = run_command([command, "--scene", str(scene), f"--t={t}"] + extra)
        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert (code, report.get("type")) == (want_code, want_type), command


def test_non_finite_frames_stop_before_lapack(tmp_path):
    # g's jet overflows to inf off t2 = 0.  Non-finite frames once reached
    # lstsq, whose OpenBLAS printed DLASCL errors on stdout ahead of the
    # diagnostic; capsys sees no C-level output, so this runs the CLI itself.
    scene = tmp_path / "s.scene"
    scene.write_text("[hypersurface]\nn = 2\nf = (t1^2 + t2^2 + y^2)/2 + 3\n"
                     "[submanifold]\ng = (t2*1e8^2)^4^4\n")
    code, out, err = run_cli(["parallel-test", "--scene", str(scene),
                              "--grid", "0:0.2:3", "--grid", "0:0.2:3"])
    assert code == 3
    diag = json.loads(out, parse_constant=reject_constant)
    assert diag["type"] == "DegenerateError"
    assert err == ""  # no numpy warning on the way to the diagnostic


def test_non_finite_frame_is_a_diagnostic_without_warnings(tmp_path, capsys):
    scene = tmp_path / "s.scene"
    scene.write_text("[hypersurface]\nn = 2\nf = (t1^2 + t2^2 + y^2)/2 + 3\n"
                     "[submanifold]\ng = (t2*1e8^2)^4^4\n")
    code = run_command(["frame", "--scene", str(scene), "--t", "0.1,0.1"])
    assert code == 3
    captured = capsys.readouterr()
    diag = json.loads(captured.out, parse_constant=reject_constant)
    assert diag["type"] == "DegenerateError"
    assert captured.err == ""


# Every subcommand on a bundled scene; parallel-test reaches its tangency check.
ALL_COMMANDS = [
    ["examples", "--list"],
    ["examples", "--show", "a2"],
    ["examples", "--write", "scenes"],
    ["frame", "--scene", "a2", "--t", "0"],
    ["envelope", "--scene", "a2", "--grid=-0.2:0.2:4", "--u", "0.6:1.4:3", "--out", "mesh.ply"],
    ["classify", "--scene", "a2", "--t", "0", "--u", "1"],
    ["curve", "--scene", "a2", "--interval=-0.1:0.1:3", "--out", "table.csv"],
    ["metric", "--scene", "nonflat", "--t", "0.1,0.05"],
    ["transon", "--scene", "cubic-curve", "--t", "0"],
    ["parallel-test", "--scene", "hyperquadric", "--grid=-0.15:0.15:3", "--grid=-0.15:0.15:3"],
]


@pytest.mark.parametrize("argv", [argv for argv in ALL_COMMANDS if "--scene" in argv],
                         ids=lambda argv: argv[0])
def test_a_command_reads_its_bundled_scene_once(argv, tmp_path, monkeypatch, capsys):
    """A bundled scene's resource is read once per command: the scene is
    parsed from the text whose digest the report carries."""
    from types import SimpleNamespace

    from darboux import scenes

    reads = []
    files = scenes.resources.files
    monkeypatch.setattr(scenes, "resources", SimpleNamespace(
        files=lambda package: reads.append(package) or files(package)))
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_command(argv) == 0
    capsys.readouterr()
    assert len(reads) == 1


def test_no_command_imports_numpy_random(tmp_path):
    """numpy 2 loads numpy.random on first use, which costs a fresh process
    about 15 ms of imports; no command needs it."""
    script = (
        "import contextlib, io, json, sys\n"
        "import numpy\n"
        "preloaded = 'numpy.random' in sys.modules\n"
        "from darboux.cli import run_command\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [run_command(argv) for argv in {ALL_COMMANDS!r}]\n"
        "print(json.dumps([preloaded, codes, 'numpy.random' in sys.modules]))\n"
    )
    src = str(Path(darboux.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            cwd=tmp_path, env=env)
    preloaded, codes, loaded = json.loads(result.stdout)
    assert codes == [0] * len(ALL_COMMANDS)
    if preloaded:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert not loaded


@pytest.mark.parametrize("bad", [float("nan"), float("-inf"), np.array([[0.0, np.nan]])])
def test_non_finite_report_is_a_diagnostic(monkeypatch, capsys, bad):
    from darboux import cli

    def handler(args):
        return "digest", {}, {"values": {"dtau": bad}, "count": 1}, []

    monkeypatch.setitem(cli._HANDLERS, "frame", handler)
    code = run_command(["frame", "--scene", "a2"])
    assert code == 3
    diag = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert diag["error"] == "degeneracy"
    assert diag["type"] == "NonFiniteResultError"
    assert "results.values.dtau" in diag["message"]


def test_report_determinism():
    outputs = set()
    for _ in range(2):
        code, out, _ = run_cli(["metric", "--scene", "nonflat", "--t", "0.1,0.05"])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    report = json.loads(next(iter(outputs)))
    assert list(report.keys()) == sorted(report.keys())


def test_envelope_and_parallel_commands(tmp_path):
    code, out, _ = run_cli(
        [
            "envelope", "--scene", "a2", "--grid=-0.2:0.2:8",
            "--u", "0.6:1.4:5", "--out", str(tmp_path / "mesh.obj"),
        ]
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["vertices"] == 40
    assert (tmp_path / "mesh.obj").exists()
    code, out, _ = run_cli(
        ["parallel-test", "--scene", "hyperquadric",
         "--grid=-0.15:0.15:4", "--grid=-0.15:0.15:4"]
    )
    assert code == 0
    assert json.loads(out)["results"]["verdict"] == "exists"


@pytest.mark.parametrize("name,fmt,written", [
    ("a2", None, "envelope.obj"), ("a2", "ply", "envelope.ply"),
    ("hyperquadric", None, "envelope.ply"),
])
def test_envelope_without_out_writes_envelope_dot_its_format(name, fmt, written, tmp_path,
                                                             monkeypatch, capsys):
    """Without --out the mesh goes to envelope.<format>, so a PLY body never
    lands in envelope.obj."""
    monkeypatch.chdir(tmp_path)
    argv = ["envelope", "--scene", name, *["--grid=-0.1:0.1:3"] * load_bundled(name).n,
            "--u", "0.6:1.4:3"] + ([f"--format={fmt}"] if fmt else [])
    assert run_command(argv) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["output"], results["format"]) == (written, written.split(".")[1])
    assert [path.name for path in tmp_path.iterdir()] == [written]
    assert (tmp_path / written).read_bytes().startswith(b"ply\n") == (results["format"] == "ply")


def test_envelope_with_a_degenerate_midpoint_reports_it_as_a_diagnostic(tmp_path, capsys):
    """The mesh is written before the midpoint's regression values are read,
    so a degenerate midpoint is a diagnostic with exit 0, like its vertices."""
    scene = tmp_path / "s.scene"
    scene.write_text("[hypersurface]\nn = 2\nf = (t1^2 + t2^2 + y^2)/2 + 3\n"
                     "[submanifold]\ng = (t2*1e8^2)^4^4\n")
    out = tmp_path / "m.ply"
    code = run_command(["envelope", "--scene", str(scene), "--grid", "0:0.2:3", "--grid",
                        "0:0.2:3", "--u", "0.5:1.5:2", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""  # the products overflow to inf without a warning
    report = json.loads(captured.out, parse_constant=reject_constant)
    assert report["results"]["regression_values_mid"] is None
    assert report["results"]["vertices"] == 18 and out.exists()
    *vertices, mid = report["diagnostics"]
    assert len(vertices) == 6
    assert mid.startswith("regression values at t=[0.1, 0.1]: non-degeneracy determinant")


@pytest.mark.parametrize("argv", [
    ["envelope", "--scene", "a2", "--grid=1e308:-1e308:3", "--u", "0.5:1.5:2"],
    ["envelope", "--scene", "a2", "--grid=-0.1:0.1:3", "--u=-1e308:1e308:2"],
    ["parallel-test", "--scene", "hyperquadric", "--grid=1e308:-1e308:3",
     "--grid=-0.1:0.1:3"],
    ["curve", "--scene", "a2", "--interval=1e308:-1e308:3"],
])
def test_grid_axis_with_a_non_finite_span_is_an_input_error(argv):
    """Finite ends whose difference overflows: exit 2 with a JSON input
    error and nothing on stderr."""
    code, out, err = run_cli(argv)
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "input"
    assert "not finite" in report["message"]
    assert err == ""


def test_curve_and_transon_commands(tmp_path):
    code, out, _ = run_cli(
        ["curve", "--scene", "a2", "--t", "0", "--interval=-0.1:0.1:5",
         "--out", str(tmp_path / "inv.csv")]
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["singularity"] == "CuspidalEdge"
    assert (tmp_path / "inv.csv").read_text().startswith("t,sigma,mu,tau")
    code, out, _ = run_cli(["transon", "--scene", "cubic-curve", "--t", "0"])
    assert code == 0
    assert json.loads(out)["results"]["verdict"] == "coincide"


def test_run_command_in_process(capsys):
    assert run_command(["examples", "--list"]) == 0
    capsys.readouterr()
    assert run_command(["classify", "--scene", "a3", "--t", "0", "--u", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["results"]["class"] == "A3"


@pytest.mark.parametrize("argv", [
    ["frame", "--scene", "nonflat", "--t", "0.1,0.05"],
    ["metric", "--scene", "nonflat", "--t", "0.12,0.08"],
    ["metric", "--scene", "hyperquadric", "--t", "0.1,0.05"],
])
def test_pointwise_commands_build_one_frame(capsys, frame_builds, argv):
    """Every quantity a frame or metric report reads at its point comes off
    one frame, gauged or not."""
    assert run_command(argv) == 0
    capsys.readouterr()
    assert len(frame_builds) == 1


@pytest.mark.parametrize("name, scale, want", [
    ("nonflat", 1.0, False), ("nonflat", 1e-4, False), ("nonflat", 1e-7, False),
    ("hyperquadric", 1.0, True), ("hyperquadric", 1e-4, True),
])
def test_parallel_pointwise_does_not_depend_on_the_coordinate_scale(tmp_path, capsys, name,
                                                                    scale, want):
    """t -> a t with the point at (0.1, 0.12) / a is the same geometry, so
    the verdict stays: nonflat's tau11 shrinks with a (max |tau| 2.1e-8 at
    a = 1e-7) but xi is not parallel there, while hyperquadric's is."""
    from darboux.expr import parse_expression, substitute, to_infix

    base = load_bundled(name)
    sub = {v: parse_expression(f"({scale!r})*{v}", base.t_names) for v in base.t_names}
    scene = tmp_path / "s.scene"
    scene.write_text(f"[hypersurface]\nn = 2\nf = {to_infix(substitute(base.f, sub))}\n"
                     f"[submanifold]\ng = {to_infix(substitute(base.g, sub))}\n"
                     f"gauge = {base.gauge}\n")
    point = f"{0.1 / scale!r},{0.12 / scale!r}"
    assert run_command(["metric", "--scene", str(scene), "--t", point]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["verdicts"]["parallel_pointwise"] is want


def test_scene_round_trip():
    for name in CATALOG:
        text = bundled_text(name)
        scene = parse_scene_text(text, name=name)
        serialized = serialize_scene(scene)
        reparsed = parse_scene_text(serialized, name=name)
        assert reparsed == scene
        # modulo whitespace and comments, the key/value content agrees
        def content(t):
            out = []
            for line in t.splitlines():
                line = line.split("#", 1)[0].strip().replace(" ", "")
                if line:
                    out.append(line)
            return out
        assert content(serialized) == content(text)


def test_scene_format_errors():
    with pytest.raises(SceneFormatError):
        parse_scene_text("[hypersurface]\nn = 1\nf = t\n")
    with pytest.raises(SceneFormatError):
        parse_scene_text("[weird]\nn = 1\n")
    with pytest.raises(SceneFormatError):
        parse_scene_text("[hypersurface]\nn = x\nf = t\n[submanifold]\ng = 0\n")
    with pytest.raises(SceneFormatError):
        parse_scene_text(
            "[hypersurface]\nn = 1\nf = t\nq = 2\n[submanifold]\ng = 0\n"
        )


# -- fuzzing run_command --------------------------------------------------

_VALID = st.sampled_from(["0", "0.05", "-0.05", "0.1", "1", "0,0", "0.05,-0.05", "0.1,0"])
_NUMBERS = st.one_of(
    _VALID, _VALID,
    st.sampled_from(["nan", "inf", "-inf", "1e400", "1e200", "abc", "", ",", "0,0,0", "--t"]),
    st.text(max_size=6),
)
# Every axis count is at most 10, so no large grid is ever run.
_COUNTS = st.integers(-2, 10).map(str)
_VALID_AXES = st.builds(lambda lo, hi, count: f"{lo}:{hi}:{count}",
                        st.sampled_from(["-0.1", "0"]), st.sampled_from(["0.1", "0.05"]),
                        _COUNTS)
_AXES = st.one_of(
    _VALID_AXES, _VALID_AXES,
    st.builds(lambda lo, hi, count: f"{lo}:{hi}:{count}", _NUMBERS, _NUMBERS,
              _COUNTS | st.sampled_from(["x", "2.5", "", "1e1", "nan"])),
    st.sampled_from(["0:1", "::", "0:1:3:4", ""]),
)
_VALUES = {
    "--t": _NUMBERS,
    "--u": _NUMBERS | _AXES,
    "--grid": _AXES,
    "--interval": _AXES,
    "--order": st.integers(-3, 8).map(str) | _NUMBERS,
    "--lambdas": st.lists(_NUMBERS, max_size=6).map(",".join),
    "--format": st.sampled_from(["obj", "ply", "stl"]),
    "--out": st.sampled_from(["mesh.obj", "table.csv", "missing-dir/out.ply"]),
    "--bogus": _NUMBERS,
}
_FLAGS = {
    "frame": ["--t"],
    "envelope": ["--grid", "--u"],
    "classify": ["--t", "--u", "--order"],
    "curve": ["--t", "--interval"],
    "metric": ["--t"],
    "transon": ["--t", "--lambdas"],
    "parallel-test": ["--grid", "--grid"],
    "examples": [],
    "bogus": ["--t"],
}
_EXPRESSIONS = st.sampled_from(
    ["(t^2 + y^2)/2", "t^2/2 + t^3/6 + t^2*y/2", "t*y", "y", "0", "1/0", "sqrt(-1 - t^2)",
     "log(t)", "exp(50*t)", "t^", "(t1^2 + t2^2 + y^2)/2", "t1*t2", "t1 +* t2", "z", "t"]
) | st.text(max_size=12)
_SCENE_TEXT = st.builds(
    lambda n, f, g, extra: (f"[hypersurface]\nn = {n}\nf = {f}\n"
                            f"[submanifold]\ng = {g}\n{extra}"),
    st.sampled_from(["1", "2", "0", "-1", "x", "1.5", ""]),
    _EXPRESSIONS, _EXPRESSIONS,
    st.sampled_from(["", "gauge = blaschke\n", "gauge = other\n", "xi_scale = 2 + t\n",
                     "xi_scale = 0\n", "[weird]\n", "q = 1\n"]),
) | st.text(max_size=40)


@st.composite
def _argv(draw):
    """A command, its scene and its options, each option value drawn from a
    mix of valid and malformed text; an option may be dropped, one added,
    and each is written as `--flag value` or `--flag=value`."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    scene = draw(st.sampled_from(["a2", "a3", "a4", "d4", "cubic-curve", "nonflat",
                                  "hyperquadric", "missing-scene", "FILE", "."]))
    flags = list(_FLAGS[command])
    if flags and draw(st.booleans()):
        del flags[draw(st.integers(0, len(flags) - 1))]
    flags += draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=2))
    argv = [command] if command == "examples" else [command, "--scene", scene]
    for flag in flags:
        value = draw(_VALUES[flag])
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(argv=_argv(), scene_text=_SCENE_TEXT)
def test_run_command_fuzz(tmp_path, monkeypatch, capsys, argv, scene_text):
    """Malformed argv and scene text end in exit code 0, 2 or 3 with one
    strict JSON document on stdout, never a traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "FILE").write_text(scene_text)
    capsys.readouterr()
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        code = run_command(argv)
    out = capsys.readouterr().out
    assert code in (0, 2, 3), argv
    json.loads(out, parse_constant=reject_constant)


# -- fuzzing the pointwise reports over the expression grammar ---------------

_DARBOUX_WARNINGS = (IndefiniteWarning, ToleranceWarning, InconclusiveToleranceWarning)
_CONSTANTS = st.floats(-8.0, 8.0).map(lambda e: repr(float(f"{10.0 ** e:.3g}")))


def _grammar(names):
    """Expressions in ``names``: + - * /, unary minus, powers 2 to 5,
    sin cos exp log sqrt, and constants from 1e-8 to 1e8."""
    def extend(inner):
        return (st.builds(lambda a, op, b: f"({a} {op} {b})", inner, st.sampled_from("+-*/"), inner)
                | st.builds(lambda a, k: f"({a})^{k}", inner, st.integers(2, 5))
                | st.builds(lambda fn, a: f"{fn}({a})", st.sampled_from(FUNCTIONS), inner)
                | inner.map(lambda a: f"(-{a})"))
    return st.recursive(st.sampled_from(names) | _CONSTANTS, extend, max_leaves=6)


@st.composite
def _grammar_scene(draw):
    """A scene of n = 1 or 2 in either gauge, f often a nondegenerate
    quadratic plus a grammar term so that reports get past the frame, a
    point near the origin, and the options of the grid commands: at most 3
    samples per grid axis and 5 curve rows, a ruling parameter (a range for
    envelope; for classify a value, or "regression" for the first regression
    value at the point), a mesh format and a germ order."""
    n = draw(st.sampled_from([1, 2]))
    t_names = ["t"] if n == 1 else ["t1", "t2"]
    quadratic = " + ".join(f"{v}^2" for v in t_names + ["y"])
    f = draw(_grammar(t_names + ["y"]))
    if draw(st.booleans()):
        f = f"({quadratic})/2 + {f}"
    g = draw(_grammar(t_names) | st.just("0"))
    gauge = draw(st.sampled_from(["graph", "blaschke"]))
    t = draw(st.lists(st.sampled_from(["0", "0.1", "-0.07", "0.5"]), min_size=n, max_size=n))

    def axis(most):
        lo = draw(st.sampled_from(["-0.1", "0", "0.05"]))
        return f"{lo}:{draw(st.sampled_from(['0.1', '0.2', '1']))}:{draw(st.integers(1, most))}"

    options = {"grid": [f"--grid={axis(3)}" for _ in t_names], "interval": axis(5),
               "u_range": f"0.5:{draw(st.sampled_from(['0.5', '1.5', '-2']))}:{draw(st.integers(1, 3))}",
               "u": draw(st.sampled_from(["0", "1", "-0.5", "2.5", "regression"])),
               "format": draw(st.sampled_from(["obj", "ply"])), "order": draw(st.integers(3, 4))}
    return (f"[hypersurface]\nn = {n}\nf = {f}\n[submanifold]\ng = {g}\ngauge = {gauge}\n",
            ",".join(t), options)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=_grammar_scene())
def test_pointwise_reports_keep_the_cli_contract_on_grammar_scenes(tmp_path, capsys, case):
    """Every command but examples, on scenes from the expression grammar,
    exits 0, 2 or 3 with one strict JSON document on stdout, no traceback
    and no warning but darboux's own."""
    text, t, options = case
    scene = tmp_path / "s.scene"
    scene.write_text(text)
    fmt, u = options["format"], options["u"]
    if u == "regression":  # where the envelope has a germ to classify
        try:
            with np.errstate(all="ignore"):
                values = regression_values(parse_scene_text(text), [float(v) for v in t.split(",")])
        except (darboux.GeometryError, np.linalg.LinAlgError):
            values = []
        u = repr(values[0]) if values else "1"
    commands = [["metric", f"--t={t}"], ["transon", f"--t={t}"], ["frame", f"--t={t}"],
                ["envelope", *options["grid"], f"--u={options['u_range']}", f"--format={fmt}",
                 f"--out={tmp_path / ('mesh.' + fmt)}"],
                ["parallel-test", *options["grid"]],
                ["classify", f"--t={t}", f"--u={u}", f"--order={options['order']}"]]
    if "," not in t:
        commands.append(["curve", f"--t={t}", f"--interval={options['interval']}"])
    for command, *flags in commands:
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_command([command, "--scene", str(scene), *flags])
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (command, flags, text)
        json.loads(out, parse_constant=reject_constant)
        assert "Traceback" not in err
        assert all(issubclass(w.category, _DARBOUX_WARNINGS) for w in caught), (
            [str(w.message) for w in caught], command, flags, text)


@pytest.mark.parametrize("order", ["1", "0", "-1"])
def test_classify_below_order_two_exits_3(capsys, order):
    code = run_command(["classify", "--scene", "a2", "--t", "0", "--u", "1", "--order", order])
    diag = json.loads(capsys.readouterr().out)
    assert code == 3
    assert diag["type"] == "UnresolvedOrderError"
    assert "need at least 2" in diag["message"]
