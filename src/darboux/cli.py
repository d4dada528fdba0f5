"""Command-line interface: scene ingestion, JSON reports, mesh export.

Exit codes: 0 success, 2 usage, input-format or file-access error, 3
mathematical degeneracy; each error comes with a structured diagnostic on
stdout.  Reports are deterministic: keys sorted, floats canonicalized
through a 17-significant-digit round trip, timing excluded unless
requested.  They are strict JSON: a NaN or infinite value is a degeneracy
(NonFiniteResultError), not output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import curve as curve_mod
from . import envelope as envelope_mod
from . import metricbundle as metric_mod
from . import singular as singular_mod
from . import transon as transon_mod
from .errors import GeometryError, InputError, NonFiniteResultError, ParseError
from .frame import READER_ORDER, darboux_frame, frame_fields, nondegeneracy, structure_coefficients
from .scenes import CATALOG, bundled_text, parse_scene_text


def _canonical(obj, path="report"):
    if isinstance(obj, dict):
        return {str(k): _canonical(v, f"{path}.{k}") for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist(), path)
    if isinstance(obj, (np.floating, float)):
        if not math.isfinite(obj):
            raise NonFiniteResultError(f"{path} is {float(obj)}")
        return float(f"{float(obj):.17g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def render_report(report):
    """Strict JSON: a non-finite value raises NonFiniteResultError."""
    return json.dumps(_canonical(report), sort_keys=True, indent=2, allow_nan=False)


def _load_scene(args):
    """The scene of ``args.scene`` and the digest of its text; InputError
    when the largest jet space the command builds for it is too costly."""
    scene_ref = args.scene
    path = Path(scene_ref)
    name = scene_ref[:-6] if scene_ref.endswith(".scene") else scene_ref
    if path.exists():
        text = path.read_text()
        scene = parse_scene_text(text, name=path.stem)
    elif name in CATALOG:
        text = bundled_text(name)
        scene = parse_scene_text(text, name=name)
    else:
        raise InputError(f"scene file '{scene_ref}' not found and not a bundled name")
    if args.command in _LARGEST_SPACE:
        extra, order = _LARGEST_SPACE[args.command]
        _check_space(f"{args.command} at n = {scene.n}", scene.n + extra, order)
    return scene, hashlib.sha256(text.encode()).hexdigest()


def _parse_number(text, option, kind=float):
    """One finite number of an option value; InputError otherwise."""
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise InputError(f"{option}: '{text}' is not {noun}") from None
    if not math.isfinite(value):
        raise InputError(f"{option}: '{text}' is not finite")
    return value


def _parse_point(text, n):
    values = [_parse_number(v, "--t") for v in text.split(",")] if text else [0.0] * n
    if len(values) != n:
        raise InputError(f"--t expects {n} comma-separated values")
    return values


def _parse_axis(text, option):
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"{option} expects lo:hi:count")
    lo, hi = _parse_number(parts[0], option), _parse_number(parts[1], option)
    if not math.isfinite(hi - lo):
        raise InputError(f"{option}: '{text}' spans a range that is not finite")
    return lo, hi, _parse_number(parts[2], option, int)


def _report(command, digest, parameters, results, diagnostics, timing):
    return {
        "command": command,
        "scene": digest,
        "parameters": parameters,
        "results": results,
        "diagnostics": diagnostics,
        "timing": timing,
        "version": __version__,
    }


def _cmd_frame(args):
    scene, digest = _load_scene(args)
    t = _parse_point(args.t, scene.n)
    det = nondegeneracy(scene, t)
    fp = darboux_frame(scene, t)
    coeffs = structure_coefficients(scene, t, fp)
    results = {"nondegeneracy_det": det, "gauge": fp.gauge}
    results.update((key, getattr(fp, key).tolist()) for key in ("X", "xi", "eta"))
    results.update((key, getattr(coeffs, key).tolist()) for key in (
        "S1", "S2", "h1", "h2", "Gamma", "tau11", "tau12", "tau21", "tau22"))
    return digest, {"t": t}, results, []


def _cmd_envelope(args):
    scene, digest = _load_scene(args)
    if len(args.grid or []) != scene.n:
        raise InputError(f"envelope needs {scene.n} --grid axes")
    axes = [_parse_axis(g, "--grid") for g in args.grid]
    u_range = _parse_axis(args.u, "--u")
    mesh = envelope_mod.envelope_mesh(scene, axes, u_range)
    fmt = args.format or ("obj" if scene.n == 1 else "ply")  # the parser admits only these
    out = args.out or f"envelope.{fmt}"
    (envelope_mod.write_obj if fmt == "obj" else envelope_mod.write_ply)(mesh, out)
    t_mid = [0.5 * (a[0] + a[1]) for a in axes]
    try:  # the mesh is written, so a degenerate midpoint is a diagnostic like a vertex
        mid = envelope_mod.regression_values(scene, t_mid)
    except GeometryError as err:
        mid = None
        mesh.diagnostics.append(f"regression values at t={t_mid}: {err}")
    results = {
        "vertices": int(len(mesh.vertices)),
        "faces": int(len(mesh.faces)),
        "singular_vertices": int(mesh.singular.sum()),
        "regression_values_mid": mid,
        "output": str(out),
        "format": fmt,
    }
    return digest, {"grid": args.grid, "u": args.u}, results, mesh.diagnostics


# Largest multiplication table, in slot pairs, that a command may ask of a
# jet space (m variables, order k); for classify --order that is the germ's
# frame space (n variables, order + 2).  The cost grows with the pairs,
# C(2m + k, 2m), not with the space size C(m + k, m): at m = 1 the pairs
# grow with the square of the size.  Three int64 tables of this many pairs
# take 7.2 MB, and every full-order product gathers over them.  The bundled
# germs at the default order need at most 125,970 (e8: n = 6, order 6); the
# bound leaves n = 6 open through order 7 (about 2 s) and n = 1 through
# order 771 (about 25 s on a2).
MAX_PRODUCT_PAIRS = 300_000

# The largest jet space each command builds, as (variables beyond the
# scene's n, order): order-2 frames carry phi to order 4, envelope points
# need order 3, the metric reads the hypersurface in n + 1 variables and a
# Transon report puts it in Monge position.  classify is bounded by --order.
_LARGEST_SPACE = {
    "frame": (0, 4),
    "envelope": (0, 3),
    "metric": (1, 4),
    "transon": (1, transon_mod.MONGE_ORDER),
    "parallel-test": (0, 4),
}


def _check_space(what, nvars, order):
    """InputError, before anything is built, when a jet space in ``nvars``
    variables of this order has more product pairs than the limit."""
    pairs = math.comb(2 * nvars + max(order, 0), 2 * nvars)
    if pairs > MAX_PRODUCT_PAIRS:
        raise InputError(
            f"{what} needs a jet space with {pairs} product pairs "
            f"({nvars} variables, order {order}); the limit is {MAX_PRODUCT_PAIRS}"
        )


def _cmd_classify(args):
    scene, digest = _load_scene(args)
    t = _parse_point(args.t, scene.n)
    u = _parse_number(args.u, "--u")
    order = _parse_number(args.order, "--order", int)
    _check_space(f"--order: {order}", scene.n, order + 2)
    report = singular_mod.classify_envelope_point(scene, t, u, order=order)
    return digest, {"t": t, "u": u, "order": order}, report, report.pop("diagnostics")


def _cmd_curve(args):
    scene, digest = _load_scene(args)
    c = curve_mod.as_curve(scene)
    t = _parse_point(args.t, 1)[0]
    try:
        verdict = curve_mod.curve_singularity(c, t)
    except GeometryError as err:
        verdict = f"error: {err}"
    results = {"singularity": verdict}
    if args.interval:
        lo, hi, count = _parse_axis(args.interval, "--interval")
        adapted, rows = curve_mod.invariants_table(c, (lo, hi), count)
        results["adapted_max_residual"] = float(adapted.residual.max())
        results["invariants"] = [
            {"t": r.t, "sigma": r.sigma, "mu": r.mu, "tau": r.tau} for r in rows
        ]
        if args.out:
            curve_mod.write_invariants_csv(rows, args.out)
            results["output"] = args.out
    return digest, {"t": t, "interval": args.interval}, results, []


# tau_i xi is the xi-component of D_{X_i} xi, so tau11 counts as zero where each |tau_i| |xi|
# is at most this fraction of |D_{X_i} xi|, a ratio that t -> a t and xi -> c xi keep.
PARALLEL_POINTWISE_RTOL = 1e-7


def _cmd_metric(args):
    scene, digest = _load_scene(args)
    t = _parse_point(args.t, scene.n)
    g, record = metric_mod.affine_metric(scene, t)
    xi, eta = metric_mod.affine_normal_plane(scene, t)
    apolar = metric_mod.apolarity_defect(scene, t)
    equi = metric_mod.equiaffine_defect(scene, t)
    tau = metric_mod.tau_form(scene, t)
    dtau = metric_mod.normal_curvature(scene, t)
    compat = metric_mod.blaschke_compatibility(scene, t)
    ff = frame_fields(scene, t, READER_ORDER)
    bound = PARALLEL_POINTWISE_RTOL * np.linalg.norm(ff.xi_partials(), axis=-1)
    parallel = np.abs(tau) * np.linalg.norm([c.value for c in ff.xi]) <= bound
    results = {
        "point": t,
        "g": g.tolist(),
        "signature": list(record["signature"]),
        "det_G": record["det_G"],
        "xi": xi.tolist(),
        "eta": eta.tolist(),
        "apolarity_defect": apolar.tolist(),
        "equiaffine_defect": equi.tolist(),
        "tau": tau.tolist(),
        "dtau": dtau.tolist(),
        "verdicts": {
            "parallel_pointwise": bool(parallel.all()),
            "blaschke_items": compat["items"],
        },
        "zeta": compat["zeta"],
        "cubic_xi_xi": compat["cubic_xi_xi"],
    }
    return digest, {"t": t}, results, []


def _cmd_transon(args):
    scene, digest = _load_scene(args)
    t = _parse_point(args.t, scene.n)
    lams = None
    if args.lambdas:
        lams = [_parse_number(v, "--lambdas") for v in args.lambdas.split(",")]
    report = transon_mod.transon_report(scene, t, lams)
    results = {key: getattr(report, key) for key in (
        "p0", "lambdas", "normals", "plane_basis", "residual", "principal_angles", "verdict")}
    return digest, {"t": t, "lambdas": report.lambdas}, results, report.diagnostics


def _cmd_parallel(args):
    scene, digest = _load_scene(args)
    if len(args.grid or []) != scene.n:
        raise InputError(f"parallel-test needs {scene.n} --grid axes")
    axes = [_parse_axis(g, "--grid") for g in args.grid]
    report = metric_mod.parallel_field_exists(scene, axes)
    results = {
        "verdict": report.verdict,
        "max_dtau": report.max_dtau,
        "dtau_base": report.dtau_base.tolist(),
        "loop_residual": report.loop_residual,
        "tangency_residual": report.tangency_residual,
        "lambda_samples": report.lam.tolist() if report.lam is not None else None,
    }
    return digest, {"grid": args.grid}, results, report.diagnostics


def _cmd_examples(args):
    if args.list:
        for name in CATALOG:
            print(name)
        return None
    if args.show:
        print(bundled_text(args.show), end="")
        return None
    if args.write:
        target = Path(args.write)
        target.mkdir(parents=True, exist_ok=True)
        for name in CATALOG:
            (target / f"{name}.scene").write_text(bundled_text(name))
        print(f"wrote {len(CATALOG)} scene files to {target}")
        return None
    raise InputError("examples: choose one of --list, --show NAME, --write DIR")


class _Parser(argparse.ArgumentParser):
    """Usage errors become InputError, so they reach stdout as a JSON input
    diagnostic with exit code 2, like every other malformed input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="darboux",
        description="Affine geometry of submanifolds in hypersurfaces: "
        "Darboux frames, envelopes, singular points, normal planes.",
    )
    parser.add_argument("--timing", action="store_true", help="include wall time in reports")
    sub = parser.add_subparsers(dest="command", required=True)

    def scene_arg(p):
        p.add_argument("--scene", required=True, help="scene file path or bundled name")

    p = sub.add_parser("frame", help="Darboux frame and structure coefficients")
    scene_arg(p)
    p.add_argument("--t", default="", help="comma-separated parameter point")

    p = sub.add_parser("envelope", help="sample the envelope and export a mesh")
    scene_arg(p)
    p.add_argument("--grid", action="append", help="lo:hi:count per parameter axis")
    p.add_argument("--u", required=True, help="lo:hi:count for the ruling parameter")
    p.add_argument("--out", help="output mesh path (default envelope.<format>)")
    p.add_argument("--format", choices=["obj", "ply"], help="mesh format")

    p = sub.add_parser("classify", help="classify the envelope point over (t, u)")
    scene_arg(p)
    p.add_argument("--t", default="", help="comma-separated parameter point")
    p.add_argument("--u", required=True, help="ruling parameter on the regression set")
    p.add_argument("--order", default="6", help="germ jet order")

    p = sub.add_parser("curve", help="curve invariants and singularity verdict")
    scene_arg(p)
    p.add_argument("--t", default="0")
    p.add_argument("--interval", help="lo:hi:count for the invariant table")
    p.add_argument("--out", help="CSV output path for the invariant table")

    p = sub.add_parser("metric", help="affine metric, normal plane, parallel data")
    scene_arg(p)
    p.add_argument("--t", default="")

    p = sub.add_parser("transon", help="section normals and the swept plane")
    scene_arg(p)
    p.add_argument("--t", default="")
    p.add_argument("--lambdas", help="comma-separated pencil parameters")

    p = sub.add_parser("parallel-test", help="parallel field existence over a region")
    scene_arg(p)
    p.add_argument("--grid", action="append", help="lo:hi:count per axis")

    p = sub.add_parser("examples", help="bundled scene catalog")
    p.add_argument("--list", action="store_true")
    p.add_argument("--show", metavar="NAME")
    p.add_argument("--write", metavar="DIR")
    return parser


_HANDLERS = {
    "frame": _cmd_frame,
    "envelope": _cmd_envelope,
    "classify": _cmd_classify,
    "curve": _cmd_curve,
    "metric": _cmd_metric,
    "transon": _cmd_transon,
    "parallel-test": _cmd_parallel,
}


def run_command(argv):
    try:
        args = build_parser().parse_args(argv)
        if args.command == "examples":
            _cmd_examples(args)
            return 0
        start = time.perf_counter()
        # Non-finite values end in a diagnostic, so numpy need not warn on the way.
        with np.errstate(all="ignore"):
            digest, parameters, results, diagnostics = _HANDLERS[args.command](args)
            timing = time.perf_counter() - start if args.timing else None
            report = _report(args.command, digest, parameters, results, diagnostics, timing)
        print(render_report(report))
        return 0
    except SystemExit as err:  # --help
        return int(err.code or 0)
    except (InputError, ParseError, OSError) as err:
        print(json.dumps({"error": "input", "message": str(err)}, sort_keys=True))
        return 2
    except (GeometryError, np.linalg.LinAlgError) as err:
        print(
            json.dumps(
                {"error": "degeneracy", "type": type(err).__name__, "message": str(err)},
                sort_keys=True,
            )
        )
        return 3


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
