"""Transon planes: section normals sweep a plane.

Slicing the hypersurface by the pencil of hyperplanes through a fixed
tangent subspace and collecting the Blaschke normals of the sections at
the base point yields vectors confined to a single 2-plane, spanned by
the Darboux direction xi and the normal N0 of one section: the normal of
section lambda is N0 + lambda c xi.  That plane agrees with the affine
normal plane exactly when the Darboux field is parallel: in the frame
{X, xi, eta} the X-part of N0 over its eta-part is -(2/(n+2)) g^-1 tau11.
So the verdict below is the test that tau11 vanishes, the one the
``metric`` report's parallel_pointwise reads, and the principal angles
are printed as values only.
"""

import numpy as np

from darboux import load_bundled, tau_form, transon_report

for name, t in (("cubic-curve", [0.0]), ("hyperquadric", [0.1, -0.05]),
                ("nonflat", [0.12, 0.08])):
    scene = load_bundled(name)
    print(f"{name} at t = {t}:")
    report = transon_report(scene, t)
    for lam, v in zip(report.lambdas, report.normals):
        print(f"  lambda = {lam:+.1f}: eta(H) = {np.round(v, 6)}")
    print("  planarity residual:", report.residual)
    tau = np.abs(tau_form(scene, t)).max()
    print(f"  vs affine normal plane: {report.verdict} "
          f"(principal angles {np.round(report.principal_angles, 8)}, |tau11| = {tau:.2e})")
    print()
