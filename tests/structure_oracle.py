"""The structure-solve route to the apolarity and equiaffine defects: the
oracle of their closed forms 2 tau11 and -A tau11 in
``darboux.metricbundle``.

The structure solve reads every structure jet of the coordinate frame
{X, xi, eta} with the bundle's eta (:meth:`FrameFields.structure_jets`).
The cubic forms are arrays read off its values, and each defect is the
trace that defines it.
"""

import numpy as np

from darboux.jets import partial_values, vec_values
from darboux.metricbundle import bundle_fields


def coord_frame(b):
    """The structure jets of the coordinate frame with the bundle ``b``'s eta."""
    return b.ff.structure_jets(eta_slot=b.eta)


def cubic(b, which):
    """The totally symmetric cubic form C1 or C2 on the coordinate frame
    as an (n, n, n) array: D_i h_jk - sum_l (Gamma_ij^l h_lk + Gamma_ik^l
    h_jl) + tau_a_i h1_jk + tau_b_i h2_jk for h = h1 or h2 (the correction
    terms vanish in this gauge), summed in that order on values, each
    product plus 0.0: bitwise the value part of that sum of jets."""
    coeffs = coord_frame(b)
    h_key, a_key, b_key = ("h2", "tau12", "tau22") if which == "C2" else ("h1", "tau11", "tau21")
    G, h1, h2, tau_a, tau_b = (vec_values(coeffs[k]) for k in ("Gamma", "h1", "h2", a_key, b_key))
    h, n = (h2 if which == "C2" else h1), b.scene.n
    C = partial_values([x for row in coeffs[h_key] for x in row]).reshape(n, n, n)
    for l in range(n):
        C = C - (G[:, :, l, None] * h[l] + 0.0) - (G[:, None, :, l] * h[:, l, None] + 0.0)
    return C + (tau_a[:, None, None] * h1 + 0.0) + (tau_b[:, None, None] * h2 + 0.0)


def cubic_forms(scene, t):
    """C1 and C2 on the coordinate frame, as n^3 arrays."""
    b = bundle_fields(scene, t)
    return cubic(b, "C1"), cubic(b, "C2")


def apolarity_trace(scene, t):
    """Traces of C2 against the inverse of h2 on the coordinate frame, each
    summed from 0.0 over (j, k) in row-major order."""
    b = bundle_fields(scene, t)
    n = scene.n
    terms = (np.linalg.inv(vec_values(coord_frame(b)["h2"])) * cubic(b, "C2")).reshape(n, n * n)
    return np.add.accumulate(np.hstack([np.zeros((n, 1)), terms]), axis=1)[:, -1]


def equiaffine_trace(scene, t):
    """Sums Gamma_ik^k of the connection coefficients on the g-orthonormal
    frame E = A X, that is A (tr Gamma + dlog|det A|) with Gamma read on
    the coordinate frame."""
    b = bundle_fields(scene, t)
    Gamma = vec_values(coord_frame(b)["Gamma"])
    dlog_det = partial_values([b.det_A])[:, 0] / float(b.det_A.value)
    return b.A @ (np.einsum("ikk->i", Gamma) + dlog_det)
