"""Shared draw helpers, constructors and scalar references for the test suite."""

import math

import numpy as np

from corrsets.oracles import random_settings


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def draw_settings(rng, m, rank=None):
    """Random settings, full rank unless told otherwise."""
    if rank is None:
        rank = min(3, m)
    return random_settings(rng, m, rank)


def random_unit(rng, dim=3):
    return unit(rng.standard_normal(dim))


def feasible_c(rng, s):
    """A correlation-shaped matrix inside the range of the settings map."""
    c = s.a @ rng.standard_normal((3, 3)) @ s.b.T
    n = np.linalg.norm(c)
    return c / n if n > 0 else c


def construct_target_Z(s, target, det_sign_req=0):
    """Coefficient matrix whose frame A.T Z B has the given singular values.

    ``target`` lists the desired nonzero singular values, descending, at
    most r = min rank of the settings; the remaining singular values come
    out zero. ``det_sign_req`` of +1 or -1 additionally fixes the sign of
    det(A.T Z B), which needs three nonzero target values.
    """
    target = np.asarray(target, dtype=float)
    if target.ndim != 1 or target.size > s.r:
        raise ValueError(f"target must list at most r = {s.r} values")
    if np.any(target < 0) or np.any(np.diff(target) > 0):
        raise ValueError("target values must be nonnegative and descending")
    d = np.zeros(3)
    d[: target.size] = target

    va, vb = s.row_basis_a, s.row_basis_b

    if det_sign_req not in (-1, 0, 1):
        raise ValueError("det_sign_req must be -1, 0 or +1")
    if det_sign_req != 0:
        if target.size < 3 or target[2] <= 0.0:
            raise ValueError("a determinant sign needs three nonzero target values")
        current = np.linalg.det(va) * np.linalg.det(vb) * np.prod(d)
        if current * det_sign_req < 0:
            d[2] = -d[2]

    frame = va @ np.diag(d) @ vb.T
    return s.pinv_a.T @ frame @ s.pinv_b


# The m = 2 closed forms in the Gram angles as they were written before their
# stacked core, one instance at a time: the reference the stacked routes and
# the battery's per-instance loop are pinned against.
def scalar_cos_sin_m2(s):
    def cross_norm(rows):
        (x0, x1, x2), (y0, y1, y2) = rows.tolist()
        return float(np.linalg.norm(np.array([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2,
                                              x0 * y1 - x1 * y0])))

    return (float(s.a[0] @ s.a[1]), cross_norm(s.a), float(s.b[0] @ s.b[1]),
            cross_norm(s.b))


def scalar_gram_2x2(cos_theta):
    return np.array([[1.0, cos_theta], [cos_theta, 1.0]])


def scalar_skew_2x2(cos_theta, sin_theta):
    e = complex(cos_theta, sin_theta)
    return np.array([[e.conjugate(), 1.0], [1.0, e]], dtype=complex)


def scalar_support_m2(model, s, z):
    ca, sa, cb, sb = scalar_cos_sin_m2(s)
    z = np.asarray(z, dtype=float)
    norm_sq = float(np.vdot(z, z))
    if not 1e-200 <= norm_sq <= 1e200 and z.any():
        e = math.frexp(np.max(np.abs(z)))[1]
        return float(np.ldexp(scalar_support_m2(model, s, np.ldexp(z, -e)), e))
    ga, gb = scalar_gram_2x2(ca), scalar_gram_2x2(cb)
    quad = float(np.trace(ga @ z @ gb @ z.T))
    if model == "sep":
        cross = abs(complex(np.trace(ga @ z @ scalar_skew_2x2(cb, sb) @ z.T)))
        return float(np.sqrt(max(0.0, (quad + cross) / 2.0)))
    det_term = 2.0 * abs(float(np.linalg.det(z))) * sa * sb
    return float(np.sqrt(max(0.0, quad + det_term)))


def scalar_gauge_m2(model, s, c):
    ca, sa, cb, sb = scalar_cos_sin_m2(s)
    if sa * sb <= 1e-9:
        raise ValueError("settings are too close to collinear for the closed form")
    c = np.asarray(c, dtype=float)
    ua = np.array([1.0, -complex(ca, sa)])
    ub = np.array([1.0, -complex(cb, sb)])
    w_plus = abs(complex(ua @ c @ ub))
    w_minus = abs(complex(ua @ c @ ub.conjugate()))
    if model == "sep":
        return max(w_plus, w_minus) / (sa * sb)
    return 0.5 * (w_plus + w_minus) / (sa * sb)
