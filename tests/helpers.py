"""Shared draw helpers and constructors for the test suite."""

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
