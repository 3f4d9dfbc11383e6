"""Shared draw helpers and constructors for the test suite."""

import numpy as np

from corrsets import oracles
from corrsets.geometry import UNIT_ROW_TOL
from corrsets.oracles import random_settings


def hexes(x):
    """float.hex of every real (and imaginary) part of x, in order."""
    x = np.asarray(x)
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    return [float.hex(v) for part in parts for v in np.ravel(part).tolist()]


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


def rejecting_party_rows(monkeypatch, reject):
    """Make oracles._party_rows reject what reject(g, m, rank) names: None,
    or an index into its ok array. Returns the list of blocks it is given."""
    real, blocks = oracles._party_rows, []

    def party_rows(g, m, rank):
        rows, ok = real(g, m, rank)
        blocks.append(g.copy())
        where = reject(g, m, rank)
        if where is not None:
            ok[where] = False
        return rows, ok

    monkeypatch.setattr(oracles, "_party_rows", party_rows)
    return blocks


def assert_unit_rows_of_rank(s, rank):
    """Every row of both parties passes the constructor's unit-row check,
    and both parties have the given rank."""
    norms = np.sqrt((s._stack * s._stack).sum(axis=2))
    assert np.all(np.abs(norms - 1.0) <= UNIT_ROW_TOL)
    assert (s.rank_a, s.rank_b) == (rank, rank)
