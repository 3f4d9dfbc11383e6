"""Structural properties of the three bodies, tested directly: invariance
under local rotations, covariance under permutations of the settings, the
Hölder bound between support and gauge with equality at the optimizer,
positive homogeneity and subadditivity of the gauges, and the nesting
sep ⊂ qm ⊂ max.

Each test runs on seeded settings of every (m, rank) with m = 2..5 and
every model, at 1e-12 relative tolerance.
"""

import numpy as np
import pytest

from corrsets.geometry import (MAX, MODELS, QM, SEP, MeasurementSettings, gauge, optimizer_z,
                               support)
from corrsets.smallmat import random_rotation

from helpers import draw_settings, feasible_c

COMBOS = [(m, rank) for m in (2, 3, 4, 5) for rank in (1, 2, 3) if rank <= min(3, m)]
DRAWS = 30
REL = 1e-12


def _draws(tag, m, rank):
    """DRAWS (rng, settings) pairs, seeded by the test's tag and (m, rank)."""
    rng = np.random.default_rng([tag, m, rank])
    for _ in range(DRAWS):
        yield rng, draw_settings(rng, m, rank)


def _close(x, y):
    return abs(x - y) <= REL * max(abs(x), abs(y))


def _below(x, y):
    """x <= y up to REL of the larger magnitude."""
    return x <= y + REL * max(abs(x), abs(y))


def _finite_gauge(model, s, c):
    g = gauge(model, s, c)
    assert g.finite, (model, s.a, s.b, c)
    return g.value


@pytest.mark.parametrize("m, rank", COMBOS)
def test_local_rotations_leave_supports_and_gauges_unchanged(m, rank):
    # A -> A R_A, B -> B R_B with R in SO(3) rotates the frame A^T Z B by
    # R_A^T on the left and R_B on the right: same singular values, same
    # determinant sign, same range.
    for rng, s in _draws(1, m, rank):
        rotated = MeasurementSettings(s.a @ random_rotation(rng, "SO3"),
                                      s.b @ random_rotation(rng, "SO3"))
        z = rng.standard_normal((m, m))
        c = feasible_c(rng, s)
        for model in MODELS:
            assert _close(support(model, rotated, z), support(model, s, z)), model
            assert _close(_finite_gauge(model, rotated, c), _finite_gauge(model, s, c)), model


@pytest.mark.parametrize("m, rank", COMBOS)
def test_permuted_settings_permute_z_and_c(m, rank):
    for rng, s in _draws(2, m, rank):
        pa, pb = rng.permutation(m), rng.permutation(m)
        permuted = MeasurementSettings(s.a[pa], s.b[pb])
        z = rng.standard_normal((m, m))
        c = feasible_c(rng, s)
        rows_cols = np.ix_(pa, pb)
        for model in MODELS:
            assert _close(support(model, permuted, z[rows_cols]), support(model, s, z)), model
            assert _close(_finite_gauge(model, permuted, c[rows_cols]),
                          _finite_gauge(model, s, c)), model


@pytest.mark.parametrize("m, rank", COMBOS)
def test_hoelder_bound(m, rank):
    # Tr[Z^T C] <= support(Z) gauge(C), since C / gauge(C) lies in the body,
    # with equality at the optimizer Z*
    for rng, s in _draws(3, m, rank):
        c = feasible_c(rng, s)
        for model in MODELS:
            g = _finite_gauge(model, s, c)
            for _ in range(4):
                z = rng.standard_normal((m, m))
                assert _below(float(np.sum(z * c)), support(model, s, z) * g), model
            z_star = optimizer_z(model, s, c)
            assert _close(float(np.sum(z_star * c)), support(model, s, z_star) * g), model


@pytest.mark.parametrize("m, rank", COMBOS)
def test_gauges_are_positively_homogeneous_and_subadditive(m, rank):
    for rng, s in _draws(4, m, rank):
        # feasible_c has unit norm, and at rank 1 two draws are +-1 times the
        # same matrix; the weight keeps c1 + c2 from cancelling to rounding
        # noise, which lies outside the range and reads as an infinite gauge
        t, w = rng.uniform(0.1, 10.0, size=2)
        c1, c2 = feasible_c(rng, s), w * feasible_c(rng, s)
        for model in MODELS:
            g1, g2 = _finite_gauge(model, s, c1), _finite_gauge(model, s, c2)
            assert _close(_finite_gauge(model, s, t * c1), t * g1), model
            assert _below(_finite_gauge(model, s, c1 + c2), g1 + g2), model


@pytest.mark.parametrize("m, rank", COMBOS)
def test_bodies_nest(m, rank):
    # sep ⊂ qm ⊂ max: supports grow and gauges shrink along the chain
    for rng, s in _draws(5, m, rank):
        z = rng.standard_normal((m, m))
        c = feasible_c(rng, s)
        phi = [support(model, s, z) for model in (SEP, QM, MAX)]
        g = [_finite_gauge(model, s, c) for model in (SEP, QM, MAX)]
        assert _below(phi[0], phi[1]) and _below(phi[1], phi[2]), phi
        assert _below(g[2], g[1]) and _below(g[1], g[0]), g
