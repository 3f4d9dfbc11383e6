"""Stacked routes against their one-instance forms, bit for bit.

The stacked support and gauge, the stacked separable-support oracle, the
stacked samplers and the stacked containment scan each promise that every
entry equals its one-instance call. Values are compared by float.hex, so a
moved last bit or a flipped zero sign fails. The first test pins the numpy
premise all of them rest on: a stacked call of each kernel equals its
per-matrix calls.
"""

import warnings

import numpy as np
import pytest

from corrsets import oracles
from corrsets.detect import MAX_OVER_QM, QM_OVER_SEP, chsh_settings, pauli_settings
from corrsets.geometry import (MAX, MODELS, QM, SEP, MeasurementSettings, _square_sum,
                               _square_sums, extreme_point, gauge, gauge_stack, support,
                               support_stack)
from corrsets.oracles import (OracleConfig, _sep_oracle_stack, random_product_state,
                              random_separable_state, random_settings, ratio_scan,
                              support_sep_oracle)
from corrsets.smallmat import random_rotation
from corrsets.twoqubit import PAULI, qubit_state

COMBOS = [(m, rank) for m in (1, 2, 3, 4, 5) for rank in (1, 2, 3) if rank <= m]


def hexes(x):
    """float.hex of every real (and imaginary) part of x, in order."""
    x = np.asarray(x)
    parts = (x.real, x.imag) if np.iscomplexobj(x) else (x,)
    return [float.hex(v) for part in parts for v in np.ravel(part).tolist()]


def test_stacked_numpy_kernels_equal_their_per_matrix_calls():
    # The premise of every stacked route. A numpy or BLAS build that breaks
    # it fails here first.
    rng = np.random.default_rng(2028)
    g = rng.standard_normal((20_000, 3, 3))
    sv = np.linalg.svd(g, compute_uv=False)
    sign = np.linalg.slogdet(g)[0]
    q, r = np.linalg.qr(g)
    det = np.linalg.det(q)
    mismatches = {"svd": 0, "slogdet": 0, "qr": 0, "det": 0}
    for i, x in enumerate(g):
        qi, ri = np.linalg.qr(x)
        mismatches["svd"] += sv[i].tobytes() != np.linalg.svd(x, compute_uv=False).tobytes()
        mismatches["slogdet"] += sign[i] != np.linalg.slogdet(x)[0]
        mismatches["qr"] += q[i].tobytes() + r[i].tobytes() != qi.tobytes() + ri.tobytes()
        mismatches["det"] += det[i].tobytes() != np.linalg.det(q[i]).tobytes()
    assert mismatches == dict.fromkeys(mismatches, 0)

    # frames A^T Z B of one settings object, 1820 Z in each of the 11 cases
    frames = 0
    for m, rank in [c for c in COMBOS if c[0] > 1]:
        s = random_settings(rng, m, rank)
        zs = rng.standard_normal((1820, m, m))
        stacked = s.a.T @ zs @ s.b
        frames += sum(stacked[i].tobytes() != (s.a.T @ z @ s.b).tobytes()
                      for i, z in enumerate(zs))
    assert frames == 0

    # a stacked matmul dot is one ddot, as 1-d np.linalg.norm and np.vdot
    for n in (3, 4, 9, 16, 25):
        v = rng.standard_normal((20_000, n))
        dots = (v[:, None, :] @ v[:, :, None])[:, 0, 0]
        assert not sum(np.sqrt(dots[i]) != np.linalg.norm(x) or dots[i] != np.vdot(x, x)
                       for i, x in enumerate(v))


def _gauge_inputs(rng, s, k=24):
    """In-range C, out-of-range C, C = 0 and in-range C scaled by 2^+-600."""
    inside = s.a @ rng.standard_normal((k, 3, 3)) @ s.b.T
    return np.concatenate([inside, rng.standard_normal((k, s.m, s.m)),
                           np.zeros((2, s.m, s.m)), np.ldexp(inside[:4], 600),
                           np.ldexp(inside[4:8], -600)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, rank", COMBOS)
def test_support_stack_is_the_scalar_support(m, rank):
    # Below rank 3 every frame sits inside the determinant dead zone; at
    # rank 3 the quantum support reads the stacked sign.
    rng = np.random.default_rng(10 * m + rank)
    s = random_settings(rng, m, rank)
    zs = np.concatenate([rng.standard_normal((40, m, m)), np.zeros((1, m, m)),
                         np.ldexp(rng.standard_normal((2, m, m)), 600)])
    for model in MODELS:
        got = support_stack(model, s, zs)
        fresh = MeasurementSettings(s.a, s.b)
        assert hexes(got) == hexes([support(model, fresh, z) for z in zs])
    assert support_stack(QM, s, zs[:0]).shape == (0,)


def test_stacked_square_sums_are_the_scalar_square_sums():
    # the norms and range deficits of gauge_stack keep the scalar bits
    rng = np.random.default_rng(6)
    for m in (1, 2, 3, 4, 5):
        xs = rng.standard_normal((500, m, m))
        assert hexes(_square_sums(xs)) == hexes([_square_sum(x) for x in xs])


@pytest.mark.filterwarnings("error")  # the scalar gauge warns on none of these
@pytest.mark.parametrize("m, rank", COMBOS)
def test_gauge_stack_is_the_scalar_gauge(m, rank):
    rng = np.random.default_rng(20 * m + rank)
    s = random_settings(rng, m, rank)
    cs = _gauge_inputs(rng, s)
    for model in MODELS:
        finite, value = gauge_stack(model, s, cs)
        want = [gauge(model, MeasurementSettings(s.a, s.b), c) for c in cs]
        # the range verdicts are decisions; compare them first
        assert finite.tolist() == [g.finite for g in want]
        assert hexes(value) == hexes([g.value for g in want])
        assert finite[:24].all() and finite[-10:].all()
        assert finite[24:48].all() == (rank == m)


def test_gauge_stack_reads_the_sign_at_full_rank():
    # both sign branches of the quantum gauge, from one stack
    s = pauli_settings()
    cs = np.stack([np.eye(3), -np.eye(3), np.diag([1.0, -1.0, 1.0])])
    finite, value = gauge_stack(QM, s, cs)
    assert finite.all() and value.tolist() == [3.0, 1.0, 1.0]


@pytest.mark.parametrize("fn", [support_stack, gauge_stack])
def test_stacks_reject_what_the_scalar_rejects(fn):
    s = pauli_settings()
    for bad in (np.nan, np.inf):
        xs = np.ones((3, 3, 3))
        xs[1, 2, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the check comes before any matmul
            with pytest.raises(ValueError, match="input has non-finite entries"):
                fn(QM, s, xs)
    with pytest.raises(ValueError, match="stack must be k x 3 x 3"):
        fn(QM, s, np.ones((3, 3)))
    with pytest.raises(ValueError, match="model must be one of"):
        fn("ppt", s, np.ones((1, 3, 3)))


def test_stacks_name_an_overflowing_frame_or_core():
    rows = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    s = MeasurementSettings(rows, rows)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"frame A\^T Z B overflowed"):
            support_stack(SEP, s, np.full((2, 2, 2), 1.7e308))
        t = 1e-9
        a = np.array([[1.0, 0.0, 0.0], [np.cos(t), np.sin(t), 0.0]])
        s = MeasurementSettings(a, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        with pytest.raises(ValueError, match=r"core A\^\+ C \(B\^T\)\^\+ overflowed"):
            gauge_stack(MAX, s, 1e300 * np.array([[[1.0, -1.0], [1.0, 1.0]]]))


def test_extreme_point_takes_a_stack_of_rotations():
    rng = np.random.default_rng(5)
    s = random_settings(rng, 4, 3)
    for model, component in ((QM, "SO3_minus"), (MAX, "O3")):
        qs = random_rotation(rng, component, 30)
        assert hexes(extreme_point(model, s, qs)) == hexes(
            [extreme_point(model, s, q) for q in qs])
    qs = random_rotation(rng, "SO3_minus", 4)
    with pytest.raises(ValueError, match="determinant -1"):
        extreme_point(QM, s, np.concatenate([qs, np.eye(3)[None]]))
    qs[2, 0, 0] += 1e-6
    with pytest.raises(ValueError, match="orthogonal"):
        extreme_point(MAX, s, qs)


def _old_random_rotation(rng, component):
    """The single-matrix Haar sampler as it was written before its stacked case."""
    g = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diagonal(r) >= 0, 1.0, -1.0)
    d = np.linalg.det(q)
    if (component == "SO3" and d < 0) or (component == "SO3_minus" and d > 0):
        q[:, 2] *= -1.0
    return q


@pytest.mark.parametrize("component", ["SO3", "SO3_minus", "O3"])
def test_stacked_haar_sampler_is_the_single_draws(component):
    rng, one, ref = (np.random.default_rng(9) for _ in range(3))
    stack = random_rotation(rng, component, 500)
    singles = [random_rotation(one, component) for _ in range(500)]
    assert hexes(stack) == hexes(singles) == hexes(
        [_old_random_rotation(ref, component) for _ in range(500)])
    assert rng.bit_generator.state == one.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ValueError):
        random_rotation(rng, "SU2", 3)


def _old_product_state(rng):
    u, v = rng.standard_normal((2, 3))
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    qubit = [(np.eye(2, dtype=complex) + np.einsum("i,iuv->uv", x, PAULI)) / 2.0 for x in (u, v)]
    return np.kron(*qubit)


def test_stacked_product_and_separable_states_are_the_scalar_formulas():
    rng, one, ref = (np.random.default_rng(11) for _ in range(3))
    stack = random_product_state(rng, 300)
    assert hexes(stack) == hexes([random_product_state(one) for _ in range(300)])
    assert hexes(stack) == hexes([_old_product_state(ref) for _ in range(300)])
    for _ in range(200):
        got = random_separable_state(rng)
        k = int(ref.integers(1, oracles._MAX_PRODUCT_TERMS + 1))
        weights = ref.dirichlet(np.ones(k))
        assert hexes(got) == hexes(sum(w * _old_product_state(ref) for w in weights))
    assert rng.bit_generator.state == ref.bit_generator.state
    bloch = np.random.default_rng(1).uniform(-0.5, 0.5, (50, 3))
    assert hexes(qubit_state(bloch)) == hexes([qubit_state(b) for b in bloch])
    with pytest.raises(ValueError):
        qubit_state(np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))


def test_random_settings_draws_both_parties_at_once(monkeypatch):
    def sequential(rng, m, rank):
        def one_party():
            while True:
                rows, ok = oracles._party_rows(rng.standard_normal(9 + m * rank), m, rank)
                if ok:
                    return rows
        return one_party(), one_party()

    for m, rank in COMBOS:
        rng, ref = np.random.default_rng(m + 7 * rank), np.random.default_rng(m + 7 * rank)
        for _ in range(20):
            s = random_settings(rng, m, rank)
            a, b = sequential(ref, m, rank)
            assert hexes(s.a) == hexes(a) and hexes(s.b) == hexes(b)
        assert rng.bit_generator.state == ref.bit_generator.state

    # a rejected first try of either party rewinds to one try at a time
    real, calls = oracles._party_rows, []

    def reject_one_party(g, m, rank):
        rows, ok = real(g, m, rank)
        calls.append(g.shape)
        if g.ndim == 2:
            ok[seed % 2] = False
        return rows, ok

    for seed in range(4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        a, b = sequential(ref, 4, 2)
        monkeypatch.setattr(oracles, "_party_rows", reject_one_party)
        calls.clear()
        s = random_settings(rng, 4, 2)
        monkeypatch.setattr(oracles, "_party_rows", real)
        assert calls == [(2, 17), (17,), (17,)]
        assert hexes(s.a) == hexes(a) and hexes(s.b) == hexes(b)
        assert rng.bit_generator.state == ref.bit_generator.state


def _frames(rng, m, rank, n):
    draws = [(random_settings(rng, m, rank), rng.standard_normal((m, m))) for _ in range(n)]
    return draws, np.stack([s.a.T @ z @ s.b for s, z in draws])


@pytest.mark.parametrize("m, rank", [(2, 1), (3, 2), (4, 3), (5, 3)])
def test_stacked_sep_oracle_is_the_single_call(m, rank):
    cfg = OracleConfig(grid_points=1024, restarts=12)
    draws, x = _frames(np.random.default_rng(m * rank), m, rank, 25)
    got = _sep_oracle_stack(x, cfg)
    assert hexes(got) == hexes([support_sep_oracle(s, z, cfg) for s, z in draws])
    assert hexes(got) == hexes([_sep_oracle_stack(f[None], cfg)[0] for f in x])


def test_stacked_sep_oracle_frames_stop_at_their_own_sweep(monkeypatch):
    # A rank-1 frame converges in its first sweeps; a frame whose top two
    # singular values nearly tie runs all the sweeps. One stack holds both.
    rng = np.random.default_rng(3)
    cfg = OracleConfig(grid_points=256, restarts=8)
    fast = np.outer(rng.standard_normal(3), rng.standard_normal(3))
    rot_u, rot_v = random_rotation(rng, "SO3"), random_rotation(rng, "SO3")
    slow = rot_u @ np.diag([1.0, 1.0 - 1e-3, 0.2]) @ rot_v.T
    x = np.stack([slow, fast, rng.standard_normal((3, 3)), slow.T, fast.T])
    full = _sep_oracle_stack(x, cfg)
    assert hexes(full) == hexes([_sep_oracle_stack(f[None], cfg)[0] for f in x])
    monkeypatch.setattr(oracles, "_REFINE_SWEEPS", 3)
    short = _sep_oracle_stack(x, cfg)
    assert hexes(short[[1, 4]]) == hexes(full[[1, 4]])
    assert short[0] < full[0] and short[3] < full[3]


def test_stacked_sep_oracle_keeps_seeds_with_zero_rows():
    # Rows along +-e_z make every frame e_z q^T exactly, and an odd grid has
    # a seed on the equator, whose product with the frame is a zero row; the
    # zero frame gives zero rows everywhere.
    rows = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    s = MeasurementSettings(rows, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    cfg = OracleConfig(grid_points=9, restarts=9)
    zs = np.concatenate([np.random.default_rng(8).standard_normal((6, 2, 2)),
                         np.zeros((1, 2, 2))])
    x = np.stack([s.a.T @ z @ s.b for z in zs])
    assert not (oracles.fibonacci_sphere(9) @ x[0])[4].any()
    got = _sep_oracle_stack(x, cfg)
    assert hexes(got) == hexes([support_sep_oracle(s, z, cfg) for z in zs])
    assert got[-1] == 0.0
    assert np.allclose(got, [support(SEP, s, z) for z in zs], rtol=1e-12)


def _scan_loop(s, pair, cfg):
    """ratio_scan as a scalar loop with a strict > over fresh maxima."""
    component, inner = ("SO3_minus", SEP) if pair == QM_OVER_SEP else ("O3", QM)
    rng = np.random.default_rng(cfg.seed)
    best, best_c = -np.inf, None
    for _ in range(cfg.samples):
        c = extreme_point(QM if inner == SEP else MAX, s, random_rotation(rng, component))
        value = gauge(inner, s, c).value
        if value > best:
            best, best_c = value, c
    return best, best_c


@pytest.mark.parametrize("pair", [QM_OVER_SEP, MAX_OVER_QM])
def test_ratio_scan_is_the_scalar_loop(pair):
    cfg = OracleConfig(seed=4, samples=300)
    rng = np.random.default_rng(12)
    for s in (pauli_settings(), chsh_settings(), random_settings(rng, 4, 2),
              random_settings(rng, 5, 3)):
        got = ratio_scan(s, pair, cfg)
        value, c = _scan_loop(s, pair, cfg)
        assert float.hex(got.value) == float.hex(float(value))
        assert hexes(got.maximizer_c) == hexes(c)
