"""Stacked routes against their one-instance forms, bit for bit.

The stacked support and gauge, the stacked separable-support oracle, the
stacked samplers, the stacked containment scan, the stacked
block-positivity descent, the stacked special SVD and rotation maximizer,
the stacked m = 2 closed forms and the stacked quantities of the
asymmetric-norm check each promise that every entry equals its
one-instance call, and settings built unchecked on drawn rows equal
settings built by the public constructor. Values are compared by
float.hex, so a moved last bit or a flipped zero sign fails. The first
test pins the numpy premise all of them rest on: a stacked call of each
kernel equals its per-matrix calls. The m = 2 closed forms are also held
to the general SVD route at the battery's 1e-9 relative, and a rejected
party of random_settings is redrawn alone.
"""

import math
import warnings

import numpy as np
import pytest

from corrsets import oracles, selfcheck
from corrsets.detect import MAX_OVER_QM, QM_OVER_SEP, chsh_settings, pauli_settings
from corrsets.geometry import (MAX, MODELS, QM, SEP, UNIT_ROW_TOL, MeasurementSettings,
                               _square_sum, _square_sums, extreme_point, gauge, gauge_stack,
                               planar_settings, support, support_stack)
from corrsets.oracles import (OracleConfig, _sep_oracle_stack, gauge_m2_closed_form,
                              max_trace_over_rotations, random_product_state,
                              random_quantum_state, random_separable_state, random_settings,
                              ratio_scan, special_svd, support_m2_closed_form,
                              support_sep_oracle)
from corrsets.smallmat import (norm_minus, norm_plus, op_norm, random_rotation, signed_svals,
                               trace_norm)
from corrsets.twoqubit import (PAULI, PauliForm, _block_positivity_stack,
                               block_positivity_minimum, classify_state, pauli_expand,
                               qubit_state, rho_max, tau_state, werner_state)

from helpers import assert_unit_rows_of_rank, hexes, rejecting_party_rows

COMBOS = [(m, rank) for m in (1, 2, 3, 4, 5) for rank in (1, 2, 3) if rank <= m]


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


def test_random_settings_draws_both_parties_at_once():
    # with no party rejected, the two-party block is the two first tries
    # drawn one after the other
    for m, rank in COMBOS:
        rng, ref = np.random.default_rng(m + 7 * rank), np.random.default_rng(m + 7 * rank)
        for _ in range(20):
            s = random_settings(rng, m, rank)
            for rows in (s.a, s.b):
                want, ok = oracles._party_rows(ref.standard_normal(9 + m * rank), m, rank)
                assert ok and hexes(rows) == hexes(want)
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("party", [0, 1])
@pytest.mark.parametrize("rejections", [1, 2])
def test_random_settings_redraws_only_a_rejected_party(party, rejections, monkeypatch):
    m, rank = 4, 2
    p = 9 + m * rank
    for seed in range(4):
        ref = np.random.default_rng(seed)
        kept = random_settings(ref, m, rank)
        redraws = ref.standard_normal((rejections, 1, p))
        runs = []
        for _ in range(2):  # the same seed gives the same settings
            blocks = rejecting_party_rows(monkeypatch, lambda g, m, rank: (
                None if len(blocks) > rejections else party if g.shape[0] == 2 else 0))
            rng = np.random.default_rng(seed)
            runs.append(random_settings(rng, m, rank))
            monkeypatch.undo()
        s, again = runs
        # the first block holds both tries; each redraw is one party's block
        assert [g.shape for g in blocks] == [(2, p)] + [(1, p)] * rejections
        assert hexes(blocks[1:]) == hexes(redraws)
        assert rng.bit_generator.state == ref.bit_generator.state
        other = 1 - party
        assert hexes(s._stack[other]) == hexes(kept._stack[other])
        want, ok = oracles._party_rows(redraws[-1], m, rank)
        assert ok.all() and hexes(s._stack[party]) == hexes(want[0])
        assert hexes(s._stack[party]) != hexes(kept._stack[party])
        assert_unit_rows_of_rank(s, rank)
        assert hexes(again._stack) == hexes(s._stack)


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


def _old_block_positivity(ra, rb, t, restarts, seed):
    """The descent as it was written before its stacked core, with the sweep
    at which it stopped (200 when it ran to the cap)."""
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((restarts, 3))
    u_sing, _, _ = np.linalg.svd(t)
    extra = [u_sing.T, -u_sing.T]
    if np.linalg.norm(ra) > 1e-12:
        extra.append(-ra[None, :] / np.linalg.norm(ra))
    u = np.concatenate([starts] + extra, axis=0)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.zeros_like(u)
    v[:, 0] = 1.0
    sweeps = 200
    for sweep in range(200):
        w = rb + u @ t
        nw = np.linalg.norm(w, axis=1, keepdims=True)
        v = np.where(nw > 1e-15, -w / np.where(nw > 0, nw, 1.0), v)
        g = ra + v @ t.T
        ng = np.linalg.norm(g, axis=1, keepdims=True)
        u_next = np.where(ng > 1e-15, -g / np.where(ng > 0, ng, 1.0), u)
        if np.max(np.abs(u_next - u)) < 1e-14:
            u = u_next
            sweeps = sweep + 1
            break
        u = u_next
    w = rb + u @ t
    nw = np.linalg.norm(w, axis=1, keepdims=True)
    v = np.where(nw > 1e-15, -w / np.where(nw > 0, nw, 1.0), v)
    values = 1.0 + u @ ra + v @ rb + np.einsum("ri,ij,rj->r", u, t, v)
    best = int(np.argmin(values))
    return (float(values[best]), u[best], v[best]), sweeps


def _descent_forms(rng, n, local):
    """Rigidity-type forms: O(3) blocks, some scaled or replaced by Gaussian
    ones, with small local parts (a third of them coupled, rb = q.T ra) or
    none."""
    t = random_rotation(rng, "O3", n)
    t[: n // 4] *= rng.uniform(0.3, 1.5, (n // 4, 1, 1))
    t[n // 4: n // 2] = rng.standard_normal((n // 2 - n // 4, 3, 3))
    if not local:
        return np.zeros((n, 3)), np.zeros((n, 3)), t
    ra = 0.2 * rng.standard_normal((n, 3))
    rb = 0.2 * rng.standard_normal((n, 3))
    rb[: n // 3] = np.einsum("nji,nj->ni", t[: n // 3], ra[: n // 3])
    return ra, rb, t


@pytest.mark.parametrize("restarts", [8, 16, 24, 64])
@pytest.mark.parametrize("local", [True, False])
def test_stacked_descent_is_the_single_call(restarts, local):
    rng = np.random.default_rng(restarts + local)
    ra, rb, t = _descent_forms(rng, 40, local)
    seeds = rng.integers(2**31, size=40).tolist()
    values, us, vs = _block_positivity_stack(ra, rb, t, restarts, seeds)
    sweeps = set()
    for i, seed in enumerate(seeds):
        (value, u, v), stop = _old_block_positivity(ra[i], rb[i], t[i], restarts, seed)
        sweeps.add(stop)
        assert hexes([values[i], *us[i], *vs[i]]) == hexes([value, *u, *v])
        value, u, v = block_positivity_minimum(PauliForm(1.0, ra[i], rb[i], t[i]), restarts, seed)
        assert hexes([values[i], *us[i], *vs[i]]) == hexes([value, *u, *v])
    # the forms of one stack stop at different sweeps
    assert len(sweeps) > 3


def test_stacked_descent_takes_no_mixed_or_empty_stack_wrongly():
    rng = np.random.default_rng(4)
    ra, rb, t = _descent_forms(rng, 4, True)
    ra[2] = 0.0
    with pytest.raises(ValueError, match="all have, or all lack, a local part"):
        _block_positivity_stack(ra, rb, t, 8, [1, 2, 3, 4])
    values, us, vs = _block_positivity_stack(ra[:0], rb[:0], t[:0], 8, [])
    assert values.shape == (0,) and us.shape == vs.shape == (0, 3)


def test_classify_state_lazy_fields_are_the_old_descent():
    states = [family(k / 10) for family in (werner_state, tau_state) for k in range(11)]
    states += [rho_max()] + [random_quantum_state(k) for k in range(10)]
    for rho in states:
        p = pauli_expand(rho)
        (value, _, _), _ = _old_block_positivity(p.ra, p.rb, p.t, 64, 0)
        cls = classify_state(rho)
        assert cls.min_product_overlap.hex() == (value / 4.0).hex()
        assert cls.is_block_positive == (value >= -1e-7)


def _old_special_svd(x):
    """special_svd as it was written before its stacked case."""
    u, s, vt = np.linalg.svd(x)
    u = u.copy()
    v = vt.T.copy()
    su = 1.0 if np.linalg.det(u) > 0 else -1.0
    sv = 1.0 if np.linalg.det(v) > 0 else -1.0
    u[:, 2] *= su
    v[:, 2] *= sv
    return u, np.array([s[0], s[1], s[2] * su * sv]), v


def test_stacked_special_svd_is_the_single_call():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((600, 3, 3))
    x[:50] = random_rotation(rng, "SO3_minus", 50)                  # reflections
    x[50:100] = -np.abs(x[50:100])
    x[100:150] = np.einsum("ni,nj->nij", x[100:150, 0], x[100:150, 1])  # rank 1
    x[150:200, 2] = x[150:200, 0] - 2.0 * x[150:200, 1]                # rank 2
    x[200:210] = 0.0
    got = special_svd(x)
    assert got.u.shape == got.v.shape == (600, 3, 3) and got.s.shape == (600, 3)
    def factor_hexes(u, s, v):
        return hexes(u) + hexes(s) + hexes(v)

    for i, xi in enumerate(x):
        single = special_svd(xi)
        assert factor_hexes(got.u[i], got.s[i], got.v[i]) == factor_hexes(*single)
        assert factor_hexes(*single) == factor_hexes(*_old_special_svd(xi))
    assert (np.linalg.det(got.u) > 0).all() and (np.linalg.det(got.v) > 0).all()
    with pytest.raises(ValueError, match="3x3 matrix or a"):
        special_svd(np.ones((2, 3, 2)))


def _public_copy(s):
    return MeasurementSettings(np.array(s.a), np.array(s.b))


def test_unchecked_settings_equal_the_public_constructor():
    rng = np.random.default_rng(21)
    draws = [random_settings(rng, m, rank) for m, rank in COMBOS for _ in range(30)]
    draws += [s for s, _ in selfcheck._random_instances(rng, 300)]
    for s in draws:
        t = _public_copy(s)
        for mine, theirs in ((s.a, t.a), (s.b, t.b)):
            assert hexes(mine) == hexes(theirs) and mine.strides == theirs.strides
            assert not mine.flags.writeable
        assert (s.rank_a, s.rank_b, s.r) == (t.rank_a, t.rank_b, t.r)
        assert hexes([s.pinv_a, s.pinv_b]) == hexes([t.pinv_a, t.pinv_b])
        assert not s.pinv_a.flags.writeable
        with pytest.raises(ValueError):
            s.a[0, 0] = 2.0


def test_every_drawn_row_passes_the_unit_row_check():
    rng = np.random.default_rng(22)
    rows = np.concatenate([s._stack.reshape(-1, 3) for s, _ in
                           selfcheck._random_instances(rng, 20_000)])
    assert len(rows) >= 2 * 2 * 20_000
    assert np.all(np.abs(np.sqrt((rows * rows).sum(axis=1)) - 1.0) <= UNIT_ROW_TOL)


def test_planar_settings_draw_both_rotations_at_once():
    for seed in range(20):
        alpha, beta = 0.3 + 0.1 * seed, 2.9 - 0.1 * seed
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        s = planar_settings(alpha, beta, rng)
        a = np.array([[1.0, 0.0, 0.0], [np.cos(alpha), np.sin(alpha), 0.0]])
        b = np.array([[1.0, 0.0, 0.0], [np.cos(beta), np.sin(beta), 0.0]])
        a = a @ random_rotation(ref, "SO3").T
        b = b @ random_rotation(ref, "SO3").T
        assert hexes(s.a) == hexes(a) and hexes(s.b) == hexes(b)
        assert rng.bit_generator.state == ref.bit_generator.state
    assert hexes(planar_settings(0.5, 0.7, 3).a) == hexes(
        planar_settings(0.5, 0.7, np.random.default_rng(3)).a)


def _m2_cases(rng):
    """Planar settings at moderate angles, then near-degenerate pairs with
    sin(alpha) sin(beta) from 1e-3 down to 1e-6 and either angle on either
    side of pi/2."""
    angles = [tuple(rng.uniform(0.05, np.pi - 0.05, 2)) for _ in range(60)]
    for product in (1e-3, 1e-4, 1e-5, 1e-6):
        low = np.arcsin(np.sqrt(product))
        angles += [(alpha, beta) for alpha in (low, np.pi - low) for beta in (low, np.pi - low)]
    return [planar_settings(alpha, beta, rng) for alpha, beta in angles]


def _rows(settings):
    return np.stack([s.a for s in settings]), np.stack([s.b for s in settings])


def assert_m2_route(closed, general):
    """Criterion 7's agreement, 1e-9 relative, of closed forms with the
    general SVD route."""
    assert abs(closed - general) <= 1e-9 * abs(general), (closed, general)


def test_stacked_m2_closed_forms_are_the_general_route():
    rng = np.random.default_rng(30)
    settings = _m2_cases(rng)
    k = len(settings)
    zs = rng.standard_normal((k, 2, 2))
    zs[::4] = np.ldexp(zs[::4], 600)
    zs[1::4] = np.ldexp(zs[1::4], -600)
    zs[2] = 0.0
    cs = np.stack([s.a @ g @ s.b.T for s, g in zip(settings, rng.standard_normal((k, 3, 3)))])
    cs[::3] = rng.standard_normal((len(cs[::3]), 2, 2))  # the gauge form takes any C
    a, b = _rows(settings)
    supports = oracles._m2_closed_forms("support", a, b, zs)
    gauges = oracles._m2_closed_forms("gauge", a, b, cs)
    assert supports.shape == gauges.shape == (k, 2)
    for i, s in enumerate(settings):
        for col, model in enumerate((SEP, QM)):
            # the public wrappers are the stack's one-instance case
            public = support_m2_closed_form(model, s, zs[i]), gauge_m2_closed_form(model, s, cs[i])
            assert hexes(public) == hexes([supports[i, col], gauges[i, col]])
            assert_m2_route(supports[i, col], support(model, s, zs[i]))
            g = gauge(model, s, cs[i])
            assert g.finite
            assert_m2_route(gauges[i, col], g.value)
    # the cases reach the smallest sine product the battery draws
    _, sa, _, sb = oracles._cos_sin_m2(a, b)
    assert (sa * sb).min() == pytest.approx(1e-6, rel=1e-6)
    assert np.isfinite(supports).all() and supports[2].tolist() == [0.0, 0.0]
    assert (supports[::4] > 2.0 ** 590).all() and (supports[1::4] < 2.0 ** -590).all()


def test_stacked_m2_gauge_rejects_a_degenerate_pair():
    rng = np.random.default_rng(31)
    settings = _m2_cases(rng)[:5] + [planar_settings(1e-5, np.pi - 1e-5, rng)]
    a, b = _rows(settings)
    cs = rng.standard_normal((len(settings), 2, 2))
    with pytest.raises(ValueError, match="collinear"):
        oracles._m2_closed_forms("gauge", a, b, cs)
    with pytest.raises(ValueError, match="collinear"):
        gauge_m2_closed_form(SEP, settings[-1], cs[-1])
    # the support needs no sine bound
    supports = oracles._m2_closed_forms("support", a, b, cs)
    for col, model in enumerate((SEP, QM)):
        assert_m2_route(supports[-1, col], support(model, settings[-1], cs[-1]))
    cs[1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        oracles._m2_closed_forms("support", a, b, cs)


def _norm_cases(rng):
    """3x3 matrices: Gaussian, rotations, reflections, rank 1, rank 2 (inside
    the determinant dead zone or just outside it) and zero."""
    x = rng.standard_normal((400, 3, 3))
    x[:40] = random_rotation(rng, "SO3_minus", 40)
    x[40:60] = random_rotation(rng, "SO3", 20)
    x[60:100] = np.einsum("ni,nj->nij", x[60:100, 0], x[60:100, 1])
    x[100:160, 2] = x[100:160, 0] - 2.0 * x[100:160, 1]
    x[160:180] = x[100:120] + 1e-9 * rng.standard_normal((20, 3, 3))
    x[180:190] = 0.0
    x[190:200] *= -1.0
    return x


def test_stacked_signed_norms_are_the_scalar_kernels():
    x = _norm_cases(np.random.default_rng(32))
    lo, hi, sv = selfcheck._signed_norms(x)
    for i, xi in enumerate(x):
        assert hexes([lo[i], hi[i], sv[i, 0], sv[i, 0] + sv[i, 1] + sv[i, 2]]) == hexes(
            [norm_minus(xi), norm_plus(xi), op_norm(xi), trace_norm(xi)])
    # the dead zone fired, and matrices just outside it kept their sign
    sign = signed_svals(x)[1]
    assert (sign[60:160] == 0.0).all() and (sign[160:180] != 0.0).all()


def _old_max_trace(x, component):
    """max_trace_over_rotations as it was written before its stacked case."""
    u, s, v = special_svd(x)
    f = {"SO3": 1.0, "SO3_minus": -1.0, "O3": math.copysign(1.0, s[2])}[component]
    return float(s[0] + s[1] + f * s[2]), u @ np.diag([1.0, 1.0, f]) @ v.T


@pytest.mark.parametrize("component", ["SO3", "SO3_minus", "O3"])
def test_stacked_rotation_maximizer_is_the_single_call(component):
    x = _norm_cases(np.random.default_rng(33))
    values, qs = max_trace_over_rotations(x, component)
    assert values.shape == (len(x),) and qs.shape == x.shape
    for i, xi in enumerate(x):
        value, q = max_trace_over_rotations(xi, component)
        assert isinstance(value, float)
        assert hexes([values[i], *qs[i].ravel()]) == hexes([value, *q.ravel()])
        value, q = _old_max_trace(xi, component)
        assert hexes([values[i], *qs[i].ravel()]) == hexes([value, *q.ravel()])


def test_stacked_duality_sums_and_hull_mixtures_are_the_per_iteration_forms():
    # the sampled numerators, the attained traces and the Dirichlet mixtures
    # of the asymmetric-norm check, stacked over iterations
    rng = np.random.default_rng(34)
    n = 300
    x, ys = rng.standard_normal((n, 3, 3)), rng.standard_normal((n, 50, 3, 3))
    q = max_trace_over_rotations(x, "SO3")[1]
    qs, w = random_rotation(rng, "SO3", 5 * n).reshape(n, 5, 3, 3), rng.dirichlet(np.ones(5), n)
    numer = np.einsum("nij,nkij->nk", x, ys)
    traces = (x * q).reshape(n, 9).sum(axis=1)
    mix = (w[:, None, :] @ qs.reshape(n, 5, 9)).reshape(n, 3, 3)
    for i in range(n):
        assert hexes(numer[i]) == hexes(np.einsum("ij,kij->k", x[i], ys[i]))
        assert hexes(traces[i]) == hexes(np.sum(x[i] * q[i]))
        assert hexes(mix[i]) == hexes(np.tensordot(w[i], qs[i], axes=1))
