"""Verification battery: every closed form against its independent route.

Each check draws fresh random instances, compares two ways of computing the
same quantity, and reports the worst deviation it saw. A failing check
serializes one offending instance as JSON so it can be replayed by hand. A
NaN deviation fails its check. No check rewinds the rng: random settings of
random sizes come from _random_instances, in blocks, with a redraw of only
a rejected party, and the m = 2 check draws its angles, rotations, Z's and
C's as blocks. The heavy checks evaluate the independent route on stacks,
while the production functions they test run once per instance; the
replay is the first instance with the worst deviation. The m = 2 and
asymmetric-norm checks replay their worst instance through the public
closed forms, norms and maximizer, and fold the distance from the stacked
values into their worst deviation.

Reports are pure functions of (level, seed): running twice with the same
arguments gives byte-identical text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import detect, geometry, oracles, twoqubit
from ._version import __version__
from .geometry import MAX, QM, SEP, MeasurementSettings
from .oracles import OracleConfig, det3_intrinsic, max_trace_over_rotations, special_svd
from .smallmat import (_signed, norm_minus, norm_plus, op_norm, pinv, random_rotation,
                       signed_svals, trace_norm)

LEVELS = ("quick", "full")

# Sample counts per level, one key for each count a check draws. The quick
# column is sized for a seconds-scale smoke run, the full one for the real gate.
_SIZES = {
    "quick": dict(combo=25, dual=150, dual_oracle=6, identity=2000, recon=20_000,
                  m2=400, mc_states=400, mc_z=8, hull=2, scan=500, rigidity=120,
                  pullback=400, pinv=100, vec=100, asym=100, symmetry=100),
    "full": dict(combo=1000, dual=1000, dual_oracle=25, identity=10_000, recon=100_000,
                 m2=10_000, mc_states=10_000, mc_z=100, hull=8, scan=10_000,
                 rigidity=1000, pullback=5000, pinv=500, vec=500, asym=500, symmetry=500),
}

_COMBOS = [(m, rank) for m in (2, 3, 4, 5) for rank in (1, 2, 3) if rank <= min(3, m)]

# Agreement tolerances between closed forms and oracles.
_TOL_EXACT = 1e-9
_TOL_EIG = 1e-6
_TOL_SEP_ORACLE = 1e-4


@dataclass
class CheckResult:
    name: str
    passed: bool
    instances: int
    worst: float
    detail: str = ""


@dataclass
class VerifyReport:
    level: str
    seed: int
    version: str
    results: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [f"verification report: level={self.level} seed={self.seed} "
                 f"version={self.version}"]
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status} {r.name:<28s} instances={r.instances:<7d} "
                         f"worst={r.worst:.6e}")
            if r.detail and not r.passed:
                lines.append(f"     replay: {r.detail}")
        npass = sum(r.passed for r in self.results)
        lines.append(f"summary: {npass} passed, {len(self.results) - npass} failed")
        return "\n".join(lines) + "\n"


def _serialize(**kwargs) -> str:
    out = {}
    for key, value in kwargs.items():
        if isinstance(value, np.ndarray):
            out[key] = np.round(value, 14).tolist()
        elif isinstance(value, (np.floating, np.integer)):
            out[key] = value.item()
        else:
            out[key] = value
    return json.dumps(out, sort_keys=True)


def _result(name, n, worst, tol, detail="") -> CheckResult:
    return CheckResult(name, bool(worst <= tol), n, float(worst), detail)


def _nanmax(*devs):
    """max(devs), except that a NaN among them is the result, so it fails."""
    for dev in devs:
        if math.isnan(dev):
            return dev
    return max(devs)


def _replay_distance(public, stacked):
    """Largest |public - stacked| over pairs of values, NaN if one is NaN."""
    return _nanmax(0.0, *(abs(p - float(s)) for p, s in zip(public, stacked)))


class _Worst:
    """The largest deviation offered so far and the replay of its instance.

    Only a strictly larger deviation, or the first NaN, replaces the worst;
    the instance that set it is serialized right then.
    """

    def __init__(self):
        self.value = 0.0
        self.detail = ""

    def offer(self, dev, **instance) -> None:
        if dev > self.value or (math.isnan(dev) and not math.isnan(self.value)):
            self.value = dev
            self.detail = _serialize(**instance)

    def offer_stack(self, devs: np.ndarray, replay) -> None:
        """Offer a 1-d array of deviations as if one by one, in order.

        argmax finds the first NaN, or else the first maximum, which is the
        entry that sequential offers keep; replay(i) gives its instance.
        """
        if devs.size:
            i = int(np.argmax(devs))
            self.offer(devs[i], **replay(i))

    def result(self, name, n, tol) -> CheckResult:
        return _result(name, n, self.value, tol, self.detail)


def _random_instances(rng, n, m_stop=6, tail=None):
    """n (settings, X) draws of random size, X Gaussian of shape tail, or an
    m x m Z by default.

    The sizes come first, as two blocks: each instance's m in 2..m_stop - 1,
    then each one's rank up to min(3, m). Each (m, rank) group, in
    increasing order, then draws one normal block whose row for an instance
    holds both parties' first tries and its X; a rejected party alone draws
    again (oracles._unit_rows) before the next group's block. The settings
    take the drawn rows unchecked.
    """
    m = rng.integers(2, m_stop, n)
    rank = rng.integers(1, np.minimum(m, 3) + 1)
    instances = [None] * n
    for size in sorted(set(zip(m.tolist(), rank.tolist()))):
        idx = np.flatnonzero((m == size[0]) & (rank == size[1]))
        p, shape = 9 + size[0] * size[1], tail or (size[0], size[0])
        g = rng.standard_normal((len(idx), 2 * p + math.prod(shape)))
        rows = oracles._unit_rows(rng, g[:, :2 * p].reshape(-1, 2, p), *size)
        for i, stack, x in zip(idx.tolist(), rows, g[:, 2 * p:].reshape((-1,) + shape)):
            instances[i] = (MeasurementSettings._from_unit_rows(stack), x)
    return instances


def _stacks(instances):
    """(indices, a, b, z) for each m among (settings, Z) instances.

    a and b are (k, m, 3) and z (k, m, m), stacked in the order of indices.
    """
    groups = {}
    for i, (s, _) in enumerate(instances):
        groups.setdefault(s.m, []).append(i)
    for idx in groups.values():
        yield (idx, np.stack([instances[i][0].a for i in idx]),
               np.stack([instances[i][0].b for i in idx]),
               np.stack([instances[i][1] for i in idx]))


def _check_support_oracles(rng, sizes):
    """Closed-form supports vs grid/eigensolve oracles across (m, rank).

    No oracle reads the rng, so each (m, rank) draws its instances first and
    runs the separable oracle once, on the stack of their frames. The worst
    separable instance of each stack is replayed through the public
    support_sep_oracle, which gives the value its replay prints.
    """
    n = sizes["combo"]
    cfg = OracleConfig(grid_points=1024, restarts=12)  # the oracle reads no seed
    worst = {SEP: _Worst(), QM: _Worst(), MAX: _Worst()}
    lower_breach = 0.0
    for m, rank in _COMBOS:
        draws = [(oracles.random_settings(rng, m, rank), rng.standard_normal((m, m)))
                 for _ in range(n)]
        sep = oracles._sep_oracle_stack(np.stack([s.a.T @ z @ s.b for s, z in draws]), cfg)
        closed = np.array([geometry.support(SEP, s, z) for s, z in draws])
        lower_breach = _nanmax(lower_breach, *(sep - closed).tolist())

        def replay(i):
            s, z = draws[i]
            return dict(model=SEP, a=s.a, b=s.b, z=z, closed=closed[i],
                        oracle=oracles.support_sep_oracle(s, z, cfg))

        worst[SEP].offer_stack(np.abs(closed - sep), replay)
        for s, z in draws:
            for model, reference in ((QM, oracles.support_qm_oracle(s, z)),
                                     (MAX, oracles.support_max_oracle(s, z))):
                value = geometry.support(model, s, z)
                worst[model].offer(abs(value - reference), model=model, a=s.a, b=s.b,
                                   z=z, closed=value, oracle=reference)
    count = n * len(_COMBOS)
    return [
        worst[SEP].result("support-vs-oracle-sep", count, _TOL_SEP_ORACLE),
        worst[QM].result("support-vs-oracle-qm", count, _TOL_EIG),
        worst[MAX].result("support-vs-oracle-max", count, _TOL_EIG),
        _result("sep-oracle-one-sided", count, lower_breach, _TOL_EXACT),
    ]


def _finite_c(a, b, g):
    """Correlation-type matrix guaranteed compatible with the setting ranges,
    A g B.T for a 3x3 g, scaled to unit norm (a zero C stays zero); a stack
    of rows and normals gives a stack."""
    c = a @ g @ np.swapaxes(b, -1, -2)
    flat = c.reshape(c.shape[:-2] + (-1,))
    norm = np.sqrt(geometry._dots(flat, flat))[..., None, None]
    return c / np.where(norm > 0, norm, 1.0)


def _finite_gauge_draws(rng, n, m_stop):
    """(model, settings, C, gauge) for n draws per model, in MODELS order,
    keeping only those whose gauge is finite and above 1e-12. Each model's
    settings and the 3x3 normals of their C are one _random_instances draw."""
    for model in geometry.MODELS:
        for s, x in _random_instances(rng, n, m_stop, (3, 3)):
            c = _finite_c(s.a, s.b, x)
            g = geometry.gauge(model, s, c)
            if g.finite and g.value > 1e-12:
                yield model, s, c, g


def _check_duality(rng, sizes):
    """Optimizer attainment: Tr[Z*^T C] / support(Z*) reproduces the gauge."""
    worst = _Worst()
    count = 0
    for model, s, c, g in _finite_gauge_draws(rng, sizes["dual"], 6):
        count += 1
        z_star = geometry.optimizer_z(model, s, c)
        ratio = float(np.sum(z_star * c)) / geometry.support(model, s, z_star)
        worst.offer(abs(ratio - g.value) / max(1.0, g.value), model=model, a=s.a,
                    b=s.b, c=c, gauge=g.value, ratio=ratio)
    return [worst.result("gauge-duality-attainment", count, 1e-8)]


def _check_dual_oracle(rng, sizes):
    """Sampled dual ratios agree with the gauge once Z* is in the pool."""
    cfg = OracleConfig(seed=int(rng.integers(2**31)), samples=4000)
    worst = _Worst()
    count = 0
    for model, s, c, g in _finite_gauge_draws(rng, sizes["dual_oracle"], 5):
        count += 1
        worst.offer(abs(oracles.gauge_dual_oracle(model, s, c, cfg) - g.value),
                    model=model, a=s.a, b=s.b, c=c, gauge=g.value)
    return [worst.result("gauge-vs-dual-oracle", count, 1e-8)]


def _ell_2x2(theta):
    """The phase matrix of the literal quantum gauge route, one per angle."""
    ell = np.ones(theta.shape + (2, 2), dtype=complex)
    ell[:, 0, 1], ell[:, 1, 0] = -np.exp(1j * theta), -np.exp(-1j * theta)
    return ell / (np.sin(theta) ** 2)[:, None, None]


def _f_4x4(alpha, beta):
    """The Kronecker matrix of the quantum gauge's vec(C) route, one per pair."""
    ca, cb, one = np.cos(alpha), np.cos(beta), np.ones_like(alpha)
    cp, cm = np.cos(alpha + beta), np.cos(alpha - beta)
    f = np.stack([one, -ca, -cb, cp, -ca, one, cm, -cb,
                  -cb, cm, one, -ca, cp, -cb, -ca, one], axis=-1).reshape(-1, 4, 4)
    return f / (np.sin(alpha) ** 2 * np.sin(beta) ** 2)[:, None, None]


def _kron_2x2(x, y):
    """np.kron of each pair of 2x2 matrices of two stacks."""
    return (x[:, :, None, :, None] * y[:, None, :, None, :]).reshape(-1, 4, 4)


def _quad_form(v, f):
    """v^T f v for each (4,) row of v and (4, 4) matrix of f, as (v @ f) @ v."""
    return (v[:, None, :] @ f @ v[:, :, None])[:, 0, 0]


_M2_TAGS = ("support-sep", "support-qm", "gauge-sep", "gauge-qm", "support-sep-vec",
            "gauge-sep-literal", "gauge-qm-literal", "gauge-qm-vec")


def _check_m2_forms(rng, sizes):
    """Angle-form expressions at m = 2 against the general SVD route.

    Every eighth draw is near-degenerate, with sin(alpha) sin(beta) pushed
    down to exactly 1e-6 on a fixed cadence. The explicit trace and
    Kronecker quadratic forms hold extra digits only at moderate angles
    (their matrices carry 1/sin^2 factors that eat precision), so those
    routes are compared on the moderate draws; the production closed forms,
    which factor the same expressions through rank-one phase vectors, are
    compared on every draw. Deviations are measured relative to the value,
    since the gauge forms blow up as the angles degenerate.

    The draws are blocks, in this order: the moderate angles of every
    instance, the near-degenerate products, the sides of pi/2 those angles
    take, the seed of the rotations, the Z's and the normals of the C's;
    both rotations of every instance are one block from that seed. The
    production supports and gauges run once per instance; the closed forms
    and the literal routes then run on stacks, and the deviations are
    offered in instance and route order. The worst instance is rebuilt
    through planar_settings and replayed through the public closed forms,
    and their distance from the stacked values is offered too.
    """
    n = sizes["m2"]
    moderate = np.arange(n) % 8 != 7
    near = np.flatnonzero(~moderate)
    alpha, beta = rng.uniform(0.05, np.pi - 0.05, (2, n))
    log_product = np.where(near % 16 == 15, -6.0, rng.uniform(-6.0, -2.5, len(near)))
    low = np.arcsin(np.sqrt(10.0 ** log_product))
    alpha[near], beta[near] = np.where(rng.integers(2, size=(2, len(near))), low, np.pi - low)
    # the rotations come from a stream of their own, which the replay restarts
    rotation_seed = int(rng.integers(2**31))
    rotations = random_rotation(rotation_seed, "SO3", 2 * n).reshape(n, 2, 3, 3)
    rows = geometry._planar_rows(alpha, beta, rotations)
    rows.setflags(write=False)
    a, b = rows[:, 0], rows[:, 1]
    z = rng.standard_normal((n, 2, 2))
    c = _finite_c(a, b, rng.standard_normal((n, 3, 3)))
    settings = [MeasurementSettings._from_unit_rows(stack) for stack in rows]
    phi = np.array([[geometry.support(model, s, zk) for model in (SEP, QM)]
                    for s, zk in zip(settings, z)])
    gauges = [[geometry.gauge(model, s, ck) for model in (SEP, QM)]
              for s, ck in zip(settings, c)]
    g = np.array([[x.value for x in pair] for pair in gauges])
    finite = np.array([[x.finite for x in pair] for pair in gauges])
    valid = np.ones((n, len(_M2_TAGS)), dtype=bool)
    valid[:, 2:4], valid[:, 5:] = finite, moderate[:, None]
    general = np.concatenate([phi, g, phi[:, :1], g, g[:, 1:]], axis=1)

    closed = np.full(general.shape, np.nan)
    closed[:, :2] = oracles._m2_closed_forms("support", a, b, z)
    some = finite.any(axis=1)
    closed[some, 2:4] = oracles._m2_closed_forms("gauge", a[some], b[some], c[some])
    # vec-form route for the support: quadratic forms in vec(Z) with the
    # Kronecker matrices. Entries are O(1), fine at any angle.
    ga, gb = oracles._gram_2x2(np.cos(alpha)), oracles._gram_2x2(np.cos(beta))
    zv = np.swapaxes(z, 1, 2).reshape(n, 4)
    kq = _quad_form(zv, _kron_2x2(gb, ga))
    jq = _quad_form(zv, _kron_2x2(oracles._skew_2x2(np.cos(beta), np.sin(beta)), ga))
    closed[:, 4] = np.sqrt((kq + np.abs(jq)) / 2.0)
    # explicit matrix routes for the gauges, at moderate angles
    al, be, cm = alpha[moderate], beta[moderate], c[moderate]
    ct = np.swapaxes(cm, 1, 2)
    sep_trace = np.trace(np.linalg.inv(ga[moderate]) @ cm @ np.linalg.inv(gb[moderate]) @ ct,
                         axis1=1, axis2=2)
    closed[moderate, 5] = np.sqrt(oracles._clip0(
        sep_trace + 2.0 * np.abs(np.linalg.det(cm)) / (np.sin(al) * np.sin(be))))
    la = _ell_2x2(al)
    t_plus, t_minus = (np.trace(la @ cm @ np.swapaxes(_ell_2x2(t), 1, 2) @ ct,
                                axis1=1, axis2=2).real for t in (be, -be))
    closed[moderate, 6] = 0.5 * (np.sqrt(oracles._clip0(t_plus))
                                 + np.sqrt(oracles._clip0(t_minus)))
    cv = ct.reshape(-1, 4)
    fq, fq_m = (_quad_form(cv, _f_4x4(al, t)) for t in (be, -be))
    # max(fq, 0.0), which keeps a NaN where max(0.0, t) drops it
    closed[moderate, 7] = 0.5 * (np.sqrt(np.where(0.0 > fq, 0.0, fq))
                                 + np.sqrt(np.where(0.0 > fq_m, 0.0, fq_m)))

    offered = np.flatnonzero(valid)
    scale = np.abs(general).ravel()[offered]
    devs = np.abs(general - closed).ravel()[offered] / np.where(scale > 1.0, scale, 1.0)

    def instance(k, tag, **values):
        return dict(tag=tag, alpha=alpha[k], beta=beta[k], a=a[k], b=b[k], z=z[k], c=c[k],
                    **values)

    def replay(i):
        k, col = divmod(int(offered[i]), len(_M2_TAGS))
        return instance(k, _M2_TAGS[col], general=general[k, col], closed=closed[k, col])

    worst = _Worst()
    worst.offer_stack(devs, replay)
    k = int(offered[np.argmax(devs)]) // len(_M2_TAGS)
    replay_rng = np.random.default_rng(rotation_seed)
    replay_rng.standard_normal((2 * k, 3, 3))  # the rotations of the instances before k
    s = geometry.planar_settings(alpha[k], beta[k], replay_rng)
    public = [oracles.support_m2_closed_form(model, s, z[k]) for model in (SEP, QM)]
    public += [oracles.gauge_m2_closed_form(model, s, c[k])
               for model, ok in zip((SEP, QM), finite[k]) if ok]
    worst.offer(_replay_distance(public, closed[k, :4][valid[k, :4]]),
                **instance(k, "public-replay", public=public))
    return [worst.result("m2-closed-forms", n, _TOL_EXACT)]


def _check_kernel_identities(rng, sizes):
    """SVD reconstruction, pseudoinverse laws, the vectorization identity,
    and the intrinsic determinant expansion."""
    n_recon = sizes["recon"]
    mats = rng.standard_normal((n_recon, 3, 3))
    u, sv, vt = np.linalg.svd(mats)
    recon_dev = float(np.abs(np.einsum("kij,kj,kjl->kil", u, sv, vt) - mats).max())
    # free these stacks before the instances below are drawn and stacked
    del mats, u, sv, vt

    penrose_dev = 0.0
    for _ in range(sizes["pinv"]):
        m = int(rng.integers(1, 7))
        x = rng.standard_normal((m, 3))
        k = int(rng.integers(1, 4))
        if k < 3:
            basis = np.linalg.qr(rng.standard_normal((3, 3)))[0][:, :k]
            x = x @ basis @ basis.T
        p = pinv(x)
        penrose_dev = _nanmax(
            penrose_dev,
            float(np.abs(x @ p @ x - x).max()),
            float(np.abs(p @ x @ p - p).max()),
            float(np.abs((x @ p) - (x @ p).T).max()),
            float(np.abs((p @ x) - (p @ x).T).max()),
        )

    vec_dev = 0.0
    for _ in range(sizes["vec"]):
        ma, mb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.standard_normal((ma, 3))
        x = rng.standard_normal((3, 3))
        b = rng.standard_normal((mb, 3))
        vec_dev = _nanmax(vec_dev, float(np.abs(
            (a @ x @ b.T).T.ravel() - np.kron(b, a) @ x.T.ravel()).max()))

    det_dev = 0.0
    for _, a, b, z in _stacks(_random_instances(rng, sizes["identity"])):
        frames = np.swapaxes(a, 1, 2) @ z @ b
        det_dev = _nanmax(det_dev, float(np.max(np.abs(
            det3_intrinsic(a, b, z) - np.linalg.det(frames)))))

    return [
        _result("svd-reconstruction", n_recon, recon_dev, 1e-11),
        _result("pseudoinverse-laws", sizes["pinv"], penrose_dev, 1e-8),
        _result("vectorization-identity", sizes["vec"], vec_dev, _TOL_EXACT),
        _result("intrinsic-determinant", sizes["identity"], det_dev, _TOL_EXACT),
    ]


def _signed_norms(x):
    """norm_minus and norm_plus of each matrix of a (k, 3, 3) stack, and its
    singular values, from one signed_svals call."""
    sv, sign = signed_svals(x)
    return _signed(sv.T, sign, -1.0), _signed(sv.T, sign, 1.0), sv


def _check_asymmetric_norms(rng, sizes):
    """Chain and duality of the signed singular value combinations.

    Both signed norms sit between the operator and trace norms; they order
    as norm_minus <= norm_plus only when det >= 0 (negating flips which is
    which, the mirror identity). Duality: sup Tr[X^T Y]/norm_minus(Y) =
    norm_plus(X), attained at the best rotation; and the hull of sampled
    rotations stays in the norm_minus unit ball.

    Every iteration's draws come first, in order; the norms, the sampled
    ratios, the maximizers and the hull mixtures then run on stacks. The
    worst iteration of each result is replayed through the public norms
    and maximizer, and their distance from the stacked values is folded
    into that result.
    """
    n = sizes["asym"]
    x, ys, qs, w = map(np.array, zip(*[
        (rng.standard_normal((3, 3)), rng.standard_normal((50, 3, 3)),
         random_rotation(rng, "SO3", 5), rng.dirichlet(np.ones(5))) for _ in range(n)]))
    (lo, hi, sv), (lo_neg, hi_neg, _) = _signed_norms(x), _signed_norms(-x)
    op, tn = sv[:, 0], sv[:, 0] + sv[:, 1] + sv[:, 2]
    chain = np.stack([op - lo, op - hi, lo - tn, hi - tn, np.abs(hi_neg - lo),
                      np.abs(lo_neg - hi),
                      np.where(np.linalg.det(x) >= 0.0, lo - hi, -np.inf)], axis=1)

    numer = np.einsum("nij,nkij->nk", x, ys)
    sampled = (numer / _signed_norms(ys.reshape(-1, 3, 3))[0].reshape(n, 50)).max(axis=1)
    _, q = max_trace_over_rotations(x, "SO3")
    attained = (x * q).reshape(n, 9).sum(axis=1) / _signed_norms(q)[0]
    dual = np.stack([sampled - hi, np.abs(attained - hi)], axis=1)

    mix = (w[:, None, :] @ qs.reshape(n, 5, 9)).reshape(n, 3, 3)
    hull = _signed_norms(mix)[0] - 1.0

    i = int(np.argmax(chain.max(axis=1)))
    chain_dev = _nanmax(0.0, *chain.ravel().tolist(), _replay_distance(
        [norm_minus(x[i]), norm_plus(x[i]), trace_norm(x[i]), op_norm(x[i]),
         norm_plus(-x[i]), norm_minus(-x[i])],
        [lo[i], hi[i], tn[i], op[i], hi_neg[i], lo_neg[i]]))
    i = int(np.argmax(dual.max(axis=1)))
    _, q_i = max_trace_over_rotations(x[i], "SO3")
    dual_dev = _nanmax(0.0, *dual.ravel().tolist(), _replay_distance(
        [float(np.sum(x[i] * q_i)) / norm_minus(q_i)], [attained[i]]))
    i = int(np.argmax(hull))
    hull_dev = _nanmax(0.0, *hull.tolist(),
                       _replay_distance([norm_minus(mix[i]) - 1.0], [hull[i]]))

    return [
        _result("asymmetric-norm-chain", n, chain_dev, _TOL_EXACT),
        _result("asymmetric-norm-duality", n * 50, dual_dev, _TOL_EIG),
        _result("rotation-hull-unit-ball", n * 5, hull_dev, _TOL_EXACT),
    ]


def _check_gram_equivalence(rng, sizes):
    """Supports depend on the settings only through their Gram matrices."""
    n = sizes["identity"]
    instances = _random_instances(rng, n)
    direct = np.array([[geometry.support(model, s, z) for model in geometry.MODELS]
                       for s, z in instances])
    gram = np.empty_like(direct)
    for idx, a, b, z in _stacks(instances):
        gram[idx] = oracles.gram_equivalent_support(a, b, z)
    devs = (np.abs(direct - gram) / np.maximum(1.0, np.abs(direct))).ravel()

    def replay(i):
        k, col = divmod(i, len(geometry.MODELS))
        s, z = instances[k]
        return dict(model=geometry.MODELS[col], a=s.a, b=s.b, z=z, direct=direct[k, col],
                    gram=gram[k, col])

    worst = _Worst()
    worst.offer_stack(devs, replay)
    return [worst.result("gram-equivalence", n, _TOL_EXACT)]


def _check_bell_spectrum(rng, sizes):
    """Operator eigenvalues equal the odd signed sums of the special SVD.

    The frames are formed per m and take one stacked special_svd; the
    operators come from bell_operator, once per instance.
    """
    n = sizes["identity"]
    signs = np.array([[1, 1, -1], [1, -1, 1], [-1, 1, 1], [-1, -1, -1]])
    instances = _random_instances(rng, n)
    frames = np.empty((n, 3, 3))
    for idx, a, b, z in _stacks(instances):
        frames[idx] = np.swapaxes(a, 1, 2) @ z @ b
    tilde = special_svd(frames).s
    predicted = np.sort(tilde @ signs.T, axis=1)
    actual = np.linalg.eigvalsh(np.array([twoqubit.bell_operator(s, z)
                                          for s, z in instances]))
    devs = (np.abs(predicted - actual).max(axis=1)
            / np.maximum(1.0, np.abs(tilde).max(axis=1)))
    worst = _Worst()
    worst.offer_stack(devs, lambda i: dict(a=instances[i][0].a, b=instances[i][0].b,
                                           z=instances[i][1], predicted=predicted[i],
                                           actual=actual[i]))
    return [worst.result("bell-operator-spectrum", n, _TOL_EXACT)]


def _check_witness_mc(rng, sizes):
    """Witnesses stay nonnegative on their protected class, and the
    constructed maximizers violate them at the full margin."""
    n_states = sizes["mc_states"]
    n_z = sizes["mc_z"]
    s = detect.pauli_settings()

    sep_states = np.stack([oracles.random_separable_state(rng) for _ in range(n_states)])
    qm_states = np.stack([oracles.random_quantum_state(rng) for _ in range(n_states)])

    worst = _Worst()
    for _ in range(n_z):
        z = rng.standard_normal((3, 3))
        for states, build, tag in ((sep_states, detect.entanglement_witness, "sep"),
                                   (qm_states, detect.bqs_witness, "qm")):
            w = build(s, z)
            values = np.einsum("kij,ji->k", states, w).real
            worst.offer(float(-values.min()), tag=tag, z=z, value=float(values.min()))

    # Margin at the constructed maximizers: 1 - radius on both witnesses.
    margin_dev = 0.0
    q = random_rotation(rng, "SO3_minus")
    z_star = geometry.optimizer_z(SEP, s, s.a @ q @ s.b.T)
    w_ent = detect.entanglement_witness(s, z_star)
    rho = twoqubit.max_entangled(q)
    margin_dev = _nanmax(margin_dev,
                         abs(float(np.trace(rho @ w_ent).real) - (1.0 - 3.0)))
    z_star = geometry.optimizer_z(QM, s, np.eye(3))
    w_bqs = detect.bqs_witness(s, z_star)
    margin_dev = _nanmax(margin_dev,
                         abs(float(np.trace(twoqubit.rho_max() @ w_bqs).real) - (1.0 - 3.0)))

    return [
        worst.result("witness-nonnegativity", n_states * n_z * 2, _TOL_EXACT),
        _result("witness-margin", 2, margin_dev, _TOL_EXACT),
    ]


def _check_radii(rng, sizes):
    """Containment radii from the aligned constructions, plus the sampled scan."""
    del sizes
    expected = {
        "pauli3": (3.0, 3.0),
        "chsh": (2.0, 1.0),
        "rank1": (1.0, 1.0),
    }
    scenarios = {
        "pauli3": detect.pauli_settings(),
        "chsh": detect.chsh_settings(),
        "rank1": MeasurementSettings(np.tile([0.0, 0.0, 1.0], (2, 1)),
                                     np.tile([1.0, 0.0, 0.0], (2, 1))),
    }
    worst = _Worst()
    for name, s in scenarios.items():
        for pair, want in zip((detect.QM_OVER_SEP, detect.MAX_OVER_QM), expected[name]):
            report = detect.containment_radius(s, pair)
            reached = geometry.gauge(report.pair[1], s, report.maximizer_c)
            worst.offer(_nanmax(abs(report.radius - want), abs(reached.value - want)),
                        scenario=name, pair=pair, radius=report.radius)

    # Alignment matters below full rank: an aligned reflection reaches 2,
    # a misaligned one stays strictly short of it.
    s2 = MeasurementSettings(
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    aligned = geometry.gauge(SEP, s2, s2.a @ np.diag([1.0, 1.0, -1.0]) @ s2.b.T)
    theta = 0.4
    rot = np.array([[1.0, 0.0, 0.0],
                    [0.0, np.cos(theta), -np.sin(theta)],
                    [0.0, np.sin(theta), np.cos(theta)]])
    tilted = rot @ np.diag([1.0, 1.0, -1.0])
    misaligned = geometry.gauge(SEP, s2, s2.a @ tilted @ s2.b.T)
    align_dev = abs(aligned.value - 2.0)
    align_ok = misaligned.value < 2.0 - 1e-3
    result = _result("radii-constructions", 8, _nanmax(worst.value, align_dev), 1e-8,
                     worst.detail)
    if not align_ok:
        result.passed = False
        result.detail = _serialize(misaligned=misaligned.value)
    return [result]


def _check_ratio_scan(rng, sizes):
    """Sampled radii approach the exact values from below."""
    cfg = OracleConfig(seed=int(rng.integers(2**31)), samples=sizes["scan"])
    s = detect.pauli_settings()
    worst = 0.0
    slack = 0.01 if sizes["scan"] >= 10_000 else 0.25
    for pair, want in ((detect.QM_OVER_SEP, 3.0), (detect.MAX_OVER_QM, 3.0)):
        got = oracles.ratio_scan(s, pair, cfg).value
        if got > want + 1e-9:
            worst = _nanmax(worst, got - want)
        else:
            worst = _nanmax(worst, want - got - slack, 0.0)
    return [_result("ratio-scan-approach", 2 * sizes["scan"], worst, 0.0)]


def _bisect_threshold(f, lo: float, hi: float, tol: float = 1e-7) -> float:
    """Root of a decreasing function of the noise fraction on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo <= 0.0:
        return lo
    if fhi > 0.0:
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_state_thresholds(rng, sizes):
    """Separability of the noisy singlet-type family flips at 2/3, and
    quantumness of the noisy beyond-quantum family flips at 2/3."""
    del rng, sizes

    def flip_point(flag):
        # The bisection wants a function that is positive below the flip.
        return _bisect_threshold(lambda p: -1.0 if flag(p) else 1.0, 0.0, 1.0)

    werner_flip = flip_point(
        lambda p: twoqubit.classify_state(twoqubit.werner_state(p)).is_separable)
    tau_flip = flip_point(
        lambda p: twoqubit.classify_state(twoqubit.tau_state(p)).is_quantum)
    worst = max(abs(werner_flip - 2.0 / 3.0), abs(tau_flip - 2.0 / 3.0))
    return [_result("state-class-thresholds", 2, worst, 1e-6)]


def _check_table1(rng, sizes):
    """Critical-noise table against its published values."""
    del rng, sizes
    rows = {row.method: (row.two_setting, row.three_setting)
            for row in detect.table1(detect.chsh_settings(), detect.pauli_settings())}
    chsh_p = 1.0 - 1.0 / np.sqrt(2.0)
    expected = {
        "ppt": (None, 2.0 / 3.0),
        "gauge": (0.5, 2.0 / 3.0),
        "chsh": (chsh_p, chsh_p),
        "i3322": (None, 0.2),
    }
    worst = 0.0
    for method, want in expected.items():
        for got_v, want_v in zip(rows[method], want):
            if want_v is None:
                if got_v is not None:
                    worst = _nanmax(worst, 1.0)
            else:
                worst = _nanmax(worst, abs(got_v - want_v))
    return [_result("table1-anchors", 8, worst, 1e-4)]


def _check_symmetry(rng, sizes):
    """Evenness of the separable and maximal gauges; the quantum gauge is
    genuinely asymmetric."""
    n = sizes["symmetry"]
    worst = 0.0
    for s, x in _random_instances(rng, n, tail=(3, 3)):
        c = _finite_c(s.a, s.b, x)
        for model in (SEP, MAX):
            plus = geometry.gauge(model, s, c)
            minus = geometry.gauge(model, s, -c)
            if plus.finite != minus.finite:
                worst = _nanmax(worst, 1.0)
            elif plus.finite:
                worst = _nanmax(worst, abs(plus.value - minus.value))
    s3 = detect.pauli_settings()
    lopsided = geometry.gauge(QM, s3, np.eye(3)).value
    mirrored = geometry.gauge(QM, s3, -np.eye(3)).value
    worst = _nanmax(worst, abs(lopsided - 3.0), abs(mirrored - 1.0))
    return [_result("gauge-symmetry", 2 * n + 2, worst, _TOL_EXACT)]


def _check_hull_membership(rng, sizes):
    """Frank-Wolfe membership agrees with the gauge verdict on both sides."""
    n = sizes["hull"]
    failures = 0.0
    count = 0
    bad = ""
    for model in geometry.MODELS:
        s = oracles.random_settings(rng, 3, 3)
        for _ in range(n):
            c = _finite_c(s.a, s.b, rng.standard_normal((3, 3)))
            g = geometry.gauge(model, s, c)
            if not g.finite or g.value <= 1e-9:
                continue
            inside = 0.85 * c / g.value
            outside = 1.1 * c / g.value
            count += 2
            if not oracles.hull_membership_oracle(model, s, inside):
                failures += 1.0
                bad = _serialize(model=model, a=s.a, b=s.b, c=inside, expect="inside")
            if oracles.hull_membership_oracle(model, s, outside):
                failures += 1.0
                bad = _serialize(model=model, a=s.a, b=s.b, c=outside, expect="outside")
        zero = np.zeros((3, 3))
        count += 1
        if not oracles.hull_membership_oracle(model, s, zero):
            failures += 1.0
            bad = _serialize(model=model, expect="zero inside")
    return [_result("hull-membership", count, failures, 0.0, bad)]


def _check_pullback(rng, sizes):
    """Support of the quantum body as a maximum over quantum states."""
    n = sizes["pullback"]
    s = oracles.random_settings(rng, 3, 3)
    z = rng.standard_normal((3, 3))
    phi = geometry.support(QM, s, z)
    op = twoqubit.bell_operator(s, z)
    states = np.stack([oracles.random_quantum_state(rng) for _ in range(n)])
    values = np.einsum("kij,ji->k", states, op).real
    # the top eigenvector's projector is itself a quantum state
    w, v = np.linalg.eigh(op)
    top = np.outer(v[:, -1], v[:, -1].conj())
    attained = float(np.trace(top @ op).real)
    overshoot = _nanmax(float(values.max()) - phi, attained - phi)
    gap = phi - attained
    return [_result("support-state-pullback", n + 1, _nanmax(overshoot, gap), _TOL_EXACT)]


def _check_rigidity(rng, sizes):
    """Orthogonal correlation blocks admit no local Bloch vectors.

    Nonzero local parts must break block positivity by at least the slice
    bound |r_A - Q r_B|; zero local parts sit exactly on the boundary. Every
    instance is drawn first; then one stacked descent runs on the local
    forms and one on the bare forms, which take one start fewer. The worst
    instance is replayed through block_positivity_minimum.
    """
    n = sizes["rigidity"]
    draws = []  # (local, q, ra, rb, slice bound, seed) per kept instance
    for i in range(n):
        q = random_rotation(rng, "O3")
        local = i % 2 == 0
        if local:
            ra = rng.standard_normal(3) * 0.2
            rb = rng.standard_normal(3) * 0.2
            slice_bound = float(np.linalg.norm(ra - q @ rb))
            if slice_bound < 1e-3:
                continue
        else:
            ra = rb = np.zeros(3)
            slice_bound = 0.0
        draws.append((local, q, ra, rb, slice_bound, int(rng.integers(2**31))))
    local, q, ra, rb, bound, seeds = map(np.array, zip(*draws))
    values = np.empty(len(draws))
    for kind in (local, ~local):
        values[kind] = twoqubit._block_positivity_stack(ra[kind], rb[kind], q[kind], 16,
                                                        seeds[kind].tolist())[0]
    # a local minimum must dip at least as low as the slice bound says; np.maximum
    # keeps a NaN, as _nanmax does
    devs = np.where(local, np.maximum(0.0, values + bound), np.abs(values))

    def replay(k):
        value, _, _ = twoqubit.block_positivity_minimum(
            twoqubit.PauliForm(1.0, ra[k], rb[k], q[k]), restarts=16, seed=int(seeds[k]))
        return dict(q=q[k], value=value, case="local" if local[k] else "bare")

    worst = _Worst()
    worst.offer_stack(devs, replay)
    return [worst.result("extremal-rigidity", n, 1e-7)]


def _check_noise_homogeneity(rng, sizes):
    """Gauges along both noise families scale as (1 - p) times the gauge at
    p = 0, and vanish at p = 1.

    White noise adds no correlations, so C(p) = (1 - p) C(0), and every gauge
    is positively homogeneous; `corrsets sweep` relies on both. This is the
    per-point route: one correlation matrix and one gauge at every p.
    """
    del sizes
    grid = np.linspace(0.0, 1.0, 6)
    worst = _Worst()
    count = 0
    for m, rank in _COMBOS:
        s = oracles.random_settings(rng, m, rank)
        for name, family in (("werner", twoqubit.werner_state),
                             ("tau", twoqubit.tau_state)):
            cs = [geometry.correlation_matrix(family(float(p)), s) for p in grid]
            for model in geometry.MODELS:
                g0 = geometry.gauge(model, s, cs[0])
                for p, c in zip(grid[1:], cs[1:]):
                    g = geometry.gauge(model, s, c)
                    # C(0) lies in the range of the settings map, so every
                    # gauge is finite; (1 - p) g0 is exactly 0 at p = 1.
                    if g.finite and g0.finite:
                        scaled = (1.0 - p) * g0.value
                        dev = abs(g.value - scaled) / max(1.0, scaled)
                    else:
                        scaled = dev = float("inf")
                    count += 1
                    worst.offer(dev, model=model, family=name, p=float(p), a=s.a, b=s.b,
                                per_point=g.value, scaled=scaled)
    return [worst.result("noise-sweep-homogeneity", count, _TOL_EXACT)]


def _check_scenario(s: MeasurementSettings, seed: int):
    """Spot-check the closed forms on one user-supplied scenario, each model
    against its own oracle band, as in _check_support_oracles."""
    rng = np.random.default_rng(seed)
    sep_dev = eig_dev = 0.0
    for _ in range(20):
        z = rng.standard_normal((s.m, s.m))
        sep_dev = _nanmax(sep_dev, abs(geometry.support(SEP, s, z)
                                       - oracles.support_sep_oracle(s, z)))
        eig_dev = _nanmax(eig_dev,
                          abs(geometry.support(QM, s, z) - oracles.support_qm_oracle(s, z)),
                          abs(geometry.support(MAX, s, z) - oracles.support_max_oracle(s, z)))
    passed = bool(sep_dev <= _TOL_SEP_ORACLE and eig_dev <= _TOL_EIG)
    return [CheckResult("scenario-spot-check", passed, 20, float(_nanmax(sep_dev, eig_dev)))]


_CHECKS = [
    _check_support_oracles,
    _check_duality,
    _check_dual_oracle,
    _check_m2_forms,
    _check_kernel_identities,
    _check_asymmetric_norms,
    _check_gram_equivalence,
    _check_bell_spectrum,
    _check_witness_mc,
    _check_radii,
    _check_ratio_scan,
    _check_state_thresholds,
    _check_table1,
    _check_symmetry,
    _check_hull_membership,
    _check_pullback,
    _check_rigidity,
    _check_noise_homogeneity,
]


def run_battery(level: str = "quick", seed: int = 0,
                scenario: MeasurementSettings | None = None) -> VerifyReport:
    """Run every check at the chosen level and collect a deterministic report."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    sizes = _SIZES[level]
    streams = np.random.SeedSequence(seed).spawn(len(_CHECKS))
    results = []
    for check, stream in zip(_CHECKS, streams):
        results.extend(check(np.random.default_rng(stream), sizes))
    if scenario is not None:
        results.extend(_check_scenario(scenario, seed))
    return VerifyReport(level=level, seed=seed, version=__version__, results=results)
