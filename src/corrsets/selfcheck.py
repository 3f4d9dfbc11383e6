"""Verification battery: every closed form against its independent route.

Each check draws fresh random instances, compares two ways of computing the
same quantity, and reports the worst deviation it saw. A failing check
serializes one offending instance as JSON so it can be replayed by hand. A
NaN deviation fails its check. The heavy checks draw their instances
stacked by (m, rank), bit-identical to one-by-one draws, and evaluate the
independent route on stacks grouped by m, while the production functions
they test run once per instance; the replay is the instance that offering
each deviation in turn would have picked. The support-oracle check runs
the separable oracle once per (m, rank) stack in the same way. Every
random settings size comes from _draw_size (m, then the rank), and the two
gauge-duality checks share one draw-and-skip loop.

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
from .smallmat import (norm_minus, norm_plus, op_norm, pinv, random_rotation, signed_svals,
                       trace_norm)

LEVELS = ("quick", "full")

# Sample counts per level. The quick column is sized for a seconds-scale
# smoke run, the full column for the real gate.
_SIZES = {
    "quick": dict(combo=25, dual=150, dual_oracle=6, identity=2000, recon=20_000,
                  m2=400, mc_states=400, mc_z=8, hull=2, scan=500, rigidity=120,
                  pullback=400),
    "full": dict(combo=1000, dual=1000, dual_oracle=25, identity=10_000, recon=100_000,
                 m2=10_000, mc_states=10_000, mc_z=100, hull=8, scan=10_000,
                 rigidity=1000, pullback=5000),
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


def _draw_size(rng, m_stop=6):
    """m in 2..m_stop - 1, then a rank up to min(3, m)."""
    m = int(rng.integers(2, m_stop))
    return m, int(rng.integers(1, min(3, m) + 1))


def _draw_settings(rng, m_stop=6):
    """Random settings of the size _draw_size picks."""
    return oracles.random_settings(rng, *_draw_size(rng, m_stop))


def _random_instance(rng):
    """One (settings, Z) draw: settings from _draw_settings, then a Gaussian Z."""
    s = _draw_settings(rng)
    return s, rng.standard_normal((s.m, s.m))


def _random_instances(rng, n):
    """n _random_instance draws: the same rng calls (a normal block per instance
    for both parties' first tries and Z), linear algebra once per (m, rank).
    A party that would draw again rewinds the rng to draw one by one."""
    state = rng.bit_generator.state
    groups, blocks = {}, []
    for i in range(n):
        m, rank = _draw_size(rng)
        groups.setdefault((m, rank), []).append(i)
        blocks.append(rng.standard_normal(2 * (9 + m * rank) + m * m))
    instances = [None] * n
    for (m, rank), idx in groups.items():
        g = np.stack([blocks[i] for i in idx])
        p = 9 + m * rank
        rows, ok = oracles._party_rows(g[:, :2 * p].reshape(-1, 2, p), m, rank)
        if not ok.all():
            rng.bit_generator.state = state
            return [_random_instance(rng) for _ in range(n)]
        for i, (a, b), z in zip(idx, rows, g[:, 2 * p:].reshape(-1, m, m)):
            instances[i] = (MeasurementSettings(a, b), z)
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


def _random_finite_c(rng, s):
    """Correlation-type matrix guaranteed compatible with the setting ranges."""
    c = s.a @ rng.standard_normal((3, 3)) @ s.b.T
    norm = np.linalg.norm(c)
    return c / norm if norm > 0 else c


def _finite_gauge_draws(rng, n, m_stop):
    """(model, settings, C, gauge) for n draws per model, in MODELS order,
    keeping only those whose gauge is finite and above 1e-12."""
    for model in geometry.MODELS:
        for _ in range(n):
            s = _draw_settings(rng, m_stop)
            c = _random_finite_c(rng, s)
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
    return np.array([[1.0, -np.exp(1j * theta)],
                     [-np.exp(-1j * theta), 1.0]]) / np.sin(theta) ** 2


def _f_4x4(alpha, beta):
    ca, cb = np.cos(alpha), np.cos(beta)
    f = np.array([
        [1.0, -ca, -cb, np.cos(alpha + beta)],
        [-ca, 1.0, np.cos(alpha - beta), -cb],
        [-cb, np.cos(alpha - beta), 1.0, -ca],
        [np.cos(alpha + beta), -cb, -ca, 1.0],
    ])
    return f / (np.sin(alpha) ** 2 * np.sin(beta) ** 2)


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
    """
    n = sizes["m2"]
    worst = _Worst()
    for i in range(n):
        near_degenerate = i % 8 == 7
        if near_degenerate:
            log_product = -6.0 if i % 16 == 15 else rng.uniform(-6.0, -2.5)
            sines = np.sqrt(10.0 ** log_product)
            alpha = np.arcsin(sines) if rng.integers(2) else np.pi - np.arcsin(sines)
            beta = np.arcsin(sines) if rng.integers(2) else np.pi - np.arcsin(sines)
        else:
            alpha = rng.uniform(0.05, np.pi - 0.05)
            beta = rng.uniform(0.05, np.pi - 0.05)
        s = geometry.planar_settings(alpha, beta, rng)
        z = rng.standard_normal((2, 2))
        c = _random_finite_c(rng, s)

        checks = []
        for model in (SEP, QM):
            general = geometry.support(model, s, z)
            closed = oracles.support_m2_closed_form(model, s, z)
            checks.append((general, closed, "support-" + model))
        g_sep = geometry.gauge(SEP, s, c)
        if g_sep.finite:
            checks.append((g_sep.value, oracles.gauge_m2_closed_form(SEP, s, c),
                           "gauge-sep"))
        g_qm = geometry.gauge(QM, s, c)
        if g_qm.finite:
            closed_qm = oracles.gauge_m2_closed_form(QM, s, c)
            checks.append((g_qm.value, closed_qm, "gauge-qm"))

        # vec-form route for the support: quadratic forms in vec(Z) with the
        # Kronecker matrices. Entries are O(1), fine at any angle.
        ga, gb = oracles._gram_2x2(np.cos(alpha)), oracles._gram_2x2(np.cos(beta))
        zv = z.T.ravel()
        kq = float(zv @ np.kron(gb, ga) @ zv)
        jq = complex(zv @ np.kron(oracles._skew_2x2(np.cos(beta), np.sin(beta)), ga) @ zv)
        checks.append((geometry.support(SEP, s, z),
                       np.sqrt((kq + abs(jq)) / 2.0), "support-sep-vec"))

        if not near_degenerate:
            # explicit matrix routes for the gauges
            ga_inv = np.linalg.inv(ga)
            gb_inv = np.linalg.inv(gb)
            sep_trace = float(np.trace(ga_inv @ c @ gb_inv @ c.T))
            sep_lit = np.sqrt(max(0.0, sep_trace
                                  + 2.0 * abs(float(np.linalg.det(c)))
                                  / (np.sin(alpha) * np.sin(beta))))
            checks.append((g_sep.value, sep_lit, "gauge-sep-literal"))
            la = _ell_2x2(alpha)
            t_plus = complex(np.trace(la @ c @ _ell_2x2(beta).T @ c.T)).real
            t_minus = complex(np.trace(la @ c @ _ell_2x2(-beta).T @ c.T)).real
            ell_val = 0.5 * (np.sqrt(max(0.0, t_plus)) + np.sqrt(max(0.0, t_minus)))
            checks.append((g_qm.value, ell_val, "gauge-qm-literal"))
            cv = c.T.ravel()
            fq = float(cv @ _f_4x4(alpha, beta) @ cv)
            fq_m = float(cv @ _f_4x4(alpha, -beta) @ cv)
            vec_val = 0.5 * (np.sqrt(max(fq, 0.0)) + np.sqrt(max(fq_m, 0.0)))
            checks.append((g_qm.value, vec_val, "gauge-qm-vec"))

        for general, closed, tag in checks:
            worst.offer(abs(general - closed) / max(1.0, abs(general)), tag=tag,
                        alpha=alpha, beta=beta, a=s.a, b=s.b, z=z, c=c,
                        general=general, closed=closed)
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

    n = sizes["identity"]
    n_pinv = max(1, n // 20)
    penrose_dev = 0.0
    for _ in range(n_pinv):
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
    for _ in range(max(1, n // 20)):
        ma, mb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = rng.standard_normal((ma, 3))
        x = rng.standard_normal((3, 3))
        b = rng.standard_normal((mb, 3))
        vec_dev = _nanmax(vec_dev, float(np.abs(
            (a @ x @ b.T).T.ravel() - np.kron(b, a) @ x.T.ravel()).max()))

    det_dev = 0.0
    for _, a, b, z in _stacks(_random_instances(rng, n)):
        frames = np.swapaxes(a, 1, 2) @ z @ b
        det_dev = _nanmax(det_dev, float(np.max(np.abs(
            det3_intrinsic(a, b, z) - np.linalg.det(frames)))))

    return [
        _result("svd-reconstruction", n_recon, recon_dev, 1e-11),
        _result("pseudoinverse-laws", n_pinv, penrose_dev, 1e-8),
        _result("vectorization-identity", max(1, n // 20), vec_dev, _TOL_EXACT),
        _result("intrinsic-determinant", n, det_dev, _TOL_EXACT),
    ]


def _check_asymmetric_norms(rng, sizes):
    """Chain and duality of the signed singular value combinations.

    Both signed norms sit between the operator and trace norms; they order
    as norm_minus <= norm_plus only when det >= 0 (negating flips which is
    which, the mirror identity). Duality: sup Tr[X^T Y]/norm_minus(Y) =
    norm_plus(X), attained at the best rotation; and the hull of sampled
    rotations stays in the norm_minus unit ball.
    """
    n = max(20, sizes["identity"] // 20)
    chain_dev = 0.0
    dual_dev = 0.0
    hull_dev = 0.0
    for _ in range(n):
        x = rng.standard_normal((3, 3))
        lo, hi, tn = norm_minus(x), norm_plus(x), trace_norm(x)
        op = op_norm(x)
        chain_dev = _nanmax(chain_dev, op - lo, op - hi, lo - tn, hi - tn,
                        abs(norm_plus(-x) - lo), abs(norm_minus(-x) - hi))
        if float(np.linalg.det(x)) >= 0.0:
            chain_dev = _nanmax(chain_dev, lo - hi)

        ys = rng.standard_normal((50, 3, 3))
        numer = np.einsum("ij,kij->k", x, ys)
        sv, sign = signed_svals(ys)
        sampled = float((numer / (sv[:, 0] + sv[:, 1] - sv[:, 2] * sign)).max())
        _, q = max_trace_over_rotations(x, "SO3")
        attained = float(np.sum(x * q)) / norm_minus(q)
        dual_dev = _nanmax(dual_dev, sampled - hi, abs(attained - hi))

        qs = np.stack([random_rotation(rng, "SO3") for _ in range(5)])
        mix = np.tensordot(rng.dirichlet(np.ones(5)), qs, axes=1)
        hull_dev = _nanmax(hull_dev, norm_minus(mix) - 1.0)

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
    """Operator eigenvalues equal the odd signed sums of the special SVD."""
    n = sizes["identity"]
    signs = np.array([[1, 1, -1], [1, -1, 1], [-1, 1, 1], [-1, -1, -1]])
    instances = _random_instances(rng, n)
    tilde = np.array([special_svd(s.a.T @ z @ s.b).s for s, z in instances])
    predicted = np.array([np.sort(signs @ t) for t in tilde])
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
    n = max(10, sizes["identity"] // 20)
    worst = 0.0
    for _ in range(n):
        s = _draw_settings(rng)
        c = _random_finite_c(rng, s)
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
    if abs(lopsided - 3.0) > 1e-9 or abs(mirrored - 1.0) > 1e-9:
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
            c = _random_finite_c(rng, s)
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
    bound |r_A - Q r_B|; zero local parts sit exactly on the boundary.
    """
    n = sizes["rigidity"]
    worst = _Worst()
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
        value, _, _ = twoqubit.block_positivity_minimum(
            twoqubit.PauliForm(1.0, ra, rb, q), restarts=16, seed=int(rng.integers(2**31)))
        # a local minimum must dip at least as low as the slice bound says
        dev = _nanmax(0.0, value + slice_bound) if local else abs(value)
        worst.offer(dev, q=q, value=value, case="local" if local else "bare")
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
    """Spot-check the closed forms on one user-supplied scenario."""
    rng = np.random.default_rng(seed)
    cfg = OracleConfig(seed=seed)
    worst = 0.0
    for _ in range(20):
        z = rng.standard_normal((s.m, s.m))
        worst = _nanmax(
            worst,
            abs(geometry.support(SEP, s, z) - oracles.support_sep_oracle(s, z, cfg)),
            abs(geometry.support(QM, s, z) - oracles.support_qm_oracle(s, z)),
            abs(geometry.support(MAX, s, z) - oracles.support_max_oracle(s, z)),
        )
    return [_result("scenario-spot-check", 20, worst, _TOL_SEP_ORACLE)]


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
